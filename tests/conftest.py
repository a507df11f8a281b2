"""Fixtures shared by the test modules."""

import pytest

from zsr import lemmas


@pytest.fixture
def plant_lemma21_failures(monkeypatch):
    """Doctor the row deciders of Lemma 2.1 so that each given (m, n, a, b) fails.

    The blocks handed to a row decider for the row (m, n) get block_b equal to
    block_a, in a copy, so the mirror row (n, m) keeps the true blocks.  That
    tie fails the strict consequence block_a > block_b, so the float filter of
    variant i passes the instance on and the integer comparison rejects it;
    variant ii rejects it too.  lemma21_grid decides variant ii only for the
    rows with n <= m, and a failure there is reported at both mirror rows.
    The grid then reports each failure from fresh binomials, as for a real one.
    """
    def plant(planted):
        def doctor(decide):
            def doctored(m, n, divs, blocks):
                blocks = list(blocks)
                for row_m, row_n, a, b in planted:
                    if (m, n) == (row_m, row_n):
                        blocks[divs.index(b)] = blocks[divs.index(a)]
                return decide(m, n, divs, blocks)
            return doctored

        for name in ("_lemma21i_failures", "_lemma21ii_failures"):
            monkeypatch.setattr(lemmas, name, doctor(getattr(lemmas, name)))

    return plant
