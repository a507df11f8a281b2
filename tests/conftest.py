"""Fixtures shared by the test modules."""

import pytest

from zsr import lemmas


@pytest.fixture
def plant_lemma21_failures(monkeypatch):
    """Doctor lemmas.block_table so that each given (m, n, a, b) fails Lemma 2.1.

    The row of (m, n) gets block_b equal to block_a.  That tie fails the strict
    consequence block_a > block_b, so the float filter of variant i passes the
    instance on and the integer comparison rejects it; variant ii rejects it
    too.  The grid then reports it from fresh binomials, as for a real failure.
    """
    def plant(planted):
        table = lemmas.block_table

        def doctored(m, n, divs, last):
            blocks = table(m, n, divs, last)
            for row_m, row_n, a, b in planted:
                if (m, n) == (row_m, row_n):
                    blocks[divs.index(b)] = blocks[divs.index(a)]
            return blocks

        monkeypatch.setattr(lemmas, "block_table", doctored)

    return plant
