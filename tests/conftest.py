"""Fixtures shared by the test modules."""

from math import log2

import pytest

from zsr import lemmas
from zsr.exactmath import binomial


@pytest.fixture
def doctor_blocks(monkeypatch):
    """Hand the binomial grids doctored blocks: doctor({(m, n, d): block, ...}).

    A grid reads a block C((m+n)/d, m/d) twice: its logarithm from
    _block_logs, for the float filter, and the block itself from _block, for
    the exact comparison of an instance the filter passes on.  Both are
    doctored, so a doctored block reaches both.  The logarithm of a block is
    also that of its mirror (n, m, d), as the Lemma 2.1 grids read one row of
    logarithms for both mirror rows; the block itself is doctored for the
    row (m, n) alone, so the exact comparisons of the mirror row see the
    true blocks.  Each call replaces the blocks doctored before.  Reports
    come from fresh binomials, as for a real failure.
    """
    block_logs, block = lemmas._block_logs, lemmas._block
    doctored = {}

    def doctored_logs(lf, m, n, divs):
        logs = block_logs(lf, m, n, divs)
        for i, d in enumerate(divs):
            for key in ((m, n, d), (n, m, d)):
                if key in doctored:
                    logs[i] = log2(doctored[key])
        return logs

    def doctored_block(m, n, d):
        return doctored[m, n, d] if (m, n, d) in doctored else block(m, n, d)

    def doctor(blocks):
        doctored.clear()
        doctored.update(blocks)

    monkeypatch.setattr(lemmas, "_block_logs", doctored_logs)
    monkeypatch.setattr(lemmas, "_block", doctored_block)
    return doctor


@pytest.fixture
def plant_lemma21_failures(doctor_blocks):
    """Doctor the blocks of Lemma 2.1 so that each given (m, n, a, b) fails.

    The row (m, n) gets block_b equal to block_a (through doctor_blocks).
    That tie fails the strict consequence block_a > block_b, so the float
    filter of variant i passes the instance on and the integer comparison
    rejects it; variant ii rejects it too.  The mirror row (n, m) reads the
    same logarithms but keeps the true blocks, so its filter may pass the
    pair on too, and the integer comparison then finds that it holds.
    lemma21_grid decides variant ii only for the rows with n <= m, and a
    failure there is reported at both mirror rows.  The grid then reports
    each failure from fresh binomials, as for a real one.
    """
    def plant(planted):
        doctor_blocks({(m, n, b): binomial((m + n) // a, m // a) for m, n, a, b in planted})

    return plant
