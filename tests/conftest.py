"""Fixtures shared by the test modules."""

import pytest
from doctoring import doctored_grid_parts

from zsr import lemmas
from zsr.exactmath import binomial


@pytest.fixture
def doctor_blocks(monkeypatch):
    """Hand the binomial grids doctored blocks: doctor({(m, n, d): block, ...}).

    A doctored block reaches both the float filter of its instance, as a
    logarithm, and its exact comparison, as itself (see
    doctoring.doctored_grid_parts); the mirror instance (n, m) keeps its
    true blocks.  Each call replaces the blocks doctored before.  Reports
    come from fresh binomials, as for a real failure.
    """
    doctored = {}
    for name, part in doctored_grid_parts(doctored):
        monkeypatch.setattr(lemmas, name, part)

    def doctor(blocks):
        doctored.clear()
        doctored.update(blocks)

    return doctor


@pytest.fixture
def plant_lemma21_failures(doctor_blocks):
    """Doctor the blocks of Lemma 2.1 so that each given (m, n, a, b) fails.

    The instance (m, n) gets block_b equal to block_a (through
    doctor_blocks).  That tie fails the strict consequence block_a >
    block_b, so the float filter of variant i passes the instance on and
    the integer comparison rejects it; variant ii rejects it too.  The
    mirror instance (n, m) keeps its true blocks and holds.  The grid then
    reports each failure from fresh binomials, as for a real one.
    """
    def plant(planted):
        doctor_blocks({(m, n, b): binomial((m + n) // a, m // a) for m, n, a, b in planted})

    return plant
