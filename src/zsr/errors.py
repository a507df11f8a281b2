"""Error types shared across the package."""

from __future__ import annotations


class GroupParseError(ValueError):
    """Group notation rejected. ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class BudgetError(ValueError):
    """An input past a documented ceiling (an oracle's, a grid's, a scan's, factorize's) was refused."""
