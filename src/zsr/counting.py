"""Exact counts of zero-sum multisets: divisor-sum formula and two oracles.

A zero-sum multiset of length m over a finite group G is a multiset of m
elements whose (commuting) sum is the identity.  count_formula computes the
number of these from the order spectrum alone; count_dp re-counts them by
dynamic programming over the actual elements, and count_molien extracts the
same number as a power-series coefficient.  The three routes share no code
beyond binomial(), which is what makes cross-checking them meaningful.
"""

from __future__ import annotations

from itertools import product as cartesian
from math import gcd

from .errors import BudgetError
from .exactmath import binomial
from .groups import AbelianGroup, OrderSpectrum

DEFAULT_DP_MAX_ORDER = 36
DEFAULT_DP_MAX_LENGTH = 36
DEFAULT_MOLIEN_MAX_ORDER = 64
DEFAULT_MOLIEN_MAX_LENGTH = 128
# The formula routes refuse n + m past this ceiling (BudgetError) before any
# binomial: C(n+m, n) has about n + m bits, and check C100000 C100000 took 2.5 s.
FORMULA_MAX_TOTAL = 200_000


def count_formula(spectrum: OrderSpectrum, m: int) -> int:
    """Number of zero-sum multisets of length m, from the order spectrum.

    Sums spectrum[d] * C((n+m)/d, n/d) over the divisors d of gcd(n, m) and
    divides by n + m; the division is exact for a genuine spectrum, and a
    ValueError for an inexact one means the spectrum is inconsistent.  The
    divisors of n are the spectrum's keys, so those of gcd(n, m) are the keys
    that divide m.  It refuses n + m above FORMULA_MAX_TOTAL.
    """
    if m < 0:
        raise ValueError(f"multiset length must be nonnegative, got {m}")
    n = spectrum.group_order
    if n + m > FORMULA_MAX_TOTAL:
        raise BudgetError(f"count_formula is limited to order + length <= {FORMULA_MAX_TOTAL}, "
                          f"got order {n} + length {m}")
    total = 0
    for d, count in spectrum.entries.items():
        if m % d == 0:
            total += count * binomial((n + m) // d, n // d)
    if total % (n + m):
        raise ValueError(f"divisor sum {total} not divisible by {n + m}: inconsistent spectrum")
    return total // (n + m)


def count_dp(group: AbelianGroup, m: int) -> int:
    """Count zero-sum multisets by dynamic programming over the group elements.

    Standard multiset-knapsack recurrence: admit one element at a time and
    track (multiset size, running sum).  Exact but exponential in spirit, so
    it refuses orders above DEFAULT_DP_MAX_ORDER and lengths above
    DEFAULT_DP_MAX_LENGTH.  A non-abelian descriptor raises ValueError.
    """
    if not isinstance(group, AbelianGroup):
        raise ValueError("the dp oracle enumerates elements of abelian groups only")
    if m < 0:
        raise ValueError(f"multiset length must be nonnegative, got {m}")
    n = group.order
    if n > DEFAULT_DP_MAX_ORDER or m > DEFAULT_DP_MAX_LENGTH:
        raise BudgetError(
            f"dp oracle budget is order <= {DEFAULT_DP_MAX_ORDER} and length <= "
            f"{DEFAULT_DP_MAX_LENGTH}, got order {n}, length {m}"
        )
    facs = group.invariant_factors
    elements = list(cartesian(*(range(f) for f in facs)))
    index = {e: i for i, e in enumerate(elements)}
    identity = index[tuple(0 for _ in facs)]
    # shifted[s] for element e is the index of s - e, so that the inner loop
    # below is pure table lookups.
    dp = [[0] * len(elements) for _ in range(m + 1)]
    dp[0][identity] = 1
    for e in elements:
        shifted = [index[tuple((sv - ev) % f for sv, ev, f in zip(s, e, facs))] for s in elements]
        for k in range(1, m + 1):
            prev = dp[k - 1]
            cur = dp[k]
            for si, pi in enumerate(shifted):
                cur[si] += prev[pi]
    return dp[m][identity]


def count_molien(spectrum: OrderSpectrum, m: int) -> int:
    """Count zero-sum multisets as a coefficient of an averaged power series.

    Each element of order d contributes the series (1 - t^d)^(-n/d); averaging
    the n contributions and reading off the t^m coefficient counts invariant
    monomials of degree m, which biject with zero-sum multisets.  The series
    is expanded exactly (negative binomial identity) in a dense coefficient
    array truncated at degree m.  It refuses orders above DEFAULT_MOLIEN_MAX_ORDER
    and degrees above DEFAULT_MOLIEN_MAX_LENGTH.
    """
    if m < 0:
        raise ValueError(f"series degree must be nonnegative, got {m}")
    n = spectrum.group_order
    if n > DEFAULT_MOLIEN_MAX_ORDER or m > DEFAULT_MOLIEN_MAX_LENGTH:
        raise BudgetError(
            f"series oracle budget is order <= {DEFAULT_MOLIEN_MAX_ORDER} and degree <= "
            f"{DEFAULT_MOLIEN_MAX_LENGTH}, got order {n}, degree {m}"
        )
    coeffs = [0] * (m + 1)
    for d, phi in spectrum.entries.items():
        if phi == 0:
            continue
        c = n // d
        for i in range(m // d + 1):
            coeffs[d * i] += phi * binomial(c - 1 + i, i)
    if coeffs[m] % n:
        raise ValueError(f"coefficient {coeffs[m]} not divisible by group order {n}")
    return coeffs[m] // n


def rational_catalan(n: int, m: int) -> int:
    """C(n+m, n) / (n+m) for coprime n, m (the coprime collapse of count_formula).

    It refuses n + m above FORMULA_MAX_TOTAL.
    """
    if n < 1 or m < 1:
        raise ValueError(f"rational_catalan requires positive arguments, got ({n}, {m})")
    if gcd(n, m) != 1:
        raise ValueError(f"rational_catalan requires coprime arguments, gcd({n}, {m}) = {gcd(n, m)}")
    if n + m > FORMULA_MAX_TOTAL:
        raise BudgetError(f"rational_catalan is limited to n + m <= {FORMULA_MAX_TOTAL}, "
                          f"got n = {n}, m = {m}")
    top = binomial(n + m, n)
    if top % (n + m):
        raise ValueError(f"C({n + m}, {n}) = {top} not divisible by {n + m}")
    return top // (n + m)
