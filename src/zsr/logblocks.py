"""Block logarithms in floats, from one table of log2(k!), and the tolerance that makes them exact.

The binomial lemma grids (lemmas) and the summary certificate of the pair
scans (reciprocity) need only the sign of comparisons between blocks
C((m+n)/d, m/d), d >= 2.  Both read each block's logarithm from the tables
of _log_tables and trust a float margin only above _tolerance, whose
docstring proves the one error bound that covers both.
"""

from __future__ import annotations

from itertools import accumulate
from math import log2

# Tolerance of the float margins per unit of (m + n) * log2(m + n) (see
# _tolerance).
_FILTER_TOLERANCE = 2.0 ** -30


def _log_tables(top: int) -> tuple[list[float], list[float], list[float]]:
    """The tables (lf, lg, tau) that float margins read for m, n <= top.

    lf[k] is log2(k!) for k <= top, the float sum of log2(i) for i <= k; it
    covers every (m+n)/d, as d >= 2.  lg[k] = log2(k) and tau[k] =
    _tolerance(k) for 2 <= k <= 2 * top cover every m + n.
    """
    lg = [0.0, *map(log2, range(1, 2 * top + 1))]
    tau = [0.0, 0.0, *map(_tolerance, range(2, 2 * top + 1))]
    return list(accumulate(lg[1:top + 1], initial=0.0)), lg, tau


def _tolerance(total: int) -> float:
    """The tolerance tau = 2^-30 * (m + n) * log2(m + n) of a float margin, from total = m + n.

    A margin is a comparison of positive integers, lhs > rhs (or lhs >= rhs),
    in bits: log2 lhs - log2 rhs, formed in floats from two block
    logarithms, each lf[(m+n)/d] - lf[m/d] - lf[n/d] (_log_tables), and from
    integer multiples of log2 of integers.  For m, n below 4096, as at the
    ceilings of the lemma grids and of the pair scans, a float margin above
    tau proves the true margin positive, so the comparison holds.  The
    binomial strips of lemmas and the chain certificate of
    reciprocity._certified (lhs a block, rhs m times the next block) use
    this one rule.

    Error bound.  Let u = 2^-53 and W = (m + n) * log2(m + n).

    - The table.  lf[k] is formed as lf[k-1] + log2(k).  math.log2 of an int
      is within one ulp, at most 2u * log2(k), and each sum rounds by at most
      u * lf[k], so by induction lf[k] is within (k + 3) * u * lf[k] <=
      k * 2^-52 * lf[k] of log2(k!) for k >= 3 (lf[k] is exact for k <= 2).
    - A block logarithm, of d >= 2, is lf[t] - lf[x] - lf[y] with t = x + y
      = (m + n)/d <= (m + n)/2 and lf[x] + lf[y] <= lf[t] <= t * log2(t).
      Its three entries are within 2^-52 * t * 2 lf[t] and its two
      subtractions round by at most u * lf[t] each, so it is within
      2^-51 * (t + 1) * lf[t] <= 2^-39 * t * log2(t) < 2^-40 * W of the
      truth, as t + 1 <= max(m, n) + 1 < 2^12.  This step needs the ceilings
      lemmas.LEMMA21_GRID_MAX, lemmas.LEMMA22_GRID_MAX and
      reciprocity.SCAN_MAX_ORDER below 4096 (pinned by a test); a higher
      ceiling needs this bound, and tau, worked out again.
    - Any other term.  math.log2 of an int x rounds x to 53 bits and takes
      the platform log2, within one ulp, so it is within
      2^-50 * (log2 x + 1).  Each margin has at most four such logarithms,
      of integers below (m + n)^5, with coefficients at most (m + n)/2 (en
      and em of Lemma 2.1i), so together they are within 2^-46 * W.  Each
      of its at most ten float products, differences and sums rounds by at
      most u times a value below 3W (for a difference of logarithms, once
      multiplied by its coefficient), so together by less than
      30u * W < 2^-48 * W.

    The float margin is therefore within 2^-39 * W + 2^-46 * W + 2^-48 * W <
    2^-38 * W of the true one.  tau exceeds that 256-fold, which also covers
    the rounding of tau itself, so a float margin above tau leaves a true
    margin above 0.
    """
    return _FILTER_TOLERANCE * total * log2(total)
