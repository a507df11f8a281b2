"""Inequality and structure checks used to support the reciprocity theorem.

Two families of checks live here.  The binomial checks (ids L21*, L22*)
compare blocks of the counting formula, C((m+n)/d, m/d) for divisors d of
gcd(m, n), against explicit lower bounds.  The structure checks (L23, L24,
L25) constrain where two order spectra can first disagree.  Every check is
a decidable statement about concrete integers, and every verdict is exact.

The grids list the divisors of each gcd(m, n) from one divisor sieve and,
for each m, visit only the n that carry an instance.  The binomial grids
need only the sign of each comparison: they read each block as its
logarithm from one table of log2(k!) (_block_logs) and certify in floats
every instance whose margin clears a proven tolerance (_tolerance).  Every
other instance (ties, near-ties and apparent failures) is decided in
integers, on exact blocks (_block), by the comparison check_lemma21 and
check_lemma22 take their verdicts from, so a failure is always found and
decided exactly.  The structure checks of any two spectra read the facts of
their pair of orders from _order_pair and decide into compact check tuples.
A LemmaInstance, with its exact Fraction values from fresh binomials, is
built only for an instance that fails, and fractions is imported only then.

Each grid refuses a bound above its ceiling (LEMMA21_GRID_MAX,
LEMMA22_GRID_MAX, STRUCTURE_GRID_MAX; GRID_CEILINGS by grid id) with
BudgetError before any work.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from math import gcd, log2

from .errors import BudgetError
from .exactmath import binomial, divisors, factorize, prime_power_root, valuation
from .groups import GroupDescriptor, enumerate_abelian, order_spectrum
from .value import Value, set_field

# Grid ceilings: the largest m, n bound of lemma21_grid and lemma22_grid, and
# the largest order bound of structure_grid.  At its ceiling each grid took
# at most about 6 s on a 2-core Xeon host (Python 3.11), so twice that on a
# slow day.
LEMMA21_GRID_MAX = 3000
LEMMA22_GRID_MAX = 3000
STRUCTURE_GRID_MAX = 1024
# Each grid's ceiling by the id its GridResult carries.
GRID_CEILINGS = {"2.1i": LEMMA21_GRID_MAX, "2.1ii": LEMMA21_GRID_MAX, "2.2i": LEMMA22_GRID_MAX,
                 "2.2ii": LEMMA22_GRID_MAX, "struct": STRUCTURE_GRID_MAX}

# Tolerance of the float filters per unit of (m + n) * log2(m + n) (see
# _tolerance).
_FILTER_TOLERANCE = 2.0 ** -30


class LemmaInstance(Value):
    """One evaluated check: its id, inputs, verdict, and the compared values.

    holds is the verdict of the one comparison lhs/rhs record.  A Lemma 2.2
    instance with D >= 1 records its ratio bound only, because with positive
    blocks that bound implies the consequence inequality (see check_lemma22).
    """

    __slots__ = ("lemma_id", "parameters", "holds", "lhs", "rhs")

    def __init__(self, lemma_id: str, parameters: dict[str, int], holds: bool,
                 lhs: int | Fraction, rhs: int | Fraction):
        set_field(self, "lemma_id", lemma_id)
        set_field(self, "parameters", parameters)
        set_field(self, "holds", holds)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class GridResult(Value):
    """Outcome of an exhaustive parameter sweep of one check."""

    __slots__ = ("lemma", "checked", "failures")

    def __init__(self, lemma: str, checked: int, failures: list[LemmaInstance]):
        set_field(self, "lemma", lemma)
        set_field(self, "checked", checked)
        set_field(self, "failures", failures)


def _block(m: int, n: int, d: int) -> int:
    """The binomial block C((m+n)/d, m/d), as the grids' exact comparisons read it.

    check_lemma21 and check_lemma22 build their reports from fresh binomials
    instead, so a report does not depend on the blocks a grid was given.
    """
    return binomial((m + n) // d, m // d)


def check_lemma21(m: int, n: int, a: int, b: int, variant: str) -> LemmaInstance:
    """Binomial block comparison for two divisors a < b of gcd(m, n).

    Variant "i" (any b > a) bounds the ratio block_a / block_b from below by
    (1 + m/n)^(n/a - n/b) * (1 + a*n/(b*m))^(m/a - m/b) and also asserts the
    strict consequence block_a > block_b.  Variant "ii" (b >= 2a) asserts
    a * block_a > max(m, n) * block_b.
    """
    from fractions import Fraction

    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    for name, value in (("m", m), ("n", n), ("a", a), ("b", b)):
        if value < 2:
            raise ValueError(f"{name} must be >= 2, got {value}")
    shared = gcd(m, n)
    if shared % a or shared % b:
        raise ValueError(f"a and b must divide gcd(m, n) = {shared}, got a = {a}, b = {b}")
    if variant == "i" and b <= a:
        raise ValueError(f"variant i requires b > a, got a = {a}, b = {b}")
    if variant == "ii" and b < 2 * a:
        raise ValueError(f"variant ii requires b >= 2a, got a = {a}, b = {b}")
    block_a = binomial((m + n) // a, m // a)
    block_b = binomial((m + n) // b, m // b)
    params = {"m": m, "n": n, "a": a, "b": b}
    if variant == "ii":
        return LemmaInstance("L21ii", params, _lemma21ii_holds(m, n, a, b, block_a, block_b),
                             a * block_a, max(m, n) * block_b)
    exp_n = n // a - n // b
    exp_m = m // a - m // b
    rhs = Fraction(n + m, n) ** exp_n * Fraction(b * m + a * n, b * m) ** exp_m
    return LemmaInstance("L21i", params, _lemma21_holds(m, n, a, b, block_a, block_b),
                         Fraction(block_a, block_b), rhs)


def _lemma21_holds(m: int, n: int, a: int, b: int, block_a: int, block_b: int) -> bool:
    """The verdict of variant i of check_lemma21 from the blocks of a and b, in integers only.

    It multiplies block_a / block_b >= rhs by the positive
    block_b * n^en * (b*m)^em, where en = n/a - n/b and em = m/a - m/b.
    """
    exp_n = n // a - n // b
    exp_m = m // a - m // b
    return block_a > block_b and (block_a * n ** exp_n * (b * m) ** exp_m
                                  >= block_b * (n + m) ** exp_n * (b * m + a * n) ** exp_m)


def _lemma21ii_holds(m: int, n: int, a: int, b: int, block_a: int, block_b: int) -> bool:
    """The verdict of variant ii of check_lemma21 from the blocks of a and b, in integers only."""
    return a * block_a > max(m, n) * block_b


def delta(m: int, n: int, a: int, b: int, p: int, q: int) -> Fraction:
    """The scale factor p^(alpha+gamma-2s-1) * q^(beta-t) * m' * n'.

    Here a = p^s, b = q^t for distinct primes p, q; alpha/beta are the p/q
    valuations of n, gamma/delta those of m, and n', m' are the parts of
    n, m coprime to pq.  Exponents may be negative, so the result is an
    exact ratio that can fall below 1.  As m * n = p^(alpha+gamma) *
    q^(beta+delta) * m' * n', it is m * n / (p^(2s+1) * q^(t+delta)).
    """
    from fractions import Fraction

    s = _prime_power_exponent(a, p, "a")
    t = _prime_power_exponent(b, q, "b")
    if p == q:
        raise ValueError(f"p and q must be distinct primes, got p = q = {p}")
    if n < 1 or m < 1:
        raise ValueError(f"m and n must be positive, got m = {m}, n = {n}")
    return Fraction(m * n, p ** (2 * s + 1) * q ** (t + valuation(m, q)))


def _prime_power_exponent(value: int, prime: int, name: str) -> int:
    root = prime_power_root(value)
    if root is None or root[0] != prime:
        raise ValueError(f"{name} = {value} is not a power of the prime {prime}")
    return root[1]


def check_lemma22(m: int, n: int, a: int, b: int, p: int, q: int, variant: str) -> LemmaInstance:
    """Scaled block comparison for prime powers a = p^s, b = q^t with b < 2a.

    With D = delta(m, n, a, b, p, q) and d the q-valuation of m, variant "i"
    (n/a - n/b >= 3) asserts a * block_a / block_b > 2 * D * q^d; for
    {a, b} = {2, 3} it asserts instead the consequence a * block_a -
    (q^d - q^t) * block_b > 2 * b * block_b.  Variant "ii" (n/a - n/b = 2,
    {a, b} != {2, 3}) asserts the ratio bound without the factor 2.  The
    consequence is not tested when D >= 1, because the ratio bound implies it
    there: divide it by the positive block_b, and with f the factor and
    d >= t, f * D * q^d >= f * q^d >= f * q^t + q^d - q^t.
    """
    from fractions import Fraction

    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    s = _prime_power_exponent(a, p, "a")
    t = _prime_power_exponent(b, q, "b")
    if p == q:
        raise ValueError(f"p and q must be distinct primes, got p = q = {p}")
    if b >= 2 * a:
        raise ValueError(f"requires b < 2a, got a = {a}, b = {b}")
    shared = gcd(m, n)
    if shared % a or shared % b:
        raise ValueError(f"a and b must divide gcd(m, n) = {shared}, got a = {a}, b = {b}")
    spread = n // a - n // b
    special = {a, b} == {2, 3}
    if variant == "i":
        if spread < 3:
            raise ValueError(f"variant i requires n/a - n/b >= 3, got {spread}")
    else:
        if special:
            raise ValueError("variant ii excludes {a, b} = {2, 3}")
        if spread != 2:
            raise ValueError(f"variant ii requires n/a - n/b = 2, got {spread}")
    alpha, beta, gamma, delta_q = valuation(n, p), valuation(n, q), valuation(m, p), valuation(m, q)
    params = {
        "m": m, "n": n, "a": a, "b": b, "p": p, "q": q, "s": s, "t": t,
        "alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta_q,
    }
    lemma_id = "L22i" if variant == "i" else "L22ii"
    factor = 2 if variant == "i" else 1
    block_a = binomial((m + n) // a, m // a)
    block_b = binomial((m + n) // b, m // b)
    holds = _lemma22_holds(m, n, a, b, p, q, block_a, block_b, variant)
    if special:
        # The {2, 3} case asserts only the consequence inequality, with no
        # scale condition on D.
        lhs = a * block_a - (q ** delta_q - b) * block_b
        return LemmaInstance(lemma_id, params, holds, lhs, factor * b * block_b)
    return LemmaInstance(lemma_id, params, holds, Fraction(a * block_a, block_b),
                         Fraction(factor * m * n, p * a * a * b))


def _lemma22_holds(m: int, n: int, a: int, b: int, p: int, q: int, block_a: int, block_b: int,
                   variant: str) -> bool:
    """The verdict of check_lemma22 on an admissible tuple from the blocks of a and b.

    With n = p^alpha q^beta n' and m = p^gamma q^d m', the right side of the
    ratio bound is f * D * q^d = f * m * n / (p^(2s+1) * q^t) = f * m * n /
    (p * a^2 * b): its exponents of p and q move to the left side, and the
    bound multiplied by the positive p * a^2 * b * block_b is
    p * a^3 * b * block_a > f * m * n * block_b.
    """
    factor = 2 if variant == "i" else 1
    if {a, b} == {2, 3}:
        return a * block_a - (q ** valuation(m, q) - b) * block_b > factor * b * block_b
    return p * a ** 3 * b * block_a > factor * m * n * block_b


def check_structure_lemmas(g: GroupDescriptor, h: GroupDescriptor) -> list[LemmaInstance]:
    """Constraints on the first disagreements between two order spectra.

    Emits, where applicable: L23 (the smallest shared divisor where either
    spectrum exceeds the other is a prime power, one instance per side),
    L24 (at the first disagreeing power of a prime q, the side with more
    elements has order divisible by q^(t+1) and the count difference lies
    between q^t and q^delta - q^t), and L25 (when the disagreement sign
    flips between q^s and q^(s+1) with s >= 2 and q^(s+1) dividing both
    orders, both orders carry q-valuation at least s + 2).  g and h may be
    any group descriptors: the checks read only their spectra.
    """
    return _structure_instances(order_spectrum(g), order_spectrum(h))


def _structure_instances(sg, sh) -> list[LemmaInstance]:
    n = sg.group_order
    m = sh.group_order
    pair = _order_pair(n, m, {})
    return [_structure_instance(n, m, check) for check in _structure_checks(sg, sh, pair)]


# The kind of a structure check: its lemma id and the names of its
# parameters after n and m.
_L23_G = ("L23", "min_EG")
_L23_H = ("L23", "min_EH")
_L24 = ("L24", "q", "t", "delta", "phi_g", "phi_h")
_L25 = ("L25", "p", "s", "alpha", "gamma")


def _structure_instance(n: int, m: int, check: tuple) -> LemmaInstance:
    """The LemmaInstance of one check of _structure_checks for orders n and m."""
    (lemma_id, *names), holds, lhs, rhs, values = check
    return LemmaInstance(lemma_id, dict(zip(("n", "m", *names), (n, m, *values))), holds, lhs, rhs)


def _order_pair(n: int, m: int, by_gcd: dict) -> tuple:
    """The facts of the orders n and m that _structure_checks reads.

    They are the divisors >= 2 of gcd(n, m) in increasing order, a dict from
    each of them to the largest prime power dividing it, and for each prime
    p of gcd(n, m), in increasing order, (p, [p, p^2, ..., p^e], alpha,
    gamma), where p^e exactly divides gcd(n, m) and alpha and gamma are the
    p-valuations of n and m.  The facts of gcd(n, m) come from its
    factorization and divisors once per gcd; by_gcd, which the caller owns,
    keeps them by gcd.
    """
    common = gcd(n, m)
    facts = by_gcd.get(common)
    if facts is None:
        powers = [(p, [p ** k for k in range(1, e + 1)]) for p, e in factorize(common)]
        shared = divisors(common)[1:]
        top_power = {d: max(q for _, qs in powers for q in qs if d % q == 0) for d in shared}
        facts = by_gcd[common] = shared, top_power, powers
    shared, top_power, powers = facts
    return shared, top_power, [(p, qs, valuation(n, p), valuation(m, p)) for p, qs in powers]


def _structure_checks(sg, sh, pair: tuple) -> list[tuple]:
    """The structure checks of two spectra, as (kind, holds, lhs, rhs, values) tuples.

    values are the check's parameters after n and m, in the order its kind
    names them.  A check is what check_structure_lemmas reports as one
    instance, in the same order.  pair is _order_pair of the two orders.
    """
    shared, top_power, primes = pair
    g_entries = sg.entries
    h_entries = sh.entries
    # The shared divisors are increasing, so the first excess of each side is
    # its smallest.  At d = 1 both spectra count the identity alone.
    min_g = min_h = None
    for d in shared:
        count = g_entries[d]
        other = h_entries[d]
        if count > other and min_g is None:
            min_g = d
        elif count < other and min_h is None:
            min_h = d
    if min_g is None and min_h is None:
        # Spectra agreeing on every shared divisor give no check.
        return []
    checks = []
    for kind, smallest in ((_L23_G, min_g), (_L23_H, min_h)):
        if smallest is not None:
            top = top_power[smallest]
            checks.append((kind, smallest == top, smallest, top, (smallest,)))
    for prime, powers, alpha, gamma in primes:
        # t is the first power of prime at which the spectra differ.
        for t, power in enumerate(powers, 1):
            phi_g = g_entries[power]
            phi_h = h_entries[power]
            if phi_g != phi_h:
                break
        else:
            continue
        # L24, applied with the roles arranged so the richer side is second:
        # its order must be divisible by prime^(t+1).
        d_exp = gamma if phi_g < phi_h else alpha
        diff = abs(phi_h - phi_g)
        upper = prime ** d_exp - power
        l24_holds = d_exp > t and power <= diff <= upper
        checks.append((_L24, l24_holds, diff, upper, (prime, t, d_exp, phi_g, phi_h)))
        if 2 <= t < len(powers):
            first = phi_g - phi_h
            second = g_entries[power * prime] - h_entries[power * prime]
            if (first > 0 > second) or (first < 0 < second):
                checks.append((_L25, min(alpha, gamma) >= t + 2, min(alpha, gamma), t + 2,
                               (prime, t, alpha, gamma)))
    return checks


def _check_grid_bound(lemma: str, bound: int) -> None:
    ceiling = GRID_CEILINGS[lemma]
    if bound > ceiling:
        raise BudgetError(f"grid {lemma} is limited to max <= {ceiling}, got max = {bound}")


def _divisor_sieve(bound: int) -> list[list[int]]:
    """The divisors >= 2 of every g <= bound, in increasing order, indexed by g."""
    divisors_of: list[list[int]] = [[] for _ in range(bound + 1)]
    for d in range(2, bound + 1):
        for multiple in range(d, bound + 1, d):
            divisors_of[multiple].append(d)
    return divisors_of


def _shared_rows(divisors_of: list[list[int]], m: int, distinct: bool, top: int) -> list[int]:
    """The n <= top that share with m a product of two primes, in increasing order.

    These are the n with gcd(m, n) composite, or, when distinct, with two
    distinct primes dividing gcd(m, n).  A divisor d of m is a product of
    two primes when d / p is prime, p being its least divisor >= 2, and they
    are distinct when d / p is not p.
    """
    steps = []
    for d in divisors_of[m]:
        p = divisors_of[d][0]
        rest = divisors_of[d // p]
        if len(rest) == 1 and not (distinct and rest[0] == p):
            steps.append(d)
    return sorted({n for d in steps for n in range(d, top + 1, d)})


def _log_factorials(top: int) -> list[float]:
    """The table lf of log2(k!) for k <= top: lf[k] is the float sum of log2(i) for i <= k."""
    return list(accumulate(map(log2, range(1, top + 1)), initial=0.0))


def _block_logs(lf: list[float], m: int, n: int, divs: list[int]) -> list[float]:
    """log2 of the blocks C((m+n)/d, m/d) of the row (m, n) for d in divs, from the table lf.

    Each is lf[(m+n)/d] - lf[m/d] - lf[n/d], within the bound of _tolerance.
    """
    top = m + n
    return [lf[top // d] - lf[m // d] - lf[n // d] for d in divs]


def _tolerance(m: int, n: int) -> float:
    """The tolerance tau = 2^-30 * (m + n) * log2(m + n) of the float margins of the row (m, n).

    A margin is a comparison of positive integers, lhs > rhs (or lhs >= rhs),
    in bits: log2 lhs - log2 rhs, formed in floats from at most two block
    logarithms of _block_logs and from integer multiples of log2 of
    integers.  For m, n up to the grid ceilings (below 4096), a float
    margin above tau proves the true margin positive, so the comparison
    holds.  All three binomial deciders use this one rule.

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
      LEMMA21_GRID_MAX and LEMMA22_GRID_MAX below 4096 (pinned by a test);
      a higher ceiling needs this bound, and tau, worked out again.
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
    return _FILTER_TOLERANCE * (m + n) * log2(m + n)


def _lemma21i_failures(m: int, n: int, divs: list[int], logs: list[float]) -> list[tuple[int, int]]:
    """The pairs a < b of divs failing variant i of Lemma 2.1, in grid order.

    divs is increasing, each divides gcd(m, n) and is at least 2, and logs
    holds the logarithms of their blocks (_block_logs).  Each pair is first
    tested in floats with the margin in bits of its cross-multiplied
    inequality (see _lemma21_holds),

        lb_a - lb_b + en*(log2 n - log2(n+m)) + em*(log2 bm - log2(bm+an)),

    where lb_d = log2(block_d), en = n/a - n/b and em = m/a - m/b.  A pair
    whose margin exceeds _tolerance(m, n) holds (its strict consequence
    block_a > block_b too, the last two terms being negative); every other
    one, each tie included, is decided by _lemma21_holds on blocks from
    _block.
    """
    tau = _tolerance(m, n)
    shrink_n = log2(n) - log2(n + m)
    failing = []
    for i, a in enumerate(divs):
        lb_a, na, ma, an = logs[i], n // a, m // a, a * n
        for j in range(i + 1, len(divs)):
            b = divs[j]
            bm = b * m
            if (lb_a - logs[j] + (na - n // b) * shrink_n
                    + (ma - m // b) * (log2(bm) - log2(bm + an))) > tau:
                continue
            if not _lemma21_holds(m, n, a, b, _block(m, n, a), _block(m, n, b)):
                failing.append((a, b))
    return failing


def _lemma21ii_failures(m: int, n: int, divs: list[int], logs: list[float]) -> list[tuple[int, int]]:
    """The pairs a, b of divs with b >= 2a failing variant ii of Lemma 2.1, in grid order.

    divs and logs are as for _lemma21i_failures.  Variant ii asserts
    a * block_a > max(m, n) * block_b, whose margin in bits is
    log2 a + lb_a - log2 max(m, n) - lb_b.  Each a is tested once, against
    the largest lb_b of the b >= 2a (a suffix maximum of logs): float
    subtraction is monotone, so when that margin exceeds _tolerance(m, n),
    so does the float margin of every pair of a, and they all hold.  The
    pairs of any other a are decided by _lemma21ii_holds on blocks from
    _block.
    """
    tau = _tolerance(m, n)
    top = log2(max(m, n))
    largest = list(accumulate(reversed(logs), max))[::-1]
    failing = []
    for i, a in enumerate(divs):
        start = bisect_left(divs, 2 * a)
        if start == len(divs):
            break
        if log2(a) + logs[i] - top - largest[start] > tau:
            continue
        block_a = _block(m, n, a)
        failing += [(a, b) for b in divs[start:]
                    if not _lemma21ii_holds(m, n, a, b, block_a, _block(m, n, b))]
    return failing


def lemma21_grid(max_mn: int, variant: str) -> GridResult:
    """Exhaustive sweep of check_lemma21 over 2 <= m, n <= max_mn <= LEMMA21_GRID_MAX.

    For each m it visits the n <= m with gcd(m, n) composite, the others
    having no pair a < b, and reads the logarithms of their blocks from one
    table of log2(k!) (k <= max_mn covers every (m+n)/d, as d >= 2).  A
    block C((m+n)/d, m/d) is also the block of (n, m), so one row of
    logarithms serves both mirror rows: _lemma21i_failures decides (m, n)
    and (n, m) from it, and _lemma21ii_failures decides (m, n) once, its
    bound a * block_a > max(m, n) * block_b being the same for (n, m).
    check_lemma21 builds the reported instance of a failing tuple only, in
    grid order (m, then n, a, b).
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    _check_grid_bound(f"2.1{variant}", max_mn)
    divisors_of = _divisor_sieve(max_mn)
    lf = _log_factorials(max_mn)
    # The number of pairs a < b (with b >= 2a for variant ii) that a row with
    # gcd g checks, indexed by g.
    if variant == "i":
        pairs_of = [len(divs) * (len(divs) - 1) // 2 for divs in divisors_of]
    else:
        pairs_of = [sum(len(divs) - bisect_left(divs, 2 * a) for a in divs) for divs in divisors_of]
    checked = 0
    failing = []
    for m in range(2, max_mn + 1):
        for n in _shared_rows(divisors_of, m, False, m):
            shared = gcd(m, n)
            divs = divisors_of[shared]
            logs = _block_logs(lf, m, n, divs)
            rows = ((m, n), (n, m)) if n < m else ((m, n),)
            checked += pairs_of[shared] * len(rows)
            if variant == "i":
                failing += [(*row, a, b) for row in rows
                            for a, b in _lemma21i_failures(*row, divs, logs)]
            else:
                failing += [(*row, a, b) for a, b in _lemma21ii_failures(m, n, divs, logs)
                            for row in rows]
    return GridResult(f"2.1{variant}", checked,
                      [check_lemma21(*parameters, variant) for parameters in sorted(failing)])


def lemma22_grid(max_mn: int, variant: str) -> GridResult:
    """Exhaustive sweep of check_lemma22 over 2 <= m, n <= max_mn <= LEMMA22_GRID_MAX.

    Admissible tuples are prime powers a = p^s, b = q^t of distinct primes
    with b < 2a, both dividing gcd(m, n), restricted to the variant's spread
    condition (for variant i this includes the {a, b} = {2, 3} clause), so
    for each m it visits the n with two distinct primes in gcd(m, n).  Each
    tuple is first tested in floats by the margin in bits of the comparison
    _lemma22_holds makes, p*a^3*b * block_a > f*m*n * block_b, or for
    {2, 3} a * block_a > (q^d - b + f*b) * block_b; a tuple whose margin
    does not exceed _tolerance(m, n) is decided by _lemma22_holds on blocks
    from _block.  check_lemma22 builds the reported instance of a failing
    tuple only.
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    _check_grid_bound(f"2.2{variant}", max_mn)
    # The prime powers (d, p) dividing every g <= max_mn, in increasing order:
    # d >= 2 is a power of its least divisor p >= 2 when d = p^k, with k its
    # number of divisors >= 2.
    divisors_of = _divisor_sieve(max_mn)
    prime_of = {d: divs[0] for d, divs in enumerate(divisors_of)
                if divs and divs[0] ** len(divs) == d}
    powers_of = [[(d, prime_of[d]) for d in divs if d in prime_of] for divs in divisors_of]
    lf = _log_factorials(max_mn)
    factor = 2 if variant == "i" else 1
    checked = 0
    failures = []
    for m in range(2, max_mn + 1):
        for n in _shared_rows(divisors_of, m, True, max_mn):
            powers = powers_of[gcd(m, n)]
            # The row's admissible tuples first: the logarithms are read only
            # for a row that has one (at 3000, over a third of the rows of
            # variant i and nearly all of variant ii have none).  A tuple's
            # spread is positive, so b > a: the b of each a follow it in
            # powers, up to 2a.
            tuples = []
            for i, (a, p) in enumerate(powers):
                for b, q in powers[i + 1:]:
                    if b >= 2 * a:
                        break
                    if p == q:
                        continue
                    spread = n // a - n // b
                    if variant == "i":
                        if spread < 3:
                            continue
                    else:
                        if spread != 2 or {a, b} == {2, 3}:
                            continue
                    tuples.append((a, b, p, q))
            if not tuples:
                continue
            checked += len(tuples)
            divs = [d for d, _ in powers]
            logs = dict(zip(divs, _block_logs(lf, m, n, divs)))
            tau = _tolerance(m, n)
            bound = log2(factor * m * n)
            for a, b, p, q in tuples:
                if {a, b} == {2, 3}:
                    rhs = log2(q ** valuation(m, q) - b + factor * b)
                    margin = log2(a) + logs[a] - rhs - logs[b]
                else:
                    margin = log2(p * a ** 3 * b) + logs[a] - bound - logs[b]
                if margin > tau:
                    continue
                if not _lemma22_holds(m, n, a, b, p, q, _block(m, n, a), _block(m, n, b), variant):
                    failures.append(check_lemma22(m, n, a, b, p, q, variant))
    return GridResult(f"2.2{variant}", checked, failures)


def structure_grid(max_order: int) -> GridResult:
    """Structure checks over every unordered pair of abelian groups up to max_order.

    max_order is at most STRUCTURE_GRID_MAX.  The facts of each pair of
    orders (n, m), n <= m, are found once (_order_pair, with one dict of the
    facts of each gcd for the whole grid) and kept while the groups of order
    n are walked.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    _check_grid_bound("struct", max_order)
    groups = [g for n in range(1, max_order + 1) for g in enumerate_abelian(n)]
    spectra = [order_spectrum(g) for g in groups]
    checked = 0
    failures = []
    by_gcd: dict[int, tuple] = {}
    pairs: dict[int, tuple] = {}
    for i, sg in enumerate(spectra):
        n = sg.group_order
        if i and n != spectra[i - 1].group_order:
            pairs.clear()
        for sh in spectra[i:]:
            m = sh.group_order
            pair = pairs.get(m)
            if pair is None:
                pair = pairs[m] = _order_pair(n, m, by_gcd)
            checks = _structure_checks(sg, sh, pair)
            if checks:
                checked += len(checks)
                failures += [_structure_instance(n, m, check) for check in checks if not check[1]]
    return GridResult("struct", checked, failures)
