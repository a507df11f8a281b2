"""Inequality and structure checks used to support the reciprocity theorem.

Two families of checks live here.  The binomial checks (ids L21*, L22*)
compare blocks of the counting formula, C((m+n)/d, m/d) for divisors d of
gcd(m, n), against explicit lower bounds.  The structure checks (L23, L24,
L25) constrain where two order spectra can first disagree.  Every check is
a decidable statement about concrete integers, and every verdict is exact.

A binomial check is about two divisors a < b of gcd(m, n), so its grid
walks the pairs (a, b) and, for each, the strip of m and n that are
multiples of lcm(a, b).  The grids need only the sign of each comparison:
they read each block's logarithm from one table of log2(k!)
(logblocks._log_tables, shared with the summary scans) and certify in
floats every instance whose margin clears a proven tolerance
(logblocks._tolerance).  Every other instance (ties, near-ties and apparent
failures) is decided in integers, on exact blocks (_block), by the
comparison check_lemma21 and check_lemma22 take their verdicts from, so a
failure is always found and decided exactly.  The structure checks of any
two spectra read the facts of their pair of orders from _order_pair and
decide into compact check tuples.
A LemmaInstance, with its exact Fraction values from fresh binomials, is
built only for an instance that fails, and fractions is imported only then.

Each grid refuses a bound above its ceiling (LEMMA21_GRID_MAX,
LEMMA22_GRID_MAX, STRUCTURE_GRID_MAX; GRID_CEILINGS by grid id) with
BudgetError before any work (check_grid_bound).
"""

from __future__ import annotations

from math import gcd, isqrt, log2

from .errors import BudgetError
from .exactmath import binomial, divisors, factorize, prime_power_root, valuation
from .groups import GroupDescriptor, enumerate_abelian, order_spectrum
from .logblocks import _log_tables
from .value import Value

# Grid ceilings: the largest m, n bound of lemma21_grid and lemma22_grid, and
# the largest order bound of structure_grid.  At its ceiling each grid took
# at most about 5 s on a 2-core Xeon host (Python 3.11), so twice that on a
# slow day.
LEMMA21_GRID_MAX = 3000
LEMMA22_GRID_MAX = 3000
STRUCTURE_GRID_MAX = 1024
# Each grid's ceiling by the id its GridResult carries.
GRID_CEILINGS = {"2.1i": LEMMA21_GRID_MAX, "2.1ii": LEMMA21_GRID_MAX, "2.2i": LEMMA22_GRID_MAX,
                 "2.2ii": LEMMA22_GRID_MAX, "struct": STRUCTURE_GRID_MAX}


class LemmaInstance(Value):
    """One evaluated check: its id, inputs, verdict, and the compared values.

    holds is the verdict of the one comparison lhs/rhs record.  A Lemma 2.2
    instance with D >= 1 records its ratio bound only, because with positive
    blocks that bound implies the consequence inequality (see check_lemma22).
    """

    __slots__ = ("lemma_id", "parameters", "holds", "lhs", "rhs")


class GridResult(Value):
    """Outcome of an exhaustive parameter sweep of one check."""

    __slots__ = ("lemma", "checked", "failures")


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
    That also decides the strict consequence block_a > block_b: as b > a
    divide m and n, en and em are at least 1, so n^en * (b*m)^em <
    (n+m)^en * (b*m+a*n)^em, and with positive blocks the product inequality
    then forces block_a > block_b.
    """
    exp_n = n // a - n // b
    exp_m = m // a - m // b
    return (block_a * n ** exp_n * (b * m) ** exp_m
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


def check_grid_bound(lemma: str, bound: int) -> None:
    """Refuse with BudgetError a bound above the ceiling of the grid with the id lemma."""
    ceiling = GRID_CEILINGS[lemma]
    if bound > ceiling:
        raise BudgetError(f"grid {lemma} is limited to max <= {ceiling}, got max = {bound}")


def _lemma21_strip(tables: tuple, a: int, b: int, ms: range, ns: range,
                   variant: str) -> list[tuple[int, int, int, int]]:
    """The instances (m, n, a, b), m in ms and n in ns, failing the variant of Lemma 2.1.

    a < b (b >= 2a for variant ii) divide each m and n, and tables is
    _log_tables of a bound on them.  With lb_d = lf[(m+n)/d] - lf[m/d] -
    lf[n/d], the logarithm of block_d, each instance is first tested in
    floats by the margin in bits of its comparison: for variant i, the
    cross-multiplied inequality of _lemma21_holds,

        lb_a - lb_b + en*(log2 n - log2(n+m)) + em*(log2 bm - log2(bm+an)),

    with en = n/a - n/b and em = m/a - m/b, and for variant ii,
    a * block_a > max(m, n) * block_b, log2 a + lb_a - log2 max(m, n) - lb_b.
    An instance whose margin exceeds tau[m + n] holds; every other one, each
    tie included, is decided by _lemma21_holds or _lemma21ii_holds on blocks
    from _block.
    """
    lf, lg, tau = tables
    failing = []
    if variant == "i":
        for m in ms:
            ma, mb, bm = m // a, m // b, b * m
            lf_ma, lf_mb, em, log_bm = lf[ma], lf[mb], ma - mb, log2(bm)
            for n in ns:
                s, na, nb = m + n, n // a, n // b
                if (lf[s // a] - lf_ma - lf[na] - (lf[s // b] - lf_mb - lf[nb])
                        + (na - nb) * (lg[n] - lg[s]) + em * (log_bm - log2(bm + a * n))) > tau[s]:
                    continue
                if not _lemma21_holds(m, n, a, b, _block(m, n, a), _block(m, n, b)):
                    failing.append((m, n, a, b))
    else:
        log_a = lg[a]
        for m in ms:
            lf_ma, lf_mb = lf[m // a], lf[m // b]
            for n in ns:
                s = m + n
                if (log_a + (lf[s // a] - lf_ma - lf[n // a]) - lg[m if m > n else n]
                        - (lf[s // b] - lf_mb - lf[n // b])) > tau[s]:
                    continue
                if not _lemma21ii_holds(m, n, a, b, _block(m, n, a), _block(m, n, b)):
                    failing.append((m, n, a, b))
    return failing


def lemma21_grid(max_mn: int, variant: str) -> GridResult:
    """Exhaustive sweep of check_lemma21 over 2 <= m, n <= max_mn <= LEMMA21_GRID_MAX.

    Its instances are the pairs a < b (b >= 2a for variant ii), each with
    every m and n that are multiples of lcm(a, b).  A pair is a = g*x and
    b = g*y with x < y coprime, so lcm(a, b) = g*x*y; _lemma21_strip decides
    each pair's strip from one set of _log_tables.  check_lemma21 builds the
    reported instance of a failing tuple only, in grid order (m, then n, a,
    b).
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    check_grid_bound(f"2.1{variant}", max_mn)
    tables = _log_tables(max_mn)
    checked = 0
    failing = []
    for y in range(2, max_mn + 1):
        for x in range(1, min(y, max_mn // y + 1)):
            if gcd(x, y) > 1 or (variant == "ii" and y < 2 * x):
                continue
            for g in range(1 if x > 1 else 2, max_mn // (x * y) + 1):
                multiples = range(g * x * y, max_mn + 1, g * x * y)
                checked += len(multiples) ** 2
                failing += _lemma21_strip(tables, g * x, g * y, multiples, multiples, variant)
    return GridResult(f"2.1{variant}", checked,
                      [check_lemma21(*parameters, variant) for parameters in sorted(failing)])


def _prime_powers(top: int) -> list[tuple[int, int]]:
    """The prime powers d <= top with their primes, as (d, p), in increasing order of d."""
    return [(d, root[0]) for d in range(2, top + 1) if (root := prime_power_root(d)) is not None]


def _lemma22_strip(tables: tuple, a: int, b: int, p: int, q: int, ms: range, ns: range,
                   variant: str) -> list[tuple[int, int, int, int, int, int]]:
    """The tuples (m, n, a, b, p, q), m in ms and n in ns, failing the variant of Lemma 2.2.

    Each tuple is admissible and tables is _log_tables of a bound on m and
    n.  With lb_d the block logarithms of _lemma21_strip, each tuple is first
    tested in floats by the margin in bits of the comparison _lemma22_holds
    makes, p*a^3*b * block_a > f*m*n * block_b, or for {2, 3}
    a * block_a > (q^d - b + f*b) * block_b with q^d the q-part of m.  A
    tuple whose margin does not exceed tau[m + n] is decided by
    _lemma22_holds on blocks from _block.
    """
    lf, _, tau = tables
    factor = 2 if variant == "i" else 1
    special = (a, b) == (2, 3)
    lift = log2(a) if special else log2(p * a ** 3 * b)
    failing = []
    for m in ms:
        lf_ma, lf_mb = lf[m // a], lf[m // b]
        if special:
            bound = log2(q ** valuation(m, q) - b + factor * b)
        for n in ns:
            s = m + n
            if not special:
                bound = log2(factor * m * n)
            if (lift + (lf[s // a] - lf_ma - lf[n // a]) - bound
                    - (lf[s // b] - lf_mb - lf[n // b])) > tau[s]:
                continue
            if not _lemma22_holds(m, n, a, b, p, q, _block(m, n, a), _block(m, n, b), variant):
                failing.append((m, n, a, b, p, q))
    return failing


def lemma22_grid(max_mn: int, variant: str) -> GridResult:
    """Exhaustive sweep of check_lemma22 over 2 <= m, n <= max_mn <= LEMMA22_GRID_MAX.

    Admissible tuples are prime powers a = p^s < b = q^t < 2a of distinct
    primes, both dividing gcd(m, n), so m and n are multiples of a*b, with
    the variant's spread: n = k*a*b has n/a - n/b = k*(b - a), at least 3
    for variant i and exactly 2 for variant ii, which also excludes
    {a, b} = {2, 3}.  _lemma22_strip decides each pair's strip from one set
    of _log_tables.  check_lemma22 builds the reported instance of a failing
    tuple only, in grid order (m, then n, a, b).
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    check_grid_bound(f"2.2{variant}", max_mn)
    tables = _log_tables(max_mn)
    # A pair has b^2 < 2ab <= 2 * max_mn.
    powers = _prime_powers(isqrt(2 * max_mn))
    checked = 0
    failing = []
    for i, (a, p) in enumerate(powers):
        for b, q in powers[i + 1:]:
            step = a * b
            if b >= 2 * a or step > max_mn:
                break
            if p == q:
                continue
            if variant == "i":
                ns = range(-(-3 // (b - a)) * step, max_mn + 1, step)
            elif 2 % (b - a) == 0 and (a, b) != (2, 3):
                ns = range(2 // (b - a) * step, max_mn + 1, step)[:1]
            else:
                continue
            ms = range(step, max_mn + 1, step)
            checked += len(ms) * len(ns)
            failing += _lemma22_strip(tables, a, b, p, q, ms, ns, variant)
    return GridResult(f"2.2{variant}", checked,
                      [check_lemma22(*parameters, variant) for parameters in sorted(failing)])


def structure_grid(max_order: int) -> GridResult:
    """Structure checks over every unordered pair of abelian groups up to max_order.

    max_order is at most STRUCTURE_GRID_MAX.  The facts of each pair of
    orders (n, m), n <= m, are found once (_order_pair, with one dict of the
    facts of each gcd for the whole grid) and kept while the groups of order
    n are walked.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    check_grid_bound("struct", max_order)
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
