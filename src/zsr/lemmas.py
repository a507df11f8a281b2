"""Inequality and structure checks used to support the reciprocity theorem.

Two families of checks live here.  The binomial checks (ids L21*, L22*)
compare blocks of the counting formula, C((m+n)/d, m/d) for divisors d of
gcd(m, n), against explicit lower bounds.  The structure checks (L23, L24,
L25) constrain where two order spectra can first disagree.  Every check is
a decidable statement about concrete integers, evaluated exactly.

The Lemma 2.1 grid compares integers only: it takes the blocks of each
(m, n) from one block table, decides each instance by cross-multiplying
its inequality, and builds a LemmaInstance, with its exact Fraction values,
only for an instance that fails.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactmath import binomial, block_table, factorize, prime_power_root, valuation
from .groups import AbelianGroup, enumerate_abelian, order_spectrum
from .value import Value, set_field


class LemmaInstance(Value):
    """One evaluated check: its id, inputs, verdict, and the compared values.

    holds covers every comparison the instance asserts; when an instance
    asserts more than one (a ratio bound plus a consequence inequality),
    lhs/rhs record the failing comparison if any, else the primary one.
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
    """The binomial block C((m+n)/d, m/d)."""
    return binomial((m + n) // d, m // d)


def check_lemma21(m: int, n: int, a: int, b: int, variant: str) -> LemmaInstance:
    """Binomial block comparison for two divisors a < b of gcd(m, n).

    Variant "i" (any b > a) bounds the ratio block_a / block_b from below by
    (1 + m/n)^(n/a - n/b) * (1 + a*n/(b*m))^(m/a - m/b) and also asserts the
    strict consequence block_a > block_b.  Variant "ii" (b >= 2a) asserts
    a * block_a > max(m, n) * block_b.
    """
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
    block_a = _block(m, n, a)
    block_b = _block(m, n, b)
    params = {"m": m, "n": n, "a": a, "b": b}
    holds = _lemma21_holds(m, n, a, b, block_a, block_b, variant)
    if variant == "i":
        exp_n = n // a - n // b
        exp_m = m // a - m // b
        rhs = Fraction(n + m, n) ** exp_n * Fraction(b * m + a * n, b * m) ** exp_m
        return LemmaInstance("L21i", params, holds, Fraction(block_a, block_b), rhs)
    return LemmaInstance("L21ii", params, holds, a * block_a, max(m, n) * block_b)


def _lemma21_holds(m: int, n: int, a: int, b: int, block_a: int, block_b: int, variant: str) -> bool:
    """The verdict of check_lemma21 from the blocks of a and b, in integers only.

    Variant i multiplies block_a / block_b >= rhs by the positive
    block_b * n^en * (b*m)^em, where en = n/a - n/b and em = m/a - m/b.
    """
    if variant == "ii":
        return a * block_a > max(m, n) * block_b
    exp_n = n // a - n // b
    exp_m = m // a - m // b
    return block_a > block_b and (block_a * n ** exp_n * (b * m) ** exp_m
                                  >= block_b * (n + m) ** exp_n * (b * m + a * n) ** exp_m)


def delta(m: int, n: int, a: int, b: int, p: int, q: int) -> Fraction:
    """The scale factor p^(alpha+gamma-2s-1) * q^(beta-t) * m' * n'.

    Here a = p^s, b = q^t for distinct primes p, q; alpha/beta are the p/q
    valuations of n, gamma/delta those of m, and n', m' are the parts of
    n, m coprime to pq.  Exponents may be negative, so the result is an
    exact ratio that can fall below 1.
    """
    s = _prime_power_exponent(a, p, "a")
    t = _prime_power_exponent(b, q, "b")
    if p == q:
        raise ValueError(f"p and q must be distinct primes, got p = q = {p}")
    if n < 1 or m < 1:
        raise ValueError(f"m and n must be positive, got m = {m}, n = {n}")
    alpha = valuation(n, p)
    beta = valuation(n, q)
    gamma = valuation(m, p)
    n_prime = n // (p ** alpha * q ** beta)
    m_prime = m // (p ** gamma * q ** valuation(m, q))
    return Fraction(p) ** (alpha + gamma - 2 * s - 1) * Fraction(q) ** (beta - t) * m_prime * n_prime


def _prime_power_exponent(value: int, prime: int, name: str) -> int:
    root = prime_power_root(value)
    if root is None or root[0] != prime:
        raise ValueError(f"{name} = {value} is not a power of the prime {prime}")
    return root[1]


def check_lemma22(m: int, n: int, a: int, b: int, p: int, q: int, variant: str) -> LemmaInstance:
    """Scaled block comparison for prime powers a = p^s, b = q^t with b < 2a.

    With D = delta(m, n, a, b, p, q) and d the q-valuation of m, variant "i"
    (n/a - n/b >= 3) asserts a * block_a / block_b > 2 * D * q^d, and when
    D >= 1 also the consequence a * block_a - (q^d - q^t) * block_b >
    2 * b * block_b; for {a, b} = {2, 3} only that consequence is asserted.
    Variant "ii" (n/a - n/b = 2, {a, b} != {2, 3}) asserts the same pair
    without the factor 2.
    """
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
    delta_q = valuation(m, q)
    params = {
        "m": m, "n": n, "a": a, "b": b, "p": p, "q": q, "s": s, "t": t,
        "alpha": valuation(n, p), "beta": valuation(n, q),
        "gamma": valuation(m, p), "delta": delta_q,
    }
    lemma_id = "L22i" if variant == "i" else "L22ii"
    factor = 2 if variant == "i" else 1
    block_a = _block(m, n, a)
    block_b = _block(m, n, b)
    conseq_lhs = a * block_a - (q ** delta_q - q ** t) * block_b
    conseq_rhs = factor * b * block_b
    if special:
        # The {2, 3} case asserts only the consequence inequality, with no
        # scale condition on D.
        return LemmaInstance(lemma_id, params, conseq_lhs > conseq_rhs, conseq_lhs, conseq_rhs)
    scale = delta(m, n, a, b, p, q)
    ratio_lhs = Fraction(a * block_a, block_b)
    ratio_rhs = factor * scale * q ** delta_q
    holds = ratio_lhs > ratio_rhs
    lhs_out: int | Fraction = ratio_lhs
    rhs_out: int | Fraction = ratio_rhs
    if scale >= 1:
        conseq_holds = conseq_lhs > conseq_rhs
        if holds and not conseq_holds:
            lhs_out, rhs_out = conseq_lhs, conseq_rhs
        holds = holds and conseq_holds
    return LemmaInstance(lemma_id, params, holds, lhs_out, rhs_out)


def check_structure_lemmas(g: AbelianGroup, h: AbelianGroup) -> list[LemmaInstance]:
    """Constraints on the first disagreements between two order spectra.

    Emits, where applicable: L23 (the smallest shared divisor where either
    spectrum exceeds the other is a prime power, one instance per side),
    L24 (at the first disagreeing power of a prime q, the side with more
    elements has order divisible by q^(t+1) and the count difference lies
    between q^t and q^delta - q^t), and L25 (when the disagreement sign
    flips between q^s and q^(s+1) with s >= 2 and q^(s+1) dividing both
    orders, both orders carry q-valuation at least s + 2).
    """
    return _structure_instances(order_spectrum(g), order_spectrum(h))


def _structure_instances(sg, sh) -> list[LemmaInstance]:
    n = sg.group_order
    m = sh.group_order
    # The divisors of gcd(n, m) are the keys of sg's spectrum that divide m.
    excess_g: list[int] = []
    excess_h: list[int] = []
    for d, count in sg.entries.items():
        if m % d == 0:
            other = sh.entries[d]
            if count > other:
                excess_g.append(d)
            elif count < other:
                excess_h.append(d)
    if not excess_g and not excess_h:
        # Spectra agreeing on every shared divisor give no instance.
        return []
    shared = gcd(n, m)
    out: list[LemmaInstance] = []
    for label, side in (("min_EG", excess_g), ("min_EH", excess_h)):
        if not side:
            continue
        smallest = min(side)
        top_power = max(p ** e for p, e in factorize(smallest))
        out.append(LemmaInstance(
            "L23", {"n": n, "m": m, label: smallest},
            smallest == top_power, smallest, top_power,
        ))
    for prime, _ in factorize(shared):
        scales = []
        power = prime
        while shared % power == 0:
            if sg.count_of(power) != sh.count_of(power):
                scales.append(valuation(power, prime))
            power *= prime
        if not scales:
            continue
        t = scales[0]
        phi_g = sg.count_of(prime ** t)
        phi_h = sh.count_of(prime ** t)
        # L24, applied with the roles arranged so the richer side is second.
        rich_order = m if phi_g < phi_h else n
        diff = abs(phi_h - phi_g)
        d_exp = valuation(rich_order, prime)
        upper = prime ** d_exp - prime ** t
        l24_holds = (rich_order % prime ** (t + 1) == 0) and (prime ** t <= diff <= upper)
        out.append(LemmaInstance(
            "L24",
            {"n": n, "m": m, "q": prime, "t": t, "delta": d_exp, "phi_g": phi_g, "phi_h": phi_h},
            l24_holds, diff, upper,
        ))
        if t >= 2 and shared % prime ** (t + 1) == 0:
            first = sg.count_of(prime ** t) - sh.count_of(prime ** t)
            second = sg.count_of(prime ** (t + 1)) - sh.count_of(prime ** (t + 1))
            if (first > 0 > second) or (first < 0 < second):
                alpha = valuation(n, prime)
                gamma = valuation(m, prime)
                out.append(LemmaInstance(
                    "L25",
                    {"n": n, "m": m, "p": prime, "s": t, "alpha": alpha, "gamma": gamma},
                    min(alpha, gamma) >= t + 2, min(alpha, gamma), t + 2,
                ))
    return out


def lemma21_grid(max_mn: int, variant: str) -> GridResult:
    """Exhaustive sweep of check_lemma21 over 2 <= m, n <= max_mn.

    For each m the blocks come from one block table as n grows, and each
    instance is decided by _lemma21_holds; check_lemma21 builds the reported
    instance of a failing tuple only.
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    # The divisors >= 2 of every g <= max_mn, in increasing order.
    divisors_of: list[list[int]] = [[] for _ in range(max_mn + 1)]
    for d in range(2, max_mn + 1):
        for multiple in range(d, max_mn + 1, d):
            divisors_of[multiple].append(d)
    checked = 0
    failures = []
    for m in range(2, max_mn + 1):
        last_blocks: dict[tuple[int, int], tuple[int, int]] = {}
        for n in range(2, max_mn + 1):
            divs = divisors_of[gcd(m, n)]
            if len(divs) < 2:
                continue
            blocks = block_table(m, n, divs, last_blocks)
            for i, (a, block_a) in enumerate(zip(divs, blocks)):
                for b, block_b in zip(divs[i + 1:], blocks[i + 1:]):
                    if variant == "ii" and b < 2 * a:
                        continue
                    checked += 1
                    if not _lemma21_holds(m, n, a, b, block_a, block_b, variant):
                        failures.append(check_lemma21(m, n, a, b, variant))
    return GridResult(f"2.1{variant}", checked, failures)


def lemma22_grid(max_mn: int, variant: str) -> GridResult:
    """Exhaustive sweep of check_lemma22 over 2 <= m, n <= max_mn.

    Admissible tuples are prime powers a = p^s, b = q^t of distinct primes
    with b < 2a, both dividing gcd(m, n), restricted to the variant's spread
    condition (for variant i this includes the {a, b} = {2, 3} clause).
    """
    if variant not in ("i", "ii"):
        raise ValueError(f"variant must be 'i' or 'ii', got {variant!r}")
    checked = 0
    failures = []
    for m in range(2, max_mn + 1):
        for n in range(2, max_mn + 1):
            shared = gcd(m, n)
            if shared < 6:
                continue
            powers = [(pr ** e, pr) for pr, top in factorize(shared) for e in range(1, top + 1)]
            powers.sort()
            for a, p in powers:
                for b, q in powers:
                    if p == q or b >= 2 * a:
                        continue
                    spread = n // a - n // b
                    if variant == "i":
                        if spread < 3:
                            continue
                    else:
                        if spread != 2 or {a, b} == {2, 3}:
                            continue
                    instance = check_lemma22(m, n, a, b, p, q, variant)
                    checked += 1
                    if not instance.holds:
                        failures.append(instance)
    return GridResult(f"2.2{variant}", checked, failures)


def structure_grid(max_order: int) -> GridResult:
    """Structure checks over every unordered pair of abelian groups up to max_order."""
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    groups = [g for n in range(1, max_order + 1) for g in enumerate_abelian(n)]
    spectra = [order_spectrum(g) for g in groups]
    checked = 0
    failures = []
    for i in range(len(groups)):
        for j in range(i, len(groups)):
            for instance in _structure_instances(spectra[i], spectra[j]):
                checked += 1
                if not instance.holds:
                    failures.append(instance)
    return GridResult("struct", checked, failures)
