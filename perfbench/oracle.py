"""Known-good answers for single zsr calls, computed without importing zsr.

Groups are given as (kind, k): ("C", (f1, ..., fr)) abelian with invariant
factors f1 | f2 | ..., ("D", k) dihedral of order 2k, ("Dic", k) dicyclic of
order 4k.  Spectra come from the number of elements whose order divides d,
which has a closed form for each kind, and Mobius-free subtraction over the
divisors; counts use the divisor-sum formula with math.comb.
"""

from __future__ import annotations

from math import comb, gcd, prod


def notation(group) -> str:
    kind, value = group
    if kind == "C":
        return "x".join(f"C{f}" for f in value)
    return f"D{2 * value}" if kind == "D" else f"Dic{value}"


def order(group) -> int:
    kind, value = group
    if kind == "C":
        return prod(value)
    return 2 * value if kind == "D" else 4 * value


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _dividing(group, d: int) -> int:
    """Number of elements whose order divides d."""
    kind, value = group
    if kind == "C":
        return prod(gcd(d, f) for f in value)
    if kind == "D":
        # k rotations (cyclic of order k) and k reflections of order 2.
        return gcd(d, value) + (value if d % 2 == 0 else 0)
    # cyclic subgroup of order 2k and 2k further elements of order 4.
    return gcd(d, 2 * value) + (2 * value if d % 4 == 0 else 0)


def spectrum(group) -> dict[int, int]:
    """Elements of each exact order d, for every divisor d of the group order."""
    exact: dict[int, int] = {}
    for d in divisors(order(group)):
        exact[d] = _dividing(group, d) - sum(c for e, c in exact.items() if d % e == 0)
    return exact


def count(group, m: int) -> int:
    """Zero-sum multisets of length m over the group."""
    n = order(group)
    sp = spectrum(group)
    total = sum(sp[d] * comb((n + m) // d, n // d) for d in divisors(gcd(n, m)))
    if total % (n + m):
        raise ArithmeticError(f"divisor sum for {notation(group)} at {m} is not divisible by {n + m}")
    return total // (n + m)


def catalan(n: int, m: int) -> int:
    return comb(n + m, n) // (n + m)


def check_record(g, h) -> dict:
    """The record `zsr check --format json` prints for the pair."""
    sg, sh = spectrum(g), spectrum(h)
    ng, nh = order(g), order(h)
    witness = next((d for d in divisors(gcd(ng, nh)) if sg[d] != sh[d]), None)
    cgh, chg = count(g, nh), count(h, ng)
    agree = witness is None
    return {
        "g": notation(g), "h": notation(h), "order_g": ng, "order_h": nh,
        "spectra_agree": agree, "witness_divisor": witness,
        "count_g_at_h": str(cgh), "count_h_at_g": str(chg),
        "iff_consistent": agree == (cgh == chg),
    }
