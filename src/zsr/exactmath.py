"""Exact integer helpers: factorization, divisors, binomials and their blocks, valuations.

Everything here is plain ``int`` (arbitrary precision).  No floats anywhere;
any inexact division is a bug, not a rounding concern.
"""

from __future__ import annotations

from math import comb

from .errors import BudgetError

# Trial division is the one factorizer, so it refuses inputs above this
# ceiling (about 10**6 steps) rather than run for ages on a large prime.
FACTORIZE_CEILING = 10**12

# A factorization is an ordered list of (prime, exponent) pairs with the
# primes strictly increasing and every exponent >= 1.  factorize(1) == [].
Factorization = list[tuple[int, int]]


def factorize(n: int) -> Factorization:
    """Trial-division factorization of a positive integer up to FACTORIZE_CEILING."""
    if n < 1:
        raise ValueError(f"factorize requires a positive integer, got {n}")
    if n > FACTORIZE_CEILING:
        raise BudgetError(f"factorize is limited to n <= {FACTORIZE_CEILING}, got n = {n}")
    out: Factorization = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def sorted_divisors(fac: Factorization) -> list[int]:
    """The divisors of the number factorized by fac, in increasing order."""
    divs = [1]
    for p, e in fac:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def divisors(n: int) -> list[int]:
    """All positive divisors of n in increasing order."""
    if n < 1:
        raise ValueError(f"divisors requires a positive integer, got {n}")
    return sorted_divisors(factorize(n))


def binomial(top: int, bottom: int) -> int:
    """Binomial coefficient C(top, bottom), exact, for 0 <= bottom <= top."""
    if top < 0 or bottom < 0:
        raise ValueError(f"binomial requires nonnegative arguments, got ({top}, {bottom})")
    if bottom > top:
        raise ValueError(f"binomial lower index {bottom} exceeds upper index {top}")
    return comb(top, bottom)


def block_table(n: int, m: int, shared: list[int]) -> list[int]:
    """The blocks C((n+m)/d, n/d) for d in shared, each from one comb call; the same for (m, n)."""
    return [comb((n + m) // d, n // d) for d in shared]


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n >= 1, p >= 2)."""
    if n < 1:
        raise ValueError(f"valuation requires a positive integer, got {n}")
    if p < 2:
        raise ValueError(f"valuation requires a base >= 2, got {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def prime_power_root(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k for prime p, or None if n is not a prime power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    return fac[0]
