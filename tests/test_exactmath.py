"""Tests for the exact integer helpers."""

import random
from itertools import product
from math import comb, isqrt, prod

import pytest

from zsr.errors import BudgetError
from zsr.exactmath import (
    FACTORIZE_CEILING,
    binomial,
    block_table,
    divisors,
    factorize,
    generated_divisors,
    prime_power_root,
    valuation,
)


def pascal_triangle(rows):
    """Binomial coefficients by the additive recurrence, independent of binomial()."""
    triangle = [[1]]
    for r in range(1, rows + 1):
        above = triangle[-1]
        triangle.append([1] + [above[i - 1] + above[i] for i in range(1, r)] + [1])
    return triangle


def is_prime(p):
    """Trial-division primality, used to vet factorize output."""
    if p < 2:
        return False
    return all(p % k for k in range(2, isqrt(p) + 1))


def test_binomial_matches_pascal_triangle():
    triangle = pascal_triangle(40)
    for top, row in enumerate(triangle):
        for bottom, value in enumerate(row):
            assert binomial(top, bottom) == value


def test_binomial_known_values():
    assert binomial(6, 4) == 15
    assert binomial(8, 5) == 56
    assert binomial(16, 12) == 1820
    assert binomial(0, 0) == 1
    assert binomial(9, 0) == 1
    assert binomial(9, 9) == 1


def test_binomial_symmetry():
    for top in range(101):
        for bottom in range(top + 1):
            assert binomial(top, bottom) == binomial(top, top - bottom)


def test_binomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        binomial(3, 5)
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(4, -2)


def test_factorize_known_values():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]


def test_factorize_reconstructs_every_input():
    for n in range(1, 10001):
        product = 1
        last = 1
        for p, e in factorize(n):
            assert p > last, f"primes out of order for {n}"
            assert e >= 1
            last = p
            product *= p**e
        assert product == n


def test_factorize_bases_are_prime():
    for n in range(2, 2001):
        for p, _ in factorize(n):
            assert is_prime(p), f"{p} in factorize({n}) is not prime"


def test_factorize_refuses_inputs_past_its_ceiling():
    assert FACTORIZE_CEILING == 10**12
    assert factorize(FACTORIZE_CEILING) == [(2, 12), (5, 12)]
    assert factorize(999999999989) == [(999999999989, 1)]
    with pytest.raises(BudgetError) as exc:
        factorize(FACTORIZE_CEILING + 1)
    assert str(exc.value) == "factorize is limited to n <= 1000000000000, got n = 1000000000001"
    with pytest.raises(BudgetError):
        divisors(10**20 + 39)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_divisors_known_values():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]


def test_divisors_match_range_scan():
    for n in range(1, 301):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_count_and_order():
    for n in range(1, 2001):
        divs = divisors(n)
        expected_count = 1
        for _, e in factorize(n):
            expected_count *= e + 1
        assert len(divs) == expected_count
        assert divs[0] == 1 and divs[-1] == n
        assert all(a < b for a, b in zip(divs, divs[1:]))


def test_generated_divisors_follow_mixed_radix_order():
    # A divisor's position reads its exponents as mixed-radix digits, the
    # last prime's fastest, which is the order itertools.product walks
    # p^0, ..., p^e in; sorted, they are the divisors that spectra are keyed by.
    for n in range(1, 2001):
        fac = factorize(n)
        generated = generated_divisors(fac)
        assert sorted(generated) == divisors(n), n
        powers = [[p**k for k in range(e + 1)] for p, e in fac]
        assert generated == [prod(choice) for choice in product(*powers)], n


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(24, 3) == 1
    assert valuation(7, 5) == 0
    rng = random.Random(4021)
    for _ in range(200):
        n = rng.randint(1, 10**9)
        p = rng.choice([2, 3, 5, 7, 11])
        v = valuation(n, p)
        assert n % p**v == 0
        assert n % p ** (v + 1) != 0


def test_prime_power_root():
    assert prime_power_root(1) is None
    assert prime_power_root(7) == (7, 1)
    assert prime_power_root(8) == (2, 3)
    assert prime_power_root(81) == (3, 4)
    assert prime_power_root(12) is None
    for n in range(2, 2001):
        root = prime_power_root(n)
        facs = factorize(n)
        if len(facs) == 1:
            assert root == facs[0]
        else:
            assert root is None


def test_block_table_matches_fresh_binomials_in_both_orders():
    # Any m, below n too: a block C((n+m)/d, n/d) equals C((n+m)/d, m/d),
    # so swapping n and m gives the same table.
    for n in (1, 6, 12, 30, 60):
        for m in [*range(n, 3 * n + 40, 1), *range(n, 200, 7), 5 * n, n, 2 * n,
                  *range(1, n), n // 2 + 1, 1]:
            shared = [d for d in range(1, n + 1) if n % d == 0 and m % d == 0]
            expected = [comb((n + m) // d, n // d) for d in shared]
            assert block_table(n, m, shared) == block_table(m, n, shared) == expected, (n, m)
