"""Tests for the zero-sum multiset counting routes."""

import os
import subprocess
import sys
from itertools import combinations_with_replacement, product as cartesian
from math import gcd
from pathlib import Path

import pytest

import zsr
from zsr.counting import (
    DEFAULT_DP_MAX_LENGTH,
    DEFAULT_DP_MAX_ORDER,
    DEFAULT_MOLIEN_MAX_LENGTH,
    DEFAULT_MOLIEN_MAX_ORDER,
    count_dp,
    count_formula,
    count_molien,
    rational_catalan,
)
from zsr.errors import BudgetError
from zsr.exactmath import binomial
from zsr.groups import (
    AbelianGroup,
    Dicyclic,
    Dihedral,
    OrderSpectrum,
    enumerate_abelian,
    make_product,
    order_spectrum,
    order_spectrum_bruteforce,
    parse_group,
)


def count_by_listing(factors, m):
    """Zero-sum multisets counted by writing them all down.

    Direct enumeration over combinations of actual tuples, so it shares no
    machinery with the formula, dp, or series routes.
    """
    elements = list(cartesian(*(range(f) for f in factors)))
    hits = 0
    for combo in combinations_with_replacement(elements, m):
        sums = [sum(values) % f for f, values in zip(factors, zip(*combo))]
        if all(s == 0 for s in sums):
            hits += 1
    if m == 0:
        hits = 1  # the empty multiset
    return hits


def spectrum_of(text):
    return order_spectrum(parse_group(text))


def test_formula_matches_direct_listing():
    cases = [
        ((2,), range(7)),
        ((3,), range(7)),
        ((5,), range(6)),
        ((2, 2), range(6)),
        ((6,), range(5)),
        ((2, 4), range(5)),
        ((3, 3), range(5)),
    ]
    for factors, lengths in cases:
        group = AbelianGroup(factors)
        spectrum = order_spectrum(group)
        for m in lengths:
            assert count_formula(spectrum, m) == count_by_listing(factors, m)


def test_known_count_values():
    assert count_formula(spectrum_of("C5"), 3) == 7
    assert count_formula(spectrum_of("C3"), 5) == 7
    assert count_formula(spectrum_of("C2xC2"), 2) == 4
    assert count_formula(spectrum_of("C4"), 4) == 10
    assert count_formula(spectrum_of("C2xC2"), 4) == 11
    assert count_formula(spectrum_of("C2xC6"), 4) == 119
    assert count_formula(spectrum_of("C2"), 3) == 2
    assert count_formula(spectrum_of("D10"), 10) == 9302
    assert count_formula(spectrum_of("C10"), 10) == 9252


def test_three_routes_agree_on_abelian_groups():
    for n in range(1, 13):
        for group in enumerate_abelian(n):
            spectrum = order_spectrum(group)
            for m in range(11):
                expected = count_formula(spectrum, m)
                assert count_dp(group, m) == expected
                assert count_molien(spectrum, m) == expected


def test_series_route_agrees_on_nonabelian_groups():
    descriptors = [Dihedral(3), Dihedral(4), Dihedral(5), Dicyclic(2), Dicyclic(3)]
    for descriptor in descriptors:
        spectrum = order_spectrum(descriptor)
        for m in range(13):
            assert count_molien(spectrum, m) == count_formula(spectrum, m)


def test_empty_multiset_counts_once():
    for text in ["C1", "C7", "C2xC4", "D8", "Dic2", "C2xD6"]:
        assert count_formula(spectrum_of(text), 0) == 1
    assert count_dp(AbelianGroup((2, 4)), 0) == 1
    assert count_molien(spectrum_of("D8"), 0) == 1


def test_single_element_multisets_count_identity_only():
    for text in ["C1", "C5", "C2xC6", "D10", "Dic3"]:
        assert count_formula(spectrum_of(text), 1) == 1


def test_counts_depend_only_on_spectrum():
    # D12 and D6 x C2 have equal spectra, so equal counts everywhere
    left = spectrum_of("D12")
    right = spectrum_of("D6xC2")
    assert left.entries == right.entries
    for m in range(0, 65):
        assert count_formula(left, m) == count_formula(right, m)


def test_spectrum_entries_are_kept_in_increasing_order():
    shuffled = OrderSpectrum({4: 2, 2: 1, 1: 1}, 4)
    ordered = OrderSpectrum({1: 1, 2: 1, 4: 2}, 4)
    assert list(shuffled.entries) == [1, 2, 4]
    assert shuffled.key() == ((1, 1), (2, 1), (4, 2))
    for m in range(13):
        assert count_formula(shuffled, m) == count_formula(ordered, m)
        assert count_molien(shuffled, m) == count_molien(ordered, m)


def test_negative_length_rejected():
    spectrum = spectrum_of("C4")
    with pytest.raises(ValueError):
        count_formula(spectrum, -1)
    with pytest.raises(ValueError):
        count_dp(AbelianGroup((4,)), -1)
    with pytest.raises(ValueError):
        count_molien(spectrum, -2)


def test_inexact_division_raises_value_error():
    # Order 4 with three elements of order 4 is no group; the divisor sum is not divisible.
    spectrum = OrderSpectrum({1: 1, 2: 0, 4: 3}, 4)
    with pytest.raises(ValueError, match="inconsistent spectrum"):
        count_formula(spectrum, 2)
    with pytest.raises(ValueError, match="not divisible by group order 4"):
        count_molien(spectrum, 2)
    # The check must not be an assert, which python -O strips.
    code = ("from zsr.counting import count_formula\n"
            "from zsr.groups import OrderSpectrum\n"
            "try:\n"
            "    print(count_formula(OrderSpectrum({1: 1, 2: 0, 4: 3}, 4), 2))\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n")
    env = dict(os.environ)
    src = str(Path(zsr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("ValueError: divisor sum 15 not divisible by 6")


def test_dp_budget():
    too_big = AbelianGroup((37,))
    with pytest.raises(BudgetError) as exc:
        count_dp(too_big, 2)
    assert str(DEFAULT_DP_MAX_ORDER) in str(exc.value)
    with pytest.raises(BudgetError) as exc:
        count_dp(AbelianGroup((4,)), DEFAULT_DP_MAX_LENGTH + 1)
    assert str(DEFAULT_DP_MAX_LENGTH) in str(exc.value)
    # the largest admitted inputs still count
    largest = AbelianGroup((DEFAULT_DP_MAX_ORDER,))
    assert count_dp(largest, 2) == count_formula(order_spectrum(largest), 2)
    assert count_dp(AbelianGroup((4,)), DEFAULT_DP_MAX_LENGTH) == count_formula(
        spectrum_of("C4"), DEFAULT_DP_MAX_LENGTH)


def test_element_oracles_refuse_nonabelian_descriptors():
    # The domain check comes first, ahead of the length and budget checks.
    for notation, m in (("D6", 2), ("Dic3", -1), ("C2xD100", 2)):
        with pytest.raises(ValueError, match="^the dp oracle enumerates elements of abelian groups only$"):
            count_dp(parse_group(notation), m)
    for notation in ("Q8", "C3xD6", "D10002"):
        with pytest.raises(ValueError, match="^brute-force spectra enumerate elements of abelian groups only$"):
            order_spectrum_bruteforce(parse_group(notation))


def test_molien_budget():
    too_big = order_spectrum(AbelianGroup((65,)))
    with pytest.raises(BudgetError) as exc:
        count_molien(too_big, 2)
    assert str(DEFAULT_MOLIEN_MAX_ORDER) in str(exc.value)
    spectrum = spectrum_of("C4")
    with pytest.raises(BudgetError) as exc:
        count_molien(spectrum, DEFAULT_MOLIEN_MAX_LENGTH + 1)
    assert str(DEFAULT_MOLIEN_MAX_LENGTH) in str(exc.value)
    largest = order_spectrum(AbelianGroup((DEFAULT_MOLIEN_MAX_ORDER,)))
    assert count_molien(largest, 2) == count_formula(largest, 2)
    assert count_molien(spectrum, DEFAULT_MOLIEN_MAX_LENGTH) == count_formula(
        spectrum, DEFAULT_MOLIEN_MAX_LENGTH)


def test_cyclic_reciprocity_symmetry():
    spectra = {n: order_spectrum(AbelianGroup(() if n == 1 else (n,))) for n in range(1, 31)}
    for n in range(1, 31):
        for m in range(1, 31):
            assert count_formula(spectra[n], m) == count_formula(spectra[m], n)


def test_cyclic_reciprocity_symmetry_property():
    """|M(C_n, m)| = |M(C_m, n)| for random n, m <= 2000, past the fixed grids."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def cyclic(n):
        return order_spectrum(AbelianGroup(() if n == 1 else (n,)))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 2000), st.integers(1, 2000))
    def check(n, m):
        assert count_formula(cyclic(n), m) == count_formula(cyclic(m), n)

    check()


def test_formula_matches_series_on_random_products_property():
    """count_formula = count_molien on two-factor products within the series budget."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def factor(max_order):
        """A cyclic, dihedral or dicyclic group of order at most max_order (>= 2)."""
        options = [st.integers(2, max_order).map(lambda n: AbelianGroup((n,)))]
        if max_order >= 6:
            options.append(st.integers(3, max_order // 2).map(Dihedral))
        if max_order >= 8:
            options.append(st.integers(2, max_order // 4).map(Dicyclic))
        return st.one_of(options)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(factor(DEFAULT_MOLIEN_MAX_ORDER // 2), st.data(),
                      st.integers(0, DEFAULT_MOLIEN_MAX_LENGTH))
    def check(left, data, m):
        right = data.draw(factor(DEFAULT_MOLIEN_MAX_ORDER // left.order))
        spectrum = order_spectrum(make_product((left, right)))
        assert spectrum.group_order <= DEFAULT_MOLIEN_MAX_ORDER
        assert count_formula(spectrum, m) == count_molien(spectrum, m)

    check()


def test_rational_catalan_known_values():
    assert rational_catalan(2, 3) == 2
    assert rational_catalan(5, 3) == 7
    assert rational_catalan(1, 9) == 1
    assert rational_catalan(9, 1) == 1


def test_rational_catalan_matches_binomial_ratio():
    for n in range(1, 26):
        for m in range(1, 26):
            if gcd(n, m) != 1:
                continue
            top = binomial(n + m, n)
            assert top % (n + m) == 0
            assert rational_catalan(n, m) == top // (n + m)


def test_rational_catalan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rational_catalan(6, 3)
    with pytest.raises(ValueError):
        rational_catalan(0, 5)
    with pytest.raises(ValueError):
        rational_catalan(5, -1)


def test_coprime_lengths_collapse_to_rational_catalan():
    descriptors = [parse_group(t) for t in ["C2", "C6", "C2xC4", "C3xC3", "D6", "D10", "Dic2", "C2xD6"]]
    for descriptor in descriptors:
        n = descriptor.order
        spectrum = order_spectrum(descriptor)
        for m in range(1, 21):
            if gcd(n, m) == 1:
                assert count_formula(spectrum, m) == rational_catalan(n, m)
