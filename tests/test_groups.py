"""Tests for group descriptors, parsing, canonical forms, and order spectra."""

from functools import lru_cache
from itertools import product as cartesian
from math import gcd, lcm

import pytest

from zsr.errors import BudgetError, GroupParseError
from zsr.groups import (
    AbelianGroup,
    DEFAULT_SPECTRUM_BOUND,
    Dicyclic,
    Dihedral,
    OrderSpectrum,
    Product,
    canonicalize,
    enumerate_abelian,
    make_product,
    order_spectrum,
    order_spectrum_bruteforce,
    parse_group,
)


def quaternion_spectrum():
    """Element-order counts of the quaternion group from its multiplication table.

    Elements are (sign, axis) with axis one of "1", "i", "j", "k"; the table
    below is the usual i*j = k, j*i = -k rule set.
    """
    axis_table = {
        ("1", "1"): (1, "1"),
        ("1", "i"): (1, "i"),
        ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"),
        ("j", "1"): (1, "j"),
        ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"),
        ("j", "j"): (-1, "1"),
        ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"),
        ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"),
        ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"),
        ("i", "k"): (-1, "j"),
    }

    def mul(x, y):
        sign, axis = axis_table[(x[1], y[1])]
        return (x[0] * y[0] * sign, axis)

    elements = [(s, a) for a in "1ijk" for s in (1, -1)]
    identity = (1, "1")
    counts = {}
    for e in elements:
        power, order = e, 1
        while power != identity:
            power = mul(power, e)
            order += 1
        counts[order] = counts.get(order, 0) + 1
    return counts


def spectrum_by_enumeration(factors):
    """Order counts of a direct product of cyclic groups, walked element by element.

    Works on any factor list, canonical chain or not, so it can vouch for
    canonicalize() independently of the library's brute-force helper.
    """
    counts = {}
    for element in cartesian(*(range(f) for f in factors)):
        order = 1
        for value, f in zip(element, factors):
            order = lcm(order, f // gcd(f, value))
        counts[order] = counts.get(order, 0) + 1
    return counts


@lru_cache(maxsize=None)
def partition_count(k):
    """Number of integer partitions of k, by the Euler pentagonal recurrence."""
    if k == 0:
        return 1
    total, j = 0, 1
    while True:
        for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if g > k:
                break
            total += (-1) ** (j + 1) * partition_count(k - g)
        else:
            j += 1
            continue
        break
    return total


def factor_multisets(limit):
    """All nondecreasing tuples of integers >= 2 whose product is <= limit."""
    results = []

    def extend(prefix, smallest, budget):
        results.append(tuple(prefix))
        f = smallest
        while f <= budget:
            prefix.append(f)
            extend(prefix, f, budget // f)
            prefix.pop()
            f += 1

    extend([], 2, limit)
    return results


def test_quaternion_table_matches_dicyclic_spectrum():
    table_counts = quaternion_spectrum()
    assert table_counts == {1: 1, 2: 1, 4: 6}
    spectrum = order_spectrum(Dicyclic(2))
    assert spectrum.entries == {1: 1, 2: 1, 4: 6, 8: 0}


def test_abelian_group_validation():
    assert AbelianGroup(()).order == 1
    assert AbelianGroup((2, 6)).order == 12
    assert AbelianGroup((2, 6)).notation() == "C2xC6"
    assert AbelianGroup(()).notation() == "C1"
    with pytest.raises(ValueError):
        AbelianGroup((1,))
    with pytest.raises(ValueError):
        AbelianGroup((6, 2))  # not ascending
    with pytest.raises(ValueError):
        AbelianGroup((2, 3))  # 2 does not divide 3


def test_descriptor_orders_and_notation():
    assert Dihedral(3).order == 6 and Dihedral(3).notation() == "D6"
    assert Dihedral(5).notation() == "D10"
    assert Dicyclic(2).order == 8 and Dicyclic(2).notation() == "Dic2"
    assert Dicyclic(3).order == 12
    with pytest.raises(ValueError):
        Dihedral(2)
    with pytest.raises(ValueError):
        Dicyclic(1)


def test_parse_group_accepts_standard_notation():
    assert parse_group("C6") == AbelianGroup((6,))
    assert parse_group("C2xC6") == AbelianGroup((2, 6))
    assert parse_group("D10") == Dihedral(5)
    assert parse_group("Dic3") == Dicyclic(3)
    assert parse_group("Q8") == Dicyclic(2)
    assert parse_group("C1") == AbelianGroup(())


def test_parse_group_canonicalizes_abelian_terms():
    assert parse_group("C4xC2") == AbelianGroup((2, 4))
    assert parse_group("C2xC3") == AbelianGroup((6,))
    assert parse_group("C1xC1") == AbelianGroup(())
    assert parse_group("C2xC2xC3") == AbelianGroup((2, 6))


def test_parse_group_mixed_products_keep_term_order():
    left = parse_group("C3xD10")
    assert left == Product((AbelianGroup((3,)), Dihedral(5)))
    assert left.notation() == "C3xD10"
    right = parse_group("D10xC3")
    assert right.notation() == "D10xC3"
    assert order_spectrum(left).entries == order_spectrum(right).entries
    assert left.order == right.order == 30


def test_parse_group_error_offsets():
    cases = [
        ("", "empty group notation", 0),
        ("xC2", "expected a group term", 0),
        ("c2", "expected a group term", 0),
        ("C0", "C0 is not a group", 0),
        ("D7", "D7 is not supported", 0),
        ("D4", "D4 is not supported", 0),
        ("Dic1", "Dic1 is not supported", 0),
        ("C2 xC6", "expected 'x' or end of input", 2),
        ("C2x", "expected a group term after 'x'", 3),
        ("C2xx", "expected a group term", 3),
        ("Q82", "expected 'x' or end of input", 2),
    ]
    for text, fragment, offset in cases:
        with pytest.raises(GroupParseError) as exc:
            parse_group(text)
        assert fragment in str(exc.value), text
        assert exc.value.offset == offset, text
        assert f"(at byte {offset})" in str(exc.value)


def test_parse_round_trips_notation():
    for text in ["C1", "C12", "C2xC6", "D8", "Dic5", "C2xD6", "D6xDic2", "C2xC4xD10"]:
        descriptor = parse_group(text)
        assert descriptor.notation() == text
        assert parse_group(descriptor.notation()) == descriptor


def test_parse_round_trip_and_error_offsets_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    term = st.one_of(
        st.integers(1, 60).map(lambda n: f"C{n}"),
        st.integers(3, 30).map(lambda k: f"D{2 * k}"),
        st.integers(2, 20).map(lambda k: f"Dic{k}"),
        st.just("Q8"),
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(term, min_size=1, max_size=4), st.data())
    def check(terms, data):
        text = "x".join(terms)
        descriptor = parse_group(text)
        assert parse_group(descriptor.notation()) == descriptor
        # The bytes the parser reads with a fresh expectation: each term's first
        # byte, the byte after its letters, and the byte after the term.
        positions = set()
        start = 0
        for t in terms:
            positions |= {start, start + len(t)}
            if t != "Q8":
                positions.add(start + (3 if t.startswith("Dic") else 1))
            start += len(t) + 1
        k = data.draw(st.sampled_from(sorted(positions)))
        bad = data.draw(st.sampled_from(" !#-.cyX"))
        with pytest.raises(GroupParseError) as exc:
            parse_group(text[:k] + bad + text[k:])
        assert exc.value.offset == k

    check()


def test_canonicalize_known_values():
    assert canonicalize([]) == AbelianGroup(())
    assert canonicalize([5]) == AbelianGroup((5,))
    assert canonicalize([6, 2]) == AbelianGroup((2, 6))
    assert canonicalize([2, 3]) == AbelianGroup((6,))
    assert canonicalize([4, 6]) == AbelianGroup((2, 12))
    assert canonicalize([12, 18]) == AbelianGroup((6, 36))
    with pytest.raises(ValueError):
        canonicalize([1])
    with pytest.raises(ValueError):
        canonicalize([0, 4])


def test_canonicalize_preserves_element_orders():
    # the canonical form must describe the same group: equal order multisets
    for factors in factor_multisets(200):
        canonical = canonicalize(list(factors))
        assert spectrum_by_enumeration(factors) == spectrum_by_enumeration(
            canonical.invariant_factors
        )


def test_canonicalize_is_stable():
    for factors in factor_multisets(120):
        canonical = canonicalize(list(factors))
        assert canonicalize(list(reversed(factors))) == canonical
        assert canonicalize(list(canonical.invariant_factors)) == canonical


def test_enumerate_abelian_known_values():
    assert [g.invariant_factors for g in enumerate_abelian(1)] == [()]
    assert [g.invariant_factors for g in enumerate_abelian(4)] == [(2, 2), (4,)]
    assert [g.invariant_factors for g in enumerate_abelian(8)] == [(2, 2, 2), (2, 4), (8,)]
    assert [g.invariant_factors for g in enumerate_abelian(36)] == [
        (2, 18),
        (3, 12),
        (6, 6),
        (36,),
    ]


def test_enumerate_abelian_counts_match_partition_oracle():
    from zsr.exactmath import factorize

    for n in range(1, 201):
        groups = enumerate_abelian(n)
        expected = 1
        for _, e in factorize(n):
            expected *= partition_count(e)
        assert len(groups) == expected
        assert len(set(groups)) == len(groups)
        for g in groups:
            assert g.order == n


def test_order_spectrum_known_values():
    assert order_spectrum(AbelianGroup(())).entries == {1: 1}
    assert order_spectrum(Dihedral(5)).entries == {1: 1, 2: 5, 5: 4, 10: 0}
    assert order_spectrum(AbelianGroup((2, 6))).entries == {1: 1, 2: 3, 3: 2, 4: 0, 6: 6, 12: 0}
    assert order_spectrum(AbelianGroup((4,))).entries == {1: 1, 2: 1, 4: 2}
    assert order_spectrum(AbelianGroup((2, 2))).entries == {1: 1, 2: 3, 4: 0}


def test_cyclic_spectrum_counts_totients():
    for n in range(1, 101):
        group = AbelianGroup(() if n == 1 else (n,))
        spectrum = order_spectrum(group)
        for d, count in spectrum.entries.items():
            assert count == sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def test_order_spectrum_matches_bruteforce_on_abelian_groups():
    for n in range(1, 201):
        for group in enumerate_abelian(n):
            assert order_spectrum(group).entries == order_spectrum_bruteforce(group).entries


def test_dihedral_spectrum_structure():
    # rotations contribute a cyclic spectrum, reflections all have order 2
    for k in range(3, 30):
        entries = order_spectrum(Dihedral(k)).entries
        cyclic = order_spectrum(AbelianGroup((k,))).entries
        assert entries[2] == cyclic.get(2, 0) + k
        for d, count in cyclic.items():
            if d != 2:
                assert entries[d] == count
        assert sum(entries.values()) == 2 * k


def test_dicyclic_spectrum_structure():
    # the 2k extra elements all have order 4
    for k in range(2, 20):
        entries = order_spectrum(Dicyclic(k)).entries
        cyclic = order_spectrum(AbelianGroup((2 * k,))).entries
        assert entries[4] == cyclic.get(4, 0) + 2 * k
        for d, count in cyclic.items():
            if d != 4:
                assert entries[d] == count
        assert sum(entries.values()) == 4 * k


def test_product_spectrum_is_symmetric_and_complete():
    pairs = [
        (Dihedral(3), AbelianGroup((2,))),
        (Dihedral(3), Dicyclic(2)),
        (Dicyclic(3), AbelianGroup((5,))),
    ]
    for left, right in pairs:
        forward = order_spectrum(Product((left, right)))
        backward = order_spectrum(Product((right, left)))
        assert forward.entries == backward.entries
        assert sum(forward.entries.values()) == left.order * right.order


def test_product_of_dihedral_and_c2_matches_double_dihedral():
    product = order_spectrum(Product((Dihedral(3), AbelianGroup((2,)))))
    assert product.entries == order_spectrum(Dihedral(6)).entries


def test_make_product_merges_all_abelian_factors():
    merged = make_product((AbelianGroup((2,)), AbelianGroup((3,))))
    assert merged == AbelianGroup((6,))
    mixed = make_product((AbelianGroup((2,)), Dihedral(3)))
    assert isinstance(mixed, Product)
    with pytest.raises(ValueError):
        Product((AbelianGroup((2,)), AbelianGroup((3,))))


def test_bruteforce_spectrum_budget():
    big = AbelianGroup((5002,))
    with pytest.raises(BudgetError) as exc:
        order_spectrum_bruteforce(big)
    assert str(DEFAULT_SPECTRUM_BOUND) in str(exc.value)
    small = AbelianGroup((12,))
    with pytest.raises(BudgetError):
        order_spectrum_bruteforce(small, bound=10)
    assert order_spectrum_bruteforce(small, bound=12).entries == order_spectrum(small).entries


def test_order_spectrum_validation_rejects_malformed_tables():
    with pytest.raises(ValueError):
        OrderSpectrum(entries={1: 1, 2: 1}, group_order=4)  # divisor 4 missing
    with pytest.raises(ValueError):
        OrderSpectrum(entries={1: 0, 2: 3, 4: 1}, group_order=4)  # no identity
    with pytest.raises(ValueError):
        OrderSpectrum(entries={1: 1, 2: 1, 4: 1}, group_order=4)  # sums to 3
    spectrum = OrderSpectrum(entries={1: 1, 2: 3, 4: 0}, group_order=4)
    assert spectrum.count_of(2) == 3
    assert spectrum.key() == ((1, 1), (2, 3), (4, 0))
