"""Tests for group descriptors, parsing, canonical forms, and order spectra."""

from functools import lru_cache
from itertools import product as cartesian
from math import gcd, lcm, prod

import pytest

from zsr.errors import BudgetError, GroupParseError
from zsr.exactmath import divisors, factorize, valuation
from zsr.groups import (
    AbelianGroup,
    DEFAULT_SPECTRUM_BOUND,
    Dicyclic,
    Dihedral,
    OrderSpectrum,
    Product,
    abelian_groups,
    canonicalize,
    enumerate_abelian,
    make_product,
    order_spectrum,
    order_spectrum_bruteforce,
    parse_group,
    solutions,
    spectrum_from_solutions,
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
        ("C\u0663", "expected an integer after 'C'", 1),  # ARABIC-INDIC DIGIT THREE
        ("D\uff11\uff12", "expected an integer after 'D'", 1),  # FULLWIDTH DIGITS 1, 2
        ("C\u00b2", "expected an integer after 'C'", 1),  # SUPERSCRIPT TWO
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
    with pytest.raises(ValueError, match="group order must be positive, got 0"):
        enumerate_abelian(0)


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
    with pytest.raises(TypeError, match="not a group descriptor"):
        order_spectrum(object())


def test_cyclic_spectrum_counts_totients():
    for n in range(1, 101):
        group = AbelianGroup(() if n == 1 else (n,))
        spectrum = order_spectrum(group)
        for d, count in spectrum.entries.items():
            assert count == sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def test_order_spectrum_matches_bruteforce_on_abelian_groups():
    # The closed form of F inverted, through order_spectrum and as a scan's
    # sweep calls it (one factorization per order, and its divisors), against
    # element enumeration.
    checked = 0
    for n in range(1, 513):
        fac = factorize(n)
        divs = divisors(n)
        groups = abelian_groups(fac)
        assert groups == enumerate_abelian(n)
        for group in groups:
            brute = order_spectrum_bruteforce(group)
            assert spectrum_from_solutions(solutions(group, divs), fac, divs) == brute, group
            assert order_spectrum(group) == brute, group
            checked += 1
    assert checked == 1060


def test_p_part_spectra_property():
    # A random abelian group, given by a partition of each prime's exponent
    # and built by canonicalize: x^d = 1 has the product over p of
    # p^(sum of min(part, v_p(d))) solutions for every divisor d, and their
    # inverse passes _fill's invariants (an entry at every divisor in
    # increasing order, one identity, no negative count, counts summing to
    # the order) and sums back to them; against element enumeration where
    # the order allows.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    partitions = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
        lambda parts: tuple(sorted(parts, reverse=True)))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.dictionaries(st.sampled_from((2, 3, 5, 7, 97)), partitions, max_size=2))
    def spectra(types):
        group = canonicalize([p ** part for p, parts in types.items() for part in parts])
        fac = sorted((p, sum(parts)) for p, parts in types.items())
        n = group.order
        divs = sorted(prod(p ** k for (p, _), k in zip(fac, ks))
                      for ks in cartesian(*(range(e + 1) for _, e in fac)))
        assert group in abelian_groups(fac)
        counts = solutions(group, divs)
        assert counts == [prod(p ** sum(min(part, valuation(d, p)) for part in parts)
                               for p, parts in types.items()) for d in divs]
        entries = spectrum_from_solutions(counts, fac, divs).entries
        assert list(entries) == divs and entries[1] == 1
        assert min(entries.values()) >= 0 and sum(entries.values()) == n
        for d, count in zip(divs, counts):
            assert sum(entries[e] for e in divs if d % e == 0) == count, d
        if n <= DEFAULT_SPECTRUM_BOUND:
            assert entries == order_spectrum_bruteforce(group).entries

    spectra()


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


def lcm_merged(spectra, divs):
    """A direct product's spectrum from its factors': orders d1 and d2 make lcm(d1, d2)."""
    counts = {1: 1}
    for spectrum in spectra:
        merged = dict.fromkeys(divs, 0)
        for d1, c1 in counts.items():
            for d2, c2 in spectrum.entries.items():
                merged[lcm(d1, d2)] += c1 * c2
        counts = merged
    return counts


def test_product_spectra_match_the_lcm_merge():
    # order_spectrum multiplies the factors' numbers of solutions of x^d = 1;
    # the reference merges the factors' spectra by lcm instead, for every
    # two-factor product of bases to order 96 and for a few longer and
    # nested products.
    bases = [g for n in range(2, 49) for g in enumerate_abelian(n)] + \
        [Dihedral(k) for k in range(3, 25)] + [Dicyclic(k) for k in range(2, 13)]
    checked = 0
    for i, g in enumerate(bases):
        for h in bases[i:]:
            if g.order * h.order <= 96:
                product = make_product((g, h))
                expected = lcm_merged([order_spectrum(g), order_spectrum(h)], divisors(product.order))
                assert order_spectrum(product).entries == expected, product
                checked += 1
    assert checked == 457
    nested = Product((parse_group("C2xD6"), Dicyclic(3)))
    for group in (parse_group("C2xD6xDic3"), parse_group("Q8xQ8xC3"), parse_group("D10xC2xC2xDic2"),
                  parse_group("Dic3xD6xC5"), nested):
        expected = lcm_merged([order_spectrum(f) for f in group.factors], divisors(group.order))
        assert order_spectrum(group).entries == expected, group.notation()
    assert order_spectrum(nested) == order_spectrum(parse_group("C2xD6xDic3"))


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
    with pytest.raises(ValueError, match="at least one factor"):
        make_product(())


def test_bruteforce_spectrum_budget():
    big = AbelianGroup((5002,))
    with pytest.raises(BudgetError) as exc:
        order_spectrum_bruteforce(big)
    assert str(DEFAULT_SPECTRUM_BOUND) in str(exc.value)
    largest = AbelianGroup((10, DEFAULT_SPECTRUM_BOUND // 10))
    assert order_spectrum_bruteforce(largest).entries == order_spectrum(largest).entries


def test_order_spectrum_validation_rejects_malformed_tables():
    with pytest.raises(ValueError):
        OrderSpectrum(entries={1: 1, 2: 1}, group_order=4)  # divisor 4 missing
    with pytest.raises(ValueError):
        OrderSpectrum(entries={1: 1, 2: 1, 3: 0, 4: 2}, group_order=4)  # 3 is no divisor
    with pytest.raises(ValueError):
        OrderSpectrum(entries={1: 0, 2: 3, 4: 1}, group_order=4)  # no identity
    with pytest.raises(ValueError):
        OrderSpectrum(entries={1: 2, 2: 1, 4: 1}, group_order=4)  # two identities
    with pytest.raises(ValueError):
        OrderSpectrum(entries={1: 1, 2: 1, 4: 1}, group_order=4)  # sums to 3
    spectrum = OrderSpectrum(entries={1: 1, 2: 3, 4: 0}, group_order=4)
    assert spectrum.count_of(2) == 3
    assert tuple(spectrum.entries.items()) == ((1, 1), (2, 3), (4, 0))
