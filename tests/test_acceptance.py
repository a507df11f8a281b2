"""Acceptance suite: one test (and one printed verdict line) per criterion."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from zsr.counting import count_dp, count_formula, count_molien, rational_catalan
from zsr.groups import (
    AbelianGroup,
    Dihedral,
    enumerate_abelian,
    order_spectrum,
    order_spectrum_bruteforce,
    parse_group,
)
from zsr.lemmas import (
    check_lemma22,
    delta,
    lemma21_grid,
    lemma22_grid,
    structure_grid,
)
from zsr.reciprocity import (
    FAMILIES,
    conjecture_scan,
    divisor_gap_free,
    family_descriptors,
    reciprocity_check,
    spectrum_condition,
    verify_theorem,
)


def verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def test_c01_three_counting_routes_agree():
    """formula, dp, and series counts coincide for |G| <= 16, m <= 12."""
    bad = []
    checked = 0
    for n in range(1, 17):
        for group in enumerate_abelian(n):
            spectrum = order_spectrum(group)
            for m in range(13):
                reference = count_formula(spectrum, m)
                if count_dp(group, m) != reference or count_molien(spectrum, m) != reference:
                    bad.append((group.notation(), m))
                checked += 1
    verdict("C01 three counting routes agree", not bad,
            f"{checked} (group, length) cases, {len(bad)} disagreements")


def test_c02_cyclic_reciprocity_symmetry():
    """|M(C_n, m)| = |M(C_m, n)| for 1 <= n, m <= 60."""
    spectra = {k: order_spectrum(AbelianGroup(() if k == 1 else (k,))) for k in range(1, 61)}
    bad = [(n, m) for n in range(1, 61) for m in range(1, 61)
           if count_formula(spectra[n], m) != count_formula(spectra[m], n)]
    verdict("C02 cyclic reciprocity symmetry", not bad,
            f"3600 (n, m) pairs, {len(bad)} asymmetric")


def test_c03_abelian_scan_to_order_36():
    """every abelian pair of orders <= 36: counts agree iff spectra agree."""
    summary = verify_theorem(36)
    groups = sum(len(enumerate_abelian(n)) for n in range(1, 37))
    expected_pairs = groups * (groups + 1) // 2
    ok = summary.pairs_checked == expected_pairs and not summary.violations
    verdict("C03 abelian scan to order 36", ok,
            f"{summary.pairs_checked} pairs (expected {expected_pairs}), "
            f"{len(summary.violations)} violations")


def test_c04_all_family_scan_to_order_48():
    """abelian/dihedral/dicyclic/product pairs of orders <= 48: no violations,
    and agreeing spectra always give equal counts."""
    summary = conjecture_scan(FAMILIES, 48)
    descriptors = family_descriptors(FAMILIES, 48)
    sufficiency_bad = []
    for g, h in combinations_with_replacement(descriptors, 2):
        agree, _ = spectrum_condition(g, h)
        if agree:
            report = reciprocity_check(g, h)
            if not report.counts_agree:
                sufficiency_bad.append((g.notation(), h.notation()))
    ok = not summary.violations and not sufficiency_bad and summary.pairs_checked == 11325
    verdict("C04 all-family scan to order 48", ok,
            f"{summary.pairs_checked} pairs, {len(summary.violations)} violations, "
            f"{len(sufficiency_bad)} sufficiency failures")


def test_c05_dihedral_slices_to_order_100():
    """(D_2p, H) is iff-consistent for p in {5, 7} and every implemented H
    with 2p dividing |H| <= 100."""
    bad = []
    partners = 0
    for p in (5, 7):
        universe = [d for d in family_descriptors(FAMILIES, 100) if d.order % (2 * p) == 0]
        partners += len(universe)
        for h in universe:
            if not reciprocity_check(Dihedral(p), h).iff_consistent:
                bad.append((2 * p, h.notation()))
    verdict("C05 dihedral slices to order 100", partners > 50 and not bad,
            f"{partners} partner groups, {len(bad)} inconsistent")


def test_c06_coprime_collapse():
    """for gcd(|G|, m) = 1 the count is the rational Catalan number,
    across every implemented descriptor of order <= 30 and m <= 30."""
    bad = []
    checked = 0
    for descriptor in family_descriptors(FAMILIES, 30):
        spectrum = order_spectrum(descriptor)
        n = descriptor.order
        for m in range(1, 31):
            if gcd(n, m) != 1:
                continue
            checked += 1
            if count_formula(spectrum, m) != rational_catalan(n, m):
                bad.append((descriptor.notation(), m))
    verdict("C06 coprime collapse to rational Catalan", not bad,
            f"{checked} coprime cases, {len(bad)} mismatches")


def test_c07_block_ratio_grids_to_200():
    """both block-ratio inequality grids are clean for m, n <= 200."""
    first = lemma21_grid(200, "i")
    second = lemma21_grid(200, "ii")
    ok = (first.checked, second.checked) == (19284, 16496) \
        and not first.failures and not second.failures
    verdict("C07 block-ratio grids to 200", ok,
            f"variant i {first.checked} checked / {len(first.failures)} failures, "
            f"variant ii {second.checked} checked / {len(second.failures)} failures")


def test_c08_prime_power_grids_to_360():
    """both prime-power divisor grids are clean for m, n <= 360, with the
    {2, 3} clause exercised."""
    first = lemma22_grid(360, "i")
    second = lemma22_grid(360, "ii")
    special = check_lemma22(24, 24, 2, 3, 2, 3, "i")
    ok = (first.checked, second.checked) == (5685, 104) \
        and not first.failures and not second.failures \
        and special.holds and special.lhs == 5408312 and special.rhs == 77220
    verdict("C08 prime-power grids to 360", ok,
            f"variant i {first.checked} checked, variant ii {second.checked} checked, "
            f"{len(first.failures) + len(second.failures)} failures, "
            f"{{2,3}} clause holds: {special.holds}")


def test_c09_structure_grid_to_64():
    """spectrum-difference structure constraints hold on all abelian pairs
    of order <= 64."""
    grid = structure_grid(64)
    ok = grid.checked == 6074 and not grid.failures
    verdict("C09 structure grid to 64", ok,
            f"{grid.checked} instances, {len(grid.failures)} failures")


def test_c10_spectrum_routes_agree_to_200():
    """structural and brute-force spectra coincide for every abelian group
    of order <= 200."""
    bad = []
    checked = 0
    for n in range(1, 201):
        for group in enumerate_abelian(n):
            checked += 1
            if order_spectrum(group).entries != order_spectrum_bruteforce(group).entries:
                bad.append(group.notation())
    verdict("C10 spectrum routes agree to 200", not bad,
            f"{checked} groups, {len(bad)} disagreements")


def test_c11_golden_values():
    """spot values frozen from worked examples."""
    goldens = [
        ("spectrum D10", order_spectrum(parse_group("D10")).entries,
         {1: 1, 2: 5, 5: 4, 10: 0}),
        ("spectrum C2xC6", order_spectrum(parse_group("C2xC6")).entries,
         {1: 1, 2: 3, 3: 2, 4: 0, 6: 6, 12: 0}),
        ("spectrum Q8", order_spectrum(parse_group("Q8")).entries,
         {1: 1, 2: 1, 4: 6, 8: 0}),
        ("count C5 length 3", count_formula(order_spectrum(parse_group("C5")), 3), 7),
        ("count C4 length 4", count_formula(order_spectrum(parse_group("C4")), 4), 10),
        ("count C2xC2 length 4", count_formula(order_spectrum(parse_group("C2xC2")), 4), 11),
        ("count C2xC6 length 4", count_formula(order_spectrum(parse_group("C2xC6")), 4), 119),
        ("count D10 length 10", count_formula(order_spectrum(parse_group("D10")), 10), 9302),
        ("count C10 length 10", count_formula(order_spectrum(parse_group("C10")), 10), 9252),
        ("witness D10 vs C10", spectrum_condition(parse_group("D10"), parse_group("C10")),
         (False, 2)),
        ("witness C4 vs C2xC2", spectrum_condition(parse_group("C4"), parse_group("C2xC2")),
         (False, 2)),
        ("witness D12 vs C2xD6", spectrum_condition(parse_group("D12"), parse_group("C2xD6")),
         (True, None)),
        ("catalan(2, 3)", rational_catalan(2, 3), 2),
        ("catalan(5, 3)", rational_catalan(5, 3), 7),
        ("delta(6, 12)", delta(6, 12, 2, 3, 2, 3), Fraction(1)),
        ("delta(24, 24)", delta(24, 24, 2, 3, 2, 3), Fraction(8)),
        ("gap-free 6", divisor_gap_free(6), False),
        ("gap-free 15", divisor_gap_free(15), True),
        ("abelian pairs to order 8", verify_theorem(8).pairs_checked, 66),
    ]
    bad = [name for name, actual, expected in goldens if actual != expected]
    verdict("C11 golden values", not bad,
            f"{len(goldens)} values, mismatches: {bad if bad else 'none'}")
