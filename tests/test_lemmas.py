"""Tests for the block-ratio and spectrum-structure lemma checkers."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, log2, prod
from pathlib import Path

import pytest
from doctoring import doctored_grid_parts

from zsr import exactmath, groups, lemmas, logblocks, reciprocity
from zsr.cli import main
from zsr.exactmath import binomial, divisors, prime_power_root, valuation
from zsr.groups import AbelianGroup, enumerate_abelian, order_spectrum, parse_group
from zsr.lemmas import (
    GridResult,
    LemmaInstance,
    check_lemma21,
    check_lemma22,
    check_structure_lemmas,
    delta,
    lemma21_grid,
    lemma22_grid,
    structure_grid,
)


def block(m, n, d):
    """binomial((m + n) / d, m / d), spelled out locally."""
    return binomial((m + n) // d, m // d)


def test_delta_known_values():
    assert delta(6, 12, 2, 3, 2, 3) == 1
    assert delta(24, 24, 2, 3, 2, 3) == 8
    assert delta(28, 28, 4, 7, 2, 7) == Fraction(1, 2)
    assert delta(360, 360, 8, 9, 2, 3) == Fraction(25, 2)


def test_delta_domain_errors():
    with pytest.raises(ValueError, match="p = q = 2"):
        delta(12, 12, 2, 4, 2, 2)
    with pytest.raises(ValueError, match="m = 0, n = 12"):
        delta(0, 12, 2, 3, 2, 3)
    with pytest.raises(ValueError, match="m = 12, n = 0"):
        delta(12, 0, 2, 3, 2, 3)


def test_delta_on_pure_prime_power_pairs():
    # with m = n = p^(s+1) * q^t the expression collapses to p
    for p, q in [(2, 3), (3, 2), (2, 5), (5, 2), (3, 5)]:
        for s in (1, 2):
            for t in (1, 2):
                m = p ** (s + 1) * q**t
                assert delta(m, m, p**s, q**t, p, q) == p


def test_check_lemma21_variant_i_equality_case():
    instance = check_lemma21(6, 6, 2, 3, "i")
    assert instance.lemma_id == "L21i"
    assert instance.holds
    assert instance.lhs == Fraction(10, 3)
    assert instance.rhs == Fraction(10, 3)
    assert block(6, 6, 2) == 20 and block(6, 6, 3) == 6


def test_check_lemma21_variant_i_matches_direct_evaluation():
    for m, n, a, b in [(12, 12, 2, 3), (24, 12, 3, 4), (30, 30, 2, 5), (24, 48, 4, 6)]:
        instance = check_lemma21(m, n, a, b, "i")
        ratio = Fraction(block(m, n, a), block(m, n, b))
        bound = (
            Fraction(n + m, n) ** (n // a - n // b)
            * (1 + Fraction(a * n, b * m)) ** (m // a - m // b)
        )
        assert instance.lhs == ratio and instance.rhs == bound
        assert instance.holds == (ratio >= bound and block(m, n, a) > block(m, n, b))
        assert instance.holds


def test_check_lemma21_variant_ii():
    instance = check_lemma21(12, 12, 2, 4, "ii")
    assert instance.lemma_id == "L21ii"
    assert instance.holds
    assert instance.lhs == 2 * block(12, 12, 2) == 1848
    assert instance.rhs == 12 * block(12, 12, 4) == 240


def test_check_lemma21_domain_errors():
    with pytest.raises(ValueError):
        check_lemma21(6, 6, 3, 2, "i")  # needs b > a
    with pytest.raises(ValueError):
        check_lemma21(12, 12, 2, 3, "ii")  # needs b >= 2a
    with pytest.raises(ValueError):
        check_lemma21(6, 6, 4, 6, "i")  # 4 does not divide gcd
    with pytest.raises(ValueError):
        check_lemma21(1, 6, 2, 3, "i")
    with pytest.raises(ValueError):
        check_lemma21(6, 6, 2, 3, "iii")


def test_check_lemma22_special_pair_uses_consequence_only():
    instance = check_lemma22(24, 24, 2, 3, 2, 3, "i")
    assert instance.holds
    assert instance.lhs == 5408312
    assert instance.rhs == 77220
    # lhs is a*block_a - (q^d - q^t)*block_b with d = 1, so the subtraction drops out
    assert instance.lhs == 2 * block(24, 24, 2)
    assert instance.rhs == 2 * 3 * block(24, 24, 3)
    assert instance.parameters["delta"] == 1 and instance.parameters["t"] == 1


def test_check_lemma22_scale_and_consequence():
    instance = check_lemma22(360, 360, 8, 9, 2, 3, "i")
    assert instance.holds
    assert instance.lhs == Fraction(1048835808, 135751)
    assert instance.rhs == 225  # 2 * (25/2) * 3^2
    assert instance.parameters == {
        "m": 360, "n": 360, "a": 8, "b": 9, "p": 2, "q": 3,
        "s": 3, "t": 2, "alpha": 3, "beta": 2, "gamma": 3, "delta": 2,
    }


def test_check_lemma22_small_scale_skips_consequence():
    # delta < 1 here, so only the ratio inequality applies
    instance = check_lemma22(28, 28, 4, 7, 2, 7, "i")
    assert instance.holds
    assert instance.lhs == Fraction(6864, 35)
    assert instance.rhs == 7


def test_check_lemma22_ratio_bound_implies_consequence(monkeypatch):
    # With D >= 1 check_lemma22 tests the ratio bound alone.  On every such grid
    # instance the consequence holds too, with blocks from fresh binomials.
    # With an infinite tolerance the float filter certifies no tuple, so each
    # one the grid visits reaches _lemma22_holds.
    monkeypatch.setattr(logblocks, "_FILTER_TOLERANCE", float("inf"))
    decide = lemmas._lemma22_holds
    for variant, factor, expected in (("i", 2, 2096), ("ii", 1, 75)):
        seen = []

        def spy(*args):
            seen.append(args[:6])
            return decide(*args)

        monkeypatch.setattr(lemmas, "_lemma22_holds", spy)
        assert lemma22_grid(360, variant).failures == []
        scaled = [args for args in seen if {args[2], args[3]} != {2, 3} and delta(*args) >= 1]
        assert len(scaled) == expected
        for m, n, a, b, p, q in scaled:
            slack = q ** valuation(m, q) - b
            block_a, block_b = block(m, n, a), block(m, n, b)
            assert a * block_a - slack * block_b > factor * b * block_b, (m, n, a, b)


def test_check_lemma22_variant_ii():
    instance = check_lemma22(15, 15, 3, 5, 3, 5, "ii")
    assert instance.lemma_id == "L22ii"
    assert instance.holds
    assert instance.lhs == Fraction(189, 5)
    assert instance.rhs == Fraction(5, 3)


def test_check_lemma22_domain_errors():
    with pytest.raises(ValueError) as exc:
        check_lemma22(12, 12, 3, 4, 3, 2, "ii")
    assert "n/a - n/b = 2" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        check_lemma22(12, 12, 2, 3, 2, 3, "ii")
    assert "excludes" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        check_lemma22(24, 24, 6, 3, 2, 3, "i")
    assert "power of the prime" in str(exc.value)
    with pytest.raises(ValueError):
        check_lemma22(24, 24, 2, 4, 2, 2, "i")  # p = q
    with pytest.raises(ValueError):
        check_lemma22(30, 30, 2, 5, 2, 5, "i")  # b >= 2a
    with pytest.raises(ValueError):
        check_lemma22(12, 12, 2, 3, 2, 3, "i")  # spread too small for variant i
    with pytest.raises(ValueError):
        check_lemma22(8, 24, 4, 6, 2, 3, "i")  # b = 6 is not a prime power
    with pytest.raises(ValueError, match="variant must be 'i' or 'ii'"):
        check_lemma22(24, 24, 2, 3, 2, 3, "iii")
    with pytest.raises(ValueError, match="must divide gcd"):
        check_lemma22(24, 30, 4, 3, 2, 3, "i")  # 4 does not divide gcd 6


def test_structure_lemmas_on_order_sixteen_pair():
    g = parse_group("C2xC8")
    h = parse_group("C4xC4")
    instances = check_structure_lemmas(g, h)
    assert [i.lemma_id for i in instances] == ["L23", "L23", "L24", "L25"]
    first, second, third, fourth = instances
    assert first.parameters["min_EG"] == 8 and first.holds
    assert second.parameters["min_EH"] == 4 and second.holds
    assert third.parameters == {
        "n": 16, "m": 16, "q": 2, "t": 2, "delta": 4, "phi_g": 4, "phi_h": 12,
    }
    assert third.lhs == 8 and third.rhs == 12 and third.holds
    assert fourth.parameters == {"n": 16, "m": 16, "p": 2, "s": 2, "alpha": 4, "gamma": 4}
    assert fourth.lhs == 4 and fourth.rhs == 4 and fourth.holds


def test_structure_lemmas_on_order_four_pair():
    g = parse_group("C4")
    h = parse_group("C2xC2")
    instances = check_structure_lemmas(g, h)
    assert [i.lemma_id for i in instances] == ["L23", "L23", "L24"]
    assert instances[0].parameters["min_EG"] == 4
    assert instances[1].parameters["min_EH"] == 2
    assert instances[2].lhs == 2 and instances[2].rhs == 2
    assert all(i.holds for i in instances)


def test_structure_lemmas_empty_when_spectra_agree():
    g = parse_group("C2xC6")
    assert check_structure_lemmas(g, g) == []
    # different orders with agreeing shared divisors also yield nothing
    assert check_structure_lemmas(AbelianGroup((2,)), AbelianGroup((4,))) == []


def test_structure_instances_are_pinned():
    # Every instance, field by field, for each ordered pair of abelian groups
    # up to order 48 (82 groups), as the reprs of the instance lists hash.
    spectra = [order_spectrum(g) for n in range(1, 49) for g in enumerate_abelian(n)]
    digest = hashlib.sha256()
    total = 0
    for sg in spectra:
        for sh in spectra:
            instances = lemmas._structure_instances(sg, sh)
            total += len(instances)
            digest.update(repr(instances).encode())
    assert total == 5592
    assert digest.hexdigest() == "33c1dcec9aadfa6ea1dc6057db7e9f51a5dc7ec0353f1c0e5003416edae7f5c2"


def test_structure_instances_of_non_abelian_and_large_groups_are_pinned():
    # Any two spectra go through the same checks: dihedral and dicyclic
    # groups (the first failing pairs of those families), and two groups of
    # order 720720 = 2^4 * 3^2 * 5 * 7 * 11 * 13, past every grid ceiling.
    def instances(g, h):
        return lemmas._structure_instances(order_spectrum(parse_group(g)),
                                           order_spectrum(parse_group(h)))

    l24 = ("q", "t", "delta", "phi_g", "phi_h")
    assert instances("C6", "D6") == [
        LemmaInstance("L23", {"n": 6, "m": 6, "min_EG": 6}, False, 6, 3),
        LemmaInstance("L23", {"n": 6, "m": 6, "min_EH": 2}, True, 2, 2),
        LemmaInstance("L24", {"n": 6, "m": 6, **dict(zip(l24, (2, 1, 1, 1, 3)))}, False, 2, 0),
    ]
    assert instances("C2", "D6") == [
        LemmaInstance("L23", {"n": 2, "m": 6, "min_EH": 2}, True, 2, 2),
        LemmaInstance("L24", {"n": 2, "m": 6, **dict(zip(l24, (2, 1, 1, 1, 3)))}, False, 2, 0),
    ]
    assert instances("C8", "Dic2") == [
        LemmaInstance("L23", {"n": 8, "m": 8, "min_EG": 8}, True, 8, 8),
        LemmaInstance("L23", {"n": 8, "m": 8, "min_EH": 4}, True, 4, 4),
        LemmaInstance("L24", {"n": 8, "m": 8, **dict(zip(l24, (2, 2, 3, 2, 6)))}, True, 4, 4),
        LemmaInstance("L25", {"n": 8, "m": 8, "p": 2, "s": 2, "alpha": 3, "gamma": 3},
                      False, 3, 4),
    ]
    big = {"n": 720720, "m": 720720}
    assert instances("C720720", "C2xC360360") == [
        LemmaInstance("L23", {**big, "min_EG": 16}, True, 16, 16),
        LemmaInstance("L23", {**big, "min_EH": 2}, True, 2, 2),
        LemmaInstance("L24", {**big, **dict(zip(l24, (2, 1, 4, 1, 3)))}, True, 2, 14),
    ]
    pair = parse_group("C720720"), parse_group("C2xC360360")
    assert check_structure_lemmas(*pair) == instances("C720720", "C2xC360360")


def test_lemma21ii_strip_matches_each_instance(doctor_blocks):
    # Every row to 60, with its true blocks, with them reversed (which fails
    # most pairs), with blocks that tie each pair of neighbours (block_i =
    # max(m, n)^(k-1-i) * divs[0] * ... * divs[i-1] for k divisors) and with
    # the true blocks but the last one raised past max(m, n) * block_0: the
    # strip of each pair b >= 2a fails the instance exactly where
    # a * block_a > max(m, n) * block_b is false.  It reads the logarithms of
    # the blocks from its table, and the blocks themselves through _block.
    tables = logblocks._log_tables(60)
    rows = failing = 0
    for m in range(2, 61):
        for n in range(2, 61):
            divs = divisors(gcd(m, n))[1:]
            if len(divs) < 2:
                continue
            rows += 1
            true = [block(m, n, d) for d in divs]
            ties = [max(m, n) ** (len(divs) - 1 - i) * prod(divs[:i]) for i in range(len(divs))]
            for blocks in (true, true[::-1], ties, [*true[:-1], max(m, n) * true[0]]):
                doctor_blocks({(m, n, d): block_d for d, block_d in zip(divs, blocks)})
                block_of = dict(zip(divs, blocks))
                pairs = [(a, b) for a in divs for b in divs if b >= 2 * a]
                found = [instance for a, b in pairs for instance in lemmas._lemma21_strip(
                    tables, a, b, range(m, m + 1), range(n, n + 1), "ii")]
                assert found == [(m, n, a, b) for a, b in pairs
                                 if not a * block_of[a] > max(m, n) * block_of[b]], (m, n)
                failing += len(found)
    assert rows == 396 and failing > 0


def test_structure_checks_match_the_instances():
    # Every ordered pair of abelian groups up to order 64.
    spectra = [order_spectrum(g) for n in range(1, 65) for g in enumerate_abelian(n)]
    total = 0
    for sg in spectra:
        for sh in spectra:
            pair = lemmas._order_pair(sg.group_order, sh.group_order, {})
            checks = lemmas._structure_checks(sg, sh, pair)
            instances = lemmas._structure_instances(sg, sh)
            assert len(checks) == len(instances)
            assert [check[1] for check in checks] == [instance.holds for instance in instances]
            total += len(checks)
    assert len(spectra) == 117 and total == 12148


def test_structure_grid_order_pairs_give_the_checks_of_lone_pairs(monkeypatch):
    # structure_grid keeps the facts of each pair of orders while it walks
    # the groups of one order, and shares the facts of each gcd across the
    # grid; they equal the fresh facts of the pair, and give its checks.
    checks = lemmas._structure_checks
    calls = []

    def spy(sg, sh, pair):
        found = checks(sg, sh, pair)
        fresh = lemmas._order_pair(sg.group_order, sh.group_order, {})
        calls.append(pair == fresh and found == checks(sg, sh, fresh))
        return found

    monkeypatch.setattr(lemmas, "_structure_checks", spy)
    grid = structure_grid(64)
    assert len(calls) == 117 * 118 // 2 and all(calls)
    assert grid.checked == 6074 and grid.failures == []


def test_lemma_grids_are_clean_at_small_bounds():
    grid = lemma21_grid(60, "i")
    assert isinstance(grid, GridResult)
    assert grid.lemma == "2.1i"
    assert grid.checked == 1446 and grid.failures == []
    grid = lemma21_grid(60, "ii")
    assert grid.checked == 1219 and grid.failures == []
    grid = lemma22_grid(120, "i")
    assert grid.checked == 560 and grid.failures == []
    grid = lemma22_grid(120, "ii")
    assert grid.checked == 31 and grid.failures == []
    grid = structure_grid(36)
    assert grid.lemma == "struct"
    assert grid.checked == 1572 and grid.failures == []


def lemma21_bound(m, n, a, b):
    """The right side of variant i of Lemma 2.1, spelled out locally."""
    return (
        Fraction(n + m, n) ** (n // a - n // b)
        * (1 + Fraction(a * n, b * m)) ** (m // a - m // b)
    )


def fraction_verdict(m, n, a, b, variant):
    """check_lemma21's verdict from Fractions and fresh binomials, spelled out locally."""
    ratio = Fraction(block(m, n, a), block(m, n, b))
    if variant == "ii":
        return a * ratio > max(m, n)
    return ratio >= lemma21_bound(m, n, a, b) and ratio > 1


def test_lemma21_grid_integer_verdicts_match_fraction_reference(monkeypatch):
    # Each variant decides one (a, b) strip at a time.  Spying on
    # _lemma21_strip shows every instance the grids visit, with the
    # logarithms of its blocks, as the strip reads them from its table, and
    # its verdict.
    strip = lemmas._lemma21_strip
    seen = {"i": [], "ii": []}

    def spy(tables, a, b, ms, ns, variant):
        failing = strip(tables, a, b, ms, ns, variant)
        lf = tables[0]
        seen[variant] += [(m, n, a, b, *(lf[(m + n) // d] - lf[m // d] - lf[n // d] for d in (a, b)),
                           (m, n, a, b) not in failing) for m in ms for n in ns]
        return failing

    monkeypatch.setattr(lemmas, "_lemma21_strip", spy)
    for variant in ("i", "ii"):
        grid = lemma21_grid(60, variant)
        expected = [
            (m, n, a, b)
            for m in range(2, 61) for n in range(2, 61) for g in [gcd(m, n)]
            for a in range(2, g + 1) for b in range(a + 1, g + 1)
            if g % a == g % b == 0 and (variant == "i" or b >= 2 * a)
        ]
        # Each instance is visited once.
        assert sorted(entry[:4] for entry in seen[variant]) == expected
        assert grid.checked == len(expected) and grid.failures == []
        for m, n, a, b, log_a, log_b, holds in seen[variant]:
            # Each logarithm is within the bound _tolerance proves for a block
            # logarithm, 2^-40 * (m + n) * log2(m + n), of the true one.
            error = 2 ** -40 * (m + n) * log2(m + n)
            assert abs(log_a - log2(block(m, n, a))) < error, (m, n, a)
            assert abs(log_b - log2(block(m, n, b))) < error, (m, n, b)
            assert holds == fraction_verdict(m, n, a, b, variant), (m, n, a, b, variant)
    # The equality case: lhs == rhs == 10/3, and the instance holds.
    assert Fraction(20, 6) == Fraction(12, 6) * Fraction(18 + 12, 18)
    assert [entry[-1] for entry in seen["i"] if entry[:4] == (6, 6, 2, 3)] == [True]


def test_lemma21_filter_passes_exactly_the_ties_on(monkeypatch):
    # The float filter certifies every instance of variant i to 60 except the
    # 51 where the inequality holds with equality; those reach _lemma21_holds.
    decide = lemmas._lemma21_holds
    reached = []

    def spy(m, n, a, b, block_a, block_b):
        reached.append((m, n, a, b))
        return decide(m, n, a, b, block_a, block_b)

    monkeypatch.setattr(lemmas, "_lemma21_holds", spy)
    assert lemma21_grid(60, "i").failures == []
    assert sorted(reached)[:3] == [(4, 4, 2, 4), (6, 6, 2, 3), (6, 6, 3, 6)]
    ties = [(m, n, a, b) for m, n, a, b in reached
            if Fraction(block(m, n, a), block(m, n, b)) == lemma21_bound(m, n, a, b)]
    assert ties == reached and len(reached) == 51


def test_lemma21_doctored_block_fails_through_the_filter(monkeypatch, doctor_blocks):
    # In the row (12, 12) the true block_2 is 924, and (2, 3) needs
    # block_2 >= 70 * 100/9, so 778 still holds and 777 fails, by about a
    # thousandth of a bit; no other pair of the row changes its verdict.  The
    # doctored block reaches the float filter as its logarithm and the integer
    # comparison as itself.  The report is check_lemma21's, from fresh
    # binomials.
    assert (block(12, 12, 2), block(12, 12, 3)) == (924, 70)
    assert lemma21_bound(12, 12, 2, 3) == Fraction(100, 9)
    decide = lemmas._lemma21_holds
    reached = []

    def spy(m, n, a, b, block_a, block_b):
        reached.append((m, n, a, b, block_a, block_b))
        return decide(m, n, a, b, block_a, block_b)

    monkeypatch.setattr(lemmas, "_lemma21_holds", spy)
    for doctored, failing in ((778, []), (777, [(12, 12, 2, 3)])):
        doctor_blocks({(12, 12, 2): doctored})
        reached.clear()
        grid = lemma21_grid(12, "i")
        assert [tuple(f.parameters.values()) for f in grid.failures] == failing
        assert grid.failures == [check_lemma21(*parameters, "i") for parameters in failing]
        assert ((12, 12, 2, 3, 777, 70) in reached) == bool(failing)


def test_doctored_blocks_reach_the_strip_as_logarithms(monkeypatch):
    # At (24, 12) the table entry lf[36/3] of block_3 is the entry lf[24/2]
    # of block_2, so doctoring block_3 alone must leave the logarithm of
    # block_2 true.  The strip reads the logarithms of the doctored blocks.
    strip = lemmas._lemma21_strip
    read = []

    def spy(tables, a, b, ms, ns, variant):
        lf = tables[0]
        read.extend((m, n, a, b, *(lf[(m + n) // d] - lf[m // d] - lf[n // d] for d in (a, b)))
                    for m in ms for n in ns)
        return strip(tables, a, b, ms, ns, variant)

    monkeypatch.setattr(lemmas, "_lemma21_strip", spy)
    for doctored in ({(24, 12, 3): 5}, {(24, 12, 2): 7}, {(24, 12, 2): 7, (24, 12, 3): 5}):
        for name, part in doctored_grid_parts(doctored):
            monkeypatch.setattr(lemmas, name, part)
        read.clear()
        lemma21_grid(24, "i")
        [(*_, log_a, log_b)] = [entry for entry in read if entry[:4] == (24, 12, 2, 3)]
        for d, logarithm in ((2, log_a), (3, log_b)):
            assert abs(logarithm - log2(doctored.get((24, 12, d), block(24, 12, d)))) < 2 ** -40
        monkeypatch.setattr(lemmas, "_lemma21_strip", spy)


@pytest.mark.parametrize("shift", [1, 0, -1])
def test_near_ties_within_the_tolerance_reach_the_integer_path(shift, monkeypatch, doctor_blocks):
    # Blocks near k = 2^60 put each planted comparison within 2^-60 bits of
    # a tie, far inside the tolerance of its row (above 2^-24 bits), so the
    # float filter must pass it on to the integer comparison, which decides
    # it.  shift 1 makes it hold, and -1 fail.  shift 0 is an exact tie: it
    # holds for the >= of 2.1i, and fails the strict bounds of 2.1ii and of
    # 2.2, whose ratio bound p*a^3*b*block_a > f*m*n*block_b then reads
    # 2*64*7 * 7k > 2*28*28 * 4k, both sides being 6272k, and whose {2, 3}
    # clause a*block_a > (q^d - b + f*b) * block_b reads 2 * 3k > 6 * k at
    # (24, 24).  No other pair of the planted rows changes its verdict.
    k = 2 ** 60
    cases = [
        # grid, bound, variant, planted (m, n, a, b), block_a, block_b, decider, holds
        (lemma21_grid, 12, "i", (12, 12, 2, 3), 100 * k + shift, 9 * k, "_lemma21_holds",
         shift >= 0),
        (lemma21_grid, 12, "ii", (12, 12, 2, 4), 6 * k + shift, k, "_lemma21ii_holds", shift > 0),
        (lemma22_grid, 28, "i", (28, 28, 4, 7), 7 * k + shift, 4 * k, "_lemma22_holds", shift > 0),
        (lemma22_grid, 24, "i", (24, 24, 2, 3), 3 * k + shift, k, "_lemma22_holds", shift > 0),
    ]
    for grid, bound, variant, planted, block_a, block_b, decider, holds in cases:
        m, n, a, b = planted
        reached = []

        def spy(*args, decide=getattr(lemmas, decider), reached=reached):
            reached.append(args[:4])
            return decide(*args)

        monkeypatch.setattr(lemmas, decider, spy)
        doctor_blocks({(m, n, a): block_a, (m, n, b): block_b})
        result = grid(bound, variant)
        assert planted in reached, (variant, planted)
        failing = [tuple(f.parameters.values())[:4] for f in result.failures]
        assert failing == ([] if holds else [planted]), (variant, planted)
    assert not lemmas._lemma22_holds(28, 28, 4, 7, 2, 7, 7, 4, "i")


def test_lemma21_filter_or_exact_matches_fractions(doctor_blocks):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def instances(draw):
        a = draw(st.integers(2, 40))
        b = draw(st.integers(a + 1, 75))
        step = a * b // gcd(a, b)  # at most 40 * 75 = 3000
        m = step * draw(st.integers(1, 3000 // step))
        n = step * draw(st.integers(1, 3000 // step))
        return m, n, a, b

    # shift None keeps the true blocks; an integer puts block_a that far from
    # the least value for which the ratio bound holds, a near-tie in floats.
    tables = logblocks._log_tables(3000)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(instances(), st.one_of(st.none(), st.integers(-2, 2)))
    def check(instance, shift):
        m, n, a, b = instance
        block_a, block_b = block(m, n, a), block(m, n, b)
        if shift is None:
            holds = check_lemma21(m, n, a, b, "i").holds
            assert holds == fraction_verdict(m, n, a, b, "i")
        else:
            threshold = lemma21_bound(m, n, a, b) * block_b
            block_a = -(-threshold.numerator // threshold.denominator) + shift
            holds = block_a > block_b and Fraction(block_a, block_b) >= lemma21_bound(m, n, a, b)
        # The strip reads the logarithms of the blocks from its table, and
        # the blocks themselves through _block.
        doctor_blocks({(m, n, a): block_a, (m, n, b): block_b})
        failing = lemmas._lemma21_strip(tables, a, b, range(m, m + 1), range(n, n + 1), "i")
        assert failing == ([] if holds else [(m, n, a, b)]), (m, n, a, b, shift)

    check()


def test_the_tolerance_proof_covers_the_grid_ceilings():
    # The error bound of logblocks._tolerance takes t + 1 < 2^12 for every
    # (m + n)/d with d >= 2, and keeps tau 256 times above the error it
    # proves, so it holds only while both binomial ceilings and the scan
    # ceiling, whose summary certificate reads the same tables, stay below
    # 4096 and the tolerance is at least 2^-30 per unit.
    assert max(lemmas.LEMMA21_GRID_MAX, lemmas.LEMMA22_GRID_MAX) < 2 ** 12
    assert reciprocity.SCAN_MAX_ORDER < 2 ** 12
    assert logblocks._FILTER_TOLERANCE >= 2.0 ** -30


def lemma22_fraction_verdict(m, n, a, b, p, q, variant, block_a, block_b):
    """The verdict of check_lemma22 on the given blocks, in Fractions from the valuations."""
    factor = 2 if variant == "i" else 1
    if {a, b} == {2, 3}:
        return a * block_a - (q ** valuation(m, q) - b) * block_b > factor * b * block_b
    rhs = factor * delta_by_valuations(m, n, a, b, p, q) * q ** valuation(m, q)
    return Fraction(a * block_a, block_b) > rhs


def test_lemma22_filter_or_exact_matches_fractions(doctor_blocks):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    limit = 300  # keeps each grid run below about 15 ms
    # The prime powers a = p^s < b = q^t < 2a of distinct primes whose
    # multiples of a * b up to the limit give the variant's spread
    # n/a - n/b = k * (b - a) for n = k * a * b.
    powers = [(d, prime_power_root(d)[0]) for d in range(2, limit) if prime_power_root(d)]
    pairs = [(a, p, b, q) for a, p in powers for b, q in powers if p != q and a < b < 2 * a]
    least_k = {"i": lambda a, b: -(-3 // (b - a)),
               "ii": lambda a, b: 2 // (b - a) if 2 % (b - a) == 0 and {a, b} != {2, 3} else limit}
    fits = {variant: [(a, p, b, q) for a, p, b, q in pairs if least(a, b) * a * b <= limit]
            for variant, least in least_k.items()}

    @st.composite
    def instances(draw):
        variant = draw(st.sampled_from(["i", "ii"]))
        # Half the draws of variant i take {2, 3}, which has a clause of its own.
        pair = st.sampled_from(fits[variant])
        a, p, b, q = draw(st.one_of(st.just((2, 2, 3, 3)), pair) if variant == "i" else pair)
        step = a * b
        low = least_k[variant](a, b)
        k = low if variant == "ii" else draw(st.integers(low, limit // step))
        m = step * draw(st.integers(1, limit // step))
        return m, step * k, a, b, p, q, variant

    # shift None keeps the true blocks.  Otherwise block_a is moved from the
    # least value for which the tuple holds by small and by least * j / 2^scale:
    # a near-tie in floats for a large scale, a margin well clear of the
    # tolerance, either way, for a small one.
    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(instances(), st.one_of(st.none(), st.tuples(
        st.integers(-2, 2), st.integers(-4, 4), st.integers(2, 80))))
    def check(instance, shift):
        m, n, a, b, p, q, variant = instance
        block_a, block_b = block(m, n, a), block(m, n, b)
        if shift is None:
            assert check_lemma22(m, n, a, b, p, q, variant).holds
        else:
            factor = 2 if variant == "i" else 1
            if {a, b} == {2, 3}:
                threshold = Fraction((q ** valuation(m, q) - b + factor * b) * block_b, a)
            else:
                threshold = factor * delta_by_valuations(m, n, a, b, p, q) * q ** valuation(m, q)
                threshold *= Fraction(block_b, a)
            least = threshold.numerator // threshold.denominator + 1
            small, j, scale = shift
            block_a = max(1, least + small + (least * j >> scale))
        blocks = {a: block_a}
        doctor_blocks({(m, n, a): block_a})
        expected = [t for t in admissible_lemma22_row(m, n, variant)
                    if not lemma22_fraction_verdict(*t, variant, blocks.get(t[2], block(m, n, t[2])),
                                                    blocks.get(t[3], block(m, n, t[3])))]
        grid = lemma22_grid(max(m, n), variant)
        failing = [tuple(f.parameters.values())[:6] for f in grid.failures]
        assert failing == expected, (instance, shift)
        assert grid.failures == [check_lemma22(*t, variant) for t in expected]

    check()


def test_lemma21_grid_reports_failures_unchanged(plant_lemma21_failures, capsys):
    planted = [(12, 18, 2, 3), (20, 30, 2, 5)]  # in grid order: m, then n, a, b
    plant_lemma21_failures(planted)
    expected = [check_lemma21(*parameters, "i") for parameters in planted]
    assert lemma21_grid(30, "i").failures == expected
    assert main(["lemma", "--id", "2.1i", "--max", "30", "--format", "csv"]) == 1
    out = capsys.readouterr().out
    assert out == ("lemma_id,m,n,a,b,p,q,lhs,rhs\n"
                   "L21i,12,18,2,3,,,143/6,500/27\n"
                   "L21i,20,30,2,5,,,326876/21,32768000/19683\n")


def test_mirror_rows_share_blocks_and_variant_ii_verdicts():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def instances(draw):
        a = draw(st.integers(2, 30))
        b = draw(st.integers(2 * a, 90))
        step = a * b // gcd(a, b)  # at most 30 * 90 < 3000
        m = step * draw(st.integers(1, 3000 // step))
        n = step * draw(st.integers(1, 3000 // step))
        return m, n, a, b

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(instances())
    def check(instance):
        m, n, a, b = instance
        for d in (a, b):
            assert lemmas._block(m, n, d) == lemmas._block(n, m, d) == block(n, m, d), (m, n, d)
        holds = check_lemma21(m, n, a, b, "ii").holds
        assert holds == check_lemma21(n, m, a, b, "ii").holds, (m, n, a, b)

    check()


@pytest.mark.parametrize("planted", [
    [(12, 18, 2, 3), (16, 12, 2, 4)],
    [(16, 12, 2, 4), (18, 12, 2, 3)],
])
def test_lemma21i_plant_in_one_mirror_row_is_reported_alone(planted, plant_lemma21_failures):
    # Each instance is decided on its own blocks, so a plant in one row
    # leaves its mirror clean.  The failures come out in grid order, (12, 18)
    # before (16, 12), whatever order the strips visit them in.
    plant_lemma21_failures(planted)
    grid = lemma21_grid(18, "i")
    assert grid.checked == 79
    assert grid.failures == [check_lemma21(*parameters, "i") for parameters in planted]


def test_lemma21ii_plant_is_reported_at_its_own_row_only(plant_lemma21_failures):
    # Variant ii decides each instance on its own blocks, so a plant in the
    # row (m, n) leaves the mirror row (n, m) clean, although the verdicts
    # of the true blocks of mirror rows agree.
    planted = [(16, 12, 2, 4), (18, 12, 3, 6)]
    plant_lemma21_failures(planted)
    grid = lemma21_grid(18, "ii")
    assert grid.checked == 66
    assert grid.failures == [check_lemma21(*parameters, "ii") for parameters in planted]


def test_benchmark_size_grids_are_pinned(monkeypatch):
    # The bounds of the lemma-grids benchmark.  The binomial grids build no
    # block table: they read block logarithms from one table of log2(k!), and
    # decide in integers only the instances their float filter passes on (the
    # ties of variant 2.1i).  The structure grid finds the facts of each gcd
    # once: the factorize calls left are those of the group spectra (1,448)
    # and two per gcd (factorize and divisors).
    calls = dict.fromkeys(["block_table", "factorize", "_lemma21_holds", "_lemma21ii_holds",
                           "_lemma22_holds"], 0)

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    assert not hasattr(lemmas, "block_table")
    monkeypatch.setattr(exactmath, "block_table", counted("block_table", exactmath.block_table))
    for name in ("_lemma21_holds", "_lemma21ii_holds", "_lemma22_holds"):
        monkeypatch.setattr(lemmas, name, counted(name, getattr(lemmas, name)))
    factorize = counted("factorize", exactmath.factorize)
    for module in (exactmath, groups, lemmas):
        monkeypatch.setattr(module, "factorize", factorize)
    for grid, bound, variant, checked, exact, fallbacks in (
            (lemma21_grid, 400, "i", 82896, "_lemma21_holds", 372),
            (lemma21_grid, 400, "ii", 70973, "_lemma21ii_holds", 0),
            (lemma22_grid, 360, "i", 5685, "_lemma22_holds", 0)):
        calls.update(dict.fromkeys(calls, 0))
        result = grid(bound, variant)
        assert (result.checked, result.failures) == (checked, [])
        assert (calls["block_table"], calls[exact]) == (0, fallbacks), variant
    calls["factorize"] = 0
    grid = structure_grid(128)
    assert (grid.checked, grid.failures) == (28759, [])
    assert 0 < calls["factorize"] <= 1448 + 2 * 128


def test_lemma22_grids_at_the_ceiling_are_pinned():
    # A strip of Lemma 2.2 needs a * b <= max_mn, so even at the ceiling the
    # grids list few pairs (a < 55) and take a fraction of a second.
    for variant, checked in (("i", 417725), ("ii", 916)):
        grid = lemma22_grid(lemmas.LEMMA22_GRID_MAX, variant)
        assert (grid.checked, grid.failures) == (checked, []), variant


def failed(instance):
    """The same instance with its verdict turned to a failure."""
    return LemmaInstance(instance.lemma_id, instance.parameters, False, instance.lhs, instance.rhs)


def admissible_lemma22(max_mn, variant):
    """Every admissible (m, n, a, b, p, q) of lemma22_grid in grid order, spelled out locally."""
    return [instance for m in range(2, max_mn + 1) for n in range(2, max_mn + 1)
            for instance in admissible_lemma22_row(m, n, variant)]


def admissible_lemma22_row(m, n, variant):
    """The admissible (m, n, a, b, p, q) of the row (m, n), in grid order."""
    g = gcd(m, n)
    powers = [(d, prime_power_root(d)[0]) for d in range(2, g + 1)
              if g % d == 0 and prime_power_root(d) is not None]
    out = []
    for a, p in powers:
        for b, q in powers:
            spread = n // a - n // b
            if p == q or b >= 2 * a:
                continue
            if spread >= 3 if variant == "i" else spread == 2 and {a, b} != {2, 3}:
                out.append((m, n, a, b, p, q))
    return out


def delta_by_valuations(m, n, a, b, p, q):
    """D = p^(alpha+gamma-2s-1) * q^(beta-t) * m' * n', spelled out from the valuations."""
    s, t = prime_power_root(a)[1], prime_power_root(b)[1]
    alpha, beta, gamma, d = valuation(n, p), valuation(n, q), valuation(m, p), valuation(m, q)
    n_prime = n // (p ** alpha * q ** beta)
    m_prime = m // (p ** gamma * q ** d)
    return Fraction(p) ** (alpha + gamma - 2 * s - 1) * Fraction(q) ** (beta - t) * m_prime * n_prime


def test_delta_matches_the_valuation_formula():
    tuples = admissible_lemma22(120, "i") + admissible_lemma22(120, "ii")
    assert len(tuples) == 591
    for m, n, a, b, p, q in tuples:
        assert delta(m, n, a, b, p, q) == delta_by_valuations(m, n, a, b, p, q), (m, n, a, b)


def test_lemma22_integer_verdicts_match_fractions(monkeypatch):
    # With an infinite tolerance the float filter certifies no tuple, so each
    # one the grid visits reaches _lemma22_holds, once.
    monkeypatch.setattr(logblocks, "_FILTER_TOLERANCE", float("inf"))
    decide = lemmas._lemma22_holds
    for variant, factor, count in (("i", 2, 560), ("ii", 1, 31)):
        visited = []
        monkeypatch.setattr(lemmas, "_lemma22_holds", lambda *args: (
            visited.append(args[:6]) or decide(*args)))
        assert lemma22_grid(120, variant).failures == []
        tuples = admissible_lemma22(120, variant)
        assert sorted(visited) == tuples and len(tuples) == count
        special = 0
        for m, n, a, b, p, q in tuples:
            instance = check_lemma22(m, n, a, b, p, q, variant)
            holds = decide(m, n, a, b, p, q, block(m, n, a), block(m, n, b), variant)
            assert holds == (instance.lhs > instance.rhs), (m, n, a, b)
            if {a, b} == {2, 3}:
                special += 1
            else:
                # The ratio bound's right side f * D * q^d, with D from the valuations.
                rhs = factor * delta_by_valuations(m, n, a, b, p, q) * q ** valuation(m, q)
                assert instance.rhs == rhs, (m, n, a, b)
        assert (special > 0) == (variant == "i")


def test_lemma22_grid_pairs_the_prime_powers():
    # lemma22_grid pairs the prime powers of _prime_powers, which a sieve of
    # Eratosthenes, spelled out here, finds too.
    top = lemmas.LEMMA22_GRID_MAX
    composite = set()
    powers = []
    for p in range(2, top + 1):
        if p not in composite:
            composite.update(range(p * p, top + 1, p))
            powers += [(p ** k, p) for k in range(1, top.bit_length()) if p ** k <= top]
    assert lemmas._prime_powers(top) == sorted(powers)
    assert len(powers) == 430 + 36  # the primes up to 3000 and their higher powers


def test_lemma22_grid_reports_failures_in_grid_order(doctor_blocks, capsys):
    # A block of 1 for a in the rows (12, 36) and (28, 28) fails the ratio
    # bound of each planted tuple, and no other tuple of those rows.
    planted = [(12, 36, 3, 4, 3, 2), (28, 28, 4, 7, 2, 7)]  # in grid order: m, then n, a, b
    doctor_blocks({(m, n, a): 1 for m, n, a, *_ in planted})
    expected = [check_lemma22(*parameters, "i") for parameters in planted]
    grid = lemma22_grid(40, "i")
    assert grid.checked == 31 and grid.failures == expected
    assert main(["lemma", "--id", "2.2i", "--max", "40", "--format", "csv"]) == 1
    out = capsys.readouterr().out
    assert out == ("lemma_id,m,n,a,b,p,q,lhs,rhs\n"
                   "L22i,12,36,3,4,3,2,273/11,8\n"
                   "L22i,28,28,4,7,2,7,6864/35,7\n")


# Gives the binomial grids the blocks of DOCTORED, a dict from (m, n, d) to a
# block, as its logarithm and as itself, as the doctor_blocks fixture does.
DOCTOR_BLOCKS = """
from zsr import lemmas
from doctoring import doctored_grid_parts
for name, part in doctored_grid_parts(DOCTORED):
    setattr(lemmas, name, part)
"""


def doctoring_env():
    """The environment of a child Python that imports this zsr and the doctoring module."""
    src = str(Path(lemmas.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_grids_report_doctored_failures_under_optimize():
    # python -O strips asserts; the grid verdicts must not rest on one.
    script = "DOCTORED = {(12, 12, 2): 777, (28, 28, 4): 1}" + DOCTOR_BLOCKS + """
for grid in (lemmas.lemma21_grid(12, "i"), lemmas.lemma22_grid(28, "i")):
    print(grid.checked, [tuple(f.parameters.values())[:6] for f in grid.failures])
"""
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                            env=doctoring_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "33 [(12, 12, 2, 3)]\n9 [(28, 28, 4, 7, 2, 7)]\n"


def test_row_deciders_report_doctored_failures_under_optimize():
    # The same under python -O for variant ii and for the structure checks:
    # in the row (12, 12), block_12 = 3 makes (6, 12) fail, 6 * 6 > 12 * 3
    # being false, and no other pair; the L23 check of the pair of orders
    # (6, 9) is planted as a failure.
    script = "DOCTORED = {(12, 12, 12): 3}" + DOCTOR_BLOCKS + """
checks = lemmas._structure_checks
lemmas._structure_checks = lambda sg, sh, pair: [
    (check[0], False, *check[2:]) if (sg.group_order, sh.group_order, check[0]) == (6, 9, lemmas._L23_H)
    else check for check in checks(sg, sh, pair)]
for grid in (lemmas.lemma21_grid(12, "ii"), lemmas.structure_grid(12)):
    print(grid.checked, [(f.lemma_id, *f.parameters.values()) for f in grid.failures])
"""
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                            env=doctoring_env(), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "27 [('L21ii', 12, 12, 6, 12)]\n80 [('L23', 6, 9, 3)]\n"


def test_structure_grid_reports_failures_in_grid_order(monkeypatch, capsys):
    checks = lemmas._structure_checks
    planted = [
        LemmaInstance("L24", {"n": 4, "m": 8, "q": 2, "t": 2, "delta": 3, "phi_g": 0, "phi_h": 4},
                      False, 4, 4),
        LemmaInstance("L23", {"n": 6, "m": 9, "min_EH": 3}, False, 3, 3),
    ]
    # structure_grid passes each call the facts of its pair of orders.
    monkeypatch.setattr(lemmas, "_structure_checks", lambda sg, sh, pair: [
        (check[0], False, *check[2:])
        if failed(lemmas._structure_instance(sg.group_order, sh.group_order, check)) in planted
        else check for check in checks(sg, sh, pair)])
    grid = structure_grid(12)
    assert grid.checked == 80 and grid.failures == planted
    assert main(["lemma", "--id", "struct", "--max", "12", "--format", "csv"]) == 1
    out = capsys.readouterr().out
    assert out == ("lemma_id,m,n,a,b,p,q,lhs,rhs\n"
                   "L24,8,4,,,,2,4,4\n"
                   "L23,9,6,,,,,3,3\n")


def test_lemma22_grid_boundary_instances():
    # nothing is admissible below gcd 15; the first variant-ii instance is (15, 15, 3, 5)
    assert lemma22_grid(14, "ii").checked == 0
    assert lemma22_grid(17, "i").checked == 0
    assert lemma22_grid(18, "i").checked == 3  # the {2, 3} pairs at n = 18
    assert lemma22_grid(18, "ii").checked == 1
    assert lemma22_grid(24, "ii").checked == 3


def test_grid_variant_validation():
    with pytest.raises(ValueError):
        lemma21_grid(20, "x")
    with pytest.raises(ValueError):
        lemma22_grid(20, "")


def test_lemma_instance_shape():
    instance = check_lemma21(6, 6, 2, 3, "i")
    assert isinstance(instance, LemmaInstance)
    # variant i of lemma 2.2 returns from the {2, 3} branch and from the general one
    assert check_lemma22(24, 24, 2, 3, 2, 3, "i").lemma_id == "L22i"
    assert check_lemma22(28, 28, 4, 7, 2, 7, "i").lemma_id == "L22i"
    assert instance.parameters["m"] == 6 and instance.parameters["b"] == 3
