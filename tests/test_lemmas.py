"""Tests for the block-ratio and spectrum-structure lemma checkers."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

from zsr import exactmath, groups, lemmas
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


def test_lemma21ii_row_decider_matches_each_instance():
    # Every row to 60, with its true blocks, with them reversed (which fails
    # most pairs) and with blocks that tie each pair of neighbours (block_i =
    # max(m, n)^(k-1-i) * divs[0] * ... * divs[i-1] for k divisors): the row
    # decider fails exactly the pairs b >= 2a that _lemma21_holds fails, and
    # those where a * block_a > max(m, n) * block_b is false.
    divisors_of = lemmas._divisor_sieve(60)
    rows = failing = 0
    for m in range(2, 61):
        for n in range(2, 61):
            divs = divisors_of[gcd(m, n)]
            if len(divs) < 2:
                continue
            rows += 1
            ties = [max(m, n) ** (len(divs) - 1 - i) * prod(divs[:i]) for i in range(len(divs))]
            for blocks in ([block(m, n, d) for d in divs], [block(m, n, d) for d in reversed(divs)],
                           ties):
                pairs = [(a, b, blocks[i], blocks[j]) for i, a in enumerate(divs)
                         for j, b in enumerate(divs) if b >= 2 * a]
                expected = [(a, b) for a, b, block_a, block_b in pairs
                            if not lemmas._lemma21_holds(m, n, a, b, block_a, block_b, "ii")]
                assert expected == [(a, b) for a, b, block_a, block_b in pairs
                                    if not a * block_a > max(m, n) * block_b], (m, n)
                assert lemmas._lemma21ii_failures(m, n, divs, blocks) == expected, (m, n)
                failing += len(expected)
    assert rows == 396 and failing > 0


def test_structure_checks_match_the_instances():
    # Every ordered pair of abelian groups up to order 64.
    spectra = [order_spectrum(g) for n in range(1, 65) for g in enumerate_abelian(n)]
    total = 0
    for sg in spectra:
        for sh in spectra:
            checks = lemmas._structure_checks(sg, sh)
            instances = lemmas._structure_instances(sg, sh)
            assert len(checks) == len(instances)
            assert [check[1] for check in checks] == [instance.holds for instance in instances]
            total += len(checks)
    assert len(spectra) == 117 and total == 12148


def test_structure_grid_order_pairs_give_the_checks_of_lone_pairs(monkeypatch):
    # structure_grid hands _structure_checks the facts of each pair of orders
    # from its sieves; they give the checks that the facts found from
    # gcd(n, m) alone give.
    checks = lemmas._structure_checks
    calls = []

    def spy(sg, sh, pair):
        found = checks(sg, sh, pair)
        calls.append(found == checks(sg, sh))
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
    # Each variant decides a row of (m, n) at a time.  Variant i calls
    # _lemma21i_failures for each row; variant ii calls _lemma21ii_failures
    # for the rows with n <= m only, and its verdict covers the mirror row
    # (n, m) too.  Spying on both shows every tuple the grids visit, with its
    # blocks and its verdict.
    deciders = {"i": lemmas._lemma21i_failures, "ii": lemmas._lemma21ii_failures}
    seen = {"i": [], "ii": []}

    def spy_on(variant):
        def spy_row(m, n, divs, blocks):
            failing = deciders[variant](m, n, divs, blocks)
            rows = [(m, n)] if variant == "i" or m == n else [(m, n), (n, m)]
            for i, a in enumerate(divs):
                for b, block_b in zip(divs[i + 1:], blocks[i + 1:]):
                    if variant == "i" or b >= 2 * a:
                        seen[variant] += [(*row, a, b, blocks[i], block_b, (a, b) not in failing)
                                          for row in rows]
            return failing
        return spy_row

    monkeypatch.setattr(lemmas, "_lemma21i_failures", spy_on("i"))
    monkeypatch.setattr(lemmas, "_lemma21ii_failures", spy_on("ii"))
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
        for m, n, a, b, block_a, block_b, holds in seen[variant]:
            assert (block_a, block_b) == (block(m, n, a), block(m, n, b)), (m, n, a, b)
            assert holds == fraction_verdict(m, n, a, b, variant), (m, n, a, b, variant)
    # The equality case: lhs == rhs == 10/3, and the instance holds.
    assert Fraction(20, 6) == Fraction(12, 6) * Fraction(18 + 12, 18)
    assert (6, 6, 2, 3, 20, 6, True) in seen["i"]


def test_lemma21_filter_passes_exactly_the_ties_on(monkeypatch):
    # The float filter certifies every instance of variant i to 60 except the
    # 51 where the inequality holds with equality; those reach _lemma21_holds.
    decide = lemmas._lemma21_holds
    reached = []

    def spy(m, n, a, b, *rest):
        reached.append((m, n, a, b))
        return decide(m, n, a, b, *rest)

    monkeypatch.setattr(lemmas, "_lemma21_holds", spy)
    assert lemma21_grid(60, "i").failures == []
    assert reached[:3] == [(4, 4, 2, 4), (6, 6, 2, 3), (6, 6, 3, 6)]
    ties = [(m, n, a, b) for m, n, a, b in reached
            if Fraction(block(m, n, a), block(m, n, b)) == lemma21_bound(m, n, a, b)]
    assert ties == reached and len(reached) == 51


def test_lemma21_doctored_block_fails_through_the_filter(monkeypatch):
    # In the row (12, 12) the true block_2 is 924, and (2, 3) needs
    # block_2 >= 70 * 100/9, so 778 still holds and 777 fails, by about a
    # thousandth of a bit; no other pair of the row changes its verdict.  The
    # report is check_lemma21's, from fresh binomials.
    assert (block(12, 12, 2), block(12, 12, 3)) == (924, 70)
    assert lemma21_bound(12, 12, 2, 3) == Fraction(100, 9)
    table, decide = lemmas.block_table, lemmas._lemma21_holds
    reached = []

    def spy(m, n, a, b, block_a, block_b, variant):
        reached.append((m, n, a, b, block_a, block_b))
        return decide(m, n, a, b, block_a, block_b, variant)

    monkeypatch.setattr(lemmas, "_lemma21_holds", spy)
    for doctored, failing in ((778, []), (777, [(12, 12, 2, 3)])):
        def doctored_table(m, n, divs, last):
            blocks = table(m, n, divs, last)
            if (m, n) == (12, 12):
                blocks[0] = doctored
            return blocks

        monkeypatch.setattr(lemmas, "block_table", doctored_table)
        reached.clear()
        grid = lemma21_grid(12, "i")
        assert [tuple(f.parameters.values()) for f in grid.failures] == failing
        assert grid.failures == [check_lemma21(*parameters, "i") for parameters in failing]
        assert ((12, 12, 2, 3, 777, 70) in reached) == bool(failing)


def test_lemma21_filter_or_exact_matches_fractions():
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
        failing = lemmas._lemma21i_failures(m, n, [a, b], [block_a, block_b])
        assert failing == ([] if holds else [(a, b)]), (m, n, a, b, shift)

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
    # Variant i decides (m, n) and (n, m) apart from one block table, so a
    # plant in one row leaves its mirror clean.  The walk finds (12, 18) at
    # m = 18, after (16, 12), and still reports it first.
    plant_lemma21_failures(planted)
    grid = lemma21_grid(18, "i")
    assert grid.checked == 79
    assert grid.failures == [check_lemma21(*parameters, "i") for parameters in planted]


def test_lemma21ii_plant_is_reported_at_both_mirror_rows(plant_lemma21_failures):
    # Variant ii decides the row (m, n) with n <= m once, and its verdict is
    # that of (n, m) too; the four failures come out sorted by (m, n, a, b).
    plant_lemma21_failures([(16, 12, 2, 4), (18, 12, 3, 6)])
    grid = lemma21_grid(18, "ii")
    expected = [(12, 16, 2, 4), (12, 18, 3, 6), (16, 12, 2, 4), (18, 12, 3, 6)]
    assert grid.checked == 66
    assert grid.failures == [check_lemma21(*parameters, "ii") for parameters in expected]


def test_benchmark_size_grids_are_pinned(monkeypatch):
    # The bounds of the lemma-grids benchmark.  Lemma 2.1 builds one block
    # table per unordered pair {m, n}, and the structure grid finds the facts
    # of each pair of orders from sieves: the factorize calls left are those
    # of the group spectra, fewer than one per pair of orders.
    calls = {"block_table": 0, "factorize": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(lemmas, "block_table", counted("block_table", lemmas.block_table))
    factorize = counted("factorize", exactmath.factorize)
    for module in (exactmath, groups, lemmas):
        monkeypatch.setattr(module, "factorize", factorize)
    for variant, checked in (("i", 82896), ("ii", 70973)):
        calls["block_table"] = 0
        grid = lemma21_grid(400, variant)
        assert (grid.checked, grid.failures, calls["block_table"]) == (checked, [], 9408)
    grid = lemma22_grid(360, "i")
    assert (grid.checked, grid.failures) == (5685, [])
    calls["factorize"] = 0
    grid = structure_grid(128)
    assert (grid.checked, grid.failures) == (28759, [])
    assert 0 < calls["factorize"] <= 128 * 129 // 2


def failed(instance):
    """The same instance with its verdict turned to a failure."""
    return LemmaInstance(instance.lemma_id, instance.parameters, False, instance.lhs, instance.rhs)


def admissible_lemma22(max_mn, variant):
    """Every admissible (m, n, a, b, p, q) of lemma22_grid in grid order, spelled out locally."""
    out = []
    for m in range(2, max_mn + 1):
        for n in range(2, max_mn + 1):
            g = gcd(m, n)
            powers = [(d, prime_power_root(d)[0]) for d in range(2, g + 1)
                      if g % d == 0 and prime_power_root(d) is not None]
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
    decide = lemmas._lemma22_holds
    for variant, factor, count in (("i", 2, 560), ("ii", 1, 31)):
        visited = []
        monkeypatch.setattr(lemmas, "_lemma22_holds", lambda *args: (
            visited.append(args[:6]) or decide(*args)))
        assert lemma22_grid(120, variant).failures == []
        tuples = admissible_lemma22(120, variant)
        assert visited == tuples and len(tuples) == count
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


def test_divisor_sieve_finds_the_prime_powers():
    # lemma22_grid keeps a divisor d when its least divisor p >= 2 satisfies
    # p^k = d, with k its number of divisors >= 2.
    divisors_of = lemmas._divisor_sieve(lemmas.LEMMA22_GRID_MAX)
    assert divisors_of[:2] == [[], []]
    powers = 0
    for d in range(2, lemmas.LEMMA22_GRID_MAX + 1):
        divs = divisors_of[d]
        assert divs == divisors(d)[1:], d
        root = prime_power_root(d)
        assert (divs[0] ** len(divs) == d) == (root is not None), d
        if root is not None:
            powers += 1
            assert root == (divs[0], len(divs)), d
    assert powers == 303 + 30  # the primes up to 2000 and their higher powers


def test_lemma22_grid_reports_failures_in_grid_order(monkeypatch, capsys):
    decide = lemmas._lemma22_holds
    planted = [(12, 36, 3, 4, 3, 2), (28, 28, 4, 7, 2, 7)]  # in grid order: m, then n, a, b
    monkeypatch.setattr(lemmas, "_lemma22_holds", lambda *args: (
        args[:6] not in planted and decide(*args)))
    expected = [check_lemma22(*parameters, "i") for parameters in planted]
    grid = lemma22_grid(40, "i")
    assert grid.checked == 31 and grid.failures == expected
    assert main(["lemma", "--id", "2.2i", "--max", "40", "--format", "csv"]) == 1
    out = capsys.readouterr().out
    assert out == ("lemma_id,m,n,a,b,p,q,lhs,rhs\n"
                   "L22i,12,36,3,4,3,2,273/11,8\n"
                   "L22i,28,28,4,7,2,7,6864/35,7\n")


def test_grids_report_doctored_failures_under_optimize():
    # python -O strips asserts; the grid verdicts must not rest on one.
    script = """
from zsr import exactmath, groups, lemmas
table, block = lemmas.block_table, lemmas._block
def doctored_table(m, n, divs, last):
    blocks = table(m, n, divs, last)
    if (m, n) == (12, 12):
        blocks[0] = 777
    return blocks
lemmas.block_table = doctored_table
lemmas._block = lambda m, n, d: 1 if (m, n, d) == (28, 28, 4) else block(m, n, d)
for grid in (lemmas.lemma21_grid(12, "i"), lemmas.lemma22_grid(28, "i")):
    print(grid.checked, [tuple(f.parameters.values())[:6] for f in grid.failures])
"""
    src = str(Path(lemmas.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "33 [(12, 12, 2, 3)]\n9 [(28, 28, 4, 7, 2, 7)]\n"


def test_row_deciders_report_doctored_failures_under_optimize():
    # The same under python -O for the row decider of variant ii and for the
    # structure checks: in the row (12, 12), block_12 = 3 makes (6, 12) fail,
    # 6 * 6 > 12 * 3 being false, and no other pair; the L23 check of the
    # pair of orders (6, 9) is planted as a failure.
    script = """
from zsr import exactmath, groups, lemmas
table, checks = lemmas.block_table, lemmas._structure_checks
def doctored_table(m, n, divs, last):
    blocks = table(m, n, divs, last)
    if (m, n) == (12, 12):
        blocks[-1] = 3
    return blocks
lemmas.block_table = doctored_table
lemmas._structure_checks = lambda sg, sh, pair: [
    (check[0], False, *check[2:]) if (sg.group_order, sh.group_order, check[0]) == (6, 9, lemmas._L23_H)
    else check for check in checks(sg, sh, pair)]
for grid in (lemmas.lemma21_grid(12, "ii"), lemmas.structure_grid(12)):
    print(grid.checked, [(f.lemma_id, *f.parameters.values()) for f in grid.failures])
"""
    src = str(Path(lemmas.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                            env=env, timeout=60)
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
