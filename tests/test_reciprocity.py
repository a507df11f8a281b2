"""Tests for reciprocity checks, the scan engine, and the gap-free predicate."""

import os
import subprocess
import sys
from itertools import combinations
from math import comb, gcd
from pathlib import Path

import pytest

import zsr
from zsr import reciprocity
from zsr.counting import count_formula
from zsr.groups import AbelianGroup, Dihedral, enumerate_abelian, order_spectrum, parse_group
from zsr.reciprocity import (
    FAMILIES,
    RECORD_FIELDS,
    conjecture_scan,
    divisor_gap_free,
    family_descriptors,
    iter_pair_reports,
    pair_sequence,
    reciprocity_check,
    spectrum_condition,
    verify_theorem,
)


def divisor_lists(limit):
    """divisor table for 1..limit by sieving, for the gap-free oracle."""
    table = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            table[multiple].append(d)
    return table


def test_divisor_gap_free_examples():
    assert divisor_gap_free(1)
    assert divisor_gap_free(4)
    assert divisor_gap_free(9)
    assert divisor_gap_free(10)
    assert divisor_gap_free(15)
    assert not divisor_gap_free(6)
    assert not divisor_gap_free(12)
    assert not divisor_gap_free(20)
    with pytest.raises(ValueError):
        divisor_gap_free(0)


def test_divisor_gap_free_matches_double_loop():
    limit = 10000
    table = divisor_lists(limit)
    for n in range(1, limit + 1):
        divs = table[n]
        adjacent = any(
            e == d + 1 and d > 1 for i, d in enumerate(divs) for e in divs[i + 1 :]
        )
        assert divisor_gap_free(n) == (not adjacent), n


def test_spectrum_condition_examples():
    assert spectrum_condition(parse_group("C6"), parse_group("C6")) == (True, None)
    assert spectrum_condition(parse_group("C4"), parse_group("C2xC2")) == (False, 2)
    assert spectrum_condition(parse_group("D12"), parse_group("C2xD6")) == (True, None)
    assert spectrum_condition(parse_group("D10"), parse_group("C10")) == (False, 2)
    # coprime orders share only the divisor 1, which always agrees
    assert spectrum_condition(parse_group("C5"), parse_group("C7")) == (True, None)


def test_witness_is_smallest_disagreeing_shared_divisor():
    descriptors = family_descriptors(FAMILIES, 24)
    spectra = {d: order_spectrum(d) for d in descriptors}
    for g, h in pair_sequence(descriptors):
        agree, witness = spectrum_condition(g, h)
        shared = [d for d in range(1, min(g.order, h.order) + 1) if g.order % d == 0 and h.order % d == 0]
        mismatches = [d for d in shared if spectra[g].count_of(d) != spectra[h].count_of(d)]
        if agree:
            assert witness is None and not mismatches
        else:
            assert witness == mismatches[0]


def test_reciprocity_check_dihedral_versus_cyclic():
    report = reciprocity_check(parse_group("D10"), parse_group("C10"))
    assert report.g.order == report.h.order == 10
    assert report.count_g_at_h == 9302
    assert report.count_h_at_g == 9252
    assert not report.spectra_agree
    assert report.witness_divisor == 2
    assert not report.counts_agree
    assert report.iff_consistent


def test_reciprocity_check_is_symmetric():
    descriptors = family_descriptors(FAMILIES, 16)
    for g, h in pair_sequence(descriptors):
        forward = reciprocity_check(g, h)
        backward = reciprocity_check(h, g)
        assert forward.count_g_at_h == backward.count_h_at_g
        assert forward.count_h_at_g == backward.count_g_at_h
        assert forward.spectra_agree == backward.spectra_agree
        assert forward.witness_divisor == backward.witness_divisor
        assert forward.iff_consistent == backward.iff_consistent


def test_equal_spectra_force_equal_counts():
    g = parse_group("D12")
    h = parse_group("C2xD6")
    report = reciprocity_check(g, h)
    assert report.spectra_agree and report.counts_agree and report.iff_consistent
    assert report.count_g_at_h == report.count_h_at_g


def test_record_round_trip():
    report = reciprocity_check(parse_group("C4"), parse_group("C2xC2"))
    record = report.to_record()
    assert tuple(record.keys()) == RECORD_FIELDS
    assert record["count_g_at_h"] == str(report.count_g_at_h)


def test_verify_theorem_small_orders():
    summary = verify_theorem(1)
    assert summary.pairs_checked == 1 and not summary.violations
    summary = verify_theorem(8)
    groups = sum(len(enumerate_abelian(n)) for n in range(1, 9))
    assert summary.pairs_checked == groups * (groups + 1) // 2 == 66
    assert not summary.violations
    assert summary.max_order == 8
    assert summary.families == ("abelian",)


def test_conjecture_scan_matches_verify_theorem_on_abelian_family():
    scan = conjecture_scan(("abelian",), 20)
    direct = verify_theorem(20)
    assert scan.pairs_checked == direct.pairs_checked
    assert scan.violations == direct.violations == []


def test_family_descriptors_frozen_prefix():
    names = [d.notation() for d in family_descriptors(FAMILIES, 14)]
    assert names == [
        "C1", "C2", "C3", "C2xC2", "C4", "C5", "C6", "D6", "C7",
        "C2xC2xC2", "C2xC4", "C8", "D8", "Dic2", "C3xC3", "C9",
        "C10", "D10", "C11", "C12", "C2xC6", "C2xD6", "Dic3",
        "C13", "C14", "D14",
    ]


def test_family_descriptors_dedup_by_spectrum():
    descriptors = family_descriptors(FAMILIES, 48)
    seen = set()
    for d in descriptors:
        key = (d.order, order_spectrum(d).key())
        assert key not in seen, d.notation()
        seen.add(key)
    names = [d.notation() for d in descriptors]
    # D12 and C2xD6 have equal spectra; the scan keeps the earlier notation
    assert "C2xD6" in names and "D12" not in names
    assert len(descriptors) == 150


def test_family_descriptors_single_families():
    assert [d.notation() for d in family_descriptors(("dihedral",), 14)] == [
        "D6", "D8", "D10", "D12", "D14",
    ]
    assert [d.notation() for d in family_descriptors(("dicyclic",), 17)] == ["Dic2", "Dic3", "Dic4"]
    with pytest.raises(ValueError):
        family_descriptors(("abelien",), 10)
    with pytest.raises(ValueError):
        conjecture_scan(("abelien",), 10)
    with pytest.raises(ValueError):
        conjecture_scan(("abelian", "abelien"), 10)


def test_pair_sequence_is_upper_triangle():
    descriptors = family_descriptors(("abelian",), 5)
    pairs = pair_sequence(descriptors)
    k = len(descriptors)
    assert len(pairs) == k * (k + 1) // 2
    indices = {d: i for i, d in enumerate(descriptors)}
    assert all(indices[g] <= indices[h] for g, h in pairs)


def test_iter_pair_reports_matches_reciprocity_check():
    descriptors = family_descriptors(FAMILIES, 24)
    pairs = pair_sequence(descriptors)
    reports = list(iter_pair_reports(descriptors, [order_spectrum(d) for d in descriptors]))
    assert len(reports) == len(pairs)
    for (g, h), report in zip(pairs, reports):
        assert report == reciprocity_check(g, h)


def test_scan_computes_each_candidate_spectrum_once(monkeypatch):
    calls = []

    def counted(desc):
        calls.append(desc)
        return order_spectrum(desc)

    monkeypatch.setattr(reciprocity, "order_spectrum", counted)
    family_descriptors(FAMILIES, 48)
    alone = len(calls)
    for consumer in (None, lambda report: False):
        calls.clear()
        conjecture_scan(FAMILIES, 48, on_report=consumer)
        assert len(calls) == alone


def test_coprime_order_pairs_are_consistent():
    descriptors = family_descriptors(FAMILIES, 15)
    for g, h in pair_sequence(descriptors):
        if gcd(g.order, h.order) != 1:
            continue
        report = reciprocity_check(g, h)
        assert report.spectra_agree and report.counts_agree


def test_scan_summary_record_shape():
    summary = conjecture_scan(("abelian", "dihedral"), 10)
    record = summary.to_record()
    assert record["pairs_checked"] == summary.pairs_checked
    assert record["violations"] == 0
    assert record["families"] == ["abelian", "dihedral"]
    assert record["max_order"] == 10


def restricted(spectrum, shared):
    """Spectrum entries at the divisors of shared, found by trial division."""
    return [spectrum.count_of(d) for d in range(1, shared + 1) if shared % d == 0]


def test_planted_collisions_reach_both_scan_paths(monkeypatch):
    # With every block equal to n + m, a class's count is the sum of its
    # restricted entries, so different restricted spectra collide often.
    monkeypatch.setattr(reciprocity, "_block_table", lambda n, m, shared, last: [n + m] * len(shared))
    expected = []
    for g, h in pair_sequence(family_descriptors(FAMILIES, 32)):
        shared = gcd(g.order, h.order)
        rg = restricted(order_spectrum(g), shared)
        rh = restricted(order_spectrum(h), shared)
        if rg != rh and sum(rg) == sum(rh):
            expected.append((g.notation(), h.notation(), sum(rg)))
    assert len(expected) > 100
    summary = conjecture_scan(FAMILIES, 32)
    records = conjecture_scan(FAMILIES, 32, on_report=lambda report: False)
    assert summary.violations == records.violations
    assert [(r.g.notation(), r.h.notation(), r.count_g_at_h) for r in summary.violations] == expected
    assert all(r.count_h_at_g == r.count_g_at_h and not r.spectra_agree for r in summary.violations)


def test_block_table_steps_match_fresh_binomials():
    # Scans ask for growing m, but a table must also be right after a gap or a step back.
    last = {}
    for n in (1, 6, 12, 30):
        for m in [*range(n, 3 * n + 40, 1), *range(n, 200, 7), 5 * n, n, 2 * n]:
            shared = [d for d in range(1, n + 1) if n % d == 0 and m % d == 0]
            expected = [comb((n + m) // d, n // d) for d in shared]
            assert reciprocity._block_table(n, m, shared, last) == expected, (n, m)


def test_class_scan_matches_pairs_for_every_family_subset():
    for size in range(1, len(FAMILIES) + 1):
        for families in combinations(FAMILIES, size):
            summary = conjecture_scan(families, 30)
            assert summary.pairs_checked == len(pair_sequence(family_descriptors(families, 30)))
            assert summary == conjecture_scan(families, 30, on_report=lambda report: False)


def test_class_scan_raises_on_inconsistent_spectrum_under_optimize():
    # C4 given three elements of order 4 is no group: at the order pair (2, 4)
    # its class has divisor sum C(6, 2) = 15, which 6 does not divide.  Both
    # scan paths must refuse it, also under python -O, which strips asserts.
    code = ("import zsr.reciprocity as r\n"
            "from zsr.groups import OrderSpectrum, order_spectrum\n"
            "bad = OrderSpectrum({1: 1, 2: 0, 4: 3}, 4)\n"
            "r.order_spectrum = lambda d: bad if d.notation() == 'C4' else order_spectrum(d)\n"
            "for consumer in (None, lambda report: False):\n"
            "    try:\n"
            "        print(r.conjecture_scan(('abelian',), 4, on_report=consumer))\n"
            "    except ValueError as exc:\n"
            "        print('ValueError:', exc)\n")
    env = dict(os.environ)
    src = str(Path(zsr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ValueError: divisor sum 15 not divisible by 6: inconsistent spectrum\n" * 2
