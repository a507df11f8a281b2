"""Tests for reciprocity checks, the scan engine, and the gap-free predicate."""

import csv
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from math import comb, gcd
from pathlib import Path

import pytest

import zsr
from zsr import groups, reciprocity
from zsr.counting import count_formula
from zsr.groups import (
    AbelianGroup,
    Dicyclic,
    Dihedral,
    enumerate_abelian,
    make_product,
    order_spectrum,
    parse_group,
)
from zsr.reciprocity import (
    FAMILIES,
    RECORD_FIELDS,
    conjecture_scan,
    divisor_gap_free,
    family_descriptors,
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


def record_rows(families, max_order, record_format="jsonl"):
    """The texts a record scan hands its on_row hook, one per group."""
    rows = []
    conjecture_scan(families, max_order, on_row=rows.append, record_format=record_format)
    return rows


def test_record_round_trip():
    report = reciprocity_check(parse_group("C2xC2"), parse_group("C4"))
    record = report.to_record()
    assert tuple(record.keys()) == RECORD_FIELDS
    assert record["count_g_at_h"] == str(report.count_g_at_h)
    assert tuple(record.values()) == report.values()
    line = '{"g":"C2xC2","h":"C4","order_g":4,"order_h":4,"spectra_agree":false,' \
        '"witness_divisor":2,"count_g_at_h":"11","count_h_at_g":"10","iff_consistent":true}'
    assert dumped(report.values()) == line
    assert line + "\n" in "".join(record_rows(("abelian",), 4)).splitlines(keepends=True)


def dumped(values):
    return json.dumps(dict(zip(RECORD_FIELDS, values)), separators=(",", ":"))


def test_record_rows_match_json_dumps(monkeypatch):
    descriptors = family_descriptors(FAMILIES, 48)
    rows = record_rows(FAMILIES, 48)
    assert len(rows) == len(descriptors)
    pairs = iter(pair_sequence(descriptors))
    for i, row in enumerate(rows):
        lines = row.splitlines()
        assert len(lines) == len(descriptors) - i and row.endswith("\n")
        for line in lines:
            assert line == dumped(reciprocity_check(*next(pairs)).values())
    assert next(pairs, None) is None
    # Counts of several hundred digits: every block times 10**300, so that each
    # class count is its divisor sum over n + m times 10**300.
    table = reciprocity.block_table
    monkeypatch.setattr(reciprocity, "block_table",
                        lambda n, m, shared, last: [b * 10**300 for b in table(n, m, shared, last)])
    lines = "".join(record_rows(FAMILIES, 12)).splitlines()
    assert len(lines) == len(pair_sequence(family_descriptors(FAMILIES, 12)))
    for line in lines:
        record = json.loads(line)
        assert json.dumps(record, separators=(",", ":")) == line
        assert len(record["count_g_at_h"]) > 300 and len(record["count_h_at_g"]) > 300


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
    with pytest.raises(ValueError, match="max_order must be positive, got 0"):
        conjecture_scan(FAMILIES, 0)


def test_scans_refuse_orders_past_the_ceiling_before_enumerating(monkeypatch):
    from zsr.errors import BudgetError

    ceiling = reciprocity.SCAN_MAX_ORDER
    summary = conjecture_scan(("dicyclic",), ceiling)
    assert summary.max_order == ceiling and summary.pairs_checked == 255 * 256 // 2

    def no_groups(*args):
        raise AssertionError("groups were enumerated for a refused scan")

    monkeypatch.setattr(reciprocity, "enumerate_abelian", no_groups)
    for scan in (lambda: conjecture_scan(FAMILIES, ceiling + 1),
                 lambda: verify_theorem(ceiling + 1),
                 lambda: family_descriptors(("dihedral",), 100000)):
        with pytest.raises(BudgetError, match=f"^scans are limited to max_order <= {ceiling}, got"):
            scan()


def test_pair_sequence_is_upper_triangle():
    descriptors = family_descriptors(("abelian",), 5)
    pairs = pair_sequence(descriptors)
    k = len(descriptors)
    assert len(pairs) == k * (k + 1) // 2
    indices = {d: i for i, d in enumerate(descriptors)}
    assert all(indices[g] <= indices[h] for g, h in pairs)


def test_record_rows_match_reciprocity_check():
    # The csv rows hold the values of the jsonl rows, as the csv module writes them.
    descriptors = family_descriptors(FAMILIES, 24)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    for g, h in pair_sequence(descriptors):
        writer.writerow(["" if v is None else str(v).lower() if isinstance(v, bool) else v
                         for v in reciprocity_check(g, h).values()])
    rows = record_rows(FAMILIES, 24, "csv")
    assert len(rows) == len(descriptors)
    assert "".join(rows) == expected.getvalue()
    assert [row.count("\n") for row in rows] == list(range(len(descriptors), 0, -1))


def test_scan_computes_each_candidate_spectrum_once(monkeypatch):
    calls = []

    def counted(desc, known=None):
        calls.append(desc)
        return spectrum_of(desc, known)

    # Both names, so that a product's spectrum counts the calls it makes for its factors.
    spectrum_of = groups.order_spectrum
    monkeypatch.setattr(groups, "order_spectrum", counted)
    monkeypatch.setattr(reciprocity, "order_spectrum", counted)
    family_descriptors(FAMILIES, 48)
    alone = len(calls)
    # The pool holds each distinct descriptor of the four families to order 48
    # once (an all-abelian product is not built again beside the abelian group
    # it equals), and each spectrum is computed once: a product's factors are in it.
    abelian = [g for n in range(1, 49) for g in enumerate_abelian(n)]
    bases = [g for g in abelian if g.order > 1] + [Dihedral(k) for k in range(3, 25)] + \
        [Dicyclic(k) for k in range(2, 13)]
    products = [make_product((g, h)) for i, g in enumerate(bases) for h in bases[i:]
                if g.order * h.order <= 48]
    assert alone == len({*abelian, *bases, *products}) == 164
    for consumer in (None, lambda text: None):
        calls.clear()
        conjecture_scan(FAMILIES, 48, on_row=consumer)
        assert len(calls) == alone


def test_products_alone_compute_each_factor_spectrum_once(monkeypatch):
    # With products but not their base families, a factor such as C7 or D5
    # is built outside the pool; its spectrum is still computed once, not
    # once for every product it is in.
    calls = []

    def counted(desc, known=None):
        calls.append(desc)
        return spectrum_of(desc, known)

    spectrum_of = groups.order_spectrum
    monkeypatch.setattr(groups, "order_spectrum", counted)
    monkeypatch.setattr(reciprocity, "order_spectrum", counted)
    descriptors = family_descriptors(("products",), 192)
    assert len(descriptors) == 741
    assert len(calls) == len(set(calls)) == 920


def old_family_descriptors(families, max_order):
    """The descriptors and spectra of the families, by building every candidate.

    Every pair of bases is built with make_product, all-abelian products
    included, and the pool is deduplicated by (order, spectrum) in (order,
    notation) order: the reference that _scan_groups must match.
    """
    abelian = [g for n in range(1, max_order + 1) for g in enumerate_abelian(n)]
    dihedral = [Dihedral(k) for k in range(3, max_order // 2 + 1)]
    dicyclic = [Dicyclic(k) for k in range(2, max_order // 4 + 1)]
    pool = []
    for name, members in (("abelian", abelian), ("dihedral", dihedral), ("dicyclic", dicyclic)):
        if name in families:
            pool.extend(members)
    if "products" in families:
        bases = [g for g in abelian if g.order > 1] + dihedral + dicyclic
        pool.extend(make_product((g, h)) for i, g in enumerate(bases) for h in bases[i:]
                    if g.order * h.order <= max_order)
    pool.sort(key=lambda d: (d.order, d.notation()))
    first = {}
    for desc in pool:
        spectrum = order_spectrum(desc)
        first.setdefault((desc.order, spectrum.key()), (desc, spectrum))
    return [desc for desc, _ in first.values()], [spectrum for _, spectrum in first.values()]


def test_scan_groups_match_the_all_pairs_enumeration():
    for size in range(1, len(FAMILIES) + 1):
        for families in combinations(FAMILIES, size):
            descriptors, spectra = old_family_descriptors(families, 64)
            assert reciprocity._scan_groups(families, 64) == (descriptors, spectra), families
            assert family_descriptors(families, 64) == descriptors


def test_coprime_binomials_are_divisible_property():
    # (n + m) divides C(n + m, n) when gcd(n, m) = 1: every class count at a
    # coprime order pair is an integer, whatever the spectrum, so a summary
    # scan loses no divisibility guard by skipping those pairs.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.integers(1, 1024), st.integers(1, 1024))
    def divisible(n, m):
        g = gcd(n, m)
        n, m = n // g, m // g
        assert comb(n + m, n) % (n + m) == 0

    divisible()


def test_summary_scans_skip_coprime_order_pairs(monkeypatch):
    # With every block n + m a class's count is the sum of its restricted
    # entries, which plants collisions, so both paths have violations to agree on.
    calls = []

    def planted(n, m, shared, last):
        calls.append((n, m))
        return [n + m] * len(shared)

    monkeypatch.setattr(reciprocity, "block_table", planted)
    summary = conjecture_scan(FAMILIES, 32)
    summary_calls = list(calls)
    calls.clear()
    records = conjecture_scan(FAMILIES, 32, on_row=lambda text: None)
    orders = sorted({d.order for d in family_descriptors(FAMILIES, 32)})
    every = [(n, m) for i, n in enumerate(orders) for m in orders[i:]]
    assert calls == every
    assert summary_calls == [(n, m) for n, m in every if gcd(n, m) > 1]
    assert len(summary_calls) < len(every)
    assert summary.violations == records.violations and len(summary.violations) > 100


def test_counts_tied_on_one_side_are_no_collision(monkeypatch):
    # At the order pair (4, 8) blocks of 12 give C4 (key 1, 1, 2) and C2xC2
    # (key 1, 3, 0) the same count 4, and D8 (key 1, 5, 2) the count 8.  The
    # tie sends the pair to the search by count, which finds no class of order
    # 8 with a tied count, so there is no violation.
    descriptors = [AbelianGroup((4,)), AbelianGroup((2, 2)), Dihedral(4)]
    spectra = [order_spectrum(d) for d in descriptors]
    table = reciprocity.block_table
    monkeypatch.setattr(reciprocity, "block_table", lambda n, m, shared, last:
                        [12] * len(shared) if (n, m) == (4, 8) else table(n, m, shared, last))
    rows = [row for _, row in reciprocity._class_walk(spectra)]
    m, _, left, right, counts, collisions = rows[0][1]
    assert m == 8 and left[0] == [(1, 1, 2), (1, 3, 0)] and right[0] == [(1, 5, 2)]
    assert counts == {(1, 1, 2): 4, (1, 3, 0): 4, (1, 5, 2): 8} and collisions == ()
    monkeypatch.setattr(reciprocity, "_scan_groups", lambda families, max_order: (descriptors, spectra))
    lines = []
    for summary in (conjecture_scan(FAMILIES, 8), conjecture_scan(FAMILIES, 8, on_row=lines.append)):
        assert summary.pairs_checked == 6 and summary.violations == []
    assert "".join(lines).count('"iff_consistent":true}') == 6


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
    monkeypatch.setattr(reciprocity, "block_table", lambda n, m, shared, last: [n + m] * len(shared))
    expected = []
    for g, h in pair_sequence(family_descriptors(FAMILIES, 32)):
        shared = gcd(g.order, h.order)
        rg = restricted(order_spectrum(g), shared)
        rh = restricted(order_spectrum(h), shared)
        if rg != rh and sum(rg) == sum(rh):
            expected.append((g.notation(), h.notation(), sum(rg)))
    assert len(expected) > 100
    summary = conjecture_scan(FAMILIES, 32)
    rows = []
    records = conjecture_scan(FAMILIES, 32, on_row=rows.append)
    assert summary.violations == records.violations
    inconsistent = [json.loads(line) for line in "".join(rows).splitlines()
                    if line.endswith('"iff_consistent":false}')]
    assert [(r["g"], r["h"], int(r["count_g_at_h"])) for r in inconsistent] == expected
    assert [(r.g.notation(), r.h.notation(), r.count_g_at_h) for r in summary.violations] == expected
    assert all(r.count_h_at_g == r.count_g_at_h and not r.spectra_agree for r in summary.violations)


def test_class_scan_matches_pairs_for_every_family_subset():
    for size in range(1, len(FAMILIES) + 1):
        for families in combinations(FAMILIES, size):
            summary = conjecture_scan(families, 30)
            assert summary.pairs_checked == len(pair_sequence(family_descriptors(families, 30)))
            assert summary == conjecture_scan(families, 30, on_row=lambda text: None)


def test_class_scan_raises_on_inconsistent_spectrum_under_optimize():
    # C4 given three elements of order 4 is no group: at the order pair (2, 4)
    # its class has divisor sum C(6, 2) = 15, which 6 does not divide.  Both
    # scan paths must refuse it, also under python -O, which strips asserts.
    code = ("import zsr.reciprocity as r\n"
            "from zsr.groups import OrderSpectrum, order_spectrum\n"
            "bad = OrderSpectrum({1: 1, 2: 0, 4: 3}, 4)\n"
            "r.order_spectrum = lambda d, known: bad if d.notation() == 'C4' else order_spectrum(d)\n"
            "for consumer in (None, lambda text: None):\n"
            "    try:\n"
            "        print(r.conjecture_scan(('abelian',), 4, on_row=consumer))\n"
            "    except ValueError as exc:\n"
            "        print('ValueError:', exc)\n")
    env = dict(os.environ)
    src = str(Path(zsr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ValueError: divisor sum 15 not divisible by 6: inconsistent spectrum\n" * 2
