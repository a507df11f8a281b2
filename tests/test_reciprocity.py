"""Tests for reciprocity checks, the scan engine, and the gap-free predicate."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations, combinations_with_replacement, pairwise
from math import comb, gcd, log2
from operator import mul
from pathlib import Path

import pytest

import zsr
from zsr import counting, reciprocity
from zsr.counting import rational_catalan
from zsr.exactmath import block_table, divisors, factorize
from zsr.groups import (
    AbelianGroup,
    Dicyclic,
    Dihedral,
    enumerate_abelian,
    make_product,
    order_spectrum,
    parse_group,
)
from zsr.logblocks import _log_tables
from zsr.reciprocity import (
    FAMILIES,
    RECORD_FIELDS,
    conjecture_scan,
    divisor_gap_free,
    family_descriptors,
    jsonl_record_pair,
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


def pair_sequence(descriptors):
    """Every pair (g, h) of descriptors, h at or after g, in canonical scan order."""
    return list(combinations_with_replacement(descriptors, 2))


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
        mismatches = [d for d in shared if spectra[g].entries[d] != spectra[h].entries[d]]
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
    # The log check reads a line's pair back from the same layout.
    assert jsonl_record_pair(line.encode()) == (b'{"g":"C2xC2","h":"C4",', "C2xC2 vs C4")


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
    # A coprime order pair's one count is C(n+m, n)/(n+m), from
    # counting.rational_catalan, which reads C(n+m, n) from counting.binomial.
    table = reciprocity.block_table
    monkeypatch.setattr(reciprocity, "block_table",
                        lambda n, m, shared: [b * 10**300 for b in table(n, m, shared)])
    monkeypatch.setattr(counting, "binomial", lambda top, bottom: comb(top, bottom) * 10**300)
    lines = "".join(record_rows(FAMILIES, 12)).splitlines()
    assert len(lines) == len(pair_sequence(family_descriptors(FAMILIES, 12)))
    for line in lines:
        record = json.loads(line)
        assert json.dumps(record, separators=(",", ":")) == line
        assert len(record["count_g_at_h"]) > 300 and len(record["count_h_at_g"]) > 300


def test_record_rows_take_every_witness_path():
    # How many (left class, right class) pairs of the order pairs of the
    # order-48 record scan, which test_record_rows_match_json_dumps compares
    # line by line, take each path: a witness at shared[1] (outside the left
    # class's bucket), at shared[2], shared[3] or later (inside it), agreeing
    # classes, and a coprime order pair, which the walk gives no classes.
    _, spectra = reciprocity._scan_groups(FAMILIES, 48)
    paths = dict.fromkeys((1, 2, 3, 4, "agree", "coprime"), 0)
    for _, row in reciprocity._class_walk(spectra):
        for _, shared, left, right, _, _ in row:
            if left is None:
                assert shared == [1]
                paths["coprime"] += 1
                continue
            for key in left[0]:
                for other in right[0]:
                    if key == other:
                        path = "agree"
                    else:
                        path = min(4, next(i for i, (x, y) in enumerate(zip(key, other)) if x != y))
                    paths[path] += 1
    assert paths == {1: 5721, 2: 497, 3: 132, 4: 13, "agree": 707, "coprime": 712}


def test_record_rows_compare_within_a_bucket():
    # At orders 12 and 36, shared = [1, 2, 3, 4, 6, 12].  C12 has one element
    # of order 2, as C36 (equal to it at shared), C3xC12 (first differs at 3)
    # and Dic9 (first differs at 4) do; C2xC18 has three, as C2xC6 does.
    descriptors = [parse_group(t) for t in ("C12", "C2xC6", "C2xC18", "C36", "C3xC12", "Dic9")]
    spectra = [order_spectrum(d) for d in descriptors]
    rows = []
    reciprocity._record_rows(descriptors, spectra, rows.append, "jsonl")
    lines = "".join(rows).splitlines()
    pairs = pair_sequence(descriptors)
    assert lines == [dumped(reciprocity_check(g, h).values()) for g, h in pairs]
    witnesses = [json.loads(line)["witness_divisor"] for line in rows[0].splitlines()]
    assert witnesses == [None, 2, 2, None, 3, 4]
    witnesses = [json.loads(line)["witness_divisor"] for line in rows[1].splitlines()]
    assert witnesses == [None, None, 2, 2, 2]


def test_order_96_records_are_pinned():
    # The fresh log of perfbench's scan-log workload (FULL.log_sha256): all
    # families to order 96, hashed in memory.
    digest = hashlib.sha256()
    conjecture_scan(FAMILIES, 96, on_row=lambda text: digest.update(text.encode()))
    assert digest.hexdigest() == "33821e91f464ce09460d16e8f5f2569999685342a830bb5641c50dbcb1804eba"


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
        key = (d.order, tuple(order_spectrum(d).entries.items()))
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


def test_scans_refuse_no_family_and_an_unknown_record_format_before_enumerating(monkeypatch):
    # An empty family list and a record format outside RECORD_FORMATS are
    # refused with ValueError before a group is enumerated.
    monkeypatch.setattr(reciprocity, "factorize", lambda n: pytest.fail("enumerated"))
    for scan in (conjecture_scan, family_descriptors):
        with pytest.raises(ValueError, match="^at least one family is required$"):
            scan((), 6)
    rows = []
    with pytest.raises(ValueError, match="^unknown record format 'xml'; valid formats: jsonl, csv$"):
        conjecture_scan(FAMILIES, 6, on_row=rows.append, record_format="xml")
    assert rows == []


def test_scans_refuse_orders_past_the_ceiling_before_enumerating(monkeypatch):
    from zsr.errors import BudgetError

    ceiling = reciprocity.SCAN_MAX_ORDER
    summary = conjecture_scan(("dicyclic",), ceiling)
    assert summary.max_order == ceiling and summary.pairs_checked == 255 * 256 // 2

    def no_groups(*args):
        raise AssertionError("groups were enumerated for a refused scan")

    monkeypatch.setattr(reciprocity, "factorize", no_groups)
    monkeypatch.setattr(reciprocity, "abelian_groups", no_groups)
    for scan in (lambda: conjecture_scan(FAMILIES, ceiling + 1),
                 lambda: verify_theorem(ceiling + 1),
                 lambda: family_descriptors(("dihedral",), 100000)):
        with pytest.raises(BudgetError, match=f"^scans are limited to max_order <= {ceiling}, got"):
            scan()


def written(values):
    """A record's csv line, as the csv module writes its values (without the newline)."""
    line = io.StringIO()
    csv.writer(line, lineterminator="").writerow(
        ["" if v is None else str(v).lower() if isinstance(v, bool) else v for v in values])
    return line.getvalue()


def test_record_rows_match_reciprocity_check():
    # The csv rows hold the values of the jsonl rows, as the csv module writes them.
    descriptors = family_descriptors(FAMILIES, 24)
    expected = "".join(written(reciprocity_check(g, h).values()) + "\n"
                       for g, h in pair_sequence(descriptors))
    rows = record_rows(FAMILIES, 24, "csv")
    assert len(rows) == len(descriptors)
    assert "".join(rows) == expected
    assert [row.count("\n") for row in rows] == list(range(len(descriptors), 0, -1))


@pytest.mark.parametrize("record_format", ["jsonl", "csv"])
@pytest.mark.parametrize("families", [*((family,) for family in FAMILIES), ("abelian", "products")],
                         ids=",".join)
def test_record_rows_match_per_pair_rendering_on_single_families(families, record_format):
    # Single families give rows the all-family oracles above do not: C1, all
    # of whose order pairs are coprime, orders with one group, and dihedral
    # rows that first differ at 2, the first shared divisor.
    descriptors = family_descriptors(families, 30)
    render = dumped if record_format == "jsonl" else written
    rows = record_rows(families, 30, record_format)
    assert [row.count("\n") for row in rows] == list(range(len(descriptors), 0, -1))
    assert "".join(rows).splitlines() == [render(reciprocity_check(g, h).values())
                                          for g, h in pair_sequence(descriptors)]


def count_spectra(monkeypatch):
    """The first argument of every call reciprocity makes from now on, by function name.

    solutions gives a candidate's numbers of solutions of x^d = 1, and
    spectrum_from_solutions inverts them to a spectrum.  order_spectrum is
    counted too, so that a scan that built a spectrum outside the sweep
    would show.
    """
    calls = {}
    for name in ("solutions", "spectrum_from_solutions", "order_spectrum"):
        def counted(first, *args, build=getattr(reciprocity, name), log=calls.setdefault(name, [])):
            log.append(first)
            return build(first, *args)
        monkeypatch.setattr(reciprocity, name, counted)
    return calls


def test_scan_computes_each_candidate_spectrum_once(monkeypatch):
    calls = count_spectra(monkeypatch)
    descriptors = family_descriptors(FAMILIES, 48)
    alone = len(calls["solutions"])
    # The pool holds each distinct descriptor of the four families to order 48
    # once (an all-abelian product is not built again beside the abelian group
    # it equals), F is computed once for each, and only the distinct F are
    # inverted.
    abelian = [g for n in range(1, 49) for g in enumerate_abelian(n)]
    bases = [g for g in abelian if g.order > 1] + [Dihedral(k) for k in range(3, 25)] + \
        [Dicyclic(k) for k in range(2, 13)]
    products = [make_product((g, h)) for i, g in enumerate(bases) for h in bases[i:]
                if g.order * h.order <= 48]
    assert alone == len({*abelian, *bases, *products}) == 164
    assert len(calls["spectrum_from_solutions"]) == len(descriptors)
    assert not calls["order_spectrum"]
    for consumer in (None, lambda text: None):
        for log in calls.values():
            log.clear()
        conjecture_scan(FAMILIES, 48, on_row=consumer)
        assert len(calls["solutions"]) == alone and not calls["order_spectrum"]


def test_products_alone_compute_each_candidate_once(monkeypatch):
    # With products but not their base families, a factor such as C7 or D5
    # is outside the pool: its F is taken inside each product's, with no
    # spectrum of its own.  Each candidate gets one F and each distinct F
    # one inversion.
    calls = count_spectra(monkeypatch)
    descriptors = family_descriptors(("products",), 192)
    assert len(descriptors) == len(calls["spectrum_from_solutions"]) == 741
    assert len(calls["solutions"]) == len(set(calls["solutions"])) == 833
    assert not calls["order_spectrum"]


def old_family_descriptors(families, max_order, known):
    """The descriptors and spectra of the families, by building every candidate.

    Every pair of bases is built with make_product, all-abelian products
    included, and the pool is deduplicated by (order, spectrum) in (order,
    notation) order: the reference that _scan_groups must match.  known
    maps each candidate to its order_spectrum, filled here as needed.
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
        orders = [g.order for g in bases]
        pool.extend(make_product((bases[i], bases[j])) for i in range(len(bases))
                    for j in range(i, len(bases)) if orders[i] * orders[j] <= max_order)
    pool.sort(key=lambda d: (d.order, d.notation()))
    first = {}
    for desc in pool:
        if desc not in known:
            known[desc] = order_spectrum(desc)
        first.setdefault((desc.order, tuple(known[desc].entries.items())), (desc, known[desc]))
    return [desc for desc, _ in first.values()], [spectrum for _, spectrum in first.values()]


def test_scan_groups_match_the_all_pairs_enumeration():
    # The sweep's factorizations, its dedup by F and its inversion of each
    # distinct F against order_spectrum on every candidate, for every family
    # subset.  Both reach groups.solutions; test_groups checks products
    # against an lcm merge of their factors' spectra.
    known = {}
    for size in range(1, len(FAMILIES) + 1):
        for families in combinations(FAMILIES, size):
            descriptors, spectra = old_family_descriptors(families, 256, known)
            assert reciprocity._scan_groups(families, 256) == (descriptors, spectra), families
            assert family_descriptors(families, 256) == descriptors


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


def from_totals(totals, g):
    """The entries k_d at the divisors of g whose sums F(d) over e | d are totals[d]."""
    entries = dict(totals)
    for p, _ in factorize(g):
        for d in reversed(entries):
            if d % p == 0:
                entries[d] -= entries[d // p]
    return entries


def dominates(m, tail):
    """Exact dominance of the blocks tail, those past d = 1 in increasing order of d.

    The reference rule for _certified: every block exceeds m - 1 times the
    sum of the blocks after it, in exact integers.
    """
    rest = 0
    for block in reversed(tail):
        if block <= (m - 1) * rest:
            return False
        rest += block
    return True


def equal_blocks(n, m, shared):
    """A planted block table: n + m at every shared divisor, so a count is its key's sum."""
    return [n + m] * len(shared)


def certify_equal_blocks(n, m, shared, tables):
    """A stand-in for reciprocity._certified that decides dominates on equal_blocks."""
    return dominates(m, equal_blocks(n, m, shared)[1:])


def test_certificate_property():
    # At random order pairs up to 1024 with gcd g > 1, each block is a
    # multiple of (n+m)/g; where the chain certificate passes, the pair
    # dominates exactly and two different keys have different divisor sums,
    # also when they first differ late; and a key whose sums F(d) are
    # multiples of d at every d | g (Frobenius' condition, built here by
    # Möbius inversion from random multiples) has a divisor sum that n + m
    # divides.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def order_pair_keys(draw):
        # Half the gcds small, where dominance fails more often.
        g = draw(st.one_of(st.integers(2, 6), st.integers(2, 512)))
        n, m = sorted(g * draw(st.integers(1, 1024 // g)) for _ in range(2))
        shared = divisors(gcd(n, m))
        entries = st.integers(0, m - 1)
        key = (1, *draw(st.lists(entries, min_size=len(shared) - 1, max_size=len(shared) - 1)))
        i = draw(st.integers(1, len(shared) - 1))
        rest = len(shared) - 1 - i
        other = (*key[:i], draw(entries.filter(lambda x: x != key[i])),
                 *draw(st.lists(entries, min_size=rest, max_size=rest)))
        totals = {d: d * draw(st.integers(0, m)) if d > 1 else 1 for d in shared}
        return n, m, shared, key, other, tuple(from_totals(totals, shared[-1]).values())

    tables = _log_tables(1024)

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(order_pair_keys())
    def certificate(case):
        n, m, shared, key, other, admissible = case
        g, total = shared[-1], n + m
        table = block_table(n, m, shared)
        assert all(block % (total // g) == 0 for block in table)
        assert reciprocity._admissible(dict(zip(shared, admissible)), factorize(g)) is None
        assert sum(map(mul, admissible, table)) % total == 0
        if reciprocity._certified(n, m, shared, tables):
            assert dominates(m, table[1:])
            assert sum(map(mul, key, table)) != sum(map(mul, other, table))

    certificate()


def test_certified_order_pairs_have_distinct_exact_counts():
    # Brute force on the family spectra to 96: at every order pair with gcd
    # > 1 that the summary walk leaves out of its rows, which the thresholds
    # certify, counts from fresh binomials are exact and pairwise distinct
    # over the keys of both orders; every pair in its rows keeps the record
    # walk's counts and collisions.  The numbers of certified order pairs are
    # pinned, so that the certificate becomes neither vacuous nor broader
    # unnoticed.
    for max_order, certified, pairs in ((192, 6796, 7298), (96, 1656, 1850)):
        _, spectra = reciprocity._scan_groups(FAMILIES, max_order)
        orders = sorted({spectrum.group_order for spectrum in spectra})
        every = [(n, m) for i, n in enumerate(orders) for m in orders[i:] if gcd(n, m) > 1]
        rows = {(spectra[positions.start].group_order, entry[0]): entry
                for positions, row in reciprocity._class_walk(spectra, summary=True)
                for entry in row}
        assert set(rows) <= set(every) and all(entry[4] for entry in rows.values())
        assert (len(every) - len(rows), len(every)) == (certified, pairs)
    # spectra and rows are now those of 96.
    for positions, row in reciprocity._class_walk(spectra):
        n = spectra[positions.start].group_order
        for m, shared, left, right, counts, collisions in row:
            if gcd(n, m) == 1:
                continue
            if (n, m) in rows:
                assert rows[n, m][4:] == (counts, collisions), (n, m)
                continue
            keys = set(left[0]) | set(right[0])
            sums = {sum(k * comb((n + m) // d, n // d) for k, d in zip(key, shared)) for key in keys}
            assert len(sums) == len(keys) and all(s % (n + m) == 0 for s in sums), (n, m)


def test_log_certificate_passes_exactly_the_dominant_order_pairs(monkeypatch):
    # Every order pair n <= m <= 192 with gcd > 1 that the chain certificate
    # passes, from one table of log2(k!), dominates exactly by the reference
    # rule on fresh blocks, and the two rules pass the same order pairs, at
    # 96 as at 192.  The summary walk of all families to 192 asks block_table
    # for the blocks of each order pair the certificate refuses, once, and
    # for no other.
    tables = _log_tables(192)
    passed, dominant, refused = set(), set(), []
    for n in range(2, 193):
        for m in range(n, 193):
            shared = divisors(gcd(n, m))
            if len(shared) == 1:
                continue
            if reciprocity._certified(n, m, shared, tables):
                passed.add((n, m))
            else:
                refused.append((n, m))
            if dominates(m, [comb((n + m) // d, n // d) for d in shared[1:]]):
                dominant.add((n, m))
    assert passed <= dominant
    assert passed == dominant and len(passed) == 6796 and len(refused) == 502
    assert sum(m <= 96 for _, m in passed) == 1656
    calls = []
    table = reciprocity.block_table

    def counted(n, m, shared):
        calls.append((n, m))
        return table(n, m, shared)

    monkeypatch.setattr(reciprocity, "block_table", counted)
    _, spectra = reciprocity._scan_groups(FAMILIES, 192)
    for _ in reciprocity._class_walk(spectra, summary=True):
        pass
    assert calls == refused


def planted_logarithms(tables, n, m, planted):
    """tables with the block logarithm of (n, m) at each d of planted set to log2 planted[d].

    Only the entry lf[(n+m)/d] is changed, so no (n+m)/d may be an n/d' or
    m/d' that the pair reads.
    """
    lf = tables[0][:]
    for d, block in planted.items():
        lf[(n + m) // d] = log2(block) + lf[n // d] + lf[m // d]
    return (lf, *tables[1:])


@pytest.mark.parametrize("shift, certified", [(1, False), (0, False), (-1, False), (2 ** 60, True)])
def test_near_ties_of_the_chain_reach_exact_counting(shift, certified, monkeypatch):
    # The order pair (8, 12) is the one pair of the class n = 8, gcd 4 here,
    # whose one link (2, 4) is no unit link (8/2 - 8/4 = 2), so the threshold
    # search asks the certificate about it.  Its blocks past d = 1 are B_2 =
    # C(10, 4) and B_4 = C(5, 2).  Planted as B_4 = k = 2^60 and B_2 = 12k +
    # shift through the entries lf[10] and lf[5], which only their
    # logarithms read, the link B_2 > 12 * B_4 lies within 2^-60 bits of a
    # tie, far inside the tolerance of the pair (above 2^-25 bits), so the
    # certificate refuses it for every small shift, and the summary walk
    # counts the pair from its block table.  B_2 = 13k, log2(13/12) bits
    # above the tie, is certified, and the pair is in no row.
    k = 2 ** 60
    certify = reciprocity._certified
    verdicts = []

    def doctored(n, m, shared, tables):
        if (n, m) == (8, 12):
            tables = planted_logarithms(tables, n, m, {2: 12 * k + shift, 4: k})
            verdicts.append(certify(n, m, shared, tables))
            return verdicts[-1]
        return certify(n, m, shared, tables)

    calls = []
    table = reciprocity.block_table
    monkeypatch.setattr(reciprocity, "_certified", doctored)
    monkeypatch.setattr(reciprocity, "block_table", lambda n, m, shared: (
        calls.append((n, m)) or table(n, m, shared)))
    descriptors = [AbelianGroup((8,)), AbelianGroup((2, 4)), Dihedral(4),
                   AbelianGroup((12,)), AbelianGroup((2, 6)), Dihedral(6)]
    spectra = [order_spectrum(d) for d in descriptors]
    entries = [entry for positions, row in reciprocity._class_walk(spectra, summary=True)
               for entry in row if spectra[positions.start].group_order == 8 and entry[0] == 12]
    assert verdicts == [certified]
    assert ((8, 12) in calls) == (not certified) == (len(entries) == 1)
    if not certified:
        # The keys (1, k_2, k_4): C8 and C12 share (1, 1, 2); C2xC4 has
        # (1, 3, 4), D8 (1, 5, 2), C2xC6 (1, 3, 0) and D12 (1, 7, 0).
        [(_, _, _, _, counts, collisions)] = entries
        assert len(counts) == 5 and collisions == ()


def test_links_past_a_threshold_stay_certified_property():
    # _certified's lemma in exact integers: fix n and g = gcd(n, m) with no
    # unit link (consecutive divisors d < d' > 1 of g with n/d - n/d' = 1).
    # Then each link B_d > m * B_d' of the blocks B_d = C((n+m)/d, n/d) that
    # holds at one order m holds at every larger m of the class.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # Each (n, g, links) with n <= 240 and at least one link, none a unit link.
    free = [(n, g, links) for n in range(4, 241) for g in divisors(n)[1:]
            for links in [list(pairwise(divisors(g)[1:]))]
            if links and all(n // d - n // e > 1 for d, e in links)]

    @st.composite
    def classes(draw):
        n, g, links = draw(st.sampled_from(free))
        # Small t, where the links still change; m = g t with gcd(n/g, t) = 1.
        coprime = st.integers(n // g, n // g + 40).filter(lambda t: gcd(n // g, t) == 1)
        t1, t2 = sorted(draw(st.lists(coprime, min_size=2, max_size=2, unique=True)))
        return n, links, g * t1, g * t2

    def holds(n, m, d, e):
        return comb((n + m) // d, n // d) > m * comb((n + m) // e, n // e)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(classes())
    def monotone(case):
        n, links, m1, m2 = case
        for d, e in links:
            assert not holds(n, m1, d, e) or holds(n, m2, d, e), (n, m1, m2, d, e)

    monotone()


def per_pair_summary_walk(spectra):
    """The summary walk decided pair by pair: (positions, row) per order, as _class_walk yields.

    Each row keeps the record walk's entry of every order pair with gcd > 1
    that reciprocity._certified refuses, in increasing m.
    """
    tables = _log_tables(max(spectrum.group_order for spectrum in spectra))
    for positions, row in reciprocity._class_walk(spectra):
        n = spectra[positions.start].group_order
        yield positions, [entry for entry in row if entry[2] is not None
                          and not reciprocity._certified(n, entry[0], entry[1], tables)]


def test_threshold_walk_counts_what_the_per_pair_walk_counts():
    # For every non-empty family subset at 192 the thresholds leave exactly
    # the order pairs that the certificate refuses pair by pair, in the same
    # order, with the same classes, counts and collisions.
    subsets = [families for size in range(1, len(FAMILIES) + 1)
               for families in combinations(FAMILIES, size)]
    assert len(subsets) == 15
    for families in subsets:
        _, spectra = reciprocity._scan_groups(families, 192)
        walked = list(reciprocity._class_walk(spectra, summary=True))
        assert walked == list(per_pair_summary_walk(spectra)), families
        assert sum(map(len, (row for _, row in walked))) in (186, 388, 502), families


def test_threshold_search_calls_the_chain_only_at_pairs_of_the_scan(monkeypatch):
    # The summary walk of all families to 192 calls the chain 408 times,
    # where deciding pair by pair called it 7,298 times, once per order pair
    # with gcd > 1.  Each call is at an order pair of the scan, n <= m, with
    # gcd(n, m) the last shared divisor and no prime, and no pair is asked
    # twice.  Each class (n, g) is climbed in increasing m and left at its
    # first certified m, so only its last call may pass, and a class with a
    # unit link is never asked.
    calls = []
    certify = reciprocity._certified

    def logged(n, m, shared, tables):
        passed = certify(n, m, shared, tables)
        calls.append((n, m, shared[-1], tuple(shared), passed))
        return passed

    monkeypatch.setattr(reciprocity, "_certified", logged)
    _, spectra = reciprocity._scan_groups(FAMILIES, 192)
    for _ in reciprocity._class_walk(spectra, summary=True):
        pass
    orders = {spectrum.group_order for spectrum in spectra}
    pairs = [(n, m) for n, m, *_ in calls]
    assert len(calls) == len(set(pairs)) == 408
    assert all(n <= m and {n, m} <= orders and gcd(n, m) == g and len(divisors(g)) > 2
               for n, m, g, _, _ in calls)
    climbs: dict[tuple[int, int], list] = {}
    for n, m, g, shared, passed in calls:
        assert all(n // d - n // e > 1 for d, e in zip(shared[1:], shared[2:])), (n, g)
        climbs.setdefault((n, g), []).append((m, passed))
    for (n, g), climb in climbs.items():
        assert all(a < b for (a, _), (b, _) in zip(climb, climb[1:])), (n, g)
        assert not any(passed for _, passed in climb[:-1]), (n, g)


def test_summary_walk_builds_classes_only_for_uncertified_order_pairs(monkeypatch):
    # A certified order pair is decided without a visit: the rows of the
    # summary walk hold only the pairs it counts, each with its classes and
    # counts, and at 192 it builds the classes of each order and gcd that
    # such a pair reads, once each, 429 in all, against 855 in a record
    # walk, which builds them for every order pair with gcd > 1.
    built = []
    classes = reciprocity._classes

    def counted(spectra, positions, shared):
        built.append((spectra[positions.start].group_order, shared[-1]))
        return classes(spectra, positions, shared)

    monkeypatch.setattr(reciprocity, "_classes", counted)
    _, spectra = reciprocity._scan_groups(FAMILIES, 192)
    rows = [(spectra[positions.start].group_order, entry)
            for positions, row in reciprocity._class_walk(spectra, summary=True) for entry in row]
    assert len(rows) == 502 and all(entry[2] is not None and entry[4] for _, entry in rows)
    needed = {(order, gcd(n, entry[0])) for n, entry in rows for order in (n, entry[0])}
    assert len(built) == len(set(built)) == len(needed) == 429 and set(built) == needed
    built.clear()
    for _ in reciprocity._class_walk(spectra):
        pass
    assert len(built) == len(set(built)) == 855


def test_record_walk_gives_coprime_order_pairs_one_catalan_count(monkeypatch):
    # A coprime order pair has the key (1,) on both sides, so the record walk
    # gives it one count, C(n+m, n)/(n+m), and no block table, no classes
    # and no counts dict.  It asks block_table for exactly the order pairs
    # with gcd > 1, 1,850 at 96 and 7,298 at 192, and builds classes at no
    # gcd 1: 363 and 855 builds in all.  Every coprime record carries the
    # rational Catalan number in both count fields.
    calls, built = [], []
    table, classes = reciprocity.block_table, reciprocity._classes
    monkeypatch.setattr(reciprocity, "block_table", lambda n, m, shared: (
        calls.append((n, m)) or table(n, m, shared)))
    monkeypatch.setattr(reciprocity, "_classes", lambda spectra, positions, shared: (
        built.append((spectra[positions.start].group_order, shared[-1]))
        or classes(spectra, positions, shared)))
    for max_order, blocks, coprime, builds in ((96, 1850, 2806, 363), (192, 7298, 11230, 855)):
        calls.clear()
        built.clear()
        _, spectra = reciprocity._scan_groups(FAMILIES, max_order)
        orders = sorted({spectrum.group_order for spectrum in spectra})
        counted = []
        for positions, row in reciprocity._class_walk(spectra):
            n = spectra[positions.start].group_order
            for m, shared, left, right, count, collisions in row:
                if gcd(n, m) == 1:
                    assert (shared, left, right, collisions) == ([1], None, None, ())
                    assert count == rational_catalan(n, m), (n, m)
                    counted.append((n, m))
        every = [(n, m) for i, n in enumerate(orders) for m in orders[i:]]
        assert counted == [(n, m) for n, m in every if gcd(n, m) == 1] and len(counted) == coprime
        assert calls == [(n, m) for n, m in every if gcd(n, m) > 1] and len(calls) == blocks
        assert len(built) == len(set(built)) == builds and all(g > 1 for _, g in built)
    records = [json.loads(line) for line in "".join(record_rows(FAMILIES, 96)).splitlines()]
    coprime_records = [r for r in records if gcd(r["order_g"], r["order_h"]) == 1]
    assert len(records) == 71253 and len(coprime_records) > 10000
    for r in coprime_records:
        catalan = str(rational_catalan(r["order_g"], r["order_h"]))
        assert (r["count_g_at_h"], r["count_h_at_g"]) == (catalan, catalan), r
        assert r["spectra_agree"] and r["witness_divisor"] is None and r["iff_consistent"], r


def mobius(j):
    """The Möbius function of j >= 1."""
    exponents = [e for _, e in factorize(j)]
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def test_lyndon_identity_grid():
    # The sum over j | gcd(a, b) of mu(j) C((a+b)/j, a/j) is (a+b) times the
    # number of Lyndon words with a zeros and b ones: the identity behind
    # _admissible's proof that a Frobenius spectrum has exact counts.  Its
    # divisibility is checked on a grid, and its quotient against Lyndon
    # words counted by brute force where a + b <= 14.
    for a in range(1, 61):
        for b in range(1, 61):
            s = sum(mobius(j) * comb((a + b) // j, a // j) for j in divisors(gcd(a, b)))
            assert s % (a + b) == 0, (a, b)
            if a + b <= 14:
                words = {tuple(1 if i in ones else 0 for i in range(a + b))
                         for ones in combinations(range(a + b), b)}
                # A Lyndon word is strictly smaller than each of its other rotations.
                lyndon = [w for w in words if all(w < w[i:] + w[:i] for i in range(1, a + b))]
                assert s // (a + b) == len(lyndon), (a, b)


def compositions(total, parts):
    """Every tuple of parts non-negative integers that sum to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def test_admissible_matches_its_definition():
    # Over every composition of n with k_1 = 1 at the divisors of n, n <= 12,
    # _admissible names the first d whose F(d) = sum of k_e over e | d is
    # not a multiple of d, or None.
    seen = admissible = 0
    for n in range(1, 13):
        divs = divisors(n)
        for rest in compositions(n - 1, len(divs) - 1):
            entries = dict(zip(divs, (1, *rest)))
            first = next((d for d in divs
                          if sum(entries[e] for e in divs if d % e == 0) % d), None)
            assert reciprocity._admissible(entries, factorize(n)) == first, entries
            seen += 1
            admissible += first is None
    assert (seen, admissible) == (1496, 30)


def test_every_family_spectrum_to_the_ceiling_is_admissible():
    # _scan_groups refuses the first spectrum that _admissible rejects.
    _, spectra = reciprocity._scan_groups(FAMILIES, reciprocity.SCAN_MAX_ORDER)
    assert len(spectra) == 7255


def test_summary_scan_to_the_ceiling_factorizes_each_order_once(monkeypatch):
    # The sweep factorizes each order once, for its factorization and its
    # divisors, and the spectra, _admissible and the walk reuse those (the
    # walk reads the divisors of each gcd off a spectrum's keys), so a summary
    # scan of all families at the ceiling makes one factorize call per order.
    calls = []
    factorize_once = factorize

    def counted(n):
        calls.append(n)
        return factorize_once(n)

    for name, module in list(sys.modules.items()):
        if name.startswith("zsr.") and hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", counted)
    summary = conjecture_scan(FAMILIES, reciprocity.SCAN_MAX_ORDER)
    assert (summary.pairs_checked, summary.violations) == (26321140, [])
    assert sorted(calls) == list(range(1, reciprocity.SCAN_MAX_ORDER + 1))


def test_summary_scans_skip_coprime_order_pairs(monkeypatch):
    # With every block n + m a class's count is the sum of its restricted
    # entries, which plants collisions, so both paths have violations to agree on.
    # The certificate judges the planted blocks by exact dominance.
    calls = []

    def planted(n, m, shared):
        calls.append((n, m))
        return equal_blocks(n, m, shared)

    monkeypatch.setattr(reciprocity, "block_table", planted)
    monkeypatch.setattr(reciprocity, "_certified", certify_equal_blocks)
    summary = conjecture_scan(FAMILIES, 32)
    summary_calls = list(calls)
    calls.clear()
    records = conjecture_scan(FAMILIES, 32, on_row=lambda text: None)
    orders = sorted({d.order for d in family_descriptors(FAMILIES, 32)})
    every = [(n, m) for i, n in enumerate(orders) for m in orders[i:]]
    # A record scan asks for the blocks of every order pair with gcd > 1.
    assert calls == [(n, m) for n, m in every if gcd(n, m) > 1]
    # A summary scan asks for the blocks of an order pair with gcd > 1 once,
    # and only where the certificate refuses it.  Equal planted blocks
    # dominate only where one block follows d = 1, at a prime gcd.
    assert summary_calls == [(n, m) for n, m in every if len(divisors(gcd(n, m))) > 2]
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
    monkeypatch.setattr(reciprocity, "block_table", lambda n, m, shared:
                        [12] * len(shared) if (n, m) == (4, 8) else table(n, m, shared))
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
    return [spectrum.entries[d] for d in range(1, shared + 1) if shared % d == 0]


def test_planted_collisions_reach_both_scan_paths(monkeypatch):
    # With every block equal to n + m, a class's count is the sum of its
    # restricted entries, so different restricted spectra collide often.  The
    # certificate judges the planted blocks by exact dominance.
    monkeypatch.setattr(reciprocity, "block_table", equal_blocks)
    monkeypatch.setattr(reciprocity, "_certified", certify_equal_blocks)
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
    # C4 given 1, 1, 4 solutions of x^d = 1 at d = 1, 2, 4 inverts to three
    # elements of order 4, which is no group: x^2 = 1 has 1 solution, which
    # 2 does not divide.  Both scan paths must refuse it where its spectrum
    # enters the scan, also under python -O, which strips asserts.
    # At the order pair (2, 4) it would pass dominance and get no counts.
    assert reciprocity._admissible({1: 1, 2: 0, 4: 3}, factorize(4)) == 2
    assert reciprocity._certified(2, 4, [1, 2], _log_tables(4))
    code = ("import zsr.reciprocity as r\n"
            "from zsr.groups import solutions\n"
            "r.solutions = lambda g, divs: [1, 1, 4] if g.notation() == 'C4' else solutions(g, divs)\n"
            "for consumer in (None, lambda text: None):\n"
            "    try:\n"
            "        print(r.conjecture_scan(('abelian',), 4, on_row=consumer))\n"
            "    except ValueError as exc:\n"
            "        print('ValueError:', exc)\n")
    assert run_optimized(code) == ("ValueError: the spectrum of C4 is no group's: the number of "
                                   "solutions of x^2 = 1 is not a multiple of 2\n") * 2


def run_optimized(code):
    """The stdout of code run by python -O, which strips asserts, with zsr importable."""
    env = dict(os.environ)
    src = str(Path(zsr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_record_walk_refuses_an_inexact_coprime_count_under_optimize():
    # With C(n+m, n) planted one too large, the coprime order pair (1, 1)
    # has C(2, 1) = 3, which 2 does not divide: a record scan refuses it,
    # also under python -O.  A summary scan, which skips coprime order
    # pairs, never reads it.
    code = ("import zsr.counting, zsr.reciprocity as r\n"
            "from math import comb\n"
            "zsr.counting.binomial = lambda top, bottom: comb(top, bottom) + 1\n"
            "for consumer in (None, lambda text: None):\n"
            "    try:\n"
            "        print(r.conjecture_scan(('abelian',), 3, on_row=consumer).pairs_checked)\n"
            "    except ValueError as exc:\n"
            "        print('ValueError:', exc)\n")
    assert run_optimized(code) == "6\nValueError: C(2, 1) = 3 not divisible by 2\n"


def test_refused_order_pairs_are_counted_from_block_table(monkeypatch):
    # Planted blocks 15 at d = 1, 4 at d = 2 and 0 at d = 4 of the order
    # pair (8, 12) give C2xC2xC2, the first group of order 8 and key
    # (1, 7, 0), the divisor sum 15 + 7 * 4, which 20 does not divide.  A
    # record scan counts every order pair; a summary scan counts, from
    # block_table, the pairs its certificate refuses, here (8, 12), the one
    # pair of its class (n = 8, gcd 4), which the threshold search asks
    # about.  Both scan paths refuse the sum with one message.
    planted = {1: 15, 2: 4, 4: 0}
    table = reciprocity.block_table
    monkeypatch.setattr(reciprocity, "block_table", lambda n, m, shared:
                        [planted[d] for d in shared] if (n, m) == (8, 12)
                        else table(n, m, shared))
    certify = reciprocity._certified
    monkeypatch.setattr(reciprocity, "_certified", lambda n, m, shared, tables:
                        (n, m) != (8, 12) and certify(n, m, shared, tables))
    for consumer in (None, lambda text: None):
        with pytest.raises(ValueError) as refused:
            conjecture_scan(("abelian",), 12, on_row=consumer)
        assert str(refused.value) == "divisor sum 43 not divisible by 20: inconsistent spectrum"
