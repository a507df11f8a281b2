"""Reciprocity checks: spectra agreement versus cross-count agreement.

For groups G, H of orders n, m the comparison is between |M(G, m)| and
|M(H, n)| (zero-sum multiset counts of each group at the other's order).  The
theorem under test says these counts agree exactly when the order spectra of
G and H agree on every divisor of gcd(n, m), so each pair check records both
sides plus an iff-consistency verdict.

Both counts read only the spectrum entries at the divisors d of gcd(n, m),
weighted by the blocks C((n+m)/d, n/d) = C((n+m)/d, m/d).  A scan therefore
decides by spectrum class, in one walk over the orders in increasing n: for
each n and every order m >= n it builds one block table, groups the groups of
both orders by their spectrum restricted to the shared divisors, and gives each
class one count.  A pair is a violation exactly when its two classes differ but
their counts are equal; the walk finds such colliding classes once per order
pair, with a dict keyed by count where two counts tie.  Each candidate is
built once and its spectrum computed once, while the candidates are
deduplicated.  A summary scan skips the coprime order pairs, which cannot
collide, and expands only colliding classes into pairs; a record scan
renders, from the walk's row, each group's records with itself and every
later group as one text, in canonical order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from math import gcd
from operator import add, mul

from .counting import count_formula
from .errors import BudgetError
from .exactmath import block_table, divisors, prime_power_root
from .groups import (
    FAMILIES,
    Dicyclic,
    Dihedral,
    GroupDescriptor,
    OrderSpectrum,
    Product,
    enumerate_abelian,
    order_spectrum,
)
from .value import Value, set_field

# Scans refuse max_order past this ceiling (BudgetError) before they enumerate
# a group; a summary scan of all families at the ceiling took 8-9 s on 2 cores.
SCAN_MAX_ORDER = 1024
# Record scans (with on_row) refuse more pairs than this (BudgetError) after
# enumerating the groups and before the first row: one record per pair, and
# all families at order 256 (879,801 records) wrote 272 MB of JSONL.
RECORD_SCAN_MAX_PAIRS = 1_000_000

RECORD_FIELDS = (
    "g", "h", "order_g", "order_h", "spectra_agree", "witness_divisor",
    "count_g_at_h", "count_h_at_g", "iff_consistent",
)

# A record line is prefix + h + middle + left + right, in str.format templates
# per format: prefix takes g's notation, middle both orders, left
# spectra_agree, witness_divisor and count_g_at_h, and right count_h_at_g and
# iff_consistent.  The last item stands for an absent witness.  Notations hold
# only letters, digits and x, and counts only digits, so no text needs
# escaping or quoting.
RECORD_FORMATS = {
    "jsonl": ('{{"g":"{}","h":"', '","order_g":{},"order_h":{},',
              '"spectra_agree":{},"witness_divisor":{},"count_g_at_h":"{}","count_h_at_g":"',
              '{}","iff_consistent":{}}}\n', "null"),
    "csv": ("{},", ",{},{},", "{},{},{},", "{},{}\n", ""),
}


class ReciprocityReport(Value):
    """Outcome of one pair check."""

    __slots__ = ("g", "h", "spectra_agree", "witness_divisor", "count_g_at_h", "count_h_at_g",
                 "counts_agree", "iff_consistent")

    def __init__(self, g: GroupDescriptor, h: GroupDescriptor, spectra_agree: bool,
                 witness_divisor: int | None, count_g_at_h: int, count_h_at_g: int,
                 counts_agree: bool, iff_consistent: bool):
        set_field(self, "g", g)
        set_field(self, "h", h)
        set_field(self, "spectra_agree", spectra_agree)
        set_field(self, "witness_divisor", witness_divisor)
        set_field(self, "count_g_at_h", count_g_at_h)
        set_field(self, "count_h_at_g", count_h_at_g)
        set_field(self, "counts_agree", counts_agree)
        set_field(self, "iff_consistent", iff_consistent)

    def values(self) -> tuple:
        """The record's values in RECORD_FIELDS order; counts as decimal strings."""
        return (self.g.notation(), self.h.notation(), self.g.order, self.h.order,
                self.spectra_agree, self.witness_divisor, str(self.count_g_at_h),
                str(self.count_h_at_g), self.iff_consistent)

    def to_record(self) -> dict:
        """JSON-ready dict in canonical field order; counts as decimal strings."""
        return dict(zip(RECORD_FIELDS, self.values()))


class ScanSummary(Value):
    """Aggregate result of a pair scan."""

    __slots__ = ("pairs_checked", "violations", "max_order", "families")

    def __init__(self, pairs_checked: int, violations: list[ReciprocityReport], max_order: int,
                 families: tuple[str, ...]):
        set_field(self, "pairs_checked", pairs_checked)
        set_field(self, "violations", violations)
        set_field(self, "max_order", max_order)
        set_field(self, "families", families)

    def to_record(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "violations": len(self.violations),
            "max_order": self.max_order,
            "families": list(self.families),
        }


def _witness(sg: OrderSpectrum, sh: OrderSpectrum) -> int | None:
    """The smallest shared divisor of the two orders on which the spectra differ, or None."""
    m = sh.group_order
    for d, count in sg.entries.items():
        if m % d == 0 and count != sh.entries[d]:
            return d
    return None


def _pair_report(g, h, sg, sh, count_gh: int, count_hg: int) -> ReciprocityReport:
    """The report for one pair, from both spectra and both cross counts."""
    witness = _witness(sg, sh)
    agree = witness is None
    counts_agree = count_gh == count_hg
    return ReciprocityReport(
        g=g, h=h, spectra_agree=agree, witness_divisor=witness,
        count_g_at_h=count_gh, count_h_at_g=count_hg,
        counts_agree=counts_agree, iff_consistent=agree == counts_agree,
    )


def spectrum_condition(g, h) -> tuple[bool, int | None]:
    """(True, None) if the spectra agree on every shared divisor, else (False, smallest witness)."""
    sg, sh = order_spectrum(g), order_spectrum(h)
    witness = _witness(sg, sh)
    return witness is None, witness


def reciprocity_check(g: GroupDescriptor, h: GroupDescriptor) -> ReciprocityReport:
    """Run the full pair check: spectra condition plus both cross counts."""
    sg, sh = order_spectrum(g), order_spectrum(h)
    n, m = sg.group_order, sh.group_order
    return _pair_report(g, h, sg, sh, count_formula(sg, m), count_formula(sh, n))


def divisor_gap_free(n: int) -> bool:
    """True when n has no pair of divisors d+1 > d > 1 (consecutive divisors)."""
    if n < 1:
        raise ValueError(f"divisor_gap_free requires a positive integer, got {n}")
    divs = set(divisors(n))
    return not any(d > 1 and d + 1 in divs for d in divs)


def family_descriptors(families, max_order: int) -> list[GroupDescriptor]:
    """Deduplicated descriptors of the chosen families up to max_order, in scan order.

    Scan order is (order, notation); duplicates are recognized by equal
    (order, spectrum) so e.g. a two-factor product that is isomorphic to a
    listed group appears only once.
    """
    return _scan_groups(families, max_order)[0]


def _scan_groups(families, max_order: int) -> tuple[list[GroupDescriptor], list[OrderSpectrum]]:
    """family_descriptors(families, max_order) and their spectra, each computed once."""
    chosen = set(families)
    unknown = chosen - set(FAMILIES)
    if unknown:
        raise ValueError(f"unknown families {sorted(unknown)}; valid names: {', '.join(FAMILIES)}")
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    if max_order > SCAN_MAX_ORDER:
        raise BudgetError(f"scans are limited to max_order <= {SCAN_MAX_ORDER}, "
                          f"got max_order = {max_order}")
    abelian = [g for n in range(1, max_order + 1) for g in enumerate_abelian(n)]
    dihedral = [Dihedral(k) for k in range(3, max_order // 2 + 1)]
    dicyclic = [Dicyclic(k) for k in range(2, max_order // 4 + 1)]
    pool: list[GroupDescriptor] = []
    if "abelian" in chosen:
        pool.extend(abelian)
    elif "products" in chosen:
        # An abelian group of order > 1 is a product of two nontrivial ones
        # exactly when it is not cyclic of prime-power order.
        pool.extend(g for g in abelian if len(g.invariant_factors) > 1
                    or g.order > 1 and prime_power_root(g.order) is None)
    if "dihedral" in chosen:
        pool.extend(dihedral)
    if "dicyclic" in chosen:
        pool.extend(dicyclic)
    if "products" in chosen:
        # The all-abelian products are in the pool already, so only the pairs
        # of bases with a non-abelian (and so a later) factor are built.
        bases = [d for d in abelian if d.order >= 2] + dihedral + dicyclic
        orders = [d.order for d in bases]
        first = len(bases) - len(dihedral) - len(dicyclic)
        for j in range(first, len(bases)):
            top = max_order // orders[j]
            # The abelian bases come first, in increasing order.
            lefts = chain(range(bisect_right(orders, top, 0, first)),
                          (i for i in range(first, j + 1) if orders[i] <= top))
            pool.extend(Product((bases[i], bases[j])) for i in lefts)
    pool.sort(key=lambda d: (d.order, d.notation()))
    # A product's factors have smaller orders, so the spectra of those in the
    # pool are known first; a factor outside the pool gets its spectrum once,
    # however many products it is in.
    known: dict[GroupDescriptor, OrderSpectrum] = {}
    first: dict[tuple, tuple[GroupDescriptor, OrderSpectrum]] = {}
    for desc in pool:
        for factor in desc.factors if isinstance(desc, Product) else ():
            if factor not in known:
                known[factor] = order_spectrum(factor)
        spectrum = known[desc] = order_spectrum(desc, known)
        first.setdefault((desc.order, spectrum.key()), (desc, spectrum))
    return [desc for desc, _ in first.values()], [spectrum for _, spectrum in first.values()]


def pair_sequence(descriptors) -> list[tuple[GroupDescriptor, GroupDescriptor]]:
    """All unordered pairs (diagonal included) in canonical scan order."""
    return [(descriptors[i], descriptors[j])
            for i in range(len(descriptors))
            for j in range(i, len(descriptors))]


def _class_walk(spectra: list[OrderSpectrum], coprime: bool = True):
    """Walk the orders of spectra upwards and give each spectrum class one count.

    Spectra are addressed by position and sorted by group order.  For each
    order n, in increasing order, this yields the range of positions of order
    n and a row with one (m, shared, left, right, counts, collisions) for
    every order m >= n; with coprime false, only for those m with gcd(n, m) >
    1.  A coprime order pair has one class, key (1,), on each side, so it has
    no collision, and its count C(n+m, n)/(n+m) is an integer for every
    spectrum, a rational Catalan number: a summary scan, which needs only the
    collisions, skips it.  shared lists the divisors of gcd(n, m) in increasing
    order.  left and right are the classes of order n and of order m, each a
    triple (keys, of, positions): keys lists the restricted keys (a
    spectrum's entries at shared) in order of first appearance, and of gives
    each of the positions of that order, in turn, the index of its key.
    counts gives each key its dot product with the block table divided by
    n + m, which is |M(G, m)| for a group G of order n in that class (and the
    same with n and m swapped).  An inexact division means an inconsistent
    spectrum and raises ValueError.  collisions is a tuple of each (left
    class, right class) with different keys and equal counts; the classes are
    matched by count only when two keys share one.
    """
    orders = [spectrum.group_order for spectrum in spectra]
    members = {n: range(bisect_left(orders, n), bisect_right(orders, n))
               for n in dict.fromkeys(orders)}
    classes: dict[tuple[int, int], tuple] = {}
    last_blocks: dict[tuple[int, int], tuple[int, int]] = {}

    def classes_at(n: int, g: int):
        """(divisors of g, (keys, of, positions)) for order n, computed once."""
        entry = classes.get((n, g))
        if entry is None:
            shared = [d for d in spectra[members[n][0]].entries if g % d == 0]
            index: dict[tuple[int, ...], int] = {}
            of = [index.setdefault(tuple(spectra[i].entries[d] for d in shared), len(index))
                  for i in members[n]]
            entry = classes[n, g] = (shared, (list(index), of, members[n]))
        return entry

    orders = list(members)
    for a, n in enumerate(orders):
        row = []
        for m in orders[a:]:
            g = gcd(n, m)
            if g == 1 and not coprime:
                continue
            shared, left = classes_at(n, g)
            right = classes_at(m, g)[1]
            table = block_table(n, m, shared, last_blocks)
            total = n + m
            counts: dict[tuple[int, ...], int] = {}
            for key in (*left[0], *right[0]):
                if key not in counts:
                    divisor_sum = sum(map(mul, key, table))
                    if divisor_sum % total:
                        raise ValueError(f"divisor sum {divisor_sum} not divisible by {total}: "
                                         "inconsistent spectrum")
                    counts[key] = divisor_sum // total
            collisions = ()
            if len(set(counts.values())) < len(counts):
                by_count: dict[int, list[int]] = {}
                for c, key in enumerate(left[0]):
                    by_count.setdefault(counts[key], []).append(c)
                for c, key in enumerate(right[0]):
                    for other in by_count.get(counts[key], ()):
                        if left[0][other] != key:
                            collisions += ((other, c),)
            row.append((m, shared, left, right, counts, collisions))
        yield members[n], row


def _members(classes, c: int) -> list[int]:
    """The positions in class c of classes, a (keys, of, positions) triple from the class walk."""
    _, of, positions = classes
    return [i for i, index in zip(positions, of) if index == c]


def _violating_pairs(row, found: dict) -> None:
    """Map in found each pair (i, j), i <= j, of colliding classes in a walk's row to its counts."""
    for _, _, left, right, counts, collisions in row:
        for c, other in collisions:
            count = counts[left[0][c]]
            for i in _members(left, c):
                for j in _members(right, other):
                    found[min(i, j), max(i, j)] = count, count


def _record_rows(descriptors, spectra, on_row, record_format: str) -> dict:
    """Render every pair's record one row at a time and return the violating pairs.

    The row of group i holds its records with every group j >= i, in canonical
    order, one line each in record_format.  Every field of a record is fixed by
    the spectrum classes of i and j at their order pair.  So a line's middle is
    rendered once per order pair, its left part once per order pair, class of
    i and witness, and its right part once per order pair and class of j (and
    once more per colliding class of i); a group's row only selects the parts
    of its class.  on_row is called with each row's text and may return the
    offsets, within the row, of lines to count as violations.  Returns the
    pair (i, j) of those lines and of every inconsistent record mapped to
    (count_g_at_h, count_h_at_g).
    """
    prefix_format, middle_format, left_format, right_format, null = RECORD_FORMATS[record_format]
    names = [d.notation() for d in descriptors]
    orders = [s.group_order for s in spectra]
    found = {}
    for positions, row in _class_walk(spectra):
        first = positions.start
        n = orders[first]
        middles = {m: middle_format.format(n, m) for m, *_ in row}
        heads = list(map(add, names[first:], map(middles.__getitem__, orders[first:])))
        _violating_pairs(row, found)
        blocks = {}
        for m, shared, (left_keys, left_of, _), right, counts, collisions in row:
            texts = {key: str(count) for key, count in counts.items()}
            block_rights = [right_format.format(texts[key], "true") for key in right[0]]
            # The right parts of each class of i, inconsistent where it collides.
            class_rights = [block_rights] * len(left_keys)
            for c, other in collisions:
                if class_rights[c] is block_rights:
                    class_rights[c] = [*block_rights]
                class_rights[c][other] = right_format.format(texts[right[0][other]], "false")
            class_lefts = []
            for key in left_keys:
                # The left part of class key with each class of j, by witness (None: agree).
                by_witness = {None: left_format.format("true", null, texts[key])}
                lefts = []
                for other in right[0]:
                    for d, x, y in zip(shared, key, other):
                        if x != y:
                            break
                    else:
                        d = None
                    part = by_witness.get(d)
                    if part is None:
                        part = by_witness[d] = left_format.format("false", d, texts[key])
                    lefts.append(part)
                class_lefts.append(lefts)
            blocks[m] = (left_keys, left_of, right, counts, class_lefts, class_rights)
        for i in positions:
            lefts, rights = [], []
            for m, (_, left_of, (_, right_of, _), _, class_lefts, class_rights) in blocks.items():
                c = left_of[i - first]
                of = right_of[i - first:] if m == n else right_of
                lefts.append(map(class_lefts[c].__getitem__, of))
                rights.append(map(class_rights[c].__getitem__, of))
            text = "".join(chain.from_iterable(zip(
                repeat(prefix_format.format(names[i])), heads[i - first:],
                chain.from_iterable(lefts), chain.from_iterable(rights))))
            for offset in on_row(text) or ():
                j = i + offset
                left_keys, left_of, right, counts, *_ = blocks[orders[j]]
                right_keys, right_of, right_at = right
                key, other = left_keys[left_of[i - first]], right_keys[right_of[j - right_at.start]]
                found.setdefault((i, j), (counts[key], counts[other]))
    return found


def conjecture_scan(families, max_order: int, *, on_row=None,
                    record_format: str = "jsonl") -> ScanSummary:
    """Check every pair from the chosen families up to max_order.

    An unknown family name raises ValueError.  Without on_row the scan decides
    by spectrum class and builds reports only for violating pairs.  With
    on_row it also renders every pair's record as a line of record_format
    ("jsonl" or "csv", the record's values in RECORD_FIELDS order) and calls
    on_row with the text of each group's row: its records with itself and
    every later group, in canonical order.  on_row may return the offsets,
    within the row, of lines to count as violations even where the record is
    consistent.  Reports are built only for the pairs counted as violations.
    A scan with on_row over more than RECORD_SCAN_MAX_PAIRS pairs raises
    BudgetError before its first row.
    """
    descriptors, spectra = _scan_groups(families, max_order)
    family_tuple = tuple(f for f in FAMILIES if f in set(families))
    k = len(descriptors)
    pairs = k * (k + 1) // 2
    if on_row is None:
        found = {}
        for _, row in _class_walk(spectra, coprime=False):
            _violating_pairs(row, found)
    elif pairs > RECORD_SCAN_MAX_PAIRS:
        raise BudgetError(f"record scans are limited to {RECORD_SCAN_MAX_PAIRS} pairs, "
                          f"got {pairs} pairs at max_order = {max_order}")
    else:
        found = _record_rows(descriptors, spectra, on_row, record_format)
    return ScanSummary(
        pairs_checked=pairs,
        violations=[_pair_report(descriptors[i], descriptors[j], spectra[i], spectra[j],
                                 *found[i, j]) for i, j in sorted(found)],
        max_order=max_order, families=family_tuple,
    )


def verify_theorem(max_order: int) -> ScanSummary:
    """Scan all pairs of abelian groups up to max_order."""
    return conjecture_scan(("abelian",), max_order)
