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
their counts are equal.  Each spectrum is computed once, while the candidates
are deduplicated.  A summary scan finds violating class pairs with a dict keyed
by count and expands only them into pairs; a scan that hands out records reads
each group's counts from the walk's row and yields every pair in canonical order.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .counting import count_formula
from .exactmath import block_table, divisors
from .groups import (
    FAMILIES,
    Dicyclic,
    Dihedral,
    GroupDescriptor,
    OrderSpectrum,
    enumerate_abelian,
    make_product,
    order_spectrum,
)
from .value import Value, set_field

RECORD_FIELDS = (
    "g", "h", "order_g", "order_h", "spectra_agree", "witness_divisor",
    "count_g_at_h", "count_h_at_g", "iff_consistent",
)


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


def record_line(values) -> str:
    """The compact JSON text of a record given by its values in RECORD_FIELDS order.

    It equals json.dumps(dict(zip(RECORD_FIELDS, values)), separators=(",", ":")).
    Notations hold only letters, digits and x, and counts only digits, so no
    string needs escaping.
    """
    g, h, order_g, order_h, agree, witness, count_gh, count_hg, consistent = values
    return (f'{{"g":"{g}","h":"{h}","order_g":{order_g},"order_h":{order_h},'
            f'"spectra_agree":{"true" if agree else "false"},'
            f'"witness_divisor":{"null" if witness is None else witness},'
            f'"count_g_at_h":"{count_gh}","count_h_at_g":"{count_hg}",'
            f'"iff_consistent":{"true" if consistent else "false"}}}')


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
    abelian = [g for n in range(1, max_order + 1) for g in enumerate_abelian(n)]
    dihedral = [Dihedral(k) for k in range(3, max_order // 2 + 1)]
    dicyclic = [Dicyclic(k) for k in range(2, max_order // 4 + 1)]
    pool: list[GroupDescriptor] = []
    if "abelian" in chosen:
        pool.extend(abelian)
    if "dihedral" in chosen:
        pool.extend(dihedral)
    if "dicyclic" in chosen:
        pool.extend(dicyclic)
    if "products" in chosen:
        bases = [d for d in abelian if d.order >= 2] + dihedral + dicyclic
        for i, left in enumerate(bases):
            for right in bases[i:]:
                if left.order * right.order <= max_order:
                    pool.append(make_product((left, right)))
    pool.sort(key=lambda d: (d.order, d.notation()))
    first: dict[tuple, tuple[GroupDescriptor, OrderSpectrum]] = {}
    for desc in pool:
        spectrum = order_spectrum(desc)
        first.setdefault((desc.order, spectrum.key()), (desc, spectrum))
    return [desc for desc, _ in first.values()], [spectrum for _, spectrum in first.values()]


def pair_sequence(descriptors) -> list[tuple[GroupDescriptor, GroupDescriptor]]:
    """All unordered pairs (diagonal included) in canonical scan order."""
    return [(descriptors[i], descriptors[j])
            for i in range(len(descriptors))
            for j in range(i, len(descriptors))]


def _class_walk(spectra: list[OrderSpectrum]):
    """Walk the orders of spectra upwards and give each spectrum class one count.

    Spectra are addressed by position.  For each order n, in increasing order,
    this yields the positions of order n and a row with one (m, left, right,
    counts) for every order m >= n.  left and right map each restricted key of
    order n and of order m (a spectrum's entries at the divisors of gcd(n, m),
    in increasing order) to its positions.  counts gives each key its dot
    product with the block table divided by n + m, which is |M(G, m)| for a
    group G of order n in that class (and the same with n and m swapped).  An
    inexact division means an inconsistent spectrum and raises ValueError.
    """
    members: dict[int, list[int]] = {}
    for i, spectrum in enumerate(spectra):
        members.setdefault(spectrum.group_order, []).append(i)
    classes: dict[tuple[int, int], tuple] = {}
    last_blocks: dict[tuple[int, int], tuple[int, int]] = {}

    def classes_at(n: int, g: int):
        """(divisors of g, {restricted key: positions}) for order n, computed once."""
        entry = classes.get((n, g))
        if entry is None:
            shared = [d for d in spectra[members[n][0]].entries if g % d == 0]
            by_key: dict[tuple[int, ...], list[int]] = {}
            for i in members[n]:
                entries = spectra[i].entries
                by_key.setdefault(tuple(entries[d] for d in shared), []).append(i)
            entry = classes[n, g] = (shared, by_key)
        return entry

    orders = sorted(members)
    for a, n in enumerate(orders):
        row = []
        for m in orders[a:]:
            g = gcd(n, m)
            shared, left = classes_at(n, g)
            right = classes_at(m, g)[1]
            table = block_table(n, m, shared, last_blocks)
            total = n + m
            counts: dict[tuple[int, ...], int] = {}
            for key in (*left, *right):
                if key not in counts:
                    divisor_sum = sum(map(mul, key, table))
                    if divisor_sum % total:
                        raise ValueError(f"divisor sum {divisor_sum} not divisible by {total}: "
                                         "inconsistent spectrum")
                    counts[key] = divisor_sum // total
            row.append((m, left, right, counts))
        yield members[n], row


def iter_pair_records(descriptors, spectra):
    """Yield (i, j, values) for every pair i <= j in canonical order, with counts from the class walk.

    values is the pair's record in RECORD_FIELDS order, as ReciprocityReport.values
    gives it.  Each notation is rendered once per scan and each class count once
    per row.  spectra[i] is the spectrum of descriptors[i], and the descriptors
    are in scan order (orders never decrease), as family_descriptors gives them.
    """
    names = [d.notation() for d in descriptors]
    orders = [s.group_order for s in spectra]
    k = len(descriptors)
    for positions, row in _class_walk(spectra):
        count_at: dict[int, dict[int, str]] = {i: {} for i in positions}
        count_of: dict[int, str] = {}
        for m, left, right, counts in row:
            texts = {key: str(count) for key, count in counts.items()}
            for key, members in left.items():
                for i in members:
                    count_at[i][m] = texts[key]
            for key, members in right.items():
                for j in members:
                    count_of[j] = texts[key]
        for i in positions:
            g, n, sg, at = names[i], orders[i], spectra[i], count_at[i]
            for j in range(i, k):
                count_gh, count_hg = at[orders[j]], count_of[j]
                witness = _witness(sg, spectra[j])
                agree = witness is None
                yield i, j, (g, names[j], n, orders[j], agree, witness,
                             count_gh, count_hg, agree == (count_gh == count_hg))


def _violation_reports(descriptors, spectra) -> list[ReciprocityReport]:
    """Reports of the violating pairs in canonical order, found class by class.

    For each pair of orders, a violation is two different restricted keys, one
    on each side, with the same count; a dict keyed by count finds them.
    """
    found = {}
    for _, row in _class_walk(spectra):
        for _, left, right, counts in row:
            if len(counts) < 2:
                continue
            by_count: dict[int, list[tuple[int, ...]]] = {}
            for key in left:
                by_count.setdefault(counts[key], []).append(key)
            for key in right:
                count = counts[key]
                for other in by_count.get(count, ()):
                    if other != key:
                        for i in left[other]:
                            for j in right[key]:
                                found[min(i, j), max(i, j)] = count
    return [_pair_report(descriptors[i], descriptors[j], spectra[i], spectra[j], count, count)
            for (i, j), count in sorted(found.items())]


def conjecture_scan(families, max_order: int, *, on_report=None) -> ScanSummary:
    """Check every pair from the chosen families up to max_order.

    An unknown family name raises ValueError.  Without on_report the scan
    decides by spectrum class and builds reports only for violating pairs.
    on_report, if given, is called with each pair's record values (in
    RECORD_FIELDS order) in canonical order as they are produced; a true
    return value counts the pair as a violation even when its record is
    consistent.  Reports are built only for the pairs counted as violations.
    """
    descriptors, spectra = _scan_groups(families, max_order)
    family_tuple = tuple(f for f in FAMILIES if f in set(families))
    if on_report is None:
        violations = _violation_reports(descriptors, spectra)
    else:
        violations = [_pair_report(descriptors[i], descriptors[j], spectra[i], spectra[j],
                                   int(values[6]), int(values[7]))
                      for i, j, values in iter_pair_records(descriptors, spectra)
                      if on_report(values) or not values[-1]]
    k = len(descriptors)
    return ScanSummary(
        pairs_checked=k * (k + 1) // 2, violations=violations,
        max_order=max_order, families=family_tuple,
    )


def verify_theorem(max_order: int) -> ScanSummary:
    """Scan all pairs of abelian groups up to max_order."""
    return conjecture_scan(("abelian",), max_order)
