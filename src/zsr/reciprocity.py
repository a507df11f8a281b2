"""Reciprocity checks: spectra agreement versus cross-count agreement.

For a pair of groups G, H the interesting comparison is between
|M(G, |H|)| and |M(H, |G|)| (zero-sum multiset counts of each group at the
other's order).  The theorem under test says these counts agree exactly
when the order spectra of G and H agree on every shared divisor, so each
pair check records both sides plus an iff-consistency verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import count_formula
from .exactmath import divisors
from .groups import (
    Dicyclic,
    Dihedral,
    GroupDescriptor,
    OrderSpectrum,
    enumerate_abelian,
    make_product,
    order_spectrum,
)

FAMILIES = ("abelian", "dihedral", "dicyclic", "products")

RECORD_FIELDS = (
    "g", "h", "order_g", "order_h", "spectra_agree", "witness_divisor",
    "count_g_at_h", "count_h_at_g", "iff_consistent",
)


@dataclass(frozen=True)
class ReciprocityReport:
    """Outcome of one pair check."""

    g: GroupDescriptor
    h: GroupDescriptor
    spectra_agree: bool
    witness_divisor: int | None
    count_g_at_h: int
    count_h_at_g: int
    counts_agree: bool
    iff_consistent: bool

    def to_record(self) -> dict:
        """JSON-ready dict in canonical field order; counts as decimal strings."""
        return {
            "g": self.g.notation(),
            "h": self.h.notation(),
            "order_g": self.g.order,
            "order_h": self.h.order,
            "spectra_agree": self.spectra_agree,
            "witness_divisor": self.witness_divisor,
            "count_g_at_h": str(self.count_g_at_h),
            "count_h_at_g": str(self.count_h_at_g),
            "iff_consistent": self.iff_consistent,
        }


@dataclass
class ScanSummary:
    """Aggregate result of a pair scan."""

    pairs_checked: int
    violations: list[ReciprocityReport]
    max_order: int
    families: tuple[str, ...]

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
    seen = set()
    out = []
    for desc in pool:
        key = (desc.order, order_spectrum(desc).key())
        if key not in seen:
            seen.add(key)
            out.append(desc)
    return out


def pair_sequence(descriptors) -> list[tuple[GroupDescriptor, GroupDescriptor]]:
    """All unordered pairs (diagonal included) in canonical scan order."""
    return [(descriptors[i], descriptors[j])
            for i in range(len(descriptors))
            for j in range(i, len(descriptors))]


def iter_pair_reports(descriptors):
    """Yield one report per pair in canonical order.

    Descriptors are addressed by position: counts[i][m] is
    |M(descriptors[i], m)|.
    """
    spectra = [order_spectrum(d) for d in descriptors]
    orders = [s.group_order for s in spectra]
    counts: list[dict[int, int]] = [{} for _ in descriptors]
    for i, g in enumerate(descriptors):
        sg, n, row_g = spectra[i], orders[i], counts[i]
        for j in range(i, len(descriptors)):
            sh, m, row_h = spectra[j], orders[j], counts[j]
            count_gh = row_g.get(m)
            if count_gh is None:
                count_gh = row_g[m] = count_formula(sg, m)
            count_hg = row_h.get(n)
            if count_hg is None:
                count_hg = row_h[n] = count_formula(sh, n)
            yield _pair_report(g, descriptors[j], sg, sh, count_gh, count_hg)


def conjecture_scan(families, max_order: int, *, on_report=None) -> ScanSummary:
    """Check every pair from the chosen families up to max_order.

    An unknown family name raises ValueError.  on_report, if given, is called
    with each report in canonical order as it is produced; a true return value
    counts the pair as a violation even when its report is consistent.
    """
    descriptors = family_descriptors(families, max_order)
    family_tuple = tuple(f for f in FAMILIES if f in set(families))
    checked = 0
    violations = []
    for report in iter_pair_reports(descriptors):
        checked += 1
        flagged = on_report(report) if on_report is not None else False
        if flagged or not report.iff_consistent:
            violations.append(report)
    return ScanSummary(
        pairs_checked=checked, violations=violations,
        max_order=max_order, families=family_tuple,
    )


def verify_theorem(max_order: int) -> ScanSummary:
    """Scan all pairs of abelian groups up to max_order."""
    return conjecture_scan(("abelian",), max_order)
