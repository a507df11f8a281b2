"""Reciprocity checks: spectra agreement versus cross-count agreement.

For groups G, H of orders n, m the comparison is between |M(G, m)| and
|M(H, n)| (zero-sum multiset counts of each group at the other's order).  The
theorem under test says these counts agree exactly when the order spectra of
G and H agree on every divisor of gcd(n, m), so each pair check records both
sides plus an iff-consistency verdict.

Both counts read only the spectrum entries at the divisors d of gcd(n, m),
weighted by the blocks C((n+m)/d, n/d) = C((n+m)/d, m/d).  A scan therefore
decides by spectrum class, in one walk over the orders in increasing n: for
each n and every order m >= n with gcd(n, m) > 1 it builds one block table,
groups the groups of both orders by their spectrum restricted to the shared
divisors, and gives each class one count.  A pair is a violation exactly when
its two classes differ but their counts are equal; the walk finds such
colliding classes once per order pair, with a dict keyed by count where two
counts tie.  Each candidate is built once and its numbers of solutions of
x^d = 1 computed once; these fix the spectrum, so the candidates are
deduplicated by them and each distinct spectrum is inverted from them once.
A coprime order pair cannot collide: every group of either order has the key
(1,) and the count C(n+m, n)/(n+m), a rational Catalan number.  A summary
scan skips these pairs and expands only colliding classes into pairs; a
record scan gives each of them that one count, with no block table and no
classes, and renders, from the walk's row, each group's records with itself
and every later group as one text, in canonical order.

A summary scan gives most order pairs no classes, no blocks and no counts,
by proof.  Every key has 1 at d = 1 and every other entry in
[0, max(n, m) - 1], so two different keys first differ at some later
divisor.  If every block after the first exceeds max(n, m) - 1 times the sum
of the blocks after it (dominance, the fact behind the paper's proof and
Lemma 2.1ii), the block where two keys first differ outweighs all their
later differences, so no two keys share a count and the pair has no
collision.  Dominance follows when each block past d = 1 is more than
max(n, m) times the next one, and _certified decides that chain from the
blocks' logarithms, read from one table of log2(k!) with the tolerance that
the lemma grids use (logblocks), so it builds no block and no class.
Exactness needs no sums either: every spectrum of a scan is checked once to
be admissible (Frobenius' theorem, see _admissible), and an admissible
spectrum has an exact count at every order m.  An order pair whose chain
does not clear the tolerance is counted exactly, as a record scan counts it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, repeat
from math import comb, gcd
from operator import itemgetter, mul

from .counting import count_formula
from .errors import BudgetError
from .exactmath import Factorization, block_table, divisors, factorize, generated_divisors
from .groups import (
    FAMILIES,
    Dicyclic,
    Dihedral,
    GroupDescriptor,
    OrderSpectrum,
    Product,
    abelian_groups,
    order_spectrum,
    solutions,
    spectrum_from_solutions,
)
from .logblocks import _log_tables
from .value import Value

# Scans refuse max_order past this ceiling (BudgetError) before they enumerate
# a group; a summary scan of all families at the ceiling took 0.84-1.00 s on
# 2 cores, with 30 MB peak RSS.  The tolerance proof of logblocks._tolerance
# needs it below 4096.
SCAN_MAX_ORDER = 1024
# Record scans (with on_row) refuse more pairs than this (BudgetError) after
# enumerating the groups and before the first row: one record per pair, and
# all families at order 256 (879,801 records) wrote 272 MB of JSONL.
RECORD_SCAN_MAX_PAIRS = 1_000_000

RECORD_FIELDS = (
    "g", "h", "order_g", "order_h", "spectra_agree", "witness_divisor",
    "count_g_at_h", "count_h_at_g", "iff_consistent",
)

# A record line is its values in RECORD_FIELDS order, each after the piece of
# its format at the same index, then the last piece; a boolean is true or
# false, and the second item stands for an absent witness.  Notations hold only
# letters, digits and x, and counts digits: nothing needs escaping or quoting.
RECORD_FORMATS = {
    "jsonl": (('{"g":"', '","h":"', '","order_g":', ',"order_h":', ',"spectra_agree":',
               ',"witness_divisor":', ',"count_g_at_h":"', '","count_h_at_g":"',
               '","iff_consistent":', "}\n"), "null"),
    "csv": (("", ",", ",", ",", ",", ",", ",", ",", ",", "\n"), ""),
}


def jsonl_record_pair(line: bytes) -> tuple[bytes, str]:
    """A jsonl record line's start, through the comma after h, and its pair as "G vs H"."""
    start = line[:line.index(b',"order_g"') + 1]
    return start, start[6:-2].decode().replace('","h":"', " vs ")


class ReciprocityReport(Value):
    """Outcome of one pair check."""

    __slots__ = ("g", "h", "spectra_agree", "witness_divisor", "count_g_at_h", "count_h_at_g",
                 "counts_agree", "iff_consistent")

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
    return ReciprocityReport(g, h, agree, witness, count_gh, count_hg, counts_agree,
                             agree == counts_agree)


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


def _admissible(entries: dict[int, int], fac: Factorization) -> int | None:
    """None when the spectrum entries of order n pass Frobenius' test, else the first failing divisor.

    entries maps each divisor of n, in increasing order, to k_d, the number
    of elements of order d, and fac is the factorization of n.  F(d) = sum
    of k_e over e | d is the number of solutions of x^d = 1, and Frobenius'
    theorem (1895) says that d divides F(d) for every d | n in every finite
    group.  F is built from the k_d by one zeta-transform pass per prime of n.
    A scan inverted these entries from F in the first place; F is rebuilt
    from them on purpose, so that the test also checks the inversion.

    An admissible spectrum has an exact count at every order m.  By Möbius
    inversion k_d = sum of mu(d/e) F(e) over e | d, so with g = gcd(n, m) and
    T = n + m the divisor sum over d | g of k_d C(T/d, n/d) is the sum over
    e | g of F(e) S_e, where S_e = sum over j | g/e of mu(j) C(T/(ej),
    n/(ej)).  A binary word with a zeros and b ones is the (a+b)/|w|-th power
    of exactly one aperiodic word w, and an aperiodic word has |w| distinct
    rotations, so C(a+b, a) = sum over j | gcd(a, b) of ((a+b)/j) L(a/j,
    b/j), with L(a, b) the number of Lyndon words (aperiodic binary
    necklaces) with a zeros and b ones.  Möbius inversion gives S_e = (T/e)
    L(n/e, m/e), so F(e) S_e = (F(e)/e) T L(n/e, m/e) is a multiple of T for
    each e, and so is the divisor sum.
    """
    totals = dict(entries)
    for p, _ in fac:
        # In increasing order totals[d // p] already sums its own p-chain.
        for d in totals:
            if d % p == 0:
                totals[d] += totals[d // p]
    return next((d for d, total in totals.items() if total % d), None)


def _scan_groups(families, max_order: int) -> tuple[list[GroupDescriptor], list[OrderSpectrum]]:
    """family_descriptors(families, max_order) and their spectra, each computed once.

    One sweep: one factorize call per order to max_order gives every
    order's factorization and divisors, and abelian groups are built from
    the partitions of each prime's exponent.  Each candidate gets F(d), the
    number of solutions of x^d = 1 at every divisor d of its order, in closed
    form (groups.solutions; a product's F is its factors' multiplied).  The
    first candidate of each distinct F is kept and only its F is inverted to
    a spectrum (groups.spectrum_from_solutions).  Each kept spectrum is
    checked once by _admissible, and a spectrum that no group has raises
    ValueError naming its group and divisor.
    """
    chosen = set(families)
    unknown = chosen - set(FAMILIES)
    if unknown:
        raise ValueError(f"unknown families {sorted(unknown)}; valid names: {', '.join(FAMILIES)}")
    if max_order < 1:
        raise ValueError(f"max_order must be positive, got {max_order}")
    if max_order > SCAN_MAX_ORDER:
        raise BudgetError(f"scans are limited to max_order <= {SCAN_MAX_ORDER}, "
                          f"got max_order = {max_order}")
    factorizations = [[], *map(factorize, range(1, max_order + 1))]
    divisors_of = [sorted(generated_divisors(fac)) for fac in factorizations]
    abelian = [g for fac in factorizations[1:] for g in abelian_groups(fac)]
    dihedral = [Dihedral(k) for k in range(3, max_order // 2 + 1)]
    dicyclic = [Dicyclic(k) for k in range(2, max_order // 4 + 1)]
    pool: list[GroupDescriptor] = []
    if "abelian" in chosen:
        pool.extend(abelian)
    elif "products" in chosen:
        # An abelian group of order > 1 is a product of two nontrivial ones
        # exactly when it is not cyclic of prime-power order.
        pool.extend(g for g in abelian if len(g.invariant_factors) > 1
                    or len(factorizations[g.order]) > 1)
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
    # F determines the spectrum (F(n) = n gives the order, and the spectrum
    # is F's Moebius inverse), so the first group of each F is kept.
    kept: dict[tuple[int, ...], GroupDescriptor] = {}
    spectra = []
    for desc in pool:
        n = desc.order
        counts = tuple(solutions(desc, divisors_of[n]))
        if counts not in kept:
            kept[counts] = desc
            spectrum = spectrum_from_solutions(counts, factorizations[n], divisors_of[n])
            d = _admissible(spectrum.entries, factorizations[n])
            if d is not None:
                raise ValueError(f"the spectrum of {desc.notation()} is no group's: the number "
                                 f"of solutions of x^{d} = 1 is not a multiple of {d}")
            spectra.append(spectrum)
    return list(kept.values()), spectra


def pair_sequence(descriptors) -> list[tuple[GroupDescriptor, GroupDescriptor]]:
    """All unordered pairs (diagonal included) in canonical scan order."""
    return [(descriptors[i], descriptors[j])
            for i in range(len(descriptors))
            for j in range(i, len(descriptors))]


def _certified(n: int, m: int, shared: list[int], tables: tuple) -> bool:
    """True when the keys of the order pair (n, m), n <= m, have pairwise distinct counts.

    shared lists the divisors of gcd(n, m) > 1 in increasing order, and
    tables is logblocks._log_tables of a bound on m.  The chain certificate:
    each block B_d = C((n+m)/d, n/d) past d = 1 is more than m times the
    next one, B_d'.  Then, from the last block down, each block exceeds
    m - 1 times the sum R of the blocks after it (dominance): B_d' >
    (m - 1) R_d' gives R_d = B_d' + R_d' < B_d' m / (m - 1) < B_d / (m - 1).
    Two keys agree at d = 1, and an entry at d > 1 lies in [0, m - 1], so
    where they first differ their divisor sums differ by more than 0.  Each
    link is decided in floats by its margin in bits, lb_d - lb_d' - log2 m,
    with lb_d = lf[(n+m)/d] - lf[n/d] - lf[m/d] the logarithm of B_d, and
    holds when the margin exceeds tau[n + m] (logblocks._tolerance proves
    this); no block is built.
    """
    lf, lg, tau = tables
    total = n + m
    log_m, tol = lg[m], tau[total]
    d = shared[1]
    before = lf[total // d] - lf[n // d] - lf[m // d]
    for d in shared[2:]:
        after = lf[total // d] - lf[n // d] - lf[m // d]
        if before - after - log_m <= tol:
            return False
        before = after
    return True


def _classes(spectra: list[OrderSpectrum], positions: range, shared: list[int]):
    """The classes (keys, of, positions) of the spectra at positions, restricted to shared.

    keys lists the restricted keys (tuples of a spectrum's entries at
    shared) in order of first appearance, and of gives each position, in
    turn, the index of its key.  shared holds 1 and a gcd above 1, so
    itemgetter returns tuples.
    """
    keys = map(itemgetter(*shared), [spectra[i].entries for i in positions])
    index: dict[tuple[int, ...], int] = {}
    of = [index.setdefault(key, len(index)) for key in keys]
    return list(index), of, positions


def _class_walk(spectra: list[OrderSpectrum], summary: bool = False):
    """Walk the orders of spectra upwards and give each spectrum class one count.

    Spectra are addressed by position and sorted by group order.  For each
    order n, in increasing order, this yields the range of positions of order
    n and a row with one (m, shared, left, right, counts, collisions) for
    every order m >= n; with summary true, only for those m with gcd(n, m) >
    1.  shared lists the divisors of gcd(n, m) in increasing order.

    A coprime order pair has one class, key (1,), on each side, so it has no
    collision, and its count C(n+m, n)/(n+m) is an integer for every
    spectrum, a rational Catalan number.  A summary scan, which needs only
    the collisions, skips it.  A record walk yields it as (m, [1], None, None,
    count, ()), with that one count in place of counts, from one binomial:
    no block table, no classes and no counts dict.  An inexact division there
    means a wrong binomial and raises ValueError.

    A summary scan decides every other order pair by _certified first, from
    one table of block logarithms, and a certified pair gets no block table,
    no classes (left and right are None), no counts and no collisions; its
    counts are exact because every spectrum of a scan is admissible.

    Every other pair is counted from one block table.  left and right are the
    classes of order n and of order m from _classes, each built once per
    order and gcd.  counts gives each key its dot product with the block
    table divided by n + m, which is |M(G, m)| for a group G of order n in
    that class (and the same with n and m swapped).  An inexact division
    means an inconsistent spectrum or table and raises ValueError.
    collisions is a tuple of each (left class, right class) with different
    keys and equal counts; the classes are matched by count only when two
    keys share one.
    """
    orders = [spectrum.group_order for spectrum in spectra]
    members = {n: range(bisect_left(orders, n), bisect_right(orders, n))
               for n in dict.fromkeys(orders)}
    divisors_of: dict[int, list[int]] = {}
    classes: dict[tuple[int, int], tuple] = {}

    def classes_at(n: int, g: int):
        """The classes of order n restricted to the divisors of g, computed once."""
        entry = classes.get((n, g))
        if entry is None:
            entry = classes[n, g] = _classes(spectra, members[n], divisors_of[g])
        return entry

    orders = list(members)
    tables = _log_tables(max(orders, default=0)) if summary else None
    for a, n in enumerate(orders):
        row = []
        for m in orders[a:]:
            g = gcd(n, m)
            if g == 1:
                if not summary:
                    total = n + m
                    top = comb(total, n)
                    if top % total:
                        raise ValueError(f"C({total}, {n}) = {top} not divisible by {total}")
                    row.append((m, [1], None, None, top // total, ()))
                continue
            shared = divisors_of.get(g)
            if shared is None:
                # g divides n, and a spectrum's keys are its order's divisors.
                shared = divisors_of[g] = [d for d in spectra[members[n].start].entries if g % d == 0]
            if summary and _certified(n, m, shared, tables):
                row.append((m, shared, None, None, {}, ()))
                continue
            table = block_table(n, m, shared)
            left, right = classes_at(n, g), classes_at(m, g)
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
    order, one line each in record_format: i's prefix, j's notation, a left
    part (both orders, spectra_agree, witness_divisor, count_g_at_h) and a
    right part (count_h_at_g, iff_consistent), concatenated from the format's
    pieces.  Both parts are fixed by the spectrum classes of i and j at their
    order pair: the left part is built once per order pair, class of i and
    witness, the right part once per order pair and class of j (and once more
    per colliding class of i), and a row only selects its class's parts.  A
    coprime order pair has one count and one left and one right part, which a
    row repeats.  A class pair's witness is found by bucket: the classes of j
    are grouped by their count at shared[1], the first shared divisor above 1,
    and a class of i is compared further only with its own bucket.  on_row is
    called with each row's text and may return the offsets, within the row, of
    lines to count as violations.  Returns the pair (i, j) of those lines and
    of every inconsistent record mapped to (count_g_at_h, count_h_at_g).
    """
    (before_g, before_h, before_n, before_m, before_agree, before_witness, before_count_g,
     before_count_h, before_iff, end), null = RECORD_FORMATS[record_format]
    names = [d.notation() for d in descriptors]
    orders = [s.group_order for s in spectra]
    sizes = Counter(orders)
    # A left part's head by witness: None, or any d from 2 to the largest order.
    heads = {d: f"false{before_witness}{d}{before_count_g}" for d in range(2, max(sizes, default=1) + 1)}
    heads[None] = f"true{before_witness}{null}{before_count_g}"
    agree_tail, collide_tail = (f"{before_iff}{verdict}{end}" for verdict in ("true", "false"))
    found = {}
    for positions, row in _class_walk(spectra):
        first = positions.start
        n = orders[first]
        _violating_pairs(row, found)
        blocks = {}
        for m, shared, left, right, counts, collisions in row:
            middle = f"{before_n}{n}{before_m}{m}{before_agree}"
            if left is None:
                # A coprime order pair: one count, and every record agrees.
                text = str(counts)
                blocks[m] = (None, sizes[m], middle + heads[None] + text + before_count_h,
                             text + agree_tail)
                continue
            left_keys, left_of, _ = left
            right_keys, right_of, _ = right
            texts = {key: str(count) for key, count in counts.items()}
            block_rights = [texts[key] + agree_tail for key in right_keys]
            # The right parts of each class of i, inconsistent where it collides.
            class_rights = [block_rights] * len(left_keys)
            for c, other in collisions:
                if class_rights[c] is block_rights:
                    class_rights[c] = [*block_rights]
                class_rights[c][other] = texts[right_keys[other]] + collide_tail
            # The classes of j by their count at shared[1].  Every class
            # counts 1 at d = 1, so outside its own bucket a class of i
            # first differs from each at shared[1].
            bucket: dict[int, list[int]] = {}
            for c, other in enumerate(right_keys):
                bucket.setdefault(other[1], []).append(c)
            differ_first = middle + heads[shared[1]]
            class_lefts = []
            for key in left_keys:
                text = texts[key] + before_count_h
                lefts = [differ_first + text] * len(right_keys)
                by_witness = {}
                for c in bucket.get(key[1], ()):
                    other = right_keys[c]
                    d = None if other == key else next(d for d, x, y in zip(shared, key, other) if x != y)
                    if d not in by_witness:
                        by_witness[d] = middle + heads[d] + text
                    lefts[c] = by_witness[d]
                class_lefts.append(lefts)
            blocks[m] = (left_of, right_of, class_lefts, class_rights)
        for i in positions:
            lefts, rights = [], []
            for m, (left_of, right_of, class_lefts, class_rights) in blocks.items():
                if left_of is None:
                    # A coprime order pair (n < m, or n = m = 1 with one group): right_of
                    # counts the groups of order m; class_lefts and class_rights are its parts.
                    lefts.append(repeat(class_lefts, right_of))
                    rights.append(repeat(class_rights, right_of))
                    continue
                c = left_of[i - first]
                of = right_of[i - first:] if m == n else right_of
                lefts.append(map(class_lefts[c].__getitem__, of))
                rights.append(map(class_rights[c].__getitem__, of))
            text = "".join(chain.from_iterable(zip(
                repeat(f"{before_g}{names[i]}{before_h}"), names[i:],
                chain.from_iterable(lefts), chain.from_iterable(rights))))
            for offset in on_row(text) or ():
                j = i + offset
                _, shared, left, _, counts, _ = next(entry for entry in row if entry[0] == orders[j])
                key = itemgetter(*shared)
                found.setdefault((i, j), (counts, counts) if left is None else
                                 (counts[key(spectra[i].entries)], counts[key(spectra[j].entries)]))
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
        for _, row in _class_walk(spectra, summary=True):
            _violating_pairs(row, found)
    elif pairs > RECORD_SCAN_MAX_PAIRS:
        raise BudgetError(f"record scans are limited to {RECORD_SCAN_MAX_PAIRS} pairs, "
                          f"got {pairs} pairs at max_order = {max_order}")
    else:
        found = _record_rows(descriptors, spectra, on_row, record_format)
    violations = [_pair_report(descriptors[i], descriptors[j], spectra[i], spectra[j],
                               *found[i, j]) for i, j in sorted(found)]
    return ScanSummary(pairs, violations, max_order, family_tuple)


def verify_theorem(max_order: int) -> ScanSummary:
    """Scan all pairs of abelian groups up to max_order."""
    return conjecture_scan(("abelian",), max_order)
