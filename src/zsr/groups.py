"""Finite group descriptors, notation parsing, and element-order spectra.

Supported groups: finite abelian groups in invariant-factor form, dihedral
groups D_2k (order 2k), dicyclic groups Dic_k (order 4k, Dic_2 being the
quaternion group), and direct products of these.  The only structural data
any downstream computation needs is the order spectrum: how many elements
of each order d the group has, for every divisor d of the group order.
Every spectrum is inverted from F(d), the number of solutions of x^d = 1,
which has a closed form for each family and multiplies over direct products
(solutions, spectrum_from_solutions).
"""

from __future__ import annotations

from itertools import product as cartesian
from math import gcd, lcm, prod

from .errors import BudgetError, GroupParseError
from .exactmath import FACTORIZE_CEILING, Factorization, divisors, factorize, generated_divisors
from .value import Value

DEFAULT_SPECTRUM_BOUND = 5000
# The group families a pair scan can draw from, in the order records list them.
FAMILIES = ("abelian", "dihedral", "dicyclic", "products")


class AbelianGroup(Value):
    """Finite abelian group given by invariant factors, each dividing the next.

    The empty tuple is the trivial group.  Use canonicalize() to build one
    from an arbitrary list of cyclic orders.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        facs = tuple(invariant_factors)
        for f in facs:
            if f < 2:
                raise ValueError(f"invariant factors must be >= 2, got {f}")
        for a, b in zip(facs, facs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisibility chain, got {facs}")
        super().__init__(facs)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def notation(self) -> str:
        if not self.invariant_factors:
            return "C1"
        return "x".join(f"C{f}" for f in self.invariant_factors)


class Dihedral(Value):
    """Dihedral group of order 2k: k rotations and k reflections (k >= 3)."""

    __slots__ = ("half_order",)

    def __init__(self, half_order: int):
        if half_order < 3:
            raise ValueError(f"dihedral descriptor requires k >= 3, got k = {half_order}")
        super().__init__(half_order)

    @property
    def order(self) -> int:
        return 2 * self.half_order

    def notation(self) -> str:
        return f"D{2 * self.half_order}"


class Dicyclic(Value):
    """Dicyclic group of order 4k (k >= 2); Dic_2 is the quaternion group."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 2:
            raise ValueError(f"dicyclic descriptor requires k >= 2, got k = {index}")
        super().__init__(index)

    @property
    def order(self) -> int:
        return 4 * self.index

    def notation(self) -> str:
        return f"Dic{self.index}"


class Product(Value):
    """Direct product of two or more descriptors, at least one non-abelian.

    An all-abelian product has a canonical single-descriptor form, so it is
    not representable here; build products through make_product(), which
    performs that normalization.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[GroupDescriptor, ...]):
        facs = tuple(factors)
        if len(facs) < 2:
            raise ValueError("a product needs at least two factors")
        if all(isinstance(f, AbelianGroup) for f in facs):
            raise ValueError("all-abelian products must be normalized via make_product")
        super().__init__(facs)

    @property
    def order(self) -> int:
        return prod(f.order for f in self.factors)

    def notation(self) -> str:
        return "x".join(f.notation() for f in self.factors)


GroupDescriptor = AbelianGroup | Dihedral | Dicyclic | Product


def make_product(factors) -> GroupDescriptor:
    """Product descriptor for the given factors, normalizing all-abelian products."""
    facs = tuple(factors)
    if not facs:
        raise ValueError("a product needs at least one factor")
    if len(facs) == 1:
        return facs[0]
    if all(isinstance(f, AbelianGroup) for f in facs):
        return canonicalize([x for f in facs for x in f.invariant_factors])
    return Product(facs)


def canonicalize(factors) -> AbelianGroup:
    """Invariant-factor form of a direct sum of cyclic groups of the given orders.

    Splits every factor into prime powers, sorts each prime's exponents
    descending, and recombines position by position (lcm of coprime prime
    powers is their product).  Empty input gives the trivial group.
    """
    per_prime: dict[int, list[int]] = {}
    for f in factors:
        if f < 2:
            raise ValueError(f"cyclic factors must be >= 2, got {f}")
        for p, e in factorize(f):
            per_prime.setdefault(p, []).append(e)
    for exps in per_prime.values():
        exps.sort(reverse=True)
    width = max((len(exps) for exps in per_prime.values()), default=0)
    slots = []
    for i in range(width):
        slots.append(prod(p ** exps[i] for p, exps in per_prime.items() if i < len(exps)))
    return AbelianGroup(tuple(reversed(slots)))


def _partitions(total: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of total as descending tuples."""
    if max_part is None:
        max_part = total
    if total == 0:
        return [()]
    out = []
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            out.append((first,) + rest)
    return out


def enumerate_abelian(n: int) -> list[AbelianGroup]:
    """Every abelian group of order n, sorted by invariant-factor tuple."""
    if n < 1:
        raise ValueError(f"group order must be positive, got {n}")
    return abelian_groups(factorize(n))


def abelian_groups(fac: Factorization) -> list[AbelianGroup]:
    """Every abelian group of the order that fac factorizes, sorted by invariant-factor tuple.

    A group is one partition of each prime's exponent; its i-th largest
    invariant factor is the product over the primes of p to the i-th part.
    """
    groups = []
    for parts in cartesian(*(_partitions(e) for _, e in fac)):
        slots = [1] * max(map(len, parts), default=0)
        for (p, _), part in zip(fac, parts):
            for i, k in enumerate(part):
                slots[i] *= p ** k
        groups.append(AbelianGroup(tuple(reversed(slots))))
    return sorted(groups, key=lambda g: g.invariant_factors)


def parse_group(text: str) -> GroupDescriptor:
    """Parse group notation like ``C2xC6``, ``D10``, ``Dic3``, ``Q8``, ``C3xD10``.

    The grammar is terms joined by ``x`` with no whitespace; C takes the
    cyclic order (C1 is the trivial group), D takes the full order 2k with
    k >= 3, Dic takes the index k with k >= 2, and Q8 is an alias for Dic2.
    Numbers are ASCII digits.  Raises GroupParseError with the byte offset
    of the first problem; every character before it is ASCII.
    """
    if not text:
        raise GroupParseError("empty group notation", 0)
    pos = 0
    terms: list[tuple[str, int]] = []
    while True:
        term, pos = _parse_term(text, pos)
        terms.append(term)
        if pos == len(text):
            break
        if text[pos] != "x":
            raise GroupParseError(f"expected 'x' or end of input, found {text[pos]!r}", pos)
        pos += 1
        if pos == len(text):
            raise GroupParseError("expected a group term after 'x'", pos)
    descriptors: list[GroupDescriptor] = []
    for kind, value in terms:
        if kind == "C":
            descriptors.append(canonicalize([value] if value > 1 else []))
        elif kind == "D":
            descriptors.append(Dihedral(value // 2))
        else:
            descriptors.append(Dicyclic(value))
    return make_product(descriptors)


def _parse_term(text: str, pos: int) -> tuple[tuple[str, int], int]:
    start = pos
    if text.startswith("Dic", pos):
        kind = "Dic"
        pos += 3
    elif text.startswith("Q8", pos):
        return ("Dic", 2), pos + 2
    elif text[pos] == "D":
        kind = "D"
        pos += 1
    elif text[pos] == "C":
        kind = "C"
        pos += 1
    else:
        raise GroupParseError(f"expected a group term (C<n>, D<2k>, Dic<k>, or Q8), found {text[pos]!r}", pos)
    digits_start = pos
    while pos < len(text) and text[pos] in "0123456789":
        pos += 1
    if pos == digits_start:
        raise GroupParseError(f"expected an integer after {kind!r}", pos)
    value = int(text[digits_start:pos])
    if kind == "C" and value < 1:
        raise GroupParseError("C0 is not a group", start)
    if kind == "D" and (value % 2 != 0 or value < 6):
        raise GroupParseError(f"D{value} is not supported: D<n> needs even n >= 6", start)
    if kind == "Dic" and value < 2:
        raise GroupParseError(f"Dic{value} is not supported: Dic<k> needs k >= 2", start)
    return (kind, value), pos


class OrderSpectrum(Value):
    """Element counts by exact order, with an entry for every divisor of the order.

    entries[d] is the number of elements of order exactly d.  The keys are the
    divisors of the order in increasing order, zero counts included, so they
    are the divisor list that counts and pair checks walk.
    """

    __slots__ = ("entries", "group_order")

    def __init__(self, entries: dict[int, int], group_order: int):
        if group_order < 1:
            raise ValueError(f"group order must be positive, got {group_order}")
        self._fill(entries, group_order, divisors(group_order))

    def _fill(self, entries: dict[int, int], group_order: int, divs: list[int]) -> None:
        """Validate entries against divs, the divisors of group_order, and set the fields."""
        try:
            counts = list(map(entries.__getitem__, divs))
        except KeyError:
            counts = None
        if counts is None or len(entries) != len(divs):
            raise ValueError("spectrum must have an entry for every divisor of the group order")
        if entries[1] != 1:
            raise ValueError(f"a group has exactly one identity element, got {entries[1]}")
        if min(counts) < 0:
            raise ValueError("element counts cannot be negative")
        if sum(counts) != group_order:
            raise ValueError("element counts must sum to the group order")
        super().__init__(dict(zip(divs, counts)), group_order)

    def count_of(self, d: int) -> int:
        """Number of elements of order exactly d (0 for non-divisors)."""
        return self.entries.get(d, 0)


def solutions(g: GroupDescriptor, divs: list[int]) -> list[int]:
    """F(d), the number of solutions of x^d = 1 in g, for each d of divs.

    C_f has gcd(d, f); D_2k has gcd(d, k) rotations and, for even d, its k
    reflections; Dic_k has gcd(d, 2k) elements in its cyclic half and, when 4
    divides d, the other 2k, all of order 4.  In a direct product (an abelian
    group is one of the cyclic groups of its invariant factors) x^d = 1 holds
    factor by factor, so F is the product of the factors' F.
    """
    if isinstance(g, Dihedral):
        k = g.half_order
        return [gcd(d, k) + (0 if d % 2 else k) for d in divs]
    if isinstance(g, Dicyclic):
        k = 2 * g.index
        return [gcd(d, k) + (0 if d % 4 else k) for d in divs]
    if isinstance(g, Product):
        parts = [solutions(factor, divs) for factor in g.factors]
    else:
        parts = [[gcd(d, f) for d in divs] for f in g.invariant_factors]
    return [prod(column) for column in zip(*parts)] if parts else [1] * len(divs)


def spectrum_from_solutions(counts: list[int], fac: Factorization, divs: list[int]) -> OrderSpectrum:
    """The spectrum with counts solutions of x^d = 1 at the d of divs, through OrderSpectrum's checks.

    fac factorizes the group order and divs lists its divisors in increasing
    order.  F(d) is the sum of k_e over the e dividing d, so k is F's Moebius
    inverse: one pass per prime p, over decreasing d, takes F(d / p) from F(d).
    """
    entries = dict(zip(divs, counts))
    for p, _ in fac:
        # In decreasing order entries[d // p] still holds this pass's input.
        for d in reversed(divs):
            if d % p == 0:
                entries[d] -= entries[d // p]
    spectrum = OrderSpectrum.__new__(OrderSpectrum)
    spectrum._fill(entries, divs[-1], divs)
    return spectrum


def order_spectrum(g: GroupDescriptor) -> OrderSpectrum:
    """Order spectrum of a descriptor, inverted from its numbers of solutions of x^d = 1.

    A group of order past FACTORIZE_CEILING is refused with BudgetError.
    """
    if not isinstance(g, GroupDescriptor):
        raise TypeError(f"not a group descriptor: {g!r}")
    if g.order > FACTORIZE_CEILING:
        raise BudgetError(f"order spectra are limited to order <= {FACTORIZE_CEILING}, "
                          f"got {g.notation()} of order {g.order}")
    fac = factorize(g.order)
    divs = sorted(generated_divisors(fac))
    return spectrum_from_solutions(solutions(g, divs), fac, divs)


def order_spectrum_bruteforce(group: AbelianGroup) -> OrderSpectrum:
    """Spectrum by enumerating every element tuple; refuses orders above DEFAULT_SPECTRUM_BOUND.

    A non-abelian descriptor raises ValueError.
    """
    if not isinstance(group, AbelianGroup):
        raise ValueError("brute-force spectra enumerate elements of abelian groups only")
    n = group.order
    if n > DEFAULT_SPECTRUM_BOUND:
        raise BudgetError(f"brute-force spectrum is limited to order <= {DEFAULT_SPECTRUM_BOUND}, "
                          f"got order {n}")
    counts: dict[int, int] = {}
    facs = group.invariant_factors
    for point in cartesian(*(range(f) for f in facs)):
        d = lcm(*(f // gcd(f, x) for f, x in zip(facs, point))) if facs else 1
        counts[d] = counts.get(d, 0) + 1
    return OrderSpectrum({d: counts.get(d, 0) for d in divisors(n)}, n)
