"""Exact zero-sum multiset counting over finite groups.

The public surface: group notation and descriptors (groups), exact counting
routines with independent oracles (counting), pair reciprocity checks and
family scans (reciprocity), and inequality/structure check grids (lemmas).
"""

from .counting import count_dp, count_formula, count_molien, rational_catalan
from .errors import BudgetError, GroupParseError
from .exactmath import binomial, divisors, factorize
from .groups import (
    AbelianGroup,
    Dicyclic,
    Dihedral,
    GroupDescriptor,
    OrderSpectrum,
    Product,
    canonicalize,
    enumerate_abelian,
    make_product,
    order_spectrum,
    order_spectrum_bruteforce,
    parse_group,
)
from .lemmas import (
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
from .reciprocity import (
    ReciprocityReport,
    ScanSummary,
    conjecture_scan,
    divisor_gap_free,
    reciprocity_check,
    spectrum_condition,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "BudgetError", "Dicyclic", "Dihedral",
    "GridResult", "GroupDescriptor", "GroupParseError", "LemmaInstance",
    "OrderSpectrum", "Product", "ReciprocityReport", "ScanSummary", "binomial",
    "canonicalize", "check_lemma21", "check_lemma22", "check_structure_lemmas",
    "conjecture_scan", "count_dp", "count_formula", "count_molien", "delta",
    "divisor_gap_free", "divisors", "enumerate_abelian", "factorize", "lemma21_grid",
    "lemma22_grid", "make_product", "order_spectrum",
    "order_spectrum_bruteforce", "parse_group", "rational_catalan",
    "reciprocity_check", "spectrum_condition", "structure_grid", "verify_theorem",
]
