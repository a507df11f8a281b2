"""Exact zero-sum multiset counting over finite groups.

The public surface: group notation and descriptors (groups), exact counting
routines with independent oracles (counting), pair reciprocity checks and
family scans (reciprocity), and inequality/structure check grids (lemmas).

Importing the package loads none of them: each name in __all__ is imported
from its module on first access, so a command loads only the modules it runs.
"""

__version__ = "0.1.0"

# The public names of each module.
_EXPORTS = {
    "counting": ("count_dp", "count_formula", "count_molien", "rational_catalan"),
    "errors": ("BudgetError", "GroupParseError"),
    "exactmath": ("binomial", "divisors", "factorize"),
    "groups": (
        "AbelianGroup", "Dicyclic", "Dihedral", "GroupDescriptor", "OrderSpectrum", "Product",
        "canonicalize", "enumerate_abelian", "make_product", "order_spectrum",
        "order_spectrum_bruteforce", "parse_group",
    ),
    "lemmas": (
        "GridResult", "LemmaInstance", "check_lemma21", "check_lemma22", "check_structure_lemmas",
        "delta", "lemma21_grid", "lemma22_grid", "structure_grid",
    ),
    "reciprocity": (
        "ReciprocityReport", "ScanSummary", "conjecture_scan", "divisor_gap_free",
        "reciprocity_check", "spectrum_condition", "verify_theorem",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
