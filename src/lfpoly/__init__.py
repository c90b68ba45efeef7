"""Polynomials in derivatives of L-functions.

Degree calculus and predicted zero-count slopes, Dirichlet-series
coefficients, controlled-accuracy evaluation of zeta and Dirichlet
L-functions, argument-principle zero location, and verification reports.
"""

import importlib

# each public name and the module that defines it; a module is imported when
# one of its names is first read (PEP 562), so a process that needs only
# expr and exprfile, as every CLI command does first, imports nothing else
_SOURCES = {
    "analysis": ("admissible_start", "asymptotic_fe_check", "clustering_counts",
                 "littlewood_sum", "trivial_zero_audit", "verify_count",
                 "zero_list"),
    "characters": ("Character", "character_table"),
    "descriptors": ("LFunctionDescriptor", "dirichlet_descriptor",
                    "zeta_descriptor"),
    "evaluate": ("dirichlet_l", "eval_F", "eval_F_batch", "hurwitz_zeta", "zeta"),
    "expr": ("DegreeProfile", "Monomial", "PolyExpression", "canonicalize",
             "degree_profile", "dirichlet_coefficients", "first_nonzero_index",
             "pole_order", "predicted_count"),
    "exprfile": ("dump", "dumps", "load", "loads"),
    "zeros": ("Rectangle", "ZeroRecord", "count_nontrivial", "locate_zeros",
              "winding_count", "zero_free_bounds"),
}
_MODULE_OF = {name: mod for mod, names in _SOURCES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{mod}", __name__), name)
