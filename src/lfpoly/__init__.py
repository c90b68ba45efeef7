"""Polynomials in derivatives of L-functions.

Degree calculus and predicted zero-count slopes, Dirichlet-series
coefficients, controlled-accuracy evaluation of zeta and Dirichlet
L-functions, argument-principle zero location, and verification reports.
"""

from .analysis import (
    admissible_start,
    asymptotic_fe_check,
    clustering_counts,
    littlewood_sum,
    trivial_zero_audit,
    verify_count,
    zero_list,
)
from .characters import Character, character_table
from .descriptors import (
    LFunctionDescriptor,
    dirichlet_descriptor,
    zeta_descriptor,
)
from .evaluate import (
    dirichlet_l,
    eval_F,
    eval_F_batch,
    hurwitz_zeta,
    zeta,
)
from .expr import (
    DegreeProfile,
    Monomial,
    PolyExpression,
    canonicalize,
    degree_profile,
    dirichlet_coefficients,
    first_nonzero_index,
    pole_order,
    predicted_count,
)
from .exprfile import dump, dumps, load, loads
from .zeros import (
    Rectangle,
    ZeroRecord,
    count_nontrivial,
    locate_zeros,
    winding_count,
    zero_free_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "Character",
    "DegreeProfile",
    "LFunctionDescriptor",
    "Monomial",
    "PolyExpression",
    "Rectangle",
    "ZeroRecord",
    "admissible_start",
    "asymptotic_fe_check",
    "canonicalize",
    "character_table",
    "clustering_counts",
    "count_nontrivial",
    "degree_profile",
    "dirichlet_coefficients",
    "dirichlet_descriptor",
    "dirichlet_l",
    "dump",
    "dumps",
    "eval_F",
    "eval_F_batch",
    "first_nonzero_index",
    "hurwitz_zeta",
    "littlewood_sum",
    "load",
    "loads",
    "locate_zeros",
    "pole_order",
    "predicted_count",
    "trivial_zero_audit",
    "verify_count",
    "winding_count",
    "zero_free_bounds",
    "zero_list",
    "zeta",
    "zeta_descriptor",
]
