"""Exact computational verification of two-power splitting behavior.

A toolkit for checking, with integer and rational arithmetic only, which
abelian varieties of low dimension have all their iterated two-power
torsion defined over towers ramified only above 2: polynomial
factorization over the rationals and small number fields, splitting
towers, odd ramification of number fields, small permutation group
searches, and a classifier that issues machine-checkable certificates.
"""

from .errors import (
    HeavenlyError,
    InputError,
    ReducibleExtensionError,
    ResourceCapError,
)
from .polynomials import (
    UniPoly,
    discriminant,
    format_polynomial,
    make_monic_integral,
    parse_polynomial,
    poly_gcd,
    resultant,
    squarefree_part,
)
from .factorization import (
    factor_mod_p,
    factor_over_q,
    squarefree_decomposition,
)
from .permutations import Perm, format_cycles, parse_cycles
from .permgroups import (
    PermGroup,
    affine_group_f17,
    close_generators,
    core_bound_check,
    enumerate_subgroups,
    group_from_cycles,
    subdirect_products_s3,
    sylow_two_subgroup_s8,
    two_generation_search,
)
from .ramification import splitting_field_odd_ramified
from .axioms import (
    AxiomRecord,
    all_axioms,
    apply_harbater,
    apply_small_degree,
    axiom,
)
from .classify import (
    EllipticInput,
    JacobianInput,
    ProductInput,
    Step,
    Verdict,
    WeilRestrictionInput,
    classify,
    closure_degree_bound,
    defining_polynomials,
    factor_degree_vector,
    gl4_deduction,
    screen_good_reduction,
    two_division_tower,
)
from .verifier import (
    CHECK_IDS,
    LemmaReport,
    run_all,
    run_check,
    verify_bounds,
    verify_corebound,
    verify_dim272,
    verify_flagship,
    verify_gl4,
    verify_octic,
    verify_subdirect,
)
from .documents import (
    document_from_input,
    dump_document,
    input_from_document,
    output_document,
    replayed_verdict,
    report_document,
)
from .towers import (
    FieldTower,
    base_field,
    extend,
    factor_over_tower,
    field_chain,
    splitting_degree,
    splitting_tower,
)

__version__ = "0.1.0"

__all__ = [
    "HeavenlyError",
    "InputError",
    "ReducibleExtensionError",
    "ResourceCapError",
    "UniPoly",
    "discriminant",
    "format_polynomial",
    "make_monic_integral",
    "parse_polynomial",
    "poly_gcd",
    "resultant",
    "squarefree_part",
    "factor_mod_p",
    "factor_over_q",
    "squarefree_decomposition",
    "Perm",
    "format_cycles",
    "parse_cycles",
    "PermGroup",
    "affine_group_f17",
    "close_generators",
    "core_bound_check",
    "enumerate_subgroups",
    "group_from_cycles",
    "subdirect_products_s3",
    "sylow_two_subgroup_s8",
    "two_generation_search",
    "splitting_field_odd_ramified",
    "AxiomRecord",
    "all_axioms",
    "apply_harbater",
    "apply_small_degree",
    "axiom",
    "EllipticInput",
    "JacobianInput",
    "ProductInput",
    "Step",
    "Verdict",
    "WeilRestrictionInput",
    "classify",
    "closure_degree_bound",
    "defining_polynomials",
    "factor_degree_vector",
    "gl4_deduction",
    "screen_good_reduction",
    "two_division_tower",
    "CHECK_IDS",
    "LemmaReport",
    "run_all",
    "run_check",
    "verify_bounds",
    "verify_corebound",
    "verify_dim272",
    "verify_flagship",
    "verify_gl4",
    "verify_octic",
    "verify_subdirect",
    "document_from_input",
    "dump_document",
    "input_from_document",
    "output_document",
    "replayed_verdict",
    "report_document",
    "FieldTower",
    "base_field",
    "extend",
    "factor_over_tower",
    "field_chain",
    "splitting_degree",
    "splitting_tower",
    "__version__",
]
