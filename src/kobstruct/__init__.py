"""Exact K-theory of composites of unital algebras.

Given the invariant triples L(A) = (K0, K1, [1]) of two algebras, this
package computes the K-theory of their tensor product, free product,
and unital free product, builds the maps induced by the quotient onto
the tensor product, and decides whether those maps can split, reporting
either the matching classification case or a concrete obstruction
witness.  Everything is exact: the substrate is integer linear algebra
over Python's unbounded integers.
"""

from .fgab import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    GroupMismatchError,
    IntMatrix,
    cokernel,
    compose,
    direct_sum_many,
    is_surjective,
    quotient_by,
    right_inverse_exists,
    smith_normal_form,
    solve_divisibility,
    tensor,
    tensor_elem,
    tor,
)
from .kinv import (
    KInvariant,
    KPair,
    PairAnalysis,
    free_product_k,
    kunneth,
    kunneth_invariant,
    pi_star,
    pi_star_full,
    unital_free_product_k,
)
from .obstruct import (
    ObstructionWitness,
    SectionReport,
    Verdict,
    basic_obstructions,
    case_ii_k_check,
    classify,
    classify_analysis,
    ex4_no_scaled_section,
    iso_remark_check,
    m_oo_unit_divisibility,
    section_exists_analysis,
    section_exists_k,
)
from .catalog import (
    NonFinitelyGeneratedError,
    ParseError,
    SizeLimitError,
    UnsupportedNestingError,
    builtin,
    catalog_entries,
    eval_expr,
    evaluate,
    parse,
    print_expr,
)

__version__ = "0.1.0"

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "GroupHom",
    "GroupMismatchError",
    "IntMatrix",
    "cokernel",
    "compose",
    "direct_sum_many",
    "is_surjective",
    "quotient_by",
    "right_inverse_exists",
    "smith_normal_form",
    "solve_divisibility",
    "tensor",
    "tensor_elem",
    "tor",
    "KInvariant",
    "KPair",
    "PairAnalysis",
    "free_product_k",
    "kunneth",
    "kunneth_invariant",
    "pi_star",
    "pi_star_full",
    "unital_free_product_k",
    "ObstructionWitness",
    "SectionReport",
    "Verdict",
    "basic_obstructions",
    "case_ii_k_check",
    "classify",
    "classify_analysis",
    "ex4_no_scaled_section",
    "iso_remark_check",
    "m_oo_unit_divisibility",
    "section_exists_analysis",
    "section_exists_k",
    "NonFinitelyGeneratedError",
    "ParseError",
    "SizeLimitError",
    "UnsupportedNestingError",
    "builtin",
    "catalog_entries",
    "eval_expr",
    "evaluate",
    "parse",
    "print_expr",
]
