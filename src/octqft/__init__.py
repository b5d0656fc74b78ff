"""Exact-arithmetic toolkit for open-closed 2d TQFT invariants."""

from .numkit import Matrix, Poly, Tensor, rat, rat_to_str
from .frobenius import (
    AxiomError,
    ConsistencyError,
    FrobeniusAlgebra,
    RankError,
    check_frobenius,
    direct_sum,
    frobenius_from_form,
    make_A,
    make_F,
    tensor_product,
)
from .kfa import (
    KFA,
    IrrationalSpectrumError,
    UnsupportedCaseError,
    character_of,
    check_kfa,
    interpolated_gl_character,
    invariant_table,
    kfa_product,
    kfa_sum,
    make_closed_only,
    make_nonsemisimple_kfa,
    make_semisimple_kfa,
    open_closed_projectors,
    scale_kfa,
    structural_endos,
)
from .character import (
    CharacterForm,
    Good,
    Indeterminate,
    NotGood,
    SequenceTable,
    TableCharacter,
    char_add,
    char_mul,
    char_scale,
    classify_rational,
    classify_table,
    eval_character,
    parse_rational_expr,
    rational_character,
    scale_transform,
    to_table,
)
from .cobordism import (
    LinComb,
    TermTypeError,
    check_relations,
    evaluate,
    parse,
    pretty,
    typecheck,
)
from .gram import (
    IncompleteSpanningError,
    build_idempotents,
    categorical_trace,
    enumerate_end_terms,
    gram_rank,
    is_negligible,
    minimal_poly_negligibility,
    nilpotent_trace_obstruction,
    pair,
    quotient_algebra,
    spanning_end,
    verify_splitting,
)

__version__ = "0.1.0"
