"""Exact quadratic forms over supertropical semifields."""

from .companions import (
    CompanionSet,
    CompanionTable,
    NuClass,
    NuLeqDoubled,
    NuLtDoubled,
    PairBranch,
    Singleton,
    build_companion,
    companion_membership_oracle,
    companion_table,
    contains,
    diagonal_membership_oracle,
    equality_witness,
    functionally_equal,
    is_companion,
    is_quasilinear,
    pair_analysis,
    set_max,
    set_min,
)
from .decomposition import (
    Decomposition,
    RigExtrema,
    decompose,
    off_diagonal_companion,
    quasilinear_part,
    rig_contains,
    rig_extrema,
    rigid_complement,
)
from .errors import PreconditionError
from .forms import (
    QuadraticForm,
    SymmetricBilinearForm,
    Vector,
    add_forms,
    balanced_companion,
    change_base,
    eval_bilinear,
    eval_quadratic,
    is_rigid,
    pointwise_leq_rigid,
    scale_form,
)
from .matrices import (
    GeneralMatrix,
    MonomialMatrix,
    identity_matrix,
    invert,
    is_invertible,
    mat_mul,
    monomial_decomposition,
)
from .semiring import (
    ZERO,
    Element,
    GroupKind,
    Semifield,
    SquareClassTag,
    format_element,
    leq_minimal,
    parse_rational,
    semiring_sum,
)
from .stropicalize import (
    RationalQuadraticForm,
    SupervaluationSpec,
    apply_supervaluation,
    balanced_companion_of_strop,
    padic_valuation,
    ring_companion_matrix,
    square_class_sequence,
    stropicalize_bilinear,
    stropicalize_form,
)

__version__ = "0.1.0"
