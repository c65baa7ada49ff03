"""Exact-arithmetic toolkit for smooth complete toric varieties presented as
fans: validation, primitive collections and relations, wall curves, Fano
invariants, the rho * (iota - 1) <= n inequality with its equality case, and
Dehn-Sommerville face-count bounds."""

from .errors import (
    ConeTooSmall,
    DependentSpan,
    DimensionOutOfRange,
    FanSyntaxError,
    FormulaDiscrepancy,
    InternalInconsistency,
    NonIntegralCoefficient,
    NonIntegralResult,
    NonSimplicialFacet,
    NotACone,
    NotFano,
    NotInSupport,
    NotSquare,
    OriginNotInterior,
    RegimeUnsupported,
    SingularBasis,
    TooLarge,
    ToricError,
    UnpairedWall,
    ValidationError,
)
from .fan import (
    CheckResult,
    Fan,
    QuotientFan,
    ValidationReport,
    construct_product,
    construct_projective_space,
    faces,
    invariant_subvariety_fan,
    is_cone,
    make_fan,
    star_subdivision,
    validate,
)
from .fvector import (
    Discrepancy,
    FVector,
    check_binomial_identities,
    closed_form_cross_check,
    corollary_bound_table,
    dehn_sommerville_fk,
    dehn_sommerville_tail,
    ds_tail_from_prefix,
    euler_relation_holds,
    f_vector,
    h_vector,
    is_palindromic,
    is_simplex_criterion,
    max_rho_bound,
    psi_k,
    psi_k_eliminated,
    verify_closed_forms,
)
from .invariants import (
    MukaiReport,
    SmallCodimSearch,
    WallCurve,
    contractible_sufficient,
    degree_sum_identity,
    fibration_in_P_iota,
    is_extremal,
    is_fano,
    lemma_degree_sum_check,
    mori_cone_extremal_classes,
    mukai_check,
    picard_number,
    product_of_projective_spaces,
    pseudo_index,
    small_codim_contractible,
    wall_curves,
)
from .primitive import (
    PrimitiveRelation,
    all_relations,
    degrees_summary,
    primitive_collections,
    primitive_relation,
)

__version__ = "0.1.0"
