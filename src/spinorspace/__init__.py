"""Numerical toolkit for the spinor representation space: multivector
arithmetic over the time-minus and Euclidean four dimensional algebras,
the three equivalent spinor encodings, bilinear covariants with their
quadratic identity set, Lounesto classification, the singular class-4
mapping, and winding invariants of the regular sector."""

from .bilinears import (
    BilinearSet,
    bilinear_covariants,
    dirac_adjoint,
    euclidean_bilinears,
    euclidean_components_closed_form,
    quaternion_pair_to_c4,
    quaternionic_euclidean_components,
)
from .classmap import (
    MappingMatrix,
    MappingParams,
    build_M,
    constraint_residuals,
    hermitian_constrain,
    map_to_class4,
    no_inverse_witness,
)
from .clifford import (
    DIRAC,
    WEYL,
    GammaRep,
    Multivector,
    Signature,
    adjoint_dagger,
    basis_vector,
    blade,
    geometric_product,
    grade_projection,
    idempotent_f,
    pseudoscalar,
    rep_matrix,
    reversion,
    scalar,
)
from .fierz import (
    FpkResiduals,
    SingularAggregateParams,
    aggregate,
    boomerang_residual,
    build_singular_aggregate,
    fpk_residuals,
    generalized_fpk_residuals,
    is_boomerang,
    reconstruct,
)
from .lounesto import (
    ClassificationReport,
    LounestoClass,
    classify,
    classify_bilinears,
    generate,
    rescale_class_invariance,
)
from .spinor_forms import (
    AlgebraicSpinor,
    ClassicalSpinor,
    Quaternion,
    SpinorOperator,
    algebraic_from_classical,
    classical_from_algebraic,
    classical_from_operator,
    ideal_element_H2,
    operator_from_classical,
    operator_from_coeffs,
    quaternion_rep_e,
)
from .topology import (
    fpk_membership,
    project_regular,
    regular_sphere_check,
    winding_number,
    winding_report,
)

__version__ = "0.1.0"
