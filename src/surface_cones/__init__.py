"""Exact lattice and cone computations on blown-up surfaces.

The package computes in the intersection lattice of X, the blow-up of a
surface Y at r general points, entirely in exact arithmetic: rationals and
real quadratic extensions.  It produces machine-checkable certificates for
Zariski decompositions, positive-cone membership, negative-ray trapping
thresholds, and strict-inclusion witnesses, plus exact checkers for the
Segre Problem's bounds on negative curves that those cone statements assume.
"""

from .errors import (
    AdjunctionParityError,
    CertificateError,
    InternalConsistencyError,
    MalformedValueError,
    MixedRadicandError,
    ModelMismatchError,
    ModelValidationError,
    NonRealScalarError,
    PreconditionError,
    SurfaceConesError,
    ThresholdError,
    ZariskiError,
)
from .scalar import (
    Exact,
    Scalar,
    as_fraction,
    compare,
    exact_sqrt,
    is_rational,
    make_scalar,
    scalar_from_json,
    scalar_to_json,
    sign,
    sqrt_scalar,
    to_float,
)
from .lattice import (
    BlowupModel,
    DivisorClass,
    SurfaceKind,
    SurfaceModel,
    arithmetic_genus,
    intersect,
)
from .cones import (
    ConePosition,
    PairingReport,
    SignatureReport,
    diagonalize,
    in_positive_cone,
    pairing_nonneg_check,
    render_slice_csv,
    slice_export,
)
from .zariski import (
    DecompositionReport,
    NegativeCurveRecord,
    ZariskiDecomposition,
    list_decomposition_check,
    ne_decompose,
    zariski_decompose,
)
from .thresholds import (
    ConditionCheck,
    ConeEqualityReport,
    RayContainmentCert,
    ThresholdContext,
    certify_list,
    check_conditions,
    cone_equality_check,
    k_minus_sl_h_negative,
    ray_certificate,
    s_monotonicity,
    s_threshold,
)
from .segre import (
    K3CurveKind,
    NagataVariant,
    PencilVerdict,
    SegreBounds,
    classify_k3_curve,
    classify_k3_record,
    curve_bound_check,
    nagata_checks,
    pencil_counterexample,
    segre_bounds,
)
from .strict_inclusion import (
    StrictInclusionWitness,
    alpha_from_s,
    gamma_witness,
    uniruled_value,
    witness_parameter,
)
from .serialize import (
    blowup_from_json,
    blowup_to_json,
    curve_from_json,
    curve_to_json,
    divisor_from_json,
    divisor_to_json,
    ray_certificate_to_json,
    surface_from_json,
    surface_to_json,
    verify_certificate,
    witness_to_json,
    zariski_to_json,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
