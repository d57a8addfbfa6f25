"""Witnesses that the K-nonnegative positive cone is strictly smaller than the Mori cone.

Two constructions are provided for a fixed exceptional curve C = E_i.

From a parameter s: alpha = t*C - (K - sL) with t = 1 + sqrt(D_t(s)),
D_t(s) = (K - sL)^2 + 1.  ``witness_parameter`` gives s in closed form for C = E_1:

- r > first_bound(1): s = s_1, so (K - s_1 L)^2 = -1, D_t = 0 and t = 1.
  Then alpha^2 = 0, alpha.E_1 = 0, alpha.L = sqrt(D_1/4) > 0 and
  alpha.K = s_1*sqrt(D_1/4): the witness holds exactly when s_1 > 0.
- r <= first_bound(1): by the Hodge index theorem, (A.K_Y)^2 >= A^2*K_Y^2,
  first_bound(1) <= 1, so r <= 1 and K_Y = c*A numerically, c = A.K_Y/A^2.
  Every s > c gives alpha = A + sqrt(A^2)*E_1 up to a positive factor;
  s = c + 1 is taken.

From non-uniruledness (or just A.K_Y + sqrt(A^2*(r-1)) > 0): alpha is the
pullback of A tilted equally into the first r-1 exceptional directions.
It adds no witness to the first: r >= 2 > first_bound(1), and
s_1*A^2 = A.K_Y + sqrt(A^2*(r - first_bound(1))) >= A.K_Y + sqrt(A^2*(r-1)).

Either alpha is completed to gamma = C + lambda*alpha with the integer
lambda = floor((2 + |C.K|)/alpha.K) + 1, giving gamma in the generated cone
with gamma^2 < 0 and gamma.K > 2, the strict-inclusion witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .cones import ConePosition, in_positive_cone
from .errors import PreconditionError
from .lattice import BlowupModel, DivisorClass, intersect
from .scalar import Exact, compare, sign, sqrt_scalar
from .thresholds import ThresholdContext, first_failing, s_threshold


def witness_parameter(model: BlowupModel) -> Exact:
    """s of the from-s witness at E_1: s_1 if r > first_bound(1), else A.K_Y/A^2 + 1."""
    ctx = ThresholdContext.from_model(model)
    if ctx.r > ctx.first_bound(1):
        return s_threshold(ctx, 1)
    return ctx.AK / ctx.A_sq + 1


def _floor(x: Exact) -> int:
    """Exact floor of a rational or of a + b*sqrt(d), at any tower depth.

    With root = isqrt(floor(b^2*d)), n below lies in (x - 2, x], so one
    exact comparison settles it.
    """
    if isinstance(x, Fraction):
        return math.floor(x)
    b = x.radical_part
    root = math.isqrt(_floor(b * b * x.radicand))
    n = _floor(x.rational_part) + (root if sign(b) > 0 else -root - 1)
    return n + 1 if compare(n + 1, x) <= 0 else n


class WitnessConstruction(Enum):
    FROM_S = "from_s"
    UNIRULED = "uniruled"


@dataclass(frozen=True)
class StrictInclusionWitness:
    """Self-contained witness for the strict inclusion, re-checkable from its fields.

    The alpha part must satisfy alpha^2 = 0, alpha in the positive cone
    (alpha.L >= 0), alpha.C <= 0 and alpha.K > 0; the completed witness adds
    gamma = C + lambda*alpha with gamma^2 < 0 and gamma.K > 0.  ``checks``
    holds the ``RECORDED_WITNESS_CHECKS`` that were evaluated.
    """

    construction: WitnessConstruction
    curve_index: int
    alpha: DivisorClass
    s: Exact | None
    t: Exact | None
    lambda_: Exact | None
    gamma: DivisorClass | None
    checks: dict[str, bool]
    valid: bool
    failing: str | None


# the entries of alpha_checks and gamma_checks a witness records, in their JSON order
RECORDED_WITNESS_CHECKS = (
    "delta_t_nonneg", "alpha_sq_zero", "alpha_in_positive_cone", "alpha_dot_C_nonpos",
    "alpha_dot_K_positive", "gamma_sq_negative", "gamma_dot_K_positive",
)


def alpha_checks(
    alpha: DivisorClass, curve: DivisorClass, s: Exact | None = None, t: Exact | None = None
) -> dict[str, bool]:
    """The alpha-part invariants of a witness, in the order failures are reported.

    The builders and ``verify`` both evaluate this list; a from-s witness
    (t given) adds ``alpha_identity``, alpha = t*C - (K - sL).  For C = E_i
    that gives alpha.C = 1 - t, so t >= 1 is part of ``alpha_dot_C_nonpos``.
    ``alpha_in_positive_cone`` reads the alpha^2 of ``alpha_sq_zero``.
    """
    k = alpha.model.canonical()
    alpha_sq = intersect(alpha, alpha)
    checks = {
        "alpha_sq_zero": sign(alpha_sq) == 0,
        "alpha_in_positive_cone": in_positive_cone(alpha, alpha_sq) is not ConePosition.OUTSIDE,
        "alpha_dot_C_nonpos": sign(intersect(alpha, curve)) <= 0,
        "alpha_dot_K_positive": sign(intersect(alpha, k)) > 0,
    }
    if t is not None:
        checks["alpha_identity"] = t * curve - (k - s * alpha.model.line()) == alpha
    return checks


def gamma_checks(
    gamma: DivisorClass, curve: DivisorClass, lambda_: Exact, alpha: DivisorClass
) -> dict[str, bool]:
    """The invariants of the completed witness, reported after ``alpha_checks``."""
    return {
        "gamma_identity": curve + lambda_ * alpha == gamma,
        "gamma_sq_negative": sign(intersect(gamma, gamma)) < 0,
        "gamma_dot_K_positive": sign(intersect(gamma, gamma.model.canonical())) > 0,
    }


def _witness(
    construction, curve_index, alpha, s=None, t=None, lambda_=None, gamma=None, decided=(),
) -> StrictInclusionWitness:
    """The witness with these fields; its lists are evaluated and their recorded entries kept.

    ``decided`` holds entries settled before: the from-s builder's
    ``delta_t_nonneg``, or the alpha stage's when gamma is added.  If they
    all hold, the alpha list is evaluated, or the gamma list when gamma is given.
    """
    checks = dict(decided)
    if all(checks.values()):
        curve = alpha.model.exceptional(curve_index)
        if gamma is None:
            checks.update(alpha_checks(alpha, curve, s, t))
        else:
            checks.update(gamma_checks(gamma, curve, lambda_, alpha))
    failing = first_failing(checks)
    recorded = {name: checks[name] for name in RECORDED_WITNESS_CHECKS if name in checks}
    return StrictInclusionWitness(
        construction, curve_index, alpha, s, t, lambda_, gamma, recorded,
        failing is None, failing,
    )


def alpha_from_s(
    model: BlowupModel, s: Exact, curve_index: int
) -> StrictInclusionWitness:
    """Witness alpha = t*C - (K - sL) for C = E_i at the given parameter.

    Any failed inequality is named on the returned witness rather than
    raised, so an infeasible s is distinguishable from an implementation
    error.
    """
    curve = model.exceptional(curve_index)
    delta_t = ThresholdContext.from_model(model).k_minus_sl_sq(s) + 1
    if sign(delta_t) < 0:
        return _witness(
            WitnessConstruction.FROM_S, curve_index, model.zero(), s=s,
            decided={"delta_t_nonneg": False},
        )
    t = 1 + sqrt_scalar(delta_t)
    alpha = t * curve - (model.canonical() - s * model.line())
    return _witness(
        WitnessConstruction.FROM_S, curve_index, alpha, s, t,
        decided={"delta_t_nonneg": True},
    )


@dataclass(frozen=True)
class UniruledOutcome:
    """Result of the tilted-pullback construction.

    ``value`` is A.K_Y + sqrt(A^2*(r-1)), whose exact sign decides
    availability; for a non-uniruled base A.K_Y >= 0 makes it positive
    outright.
    """

    satisfied: bool
    value: Exact
    witness: StrictInclusionWitness | None


def uniruled_witness(model: BlowupModel) -> UniruledOutcome:
    if model.r < 2:
        raise PreconditionError("construction needs r >= 2 blown-up points")
    tilt = sqrt_scalar(Fraction(model.base.a_sq, model.r - 1))
    value = model.base.a_dot_k + (model.r - 1) * tilt
    if sign(value) <= 0:
        return UniruledOutcome(satisfied=False, value=value, witness=None)
    alpha = model.divisor(list(model.base.a_Y) + [-tilt] * (model.r - 1) + [Fraction(0)])
    witness = _witness(WitnessConstruction.UNIRULED, model.r, alpha)
    return UniruledOutcome(satisfied=True, value=value, witness=witness)


def gamma_witness(witness: StrictInclusionWitness) -> StrictInclusionWitness:
    """Complete an alpha witness: gamma = C + lambda*alpha leaves the positive cone.

    lambda = floor((2 + |C.K|)/(alpha.K)) + 1, with alpha.K > 0 on a valid
    witness, is the least integer with lambda*alpha.K > 2 + |C.K|, so gamma.K > 2;
    an integer keeps gamma free of surds that alpha lacks.
    """
    if not witness.valid:
        raise PreconditionError(f"alpha witness invalid: {witness.failing}")
    curve = witness.alpha.model.exceptional(witness.curve_index)
    k = witness.alpha.model.canonical()
    lam = Fraction(_floor((2 + abs(intersect(curve, k))) / intersect(witness.alpha, k)) + 1)
    return _witness(
        witness.construction, witness.curve_index, witness.alpha, witness.s, witness.t,
        lam, curve + lam * witness.alpha, decided=witness.checks,
    )
