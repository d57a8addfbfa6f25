"""Witnesses that the K-nonnegative positive cone is strictly smaller than the Mori cone.

The witness is built from a parameter s for the exceptional curve C = E_i:
alpha = t*C - (K - sL) with t = 1 + sqrt(D_t(s)), D_t(s) = (K - sL)^2 + 1.
``witness_parameter`` gives s in closed form for C = E_1:

- r > first_bound(1): s = s_1, so (K - s_1 L)^2 = -1, D_t = 0 and t = 1.
  Then alpha^2 = 0, alpha.E_1 = 0, alpha.L = sqrt(D_1/4) > 0 and
  alpha.K = s_1*sqrt(D_1/4): the witness holds exactly when s_1 > 0.
- r <= first_bound(1): by the Hodge index theorem, (A.K_Y)^2 >= A^2*K_Y^2,
  first_bound(1) <= 1, so r <= 1 and K_Y = c*A numerically, c = A.K_Y/A^2.
  Every s > c gives alpha = A + sqrt(A^2)*E_1 up to a positive factor;
  s = c + 1 is taken.

alpha is completed to gamma = C + lambda*alpha with the integer
lambda = floor((2 + |C.K|)/alpha.K) + 1, giving gamma in the generated cone
with gamma^2 < 0 and gamma.K > 2, the strict-inclusion witness.
``uniruled_value`` gives the tilted-pullback criterion in closed form; it
decides no witness that s_1 does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class StrictInclusionWitness:
    """Self-contained witness for the strict inclusion, re-checkable from its fields.

    The alpha part must satisfy alpha^2 = 0, alpha in the positive cone
    (alpha.L >= 0), alpha.C <= 0 and alpha.K > 0; the completed witness adds
    gamma = C + lambda*alpha with gamma^2 < 0 and gamma.K > 0.  ``checks``
    holds the ``RECORDED_WITNESS_CHECKS`` that were evaluated.
    """

    curve_index: int
    alpha: DivisorClass
    s: Exact
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


def alpha_checks(alpha: DivisorClass, curve: DivisorClass, s: Exact, t: Exact) -> dict[str, bool]:
    """The alpha-part invariants of a witness, in the order failures are reported.

    The builder and ``verify`` both evaluate this list; ``alpha_identity`` is
    alpha = t*C - (K - sL).  For C = E_i that gives alpha.C = 1 - t, so
    t >= 1 is part of ``alpha_dot_C_nonpos``.
    ``alpha_in_positive_cone`` reads the alpha^2 of ``alpha_sq_zero``.
    """
    k = alpha.model.canonical()
    alpha_sq = intersect(alpha, alpha)
    return {
        "alpha_sq_zero": sign(alpha_sq) == 0,
        "alpha_in_positive_cone": in_positive_cone(alpha, alpha_sq) is not ConePosition.OUTSIDE,
        "alpha_dot_C_nonpos": sign(intersect(alpha, curve)) <= 0,
        "alpha_dot_K_positive": sign(intersect(alpha, k)) > 0,
        "alpha_identity": t * curve - (k - s * alpha.model.line()) == alpha,
    }


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
    curve_index, alpha, s, t=None, lambda_=None, gamma=None, decided=()
) -> StrictInclusionWitness:
    """The witness with these fields; its lists are evaluated and their recorded entries kept.

    ``decided`` holds entries settled before: the builder's
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
        curve_index, alpha, s, t, lambda_, gamma, recorded, failing is None, failing
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
        return _witness(curve_index, model.zero(), s, decided={"delta_t_nonneg": False})
    t = 1 + sqrt_scalar(delta_t)
    alpha = t * curve - (model.canonical() - s * model.line())
    return _witness(curve_index, alpha, s, t, decided={"delta_t_nonneg": True})


def uniruled_value(model: BlowupModel) -> Exact:
    """A.K_Y + sqrt(A^2*(r-1)), whose sign decides the tilted-pullback witness.

    That construction tilts the pullback of A equally into the first r-1
    exceptional directions; the value is positive outright for a
    non-uniruled base, where A.K_Y >= 0.
    It decides no witness that s_1 does not: r >= 2 > 1 >= first_bound(1), and
    s_1*A^2 = A.K_Y + sqrt(A^2*(r - first_bound(1))) >= A.K_Y + sqrt(A^2*(r-1)),
    so a positive value gives s_1 > 0, where the witness at s_1 holds.
    """
    if model.r < 2:
        raise PreconditionError("construction needs r >= 2 blown-up points")
    return model.base.a_dot_k + sqrt_scalar(model.base.a_sq * (model.r - 1))


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
        witness.curve_index, witness.alpha, witness.s, witness.t, lam,
        curve + lam * witness.alpha, decided=witness.checks,
    )
