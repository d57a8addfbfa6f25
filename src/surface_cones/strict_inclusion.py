"""Witnesses that the K-nonnegative positive cone is strictly smaller than the Mori cone.

Two constructions are provided for a fixed exceptional curve C = E_i.

From a parameter s: alpha = t*C - (K - sL) with t = 1 + sqrt(D_t(s)),
D_t(s) = s^2*A^2 - 2s*A.K_Y + K_Y^2 + 1 - r.  The parameter must satisfy
three exact inequalities (real t, alpha in the positive cone, that is
alpha.L >= 0, and alpha.K > 0); their solution set in s is computed
here by case analysis and squaring, with every endpoint an exact scalar
and a certified rational point inside each component.

From non-uniruledness (or just A.K_Y + sqrt(A^2*(r-1)) > 0): alpha is the
pullback of A tilted equally into the first r-1 exceptional directions.

Either alpha is completed to gamma = C + lambda*alpha with
lambda = (2 + |C.K|)/(alpha.K), giving gamma in the generated cone with
gamma^2 < 0 and gamma.K >= 2, the strict-inclusion witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .cones import ConePosition, in_positive_cone
from .errors import InternalConsistencyError, PreconditionError
from .lattice import BlowupModel, DivisorClass, intersect
from .scalar import Exact, as_fraction, compare, sign, sqrt_scalar
from .thresholds import (
    ThresholdContext,
    first_failing,
    s_threshold,
)


class ConditionLabel(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


def condition_sets(model: BlowupModel) -> set[ConditionLabel]:
    """Which of the four sufficient condition systems the model satisfies."""
    a_sq = model.base.a_sq
    ak = model.base.a_dot_k
    k_sq = model.base.kY_sq
    r = model.r
    bound = ThresholdContext.from_model(model).first_bound(1)
    out: set[ConditionLabel] = set()
    if r <= bound and ak > 0 and a_sq < ak**2:
        out.add(ConditionLabel.A)
    if r > bound and r <= k_sq + 1 and ak > 0:
        out.add(ConditionLabel.B)
    if r > 0 and k_sq < 0:
        out.add(ConditionLabel.C)
    if r > k_sq + 1 and k_sq >= 0:
        out.add(ConditionLabel.D)
    return out


# -- exact interval machinery --------------------------------------------


@dataclass(frozen=True)
class FeasibleInterval:
    """One component of the feasible set, endpoints exact, None = unbounded.

    ``sample`` is a rational point strictly inside (None only for a
    degenerate irrational single point), certified by re-checking the
    defining inequalities at that point.
    """

    lower: Exact | None
    lower_strict: bool
    upper: Exact | None
    upper_strict: bool
    sample: Fraction | None


_Interval = tuple  # (lower, lower_strict, upper, upper_strict) with None = unbounded
_ALL: list[_Interval] = [(None, True, None, True)]


def _intersect_two(first: _Interval, second: _Interval) -> _Interval | None:
    lo1, ls1, hi1, hs1 = first
    lo2, ls2, hi2, hs2 = second
    if lo1 is None:
        lo, ls = lo2, ls2
    elif lo2 is None:
        lo, ls = lo1, ls1
    else:
        c = compare(lo1, lo2)
        lo, ls = (lo1, ls1) if c > 0 else (lo2, ls2) if c < 0 else (lo1, ls1 or ls2)
    if hi1 is None:
        hi, hs = hi2, hs2
    elif hi2 is None:
        hi, hs = hi1, hs1
    else:
        c = compare(hi1, hi2)
        hi, hs = (hi1, hs1) if c < 0 else (hi2, hs2) if c > 0 else (hi1, hs1 or hs2)
    if lo is not None and hi is not None:
        c = compare(lo, hi)
        if c > 0 or (c == 0 and (ls or hs)):
            return None
    return (lo, ls, hi, hs)


def _intersect_sets(first: list[_Interval], second: list[_Interval]) -> list[_Interval]:
    out = []
    for f in first:
        for g in second:
            meet = _intersect_two(f, g)
            if meet is not None:
                out.append(meet)
    return out


def _quadratic_gt_zero(c2: Fraction, c1: Fraction, c0: Fraction) -> list[_Interval]:
    """Exact solution set of c2*s^2 + c1*s + c0 > 0."""
    if c2 == 0:
        if c1 == 0:
            return _ALL if c0 > 0 else []
        root = -c0 / c1
        return [(root, True, None, True)] if c1 > 0 else [(None, True, root, True)]
    disc = c1**2 - 4 * c2 * c0
    if c2 > 0:
        if disc < 0:
            return _ALL
        if disc == 0:
            x0 = -c1 / (2 * c2)
            return [(None, True, x0, True), (x0, True, None, True)]
        root = sqrt_scalar(disc)
        return [
            (None, True, (-c1 - root) / (2 * c2), True),
            ((-c1 + root) / (2 * c2), True, None, True),
        ]
    if disc <= 0:
        return []
    root = sqrt_scalar(disc)
    return [((-c1 + root) / (2 * c2), True, (-c1 - root) / (2 * c2), True)]


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


def _rational_strictly_between(lower: Exact, upper: Exact | None) -> Fraction:
    """The least j/2^k above ``lower``, for the smallest k >= 1 that stays below ``upper``."""
    denom = 1
    for _ in range(128):
        denom *= 2
        candidate = Fraction(_floor(lower * denom) + 1, denom)
        if upper is None or compare(candidate, upper) < 0:
            return candidate
    raise InternalConsistencyError("failed to certify a rational interior point")


def _feasibility_inequalities(model: BlowupModel, s: Fraction) -> bool:
    """Exact check of the three defining inequalities at a rational s."""
    ctx = ThresholdContext.from_model(model)
    delta_t = ctx.k_minus_sl_sq(s) + 1
    if delta_t < 0:
        return False
    if ctx.r <= ctx.first_bound(1):
        if not s > ctx.AK / ctx.A_sq:
            return False
    elif compare(Fraction(s), s_threshold(ctx, 1)) < 0:
        return False
    lhs = ctx.r - ctx.kY_sq - 1 + s * ctx.AK
    return lhs > 0 and lhs**2 > delta_t


def solve_s_system(model: BlowupModel) -> list[FeasibleInterval]:
    """Exact feasible set for the witness parameter s.

    The inequality alpha.K > 0, i.e. r - K_Y^2 - 1 + s*A.K_Y > sqrt(D_t(s)),
    is squared into ((A.K_Y)^2 - A^2)s^2 + 2A.K_Y(r - K_Y^2)s +
    (r - K_Y^2 - 1)(r - K_Y^2) > 0 after the side condition that the left
    side is positive; the branch on r supplies the domain where D_t >= 0.
    An empty list means no parameter exists, matching the failure of all
    four condition systems.
    """
    a_sq = model.base.a_sq
    ak = model.base.a_dot_k
    k_sq = model.base.kY_sq
    r = model.r
    ctx = ThresholdContext.from_model(model)
    if r <= ctx.first_bound(1):
        branch: list[_Interval] = [(ak / a_sq, True, None, True)]
    else:
        branch = [(s_threshold(ctx, 1), False, None, True)]
    r0 = Fraction(r) - k_sq - 1
    if ak > 0:
        side: list[_Interval] = [(-r0 / ak, True, None, True)]
    elif ak < 0:
        side = [(None, True, -r0 / ak, True)]
    else:
        side = _ALL if r0 > 0 else []
    squared = _quadratic_gt_zero(
        ak**2 - a_sq, 2 * ak * (Fraction(r) - k_sq), (Fraction(r) - k_sq - 1) * (Fraction(r) - k_sq)
    )
    solution = _intersect_sets(_intersect_sets(branch, side), squared)
    out: list[FeasibleInterval] = []
    for lo, ls, hi, hs in solution:
        if lo is None:
            raise InternalConsistencyError("feasible set unbounded below")
        if hi is not None and compare(lo, hi) == 0:
            sample = as_fraction(lo) if isinstance(lo, Fraction) else None
        else:
            sample = _rational_strictly_between(lo, hi)
            if not _feasibility_inequalities(model, sample):
                raise InternalConsistencyError(
                    f"certified point {sample} fails the defining inequalities"
                )
        out.append(FeasibleInterval(lo, ls, hi, hs, sample))
    return out


# -- witnesses -------------------------------------------------------------


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

    lambda = (2 + |C.K|)/(alpha.K), with alpha.K > 0 on a valid witness, is the
    smallest clean choice making gamma.K >= 2 exactly; any larger value works as well.
    """
    if not witness.valid:
        raise PreconditionError(f"alpha witness invalid: {witness.failing}")
    curve = witness.alpha.model.exceptional(witness.curve_index)
    k = witness.alpha.model.canonical()
    lam = (2 + abs(intersect(curve, k))) / intersect(witness.alpha, k)
    return _witness(
        witness.construction, witness.curve_index, witness.alpha, witness.s, witness.t,
        lam, curve + lam * witness.alpha, decided=witness.checks,
    )
