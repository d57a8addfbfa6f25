"""Ray-trapping thresholds and the cone-equality check on a blow-up.

For a curve of square -n the threshold s_n is the larger root of
(K - sL)^2 = -1/n, namely

    s_n = (A.K_Y + sqrt(D_n/4)) / A^2,
    D_n/4 = (A.K_Y)^2 - A^2*K_Y^2 + A^2*r - A^2/n,

and the trapping witness for a curve C of square -n and genus p is

    t0 = (-u + sqrt(u^2 - n/m)) / n,   u = C.(K - sL),
    alpha = t0*C - (K - sL),

computed here at any level m >= n with s = s_m, so that alpha^2 = 0 exactly
and the ray of C lies in the positive cone plus the ray of K - sL.

``ThresholdContext.r_condition`` is the single statement of the inequality
on r that these constructions need; ``check_conditions``, the ray
certificates and the strict-inclusion witness parameter all read it (or its
``first_bound`` and ``k_minus_sl_sq``) from there.  ``ray_checks`` is the one
list of ray-certificate invariants, shared by the builder and ``verify``.
``cone_equality_check`` decides each listed curve by C.(K - s_n L) <= -1,
which its docstring proves equivalent to a valid certificate; by the lemma
there, trapped curves put the part of the generated cone pairing
nonnegatively with K - s_nu L inside the positive cone.

``certify_list`` builds every listed curve in turn.  Only
``cone_equality_check`` works once per S_r-orbit that ``serialize`` read,
following each record's link to its orbit's first record; neither
recognizes an orbit itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import ConePosition, in_positive_cone
from .errors import (
    InternalConsistencyError,
    PreconditionError,
    ThresholdError,
)
from .lattice import BlowupModel, DivisorClass, intersect
from .scalar import Exact, compare, sign, sqrt_scalar
from .zariski import NegativeCurveRecord


@dataclass(frozen=True)
class ThresholdContext:
    """The four numbers the threshold formulas depend on."""

    A_sq: Fraction
    AK: Fraction
    kY_sq: Fraction
    r: int

    @classmethod
    def from_model(cls, model: BlowupModel) -> "ThresholdContext":
        return cls(
            A_sq=model.base.a_sq,
            AK=model.base.a_dot_k,
            kY_sq=model.base.kY_sq,
            r=model.r,
        )

    def first_bound(self, n: int) -> Fraction:
        """K_Y^2 + 1/n - (A.K_Y)^2/A^2: s_n is real for r at least this, strictly at n = 1."""
        return self.kY_sq + Fraction(1, n) - self.AK**2 / self.A_sq

    def delta_quarter(self, n: int) -> Fraction:
        if n < 1:
            raise PreconditionError(f"level must be a positive integer, got {n}")
        return self.A_sq * (self.r - self.first_bound(n))

    def k_minus_sl_sq(self, s: Exact) -> Exact:
        """(K - sL)^2 = s^2*A^2 - 2s*A.K_Y + K_Y^2 - r."""
        return s * s * self.A_sq - 2 * s * self.AK + self.kY_sq - self.r

    def r_condition(self, n: int, q: int) -> ConditionCheck:
        """The r-inequality for (-n, p)-rays with q = 2p + n - 1, as its binding bound.

        Two bounds apply: r >= first_bound(n), strict at n = 1, and, when
        q > A.K_Y/A^2, r >= K_Y^2 + 1/n + A^2*q^2 - 2*(A.K_Y)*q.  The second
        exceeds the first by (A^2*q - A.K_Y)^2/A^2 > 0 there, so exactly one
        of them binds.
        """
        q = Fraction(q)
        one = "1" if n == 1 else f"1/{n}"
        bound, strict = self.first_bound(n), n == 1
        text = f"K_Y^2 + {one} - (A.K_Y)^2/A^2"
        if q > self.AK / self.A_sq:
            bound, strict = bound + (self.A_sq * q - self.AK) ** 2 / self.A_sq, False
            text = f"K_Y^2 + {one} + A^2*q^2 - 2*(A.K_Y)*q"
        return ConditionCheck(
            satisfied=self.r > bound if strict else self.r >= bound,
            q=q,
            strict=strict,
            bound=bound,
            binding=f"r {'>' if strict else '>='} {text} = {bound}",
            slack=self.r - bound,
        )


def s_threshold(ctx: ThresholdContext, n: int) -> Exact:
    """Larger root of (K - sL)^2 = -1/n; strict positivity required at n = 1."""
    radicand = ctx.delta_quarter(n)
    if radicand < 0:
        raise ThresholdError(
            f"r too small for n = {n}: discriminant {radicand} < 0",
            binding=f"r >= K_Y^2 + 1/{n} - (A.K_Y)^2/A^2",
        )
    if n == 1 and radicand == 0:
        raise ThresholdError(
            "r too small for n = 1: strict inequality required",
            binding="r > K_Y^2 + 1 - (A.K_Y)^2/A^2",
        )
    return (ctx.AK + sqrt_scalar(radicand)) / ctx.A_sq


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one r-inequality: its binding bound, that bound as text, and the slack."""

    satisfied: bool
    q: Fraction
    strict: bool
    bound: Fraction
    binding: str
    slack: Fraction


def check_conditions(ctx: ThresholdContext, nu: int, pi: int) -> ConditionCheck:
    """Combined condition on r for trapping all (-n,p)-rays with n <= nu, p <= pi.

    This is ``ctx.r_condition(1, q)`` with q = 2*pi + nu - 1: the binding
    inequality is r > K_Y^2 + 1 - (A.K_Y)^2/A^2 when q <= A.K_Y/A^2, and
    r >= K_Y^2 + 1 + A^2*q^2 - 2*(A.K_Y)*q otherwise.
    """
    if nu < 1 or pi < 0:
        raise PreconditionError(f"need nu >= 1 and pi >= 0, got ({nu}, {pi})")
    return ctx.r_condition(1, 2 * pi + nu - 1)


def first_failing(checks: dict[str, bool]) -> str | None:
    """Name of the first false entry of an ordered check list, or None."""
    return next((name for name, ok in checks.items() if not ok), None)


# the entries of ray_checks a certificate records, in their JSON order
RECORDED_RAY_CHECKS = ("alpha_sq_zero", "alpha_in_positive_cone", "t0_positive")


def ray_checks(
    model: BlowupModel,
    curve: NegativeCurveRecord,
    n: int,
    p: int,
    level: int,
    s: Exact,
    t0: Exact,
    alpha: DivisorClass,
) -> dict[str, bool]:
    """Every invariant of a ray certificate, in the order failures are reported.

    The builder and ``verify`` both evaluate this list: ``curve_level``
    (n = -C^2, p the genus, n <= level), ``r_inequality``
    (``ctx.r_condition(n, 2p + n - 1)``), ``s_threshold`` (s is the larger
    root of (K - sL)^2 = -1/level), ``alpha_sq_zero``, ``t0_positive``
    (t0 >= 1/n), ``alpha_identity`` (alpha = t0*C - (K - sL)),
    ``curve_pairing_bound`` (C.(K - sL) <= -1) and ``alpha_in_positive_cone``
    (``cones.in_positive_cone``: alpha^2 >= 0 and alpha.L >= 0), which reads
    the alpha^2 of ``alpha_sq_zero``.
    """
    ctx = ThresholdContext.from_model(model)
    k_minus_sl = model.canonical() - s * model.line()
    alpha_sq = intersect(alpha, alpha)
    return {
        "curve_level": n == -curve.self_int and p == curve.genus and n <= level,
        "r_inequality": ctx.r_condition(n, 2 * p + n - 1).satisfied,
        "s_threshold": compare(ctx.k_minus_sl_sq(s), Fraction(-1, level)) == 0
        and compare(s * ctx.A_sq, ctx.AK) >= 0,
        "alpha_sq_zero": sign(alpha_sq) == 0,
        "t0_positive": compare(t0, Fraction(1, n)) >= 0,
        "alpha_identity": t0 * curve.cls - k_minus_sl == alpha,
        "curve_pairing_bound": compare(curve.dot(k_minus_sl), -1) <= 0,
        "alpha_in_positive_cone": in_positive_cone(alpha, alpha_sq) is not ConePosition.OUTSIDE,
    }


@dataclass(frozen=True)
class RayContainmentCert:
    """Exact witness that the ray of one negative curve is trapped.

    ``alpha = t0*C - (K - sL)`` with all fields stored, so the witness can be
    re-verified from its serialized form alone.  ``level`` is the m with
    s = s_m; the curve's own n may be smaller when a whole list is certified
    at the top threshold.  ``checks`` holds the ``RECORDED_RAY_CHECKS``.
    """

    curve: NegativeCurveRecord
    n: int
    p: int
    level: int
    s: Exact
    t0: Exact | None
    alpha: DivisorClass | None
    checks: dict[str, bool]
    valid: bool
    failing: str | None


def _curve_type(curve: NegativeCurveRecord) -> tuple[int, int]:
    """The type (n, p) = (-C^2, genus) of a curve; the level n must be an integer.

    C^2 need not be one when gram_Y is not integral, and no threshold s_n
    exists then; the genus is integral by the record's adjunction check.
    """
    if curve.self_int.denominator != 1:
        raise PreconditionError(
            f"curve self-intersection {curve.self_int} is not an integer, "
            "so the curve has no level n = -C^2"
        )
    return int(-curve.self_int), int(curve.genus)


def _require_not_contracted(curve: NegativeCurveRecord, c_dot_l: Exact) -> None:
    """General points exclude a curve with C.L = 0 other than an E_i."""
    if sign(c_dot_l) == 0 and not curve.is_exceptional:
        raise PreconditionError("contracted curve is not exceptional; general points exclude it")


def ray_certificate(
    model: BlowupModel,
    curve: NegativeCurveRecord,
    s: Exact,
    level: int | None = None,
) -> RayContainmentCert:
    """Build and check the trapping witness for one curve at threshold s.

    Precondition violations (a non-integral C^2, wrong threshold, contracted
    non-exceptional curve) raise; a violated r-inequality or pairing bound,
    which leaves no witness to build, is named by its text, and otherwise the
    first false entry of ``ray_checks`` marks the certificate invalid.
    """
    ctx = ThresholdContext.from_model(model)
    n, p = _curve_type(curve)
    level = n if level is None else level
    if level < n:
        raise PreconditionError(f"certificate level {level} below curve level {n}")
    expected = s_threshold(ctx, level)
    if compare(s, expected) != 0:
        raise PreconditionError(f"s = {s} is not the threshold for level {level}")
    _require_not_contracted(curve, curve.dot(model.line()))
    condition = ctx.r_condition(n, 2 * p + n - 1)
    k_minus_sl = model.canonical() - s * model.line()
    u = curve.dot(k_minus_sl)
    if not condition.satisfied or compare(u, -1) > 0:
        failing = condition.binding if not condition.satisfied else "C.(K - sL) <= -1"
        invalid = dict.fromkeys(RECORDED_RAY_CHECKS, False)
        return RayContainmentCert(
            curve, n, p, level, s, None, None, invalid, False, failing
        )
    t0 = (-u + sqrt_scalar(u * u - Fraction(n, level))) / n
    alpha = t0 * curve.cls - k_minus_sl
    checks = ray_checks(model, curve, n, p, level, s, t0, alpha)
    failing = first_failing(checks)
    recorded = {name: checks[name] for name in RECORDED_RAY_CHECKS}
    return RayContainmentCert(
        curve, n, p, level, s, t0, alpha, recorded, failing is None, failing
    )


def certify_list(
    model: BlowupModel, curves: Sequence[NegativeCurveRecord]
) -> list[RayContainmentCert]:
    """Certificate of every curve at its own level n = -C^2, built curve by curve in order."""
    ctx = ThresholdContext.from_model(model)
    certificates = []
    for curve in curves:
        n, _ = _curve_type(curve)
        certificates.append(ray_certificate(model, curve, s_threshold(ctx, n), level=n))
    return certificates


def s_monotonicity(ctx: ThresholdContext, nu: int) -> list[Exact]:
    """Thresholds s_1 < s_2 < ... < s_nu, with the strict order verified exactly."""
    values = [s_threshold(ctx, n) for n in range(1, nu + 1)]
    for a, b in zip(values, values[1:]):
        if compare(a, b) >= 0:
            raise InternalConsistencyError(f"thresholds not strictly increasing: {a} >= {b}")
    return values


def k_minus_sl_h_negative(model: BlowupModel, s: Exact, delta: Fraction) -> Exact:
    """(K - sL).h for h = L - delta*sum E_i, checked against its closed form.

    The closed form is -sqrt(D_n/4) + r*delta, equivalently A.K_Y - s*A^2 +
    r*delta; a mismatch with the direct pairing is an internal error.
    """
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    k_minus_sl = model.canonical() - s * model.line()
    direct = intersect(k_minus_sl, model.ample_h(delta))
    ctx = ThresholdContext.from_model(model)
    closed = ctx.AK - s * ctx.A_sq + model.r * delta
    if compare(direct, closed) != 0:
        raise InternalConsistencyError(
            f"(K-sL).h identity mismatch: direct {direct}, closed form {closed}"
        )
    return direct


@dataclass(frozen=True)
class ConeEqualityReport:
    """One ``trapped`` verdict per listed curve, in list order; ``thresholds`` is s_1..s_nu."""

    condition: ConditionCheck
    thresholds: tuple[Exact, ...]
    trapped: tuple[bool, ...]

    @property
    def s(self) -> Exact:
        return self.thresholds[-1]

    @property
    def passed(self) -> bool:
        return self.condition.satisfied and all(self.trapped)


def cone_equality_check(
    model: BlowupModel, curves: Sequence[NegativeCurveRecord], nu: int, pi: int
) -> ConeEqualityReport:
    """Decide each listed curve by one comparison; all trapped proves cone equality at s_nu.

    A non-integral C^2, a type outside the (nu, pi) range or a contracted
    curve other than an E_i raises :class:`PreconditionError`; a violated
    r-condition raises :class:`ThresholdError`.  A curve of type (n, p) is
    trapped when u = C.(K - s_n L) = 2p - 2 + n - s_n*C.L <= -1 and, if
    C.L < 0, C.L >= A.K_Y; that is when its ray certificate at level n is
    valid.

    Every check and the verdict are made once per ``representative``, in the
    order of first appearance, so the first raise is the one a per-curve loop
    makes.  This is exact: a permutation of the E_i fixes K and L, so n, p,
    C.L and the exceptional flag, and with them every raise and the verdict,
    are constant on an S_r-orbit.

    Exactness.  For every admissible (n, p), r_condition(1, 2pi + nu - 1)
    gives s_n >= s_1 >= q = 2p + n - 1 >= 0.  So u <= -1 gives a real
    t0 = (-u + sqrt(u^2 - 1))/n >= 1/n and a null alpha = t0*C - (K - s_n L),
    with alpha.L = t0*C.L + sqrt(D_n/4), which is >= 0 when C.L >= 0.  When
    C.L < 0, u = q - 1 - s_n*C.L <= -1 forces q = 0, s_n = 0 and t0 = 1, so
    alpha.L = C.L - A.K_Y.  A null alpha is forward (or 0) exactly when
    alpha.L >= 0, which is the certificate's ``alpha_in_positive_cone``.

    Lemma.  Write v = K - s_nu L, so v^2 = -1/nu.  A trapped C_i of level n_i
    gives t0_i*C_i = alpha_i + (s_nu - s_{n_i})*L + v, with t0_i > 0, alpha_i
    in Pos-bar and s_nu >= s_{n_i}.  So any x = p + sum w_i C_i, with p in
    Pos-bar and w_i >= 0, is p' + lambda*v with p' in Pos-bar and
    lambda = sum w_i/t0_i >= 0.  If x.v >= 0, then p'.v >= lambda/nu, so
    x^2 = p'^2 + 2*lambda*(p'.v) - lambda^2/nu >= p'^2 + lambda^2/nu >= 0
    and x.p' = p'^2 + lambda*(p'.v) >= 0: x lies in Pos-bar.  NE-bar is the
    closure of Pos-bar plus the negative-curve rays; when the Segre Problem
    holds for (nu, pi) every negative curve has a type in that range, and
    the parts of NE-bar and Pos-bar on which v is nonnegative coincide.  The
    closure step at x.v = 0 is the paper's.
    """
    ctx = ThresholdContext.from_model(model)
    condition = check_conditions(ctx, nu, pi)
    if not condition.satisfied:
        raise ThresholdError(
            f"conditions for (nu, pi) = ({nu}, {pi}) fail", binding=condition.binding
        )
    # each distinct representative by its id, in the order of first appearance
    heads = {id(record.representative): record.representative for record in curves}
    types = {key: _curve_type(head) for key, head in heads.items()}
    for key, head in heads.items():
        n, p = types[key]
        if not 1 <= n <= nu:
            raise PreconditionError(
                f"curve with self-intersection {head.self_int} outside 1 <= n <= {nu}"
            )
        if not 0 <= p <= pi:
            raise PreconditionError(f"curve with genus {head.genus} outside 0 <= p <= {pi}")
    values = tuple(s_monotonicity(ctx, nu))
    line = model.line()
    verdicts = {}
    for key, head in heads.items():
        n, p = types[key]
        d = head.dot(line)
        _require_not_contracted(head, d)
        u = 2 * p - 2 + n - values[n - 1] * d
        verdicts[key] = compare(u, -1) <= 0 and (d >= 0 or d >= ctx.AK)
    trapped = tuple(verdicts[id(record.representative)] for record in curves)
    return ConeEqualityReport(condition, values, trapped)
