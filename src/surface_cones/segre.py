"""Exact checkers for the Segre Problem's bounds on negative curves.

These operations never estimate cohomology: chi, genera and dimensions are
supplied by the caller.  What is computed exactly is arithmetic downstream
of those inputs: the bound chain -1 >= C^2 >= p_a - chi >= -chi, the
(nu, pi) = (chi, chi - 1) bounds, the pencil contradiction
chi = dim + g + 1, degree/multiplicity inequalities, and the three-row
classification of negative curves on blown-up K3s.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import PreconditionError
from .lattice import SurfaceKind


@dataclass(frozen=True)
class SegreBounds:
    """Bounds (nu, pi) on negativity and genus of non-exceptional curves.

    For chi <= 0 no non-exceptional negative curve is allowed at all; the
    flag reports that status and the bounds describe the exceptional
    curves that remain.
    """

    nu: int
    pi: int
    exceptional_only: bool


def segre_bounds(chi: Fraction | int) -> SegreBounds:
    chi = Fraction(chi)
    if chi.denominator != 1:
        raise PreconditionError(f"chi must be an integer, got {chi}")
    if chi <= 0:
        return SegreBounds(nu=1, pi=0, exceptional_only=True)
    return SegreBounds(nu=int(chi), pi=int(chi) - 1, exceptional_only=False)


def curve_bound_check(self_int: Fraction | int, genus: Fraction | int, chi: Fraction | int) -> bool:
    """The chain -1 >= C^2 >= p_a(C) - chi >= -chi, evaluated exactly."""
    c2, p, chi = Fraction(self_int), Fraction(genus), Fraction(chi)
    return -1 >= c2 >= p - chi >= -chi


class PencilVerdict(Enum):
    CONSISTENT = "consistent"
    SEGRE_FAILS = "segre_fails"


@dataclass(frozen=True)
class PencilReport:
    verdict: PencilVerdict
    chi: Fraction
    expected_chi: Fraction
    chi_bound_holds: bool


def pencil_counterexample(
    chi: Fraction | int, g: Fraction | int, dim_l: Fraction | int
) -> PencilReport:
    """Detect the contradiction a genus-g pencil forces on the Segre Problem.

    A base-point-free pencil of genus g through a blown-up point yields a
    strict transform whose system must satisfy chi = dim + g + 1; failure of
    that equality refutes the Segre Problem's claim.  The corollary bound
    chi >= g + 1 is reported too.
    """
    chi, g, dim_l = Fraction(chi), Fraction(g), Fraction(dim_l)
    if dim_l < 0:
        raise PreconditionError("the pencil's strict transform must be non-empty")
    expected = dim_l + g + 1
    verdict = PencilVerdict.CONSISTENT if chi == expected else PencilVerdict.SEGRE_FAILS
    return PencilReport(
        verdict=verdict, chi=chi, expected_chi=expected, chi_bound_holds=chi >= g + 1
    )


class K3CurveKind(Enum):
    KIND_I = "I"
    KIND_II = "II"
    KIND_III = "III"
    VIOLATES = "violates"


_K3_TABLE = {
    (Fraction(-1), Fraction(0), Fraction(-1)): K3CurveKind.KIND_I,
    (Fraction(-2), Fraction(0), Fraction(0)): K3CurveKind.KIND_II,
    (Fraction(-1), Fraction(1), Fraction(1)): K3CurveKind.KIND_III,
}


def classify_k3_curve(
    self_int: Fraction | int, genus: Fraction | int, c_dot_k: Fraction | int
) -> K3CurveKind:
    """Place a negative curve on a blown-up K3 into the three-kind table."""
    c2, p, ck = Fraction(self_int), Fraction(genus), Fraction(c_dot_k)
    if ck != 2 * p - 2 - c2:
        raise PreconditionError(
            f"C.K = {ck} inconsistent with adjunction 2p - 2 - C^2 = {2 * p - 2 - c2}"
        )
    return _K3_TABLE.get((c2, p, ck), K3CurveKind.VIOLATES)


def classify_k3_record(record, c_dot_k: Fraction | int) -> K3CurveKind:
    """Classify a negative-curve record, checking the model really is a K3."""
    if record.cls.model.base.kind is not SurfaceKind.K3:
        raise PreconditionError("K3 classification requires a K3 base surface")
    return classify_k3_curve(record.self_int, record.genus, c_dot_k)


class NagataVariant(Enum):
    NAGATA = "nagata"
    STRONG = "strong"


def nagata_checks(
    deg: Fraction | int,
    mults: list[Fraction] | list[int],
    variant: NagataVariant = NagataVariant.NAGATA,
) -> bool:
    """Degree/multiplicity inequalities, decided without extracting roots.

    The 1/sqrt(r) form is equivalent to deg^2 * r >= (sum m_i)^2 since both
    sides are nonnegative; the strong form compares deg^2 with sum m_i^2.
    """
    deg = Fraction(deg)
    mults = [Fraction(m) for m in mults]
    if deg <= 0:
        raise PreconditionError(f"degree must be positive, got {deg}")
    if not mults:
        raise PreconditionError("need at least one multiplicity")
    if any(m < 0 for m in mults):
        raise PreconditionError("multiplicities must be nonnegative")
    if variant is NagataVariant.NAGATA:
        return deg**2 * len(mults) >= sum(mults) ** 2
    return deg**2 >= sum(m**2 for m in mults)
