"""Exact geometry of the positive cone: membership, pairing, signature, slices.

Membership is tested against the nef pullback L rather than an ample class.
This is equivalent: if x^2 >= 0 and x.L = 0 then x lies in the orthogonal
complement of L, which is negative definite by the Hodge index theorem, so
x = 0; and the cone does not depend on the chosen positive class.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import PreconditionError
from .lattice import BlowupModel, DivisorClass, intersect
from .scalar import Exact, is_zero, sign, to_float


class ConePosition(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def in_positive_cone(x: DivisorClass, square: Exact | None = None) -> ConePosition:
    """Locate x relative to {y : y^2 >= 0, y.L >= 0}; ``square`` is x^2 when the caller has it."""
    line = x.model.line()
    s_sq = sign(intersect(x, x) if square is None else square)
    s_l = sign(intersect(x, line))
    if s_sq > 0 and s_l > 0:
        return ConePosition.INTERIOR
    if s_sq == 0 and (x.is_zero() or s_l > 0):
        return ConePosition.BOUNDARY
    return ConePosition.OUTSIDE


@dataclass(frozen=True)
class PairingReport:
    """Outcome of the cone pairing check.

    ``ok`` is False when a precondition failed, with the reason named;
    ``strict_positive`` records whether strict positivity is guaranteed
    (one class interior, the other nonzero).
    """

    ok: bool
    nonnegative: bool | None = None
    strict_positive: bool | None = None
    value: Exact | None = None
    violation: str | None = None


def pairing_nonneg_check(x: DivisorClass, y: DivisorClass) -> PairingReport:
    pos_x = in_positive_cone(x)
    pos_y = in_positive_cone(y)
    if pos_x is ConePosition.OUTSIDE:
        return PairingReport(ok=False, violation="first class outside positive cone")
    if pos_y is ConePosition.OUTSIDE:
        return PairingReport(ok=False, violation="second class outside positive cone")
    value = intersect(x, y)
    strict = (pos_x is ConePosition.INTERIOR and not y.is_zero()) or (
        pos_y is ConePosition.INTERIOR and not x.is_zero()
    )
    return PairingReport(
        ok=True,
        nonnegative=sign(value) >= 0,
        strict_positive=strict,
        value=value,
    )


@dataclass(frozen=True)
class SignatureReport:
    n_plus: int
    n_minus: int
    n_zero: int
    congruence: tuple[tuple[Fraction, ...], ...]
    diagonal: tuple[Fraction, ...]


def diagonalize(model: BlowupModel) -> SignatureReport:
    """Rational congruence diagonalization of the blow-up intersection form."""
    diag, basis = linalg.congruence_diagonalize(model.gram_matrix())
    plus = sum(1 for v in diag if v > 0)
    minus = sum(1 for v in diag if v < 0)
    return SignatureReport(
        n_plus=plus,
        n_minus=minus,
        n_zero=len(diag) - plus - minus,
        congruence=tuple(tuple(row) for row in basis),
        diagonal=tuple(diag),
    )


@dataclass(frozen=True)
class SliceRow:
    label: str
    coords: tuple[float, ...]
    flag: str


def slice_export(
    model: BlowupModel,
    classes: Sequence[DivisorClass],
    plane_normal: DivisorClass,
    labels: Sequence[str] | None = None,
    boundary_samples: int = 16,
) -> list[SliceRow]:
    """Figure data: classes scaled into the affine slice {x . normal = 1}.

    Coordinates are reported in the diagonalizing basis (first two or three
    axes).  Classes pairing to zero with the normal are flagged
    ``at_infinity`` and left unscaled.  Points of the cone boundary circle
    in the slice {first coordinate = 1} are appended as float samples;
    this table is plotting data, not a certificate.
    """
    if is_zero(intersect(plane_normal, model.line())):
        raise PreconditionError("plane normal must pair nonzero with L")
    report = diagonalize(model)
    axes = min(3, model.rank)
    rows: list[SliceRow] = []
    basis_classes = [model.divisor(row) for row in report.congruence[:axes]]

    def sylvester(x: DivisorClass) -> tuple[float, ...]:
        out = []
        for f, d in zip(basis_classes, report.diagonal):
            out.append(to_float(intersect(f, x)) / float(d))
        return tuple(out)

    for idx, cls in enumerate(classes):
        label = labels[idx] if labels else f"class_{idx}"
        denom = intersect(cls, plane_normal)
        if is_zero(denom):
            rows.append(SliceRow(label, sylvester(cls), "at_infinity"))
        else:
            scaled = cls * (1 / denom)
            rows.append(SliceRow(label, sylvester(scaled), "ok"))
    if model.rank >= 3:
        for k in range(boundary_samples):
            t = Fraction(2 * k - boundary_samples, boundary_samples)
            x2 = Fraction(1 - t * t, 1 + t * t)
            x3 = Fraction(2 * t, 1 + t * t)
            scale2 = abs(float(report.diagonal[1]) / float(report.diagonal[0])) ** 0.5
            scale3 = abs(float(report.diagonal[2]) / float(report.diagonal[0])) ** 0.5
            coords = (1.0, float(x2) / scale2, float(x3) / scale3)
            rows.append(SliceRow(f"cone_boundary_{k}", coords[:axes], "boundary_sample"))
    else:
        rows.append(SliceRow("cone_boundary_0", (1.0, 1.0), "boundary_sample"))
        rows.append(SliceRow("cone_boundary_1", (1.0, -1.0), "boundary_sample"))
    return rows


def render_slice_csv(rows: Sequence[SliceRow], rank: int) -> str:
    axes = min(3, rank)
    header = ["label"] + [f"x{i + 1}" for i in range(axes)] + ["flag"]
    lines = [",".join(header)]
    for row in rows:
        coords = list(row.coords) + [0.0] * (axes - len(row.coords))
        cells = [row.label] + [f"{c + 0.0:.12g}" for c in coords[:axes]] + [row.flag]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
