"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

from surface_cones.lattice import BlowupModel, DivisorClass, SurfaceModel
from surface_cones.linalg import is_negative_definite, solve_linear
from surface_cones.scalar import as_fraction
from surface_cones.zariski import NegativeCurveRecord


def p2_surface() -> SurfaceModel:
    return SurfaceModel(
        chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(-3,), a_Y=(1,), kind="P2", pg=0, irregularity=0
    )


def p2_blowup(r: int) -> BlowupModel:
    return BlowupModel(p2_surface(), r)


def k3_surface(h_sq: int = 4) -> SurfaceModel:
    return SurfaceModel(
        chi=2, kY_sq=0, gram_Y=((h_sq,),), k_Y=(0,), a_Y=(1,), kind="K3", pg=1, irregularity=0
    )


def abelian_surface() -> SurfaceModel:
    return SurfaceModel(
        chi=0, kY_sq=0, gram_Y=((0, 1), (1, 0)), k_Y=(0, 0), a_Y=(1, 1),
        kind="Abelian", pg=1, irregularity=2,
    )


def enriques_surface() -> SurfaceModel:
    return SurfaceModel(
        chi=1, kY_sq=0, gram_Y=((0, 1), (1, 0)), k_Y=(0, 0), a_Y=(1, 1),
        kind="Enriques", pg=0, irregularity=0,
    )


def k3_with_minus_two_curve() -> SurfaceModel:
    return SurfaceModel(
        chi=2, kY_sq=0, gram_Y=((4, 1), (1, -2)), k_Y=(0, 0), a_Y=(1, 0), kind="K3",
        pg=1, irregularity=0,
    )


def non_integral_gram() -> SurfaceModel:
    """A hyperbolic base with a half-integer Gram entry: adjunction parity can fail."""
    return SurfaceModel(
        chi=1, kY_sq=0, gram_Y=((2, Fraction(1, 2)), (Fraction(1, 2), -2)), k_Y=(0, 0),
        a_Y=(1, 0),
    )


def dense_intersect(x: DivisorClass, y: DivisorClass):
    """Reference pairing, independent of the lattice's kernel: every term of the double sum.

    Zeros included: gram_Y on the Y-block, -x_k*y_k on each exceptional coordinate.
    """
    m = x.model.base.rank
    gram = x.model.base.gram_Y
    total = Fraction(0)
    for i in range(m):
        for j in range(m):
            total = total + x.coords[i] * gram[i][j] * y.coords[j]
    for k in range(m, x.model.rank):
        total = total - x.coords[k] * y.coords[k]
    return total


def standard_minus_one_records(model: BlowupModel) -> list[NegativeCurveRecord]:
    """E_i together with H - E_i - E_j on a blown-up plane."""
    records = [
        NegativeCurveRecord.from_class(model.exceptional(i)) for i in range(1, model.r + 1)
    ]
    for i, j in itertools.combinations(range(1, model.r + 1), 2):
        cls = model.pullback([1]) - model.exceptional(i) - model.exceptional(j)
        records.append(NegativeCurveRecord.from_class(cls))
    return records


def half_gram(r):
    """gram_Y [[1/2]], k_Y [-1], a_Y [1]: G*L, G*K and the Y-block of G are not integral.

    The null base is 2L - E_1 - E_2.  Besides the E_i, the curves are
    L - E_1 - E_2 and L - E_3 - E_4 - E_5, of genus 1, with C.L = 1/2 and
    C^2 = -3/2 and -5/2, which are not integers.
    """
    surface = SurfaceModel(
        chi=1, kY_sq=Fraction(1, 2), gram_Y=((Fraction(1, 2),),), k_Y=(-1,), a_Y=(1,)
    )
    model = BlowupModel(surface, r)
    records = [NegativeCurveRecord.from_class(model.exceptional(i)) for i in range(1, r + 1)]
    for support in ((1, 2), (3, 4, 5)):
        cls = model.pullback([1])
        for i in support:
            cls = cls - model.exceptional(i)
        records.append(NegativeCurveRecord.from_class(cls))
    return model, records


def levels_one_and_two(model):
    """Plane (-1)- and (-2)-curves in five orbits, four of them with two or more members.

    The two quartic orbits share degree, square and genus and differ only in
    their E-multisets (2,2,2,1^6 and 3,1^9).
    """
    line = model.pullback([1])
    e = model.exceptional

    def curve(degree, *mults):
        cls = degree * line
        for i, m in enumerate(mults, start=1):
            cls = cls - m * e(i)
        return cls

    classes = [e(i) for i in range(1, 7)]
    classes += [line - e(i) - e(j) for i, j in ((1, 2), (3, 4), (2, 5), (1, 6))]
    classes += [line - e(i) - e(j) - e(k) for i, j, k in ((1, 2, 3), (4, 5, 6), (2, 4, 7))]
    classes += [curve(4, 2, 2, 2, 1, 1, 1, 1, 1, 1), curve(4, 3, *[1] * 9)]
    classes += [e(7), line - e(8) - e(9), curve(4, 1, 1, 1, 1, 1, 1, 2, 2, 2)]
    return [NegativeCurveRecord.from_class(c) for c in classes]


def brute_force_zariski(divisor: DivisorClass, curves) -> tuple[DivisorClass, dict[int, Fraction]]:
    """Subset-enumeration oracle for the Zariski decomposition.

    Tries every support subset, solves the orthogonality system on it, and
    keeps solutions with nonnegative coefficients whose nef part pairs
    nonnegatively with every listed curve and whose support Gram is negative
    definite.  All surviving candidates must agree after dropping zero
    coefficients; that unique answer is returned.
    """
    candidates = []
    indices = range(len(curves))
    for size in range(len(curves) + 1):
        for subset in itertools.combinations(indices, size):
            gram = [
                [as_fraction(dense_intersect(curves[i].cls, curves[j].cls)) for j in subset]
                for i in subset
            ]
            if not is_negative_definite(gram):
                continue
            rhs = [as_fraction(dense_intersect(divisor, curves[i].cls)) for i in subset]
            solution = solve_linear(gram, rhs) if subset else []
            if solution is None or any(a < 0 for a in solution):
                continue
            p = divisor
            for idx, a in zip(subset, solution):
                p = p - a * curves[idx].cls
            if any(as_fraction(dense_intersect(p, record.cls)) < 0 for record in curves):
                continue
            coeffs = {i: a for i, a in zip(subset, solution) if a != 0}
            candidates.append((p, coeffs))
    assert candidates, "oracle found no valid decomposition"
    first_p, first_coeffs = candidates[0]
    for p, coeffs in candidates[1:]:
        assert p == first_p and coeffs == first_coeffs, "oracle found conflicting decompositions"
    return first_p, first_coeffs


def assert_same_certificates(got, expected):
    """Two lists of ray certificates agree entry by entry and field by field."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in dataclasses.fields(a):
            assert getattr(a, field.name) == getattr(b, field.name), field.name
