"""Positive-cone geometry: membership, pairing, slices, signature."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import abelian_surface, k3_surface, p2_blowup, p2_surface
from surface_cones.cones import (
    ConePosition,
    diagonalize,
    in_positive_cone,
    pairing_nonneg_check,
    render_slice_csv,
    slice_export,
)
from surface_cones.errors import PreconditionError
from surface_cones.lattice import BlowupModel
from surface_cones.scalar import make_scalar, sign


class TestMembership:
    def test_line_interior(self):
        assert in_positive_cone(p2_blowup(3).line()) is ConePosition.INTERIOR

    def test_exceptional_outside(self):
        assert in_positive_cone(p2_blowup(3).exceptional(1)) is ConePosition.OUTSIDE

    def test_boundary_class(self):
        x = p2_blowup(1)
        assert in_positive_cone(x.pullback([1]) - x.exceptional(1)) is ConePosition.BOUNDARY

    def test_zero_on_boundary(self):
        assert in_positive_cone(p2_blowup(2).zero()) is ConePosition.BOUNDARY

    def test_negated_boundary_outside(self):
        x = p2_blowup(1)
        assert in_positive_cone(x.exceptional(1) - x.pullback([1])) is ConePosition.OUTSIDE

    def test_scaling_invariance(self):
        x = p2_blowup(2)
        classes = [x.line(), x.exceptional(1), x.pullback([1]) - x.exceptional(1)]
        for c in classes:
            for scale in (Fraction(1, 3), Fraction(7), make_scalar(0, 1, 2)):
                assert in_positive_cone(scale * c) is in_positive_cone(c)

    def test_irrational_coordinates(self):
        x = p2_blowup(1)
        s = make_scalar(0, 1, 2)
        assert in_positive_cone(x.divisor([s, 1])) is ConePosition.INTERIOR


class TestPairing:
    def test_interior_pair_strict(self):
        report = pairing_nonneg_check(p2_blowup(2).line(), p2_blowup(2).line())
        assert report.ok and report.nonnegative and report.strict_positive
        assert report.value == 1

    def test_boundary_pair(self):
        x = p2_blowup(2)
        a = x.pullback([1]) - x.exceptional(1)
        b = x.pullback([1]) - x.exceptional(2)
        report = pairing_nonneg_check(a, b)
        assert report.ok and report.nonnegative and report.value == 1
        assert not report.strict_positive

    def test_precondition_violation_is_status(self):
        report = pairing_nonneg_check(p2_blowup(2).exceptional(1), p2_blowup(2).line())
        assert not report.ok
        assert "outside" in report.violation

    def test_random_cone_pairs_nonnegative(self):
        model = p2_blowup(3)
        rng = random.Random(0)
        found = 0
        while found < 1000:
            coords = [Fraction(rng.randint(-4, 8))] + [
                Fraction(rng.randint(-4, 4)) for _ in range(3)
            ]
            x = model.divisor(coords)
            if in_positive_cone(x) is ConePosition.OUTSIDE:
                continue
            coords2 = [Fraction(rng.randint(-4, 8))] + [
                Fraction(rng.randint(-4, 4)) for _ in range(3)
            ]
            y = model.divisor(coords2)
            if in_positive_cone(y) is ConePosition.OUTSIDE:
                continue
            found += 1
            report = pairing_nonneg_check(x, y)
            assert report.ok and report.nonnegative
            if report.strict_positive:
                assert sign(report.value) > 0


class TestSignature:
    def test_blown_up_plane_diagonal(self):
        report = diagonalize(p2_blowup(3))
        assert (report.n_plus, report.n_minus, report.n_zero) == (1, 3, 0)

    def test_non_diagonal_gram(self):
        from surface_cones.lattice import SurfaceModel

        surface = SurfaceModel(chi=1, kY_sq=-6, gram_Y=((2, 1), (1, -1)), k_Y=(1, 4), a_Y=(1, 0))
        report = diagonalize(BlowupModel(surface, 0))
        assert (report.n_plus, report.n_minus, report.n_zero) == (1, 1, 0)

    def test_congruence_reproduces_diagonal(self):
        model = BlowupModel(abelian_surface(), 2)
        report = diagonalize(model)
        gram = model.gram_matrix()
        n = model.rank
        b = report.congruence
        for i in range(n):
            for j in range(n):
                value = sum(b[i][k] * gram[k][l] * b[j][l] for k in range(n) for l in range(n))
                assert value == (report.diagonal[i] if i == j else 0)

    def test_all_fixture_models_lorentzian(self):
        for model in (p2_blowup(12), BlowupModel(k3_surface(), 5), BlowupModel(abelian_surface(), 2)):
            report = diagonalize(model)
            assert (report.n_plus, report.n_minus, report.n_zero) == (1, model.rank - 1, 0)


class TestSliceExport:
    def test_single_class_at_origin(self):
        x = p2_blowup(2)
        rows = slice_export(x, [x.line()], x.line())
        assert rows[0].flag == "ok"
        assert rows[0].coords[0] == pytest.approx(1.0)
        assert rows[0].coords[1] == pytest.approx(0.0)

    def test_exceptional_at_infinity(self):
        x = p2_blowup(2)
        s = make_scalar(0, 1, 11)
        classes = [
            x.exceptional(1),
            x.exceptional(2),
            x.pullback([1]) - x.exceptional(1) - x.exceptional(2),
            x.canonical() - s * x.line(),
        ]
        rows = slice_export(x, classes, x.line())
        flags = [r.flag for r in rows[:4]]
        assert flags == ["at_infinity", "at_infinity", "ok", "ok"]

    def test_empty_class_list_header_only(self):
        x = p2_blowup(2)
        rows = slice_export(x, [], x.line(), boundary_samples=0)
        csv = render_slice_csv(rows, x.rank)
        lines = [l for l in csv.splitlines() if l]
        assert lines[0] == "label,x1,x2,x3,flag"
        assert all("boundary" in l for l in lines[1:])

    def test_boundary_samples_deterministic(self):
        x = p2_blowup(2)
        a = render_slice_csv(slice_export(x, [], x.line()), x.rank)
        b = render_slice_csv(slice_export(x, [], x.line()), x.rank)
        assert a == b

    def test_normal_must_pair_with_line(self):
        x = p2_blowup(2)
        with pytest.raises(PreconditionError):
            slice_export(x, [], x.exceptional(1))
