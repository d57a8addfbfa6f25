"""Segre Problem bounds: bound chains, counterexample detectors, K3 kinds."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import abelian_surface, k3_surface, p2_blowup
from surface_cones.errors import PreconditionError
from surface_cones.lattice import BlowupModel, intersect
from surface_cones.segre import (
    K3CurveKind,
    NagataVariant,
    PencilVerdict,
    classify_k3_curve,
    classify_k3_record,
    curve_bound_check,
    nagata_checks,
    pencil_counterexample,
    segre_bounds,
)
from surface_cones.zariski import NegativeCurveRecord


class TestSegreBounds:
    def test_chi_one(self):
        bounds = segre_bounds(1)
        assert (bounds.nu, bounds.pi, bounds.exceptional_only) == (1, 0, False)

    def test_chi_two(self):
        bounds = segre_bounds(2)
        assert (bounds.nu, bounds.pi) == (2, 1)

    def test_nonpositive_chi_forces_exceptional(self):
        for chi in (0, -1, -5):
            bounds = segre_bounds(chi)
            assert bounds.exceptional_only
            assert (bounds.nu, bounds.pi) == (1, 0)

    def test_pi_is_nu_minus_one(self):
        for chi in range(1, 9):
            bounds = segre_bounds(chi)
            assert bounds.pi == bounds.nu - 1

    def test_fractional_chi_rejected(self):
        with pytest.raises(PreconditionError):
            segre_bounds(Fraction(3, 2))


class TestCurveBoundChain:
    def test_exceptional_on_plane(self):
        assert curve_bound_check(-1, 0, 1) is True

    def test_k3_kind_two_row(self):
        assert curve_bound_check(-2, 0, 2) is True

    def test_genus_one_on_plane_fails(self):
        assert curve_bound_check(-1, 1, 1) is False

    def test_too_negative_fails(self):
        assert curve_bound_check(-3, 0, 2) is False


class TestPencilCounterexample:
    def test_enriques_fails(self):
        report = pencil_counterexample(1, 1, 0)
        assert report.verdict is PencilVerdict.SEGRE_FAILS
        assert report.expected_chi == 2
        assert not report.chi_bound_holds

    def test_plane_line_pencil_consistent(self):
        assert pencil_counterexample(1, 0, 0).verdict is PencilVerdict.CONSISTENT

    def test_nonsimple_abelian_fails(self):
        report = pencil_counterexample(0, 1, 0)
        assert report.verdict is PencilVerdict.SEGRE_FAILS

    def test_nonspecial_genus_zero_always_consistent(self):
        for chi in range(1, 7):
            report = pencil_counterexample(chi, 0, chi - 1)
            assert report.verdict is PencilVerdict.CONSISTENT

    def test_empty_system_rejected(self):
        with pytest.raises(PreconditionError):
            pencil_counterexample(1, 1, -1)


class TestK3Classification:
    def test_table_rows(self):
        assert classify_k3_curve(-1, 0, -1) is K3CurveKind.KIND_I
        assert classify_k3_curve(-2, 0, 0) is K3CurveKind.KIND_II
        assert classify_k3_curve(-1, 1, 1) is K3CurveKind.KIND_III

    def test_outside_table_violates(self):
        assert classify_k3_curve(-3, 0, 1) is K3CurveKind.VIOLATES
        assert classify_k3_curve(-2, 1, 2) is K3CurveKind.VIOLATES

    def test_adjunction_inconsistency_rejected(self):
        with pytest.raises(PreconditionError):
            classify_k3_curve(-1, 0, 0)

    def test_table_is_exactly_adjunction_consistent_rows_in_bounds(self):
        # enumerate candidates within (nu, pi) = (2, 1); only three survive
        rows = []
        for c2 in (-1, -2):
            for p in (0, 1):
                ck = 2 * p - 2 - c2
                kind = classify_k3_curve(c2, p, ck)
                if kind is not K3CurveKind.VIOLATES:
                    rows.append((c2, p, ck, kind))
                    assert curve_bound_check(c2, p, 2)
                else:
                    assert not curve_bound_check(c2, p, 2)
        assert len(rows) == 3

    def test_record_classification_requires_k3(self):
        x = BlowupModel(k3_surface(), 2)
        record = NegativeCurveRecord.from_class(x.exceptional(1))
        ck = intersect(record.cls, x.canonical())
        assert classify_k3_record(record, ck) is K3CurveKind.KIND_I
        plane = p2_blowup(1)
        with pytest.raises(PreconditionError):
            classify_k3_record(
                NegativeCurveRecord.from_class(plane.exceptional(1)), Fraction(-1)
            )


class TestNagata:
    def test_ten_double_points_degree_six_fails(self):
        assert nagata_checks(6, [2] * 10, NagataVariant.NAGATA) is False

    def test_strong_variant(self):
        assert nagata_checks(4, [1, 1, 1, 1], NagataVariant.STRONG) is True
        assert nagata_checks(3, [2, 2, 2], NagataVariant.STRONG) is False

    def test_single_point_equality(self):
        assert nagata_checks(5, [5], NagataVariant.NAGATA) is True

    @given(
        st.integers(min_value=1, max_value=20),
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=7),
        st.sampled_from(list(NagataVariant)),
    )
    def test_scale_invariance(self, deg, mults, scale, variant):
        base = nagata_checks(deg, mults, variant)
        scaled = nagata_checks(
            Fraction(deg * scale), [Fraction(m * scale) for m in mults], variant
        )
        assert base == scaled


def test_abelian_surface_bounds_status():
    assert segre_bounds(abelian_surface().chi).exceptional_only
