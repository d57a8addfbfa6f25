"""Condition systems, exact s-intervals with grid oracle, and both witness routes."""

from fractions import Fraction

import pytest

from helpers import abelian_surface, p2_blowup, p2_surface
from surface_cones.cones import ConePosition, in_positive_cone
from surface_cones.errors import PreconditionError
from surface_cones.lattice import BlowupModel, SurfaceModel, intersect
from surface_cones.scalar import as_fraction, compare, make_scalar, sign, sqrt_scalar
from surface_cones.strict_inclusion import (
    ConditionLabel,
    _rational_strictly_between,
    alpha_from_s,
    condition_sets,
    gamma_witness,
    solve_s_system,
    uniruled_witness,
)


def a_condition_surface() -> SurfaceModel:
    # A.K_Y = 6 > 0, A^2 = 4 < 36 = (A.K_Y)^2, bound = 9 + 1 - 9 = 1 >= r
    return SurfaceModel(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(3,), a_Y=(2,))


def grid_membership(intervals, s: Fraction) -> bool:
    for interval in intervals:
        lower_ok = (
            compare(s, interval.lower) > 0
            or (compare(s, interval.lower) == 0 and not interval.lower_strict)
        )
        upper_ok = interval.upper is None or (
            compare(s, interval.upper) < 0
            or (compare(s, interval.upper) == 0 and not interval.upper_strict)
        )
        if lower_ok and upper_ok:
            return True
    return False


def exact_feasible(model: BlowupModel, s: Fraction) -> bool:
    """Independent oracle: the three witness inequalities, from scratch."""
    a_sq = model.base.a_sq
    ak = model.base.a_dot_k
    k_sq = model.base.kY_sq
    r = model.r
    delta_t = s * s * a_sq - 2 * s * ak + k_sq + 1 - r
    if delta_t < 0:
        return False
    # alpha = t*C - (K - sL) is forward only if alpha.L = s*A^2 - A.K_Y > 0
    if not s * a_sq - ak > 0:
        return False
    ds = ak**2 - a_sq * (k_sq + 1 - r)
    if ds > 0:
        # only the branch at or above the larger root of D_t(s) = 0 is valid
        if compare(Fraction(s), (ak + sqrt_scalar(ds)) / a_sq) < 0:
            return False
    lhs = r - k_sq - 1 + s * ak
    return lhs > 0 and lhs * lhs > delta_t


class TestConditionSets:
    def test_plane_eleven_is_d(self):
        assert condition_sets(p2_blowup(11)) == {ConditionLabel.D}

    def test_plane_ten_empty(self):
        assert condition_sets(p2_blowup(10)) == set()

    def test_abelian_two_points(self):
        assert condition_sets(BlowupModel(abelian_surface(), 2)) == {ConditionLabel.D}

    def test_negative_canonical_square_is_c(self):
        surface = SurfaceModel(chi=1, kY_sq=-6, gram_Y=((2, 1), (1, -1)), k_Y=(1, 4), a_Y=(1, 0))
        assert ConditionLabel.C in condition_sets(BlowupModel(surface, 1))

    def test_a_condition_model(self):
        assert condition_sets(BlowupModel(a_condition_surface(), 1)) == {ConditionLabel.A}

    def test_b_condition_model(self):
        # bound = K^2 + 1 - (A.K)^2/A^2 = 9 + 1 - 9/4; r in (7.75, 10]
        surface = SurfaceModel(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(3,), a_Y=(1,))
        labels = condition_sets(BlowupModel(surface, 9))
        assert ConditionLabel.B in labels


class TestSolveSSystem:
    def test_plane_eleven_nonempty(self):
        intervals = solve_s_system(p2_blowup(11))
        assert len(intervals) == 1
        interval = intervals[0]
        assert interval.lower == make_scalar(-3, 1, 10)
        assert not interval.lower_strict
        assert interval.upper == (3 - sqrt_scalar(5)) / 4
        assert interval.sample is not None

    def test_plane_ten_empty(self):
        assert solve_s_system(p2_blowup(10)) == []

    def test_a_condition_unbounded_interval(self):
        intervals = solve_s_system(BlowupModel(a_condition_surface(), 1))
        assert len(intervals) == 1
        assert intervals[0].upper is None
        assert intervals[0].lower == Fraction(3, 2)

    def test_grid_oracle_plane_eleven(self):
        model = p2_blowup(11)
        intervals = solve_s_system(model)
        for k in range(1, 2001):
            s = Fraction(k, 100)
            assert exact_feasible(model, s) == grid_membership(intervals, s)

    def test_grid_oracle_bracketing_ranges(self):
        for model in (
            p2_blowup(11),
            p2_blowup(13),
            BlowupModel(abelian_surface(), 2),
            BlowupModel(abelian_surface(), 4),
            BlowupModel(a_condition_surface(), 1),
        ):
            intervals = solve_s_system(model)
            if not intervals:
                continue
            lows = [interval.lower for interval in intervals]
            highs = [interval.upper for interval in intervals if interval.upper is not None]
            lo = min(int(float(v)) for v in lows) - 1
            hi = max([int(float(v)) for v in highs], default=int(float(lows[0])) + 3) + 1
            for k in range(lo * 100, hi * 100 + 1):
                s = Fraction(k, 100)
                assert exact_feasible(model, s) == grid_membership(intervals, s), (model.r, s)

    def test_samples_are_certified_feasible(self):
        for model in (p2_blowup(11), p2_blowup(12), BlowupModel(abelian_surface(), 2)):
            for interval in solve_s_system(model):
                assert interval.sample is not None
                assert exact_feasible(model, interval.sample)


class TestRationalStrictlyBetween:
    @pytest.mark.parametrize(
        "lower",
        [
            Fraction(10**400),
            Fraction(-(10**400), 3),
            make_scalar(10**400, 1, 2),
            make_scalar(1, -(10**400), 3),
        ],
    )
    def test_huge_lower_bound_is_exact(self, lower):
        point = _rational_strictly_between(lower, None)
        assert compare(point, lower) > 0
        assert compare(point - Fraction(1, 2), lower) <= 0

    def test_least_half_integer_above_a_surd(self):
        assert _rational_strictly_between(make_scalar(-3, 1, 10), None) == Fraction(1, 2)
        assert _rational_strictly_between(make_scalar(0, -1, 2), None) == Fraction(-1)


class TestAlphaFromS:
    def test_valid_at_certified_sample(self):
        model = p2_blowup(11)
        interval = solve_s_system(model)[0]
        witness = alpha_from_s(model, interval.sample, 1)
        assert witness.valid
        assert sign(intersect(witness.alpha, witness.alpha)) == 0
        assert sign(intersect(witness.alpha, model.canonical())) > 0

    def test_abelian_pipeline(self):
        model = BlowupModel(abelian_surface(), 2)
        interval = solve_s_system(model)[0]
        witness = alpha_from_s(model, interval.sample, 1)
        assert witness.valid
        completed = gamma_witness(witness)
        assert completed.valid
        assert intersect(completed.gamma, model.canonical()) == 2

    def test_irrational_s_supported(self):
        model = p2_blowup(11)
        interval = solve_s_system(model)[0]
        # lower endpoint is closed here: s = sqrt(10) - 3 itself is feasible
        witness = alpha_from_s(model, interval.lower, 1)
        assert witness.valid

    def test_t_at_least_one_makes_alpha_dot_c_nonpositive(self):
        model = p2_blowup(11)
        witness = alpha_from_s(model, solve_s_system(model)[0].sample, 2)
        assert witness.valid
        assert compare(witness.t, 1) >= 0
        assert sign(intersect(witness.alpha, model.exceptional(2))) <= 0

    def test_infeasible_s_named_failures(self):
        model = p2_blowup(11)
        # above the interval: t exists, h fine, alpha.K fails
        above = alpha_from_s(model, Fraction(1, 5), 1)
        assert not above.valid and above.failing == "alpha_dot_K_positive"
        # below the lower root: no real t at all
        below = alpha_from_s(model, Fraction(1, 10), 1)
        assert not below.valid and below.failing == "delta_t_nonneg"

    def test_bad_index_rejected(self):
        with pytest.raises(PreconditionError):
            alpha_from_s(p2_blowup(2), Fraction(1), 3)


class TestUniruledWitness:
    def test_plane_eleven(self):
        outcome = uniruled_witness(p2_blowup(11))
        assert outcome.satisfied
        assert outcome.value == make_scalar(-3, 1, 10)
        assert outcome.witness.valid
        assert outcome.witness.curve_index == 11

    def test_plane_ten_fails_exactly_at_zero(self):
        outcome = uniruled_witness(p2_blowup(10))
        assert not outcome.satisfied
        assert outcome.value == Fraction(0)
        assert outcome.witness is None

    def test_nonnegative_a_dot_k_always_succeeds(self):
        surface = SurfaceModel(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(3,), a_Y=(1,))
        for r in (2, 3, 7):
            outcome = uniruled_witness(BlowupModel(surface, r))
            assert outcome.satisfied and outcome.witness.valid

    def test_alpha_orthogonal_to_last_exceptional(self):
        model = p2_blowup(12)
        outcome = uniruled_witness(model)
        assert intersect(outcome.witness.alpha, model.exceptional(12)) == 0

    def test_needs_two_points(self):
        with pytest.raises(PreconditionError):
            uniruled_witness(p2_blowup(1))


class TestUniruledCaseAnalysis:
    def test_verdict_matches_squared_inequality_for_negative_ak(self):
        # for A.K_Y < 0 the criterion is exactly A^2 (r - 1) > (A.K_Y)^2
        surface = p2_surface()
        for r in range(2, 16):
            outcome = uniruled_witness(BlowupModel(surface, r))
            squared = surface.a_sq * (r - 1) > surface.a_dot_k ** 2
            assert outcome.satisfied == squared

    def test_always_satisfied_for_nonnegative_ak(self):
        flat = SurfaceModel(chi=1, kY_sq=0, gram_Y=((0, 1), (1, 0)), k_Y=(0, 0), a_Y=(1, 1),
                            kind="Enriques", pg=0, irregularity=0)
        positive = SurfaceModel(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(3,), a_Y=(1,))
        for surface in (flat, positive):
            for r in (2, 3, 9):
                assert uniruled_witness(BlowupModel(surface, r)).satisfied


class TestGammaWitness:
    def test_plane_eleven_values(self):
        model = p2_blowup(11)
        completed = gamma_witness(uniruled_witness(model).witness)
        assert completed.valid
        k = model.canonical()
        assert intersect(completed.gamma, k) == 2
        assert intersect(completed.gamma, completed.gamma) == -1
        assert in_positive_cone(completed.gamma) is ConePosition.OUTSIDE

    def test_gamma_in_generated_cone_outside_positive(self):
        model = BlowupModel(abelian_surface(), 2)
        witness = gamma_witness(alpha_from_s(model, solve_s_system(model)[0].sample, 1))
        assert sign(intersect(witness.gamma, witness.gamma)) < 0
        assert in_positive_cone(witness.alpha) is not ConePosition.OUTSIDE

    def test_invalid_alpha_rejected(self):
        model = p2_blowup(11)
        bad = alpha_from_s(model, Fraction(1, 5), 1)
        with pytest.raises(PreconditionError):
            gamma_witness(bad)


class TestDoubleRecovery:
    def test_both_routes_first_succeed_at_eleven(self):
        for r in range(2, 11):
            assert not uniruled_witness(p2_blowup(r)).satisfied
            assert condition_sets(p2_blowup(r)) == set()
            assert solve_s_system(p2_blowup(r)) == []
        assert uniruled_witness(p2_blowup(11)).satisfied
        assert condition_sets(p2_blowup(11)) == {ConditionLabel.D}
        assert solve_s_system(p2_blowup(11)) != []
