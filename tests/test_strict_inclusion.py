"""The witness parameter, its exact facts, its completion, and the tilted-pullback value."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import abelian_surface, p2_blowup, p2_surface
from surface_cones.cones import ConePosition, in_positive_cone
from surface_cones.errors import PreconditionError, SurfaceConesError
from surface_cones.lattice import BlowupModel, SurfaceModel, intersect
from surface_cones.scalar import compare, make_scalar, sign, sqrt_scalar
from surface_cones.strict_inclusion import (
    _floor,
    alpha_from_s,
    gamma_witness,
    uniruled_value,
    witness_parameter,
)
from surface_cones.thresholds import ThresholdContext, s_threshold


@st.composite
def small_bases(draw, r=st.integers(1, 40)) -> BlowupModel:
    """A rank-1 or rank-2 base with small integer data, blown up at r points."""
    if draw(st.booleans()):
        gram = [[draw(st.integers(1, 6))]]
        k_Y = [draw(st.integers(-4, 4))]
        a_Y = [draw(st.integers(1, 4))]
    else:
        p, q, m = draw(st.integers(-3, 4)), draw(st.integers(-3, 3)), draw(st.integers(-4, 3))
        gram = [[p, q], [q, m]]
        k_Y = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
        a_Y = draw(st.lists(st.integers(-2, 3), min_size=2, max_size=2))
    k_sq = sum(k_Y[i] * gram[i][j] * k_Y[j] for i in range(len(k_Y)) for j in range(len(k_Y)))
    try:
        surface = SurfaceModel(chi=1, kY_sq=k_sq, gram_Y=gram, k_Y=k_Y, a_Y=a_Y)
    except SurfaceConesError:
        assume(False)
    return BlowupModel(surface, draw(r))


def s1_witness(model):
    """The witness at s_1 with its context and sqrt(D_1/4), on a model with r > first_bound(1)."""
    ctx = ThresholdContext.from_model(model)
    assume(ctx.r > ctx.first_bound(1))
    return ctx, alpha_from_s(model, witness_parameter(model), 1), sqrt_scalar(ctx.delta_quarter(1))


class TestWitnessParameter:
    @settings(max_examples=200, deadline=None)
    @given(small_bases())
    def test_s1_witness_exact_facts(self, model):
        ctx, witness, root = s1_witness(model)
        s = witness.s
        assert s == s_threshold(ctx, 1) and witness.t == 1
        assert intersect(witness.alpha, witness.alpha) == 0
        assert intersect(witness.alpha, model.exceptional(1)) == 0
        assert intersect(witness.alpha, model.line()) == root and sign(root) > 0
        assert intersect(witness.alpha, model.canonical()) == s * root
        assert witness.valid == (sign(s) > 0)

    @settings(max_examples=200, deadline=None)
    @given(small_bases(r=st.integers(2, 40)))
    def test_uniruled_implies_s1_witness_valid(self, model):
        assume(sign(uniruled_value(model)) > 0)
        _, witness, _ = s1_witness(model)
        assert witness.valid

    @settings(max_examples=100, deadline=None)
    @given(small_bases(r=st.just(1)))
    def test_case_a_witness_is_the_tilted_pullback(self, model):
        # r <= first_bound(1) forces r = 1 and K_Y = c*A, so (A.K_Y)^2 = A^2*K_Y^2
        ctx = ThresholdContext.from_model(model)
        assume(ctx.r <= ctx.first_bound(1))
        assert ctx.AK**2 == ctx.A_sq * ctx.kY_sq
        s = witness_parameter(model)
        assert s == ctx.AK / ctx.A_sq + 1
        witness = alpha_from_s(model, s, 1)
        tilted = model.pullback(model.base.a_Y) + sqrt_scalar(ctx.A_sq) * model.exceptional(1)
        factor = intersect(witness.alpha, model.line()) / ctx.A_sq
        assert sign(factor) > 0 and witness.alpha == factor * tilted
        assert witness.valid == (compare(ctx.AK, sqrt_scalar(ctx.A_sq)) > 0)

    @settings(max_examples=100, deadline=None)
    @given(small_bases())
    def test_valid_witness_completes_with_an_integer_lambda(self, model):
        witness = alpha_from_s(model, witness_parameter(model), 1)
        assume(witness.valid)
        completed = gamma_witness(witness)
        assert completed.valid and completed.lambda_.denominator == 1
        assert compare(intersect(completed.gamma, model.canonical()), 2) > 0


class TestFloor:
    @pytest.mark.parametrize(
        "x",
        [
            Fraction(10**400),
            Fraction(-(10**400), 3),
            make_scalar(10**400, 1, 2),
            make_scalar(1, -(10**400), 3),
        ],
    )
    def test_huge_lower_bound_is_exact(self, x):
        n = _floor(x)
        assert compare(n, x) <= 0 < compare(n + 1, x)


class TestAlphaFromS:
    def test_valid_at_witness_parameter(self):
        model = p2_blowup(11)
        witness = alpha_from_s(model, witness_parameter(model), 1)
        assert witness.valid
        assert sign(intersect(witness.alpha, witness.alpha)) == 0
        assert sign(intersect(witness.alpha, model.canonical())) > 0

    def test_abelian_pipeline(self):
        model = BlowupModel(abelian_surface(), 2)
        witness = alpha_from_s(model, witness_parameter(model), 1)
        assert witness.valid
        completed = gamma_witness(witness)
        assert completed.valid
        # alpha.K = 1, so lambda = floor(3/1) + 1 = 4 and gamma.K = -1 + 4
        assert completed.lambda_ == 4
        assert intersect(completed.gamma, model.canonical()) == 3

    def test_irrational_s_supported(self):
        model = p2_blowup(11)
        s = witness_parameter(model)
        assert s == make_scalar(-3, 1, 10)
        witness = alpha_from_s(model, s, 1)
        assert witness.valid and witness.t == 1

    def test_t_at_least_one_makes_alpha_dot_c_nonpositive(self):
        model = p2_blowup(11)
        witness = alpha_from_s(model, witness_parameter(model), 2)
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


class TestUniruledValue:
    def test_plane_eleven(self):
        assert uniruled_value(p2_blowup(11)) == make_scalar(-3, 1, 10)

    def test_plane_ten_fails_exactly_at_zero(self):
        assert uniruled_value(p2_blowup(10)) == Fraction(0)

    def test_nonnegative_a_dot_k_always_succeeds(self):
        surface = SurfaceModel(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(3,), a_Y=(1,))
        for r in (2, 3, 7):
            assert sign(uniruled_value(BlowupModel(surface, r))) > 0

    def test_needs_two_points(self):
        with pytest.raises(PreconditionError):
            uniruled_value(p2_blowup(1))


class TestUniruledCaseAnalysis:
    def test_verdict_matches_squared_inequality_for_negative_ak(self):
        # for A.K_Y < 0 the value is positive exactly when A^2 (r - 1) > (A.K_Y)^2
        surface = p2_surface()
        for r in range(2, 16):
            value = uniruled_value(BlowupModel(surface, r))
            squared = surface.a_sq * (r - 1) > surface.a_dot_k ** 2
            assert (sign(value) > 0) == squared

    def test_always_satisfied_for_nonnegative_ak(self):
        flat = SurfaceModel(chi=1, kY_sq=0, gram_Y=((0, 1), (1, 0)), k_Y=(0, 0), a_Y=(1, 1),
                            kind="Enriques", pg=0, irregularity=0)
        positive = SurfaceModel(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(3,), a_Y=(1,))
        for surface in (flat, positive):
            for r in (2, 3, 9):
                assert sign(uniruled_value(BlowupModel(surface, r))) > 0


class TestGammaWitness:
    def test_plane_eleven_values(self):
        model = p2_blowup(11)
        completed = gamma_witness(alpha_from_s(model, witness_parameter(model), 1))
        assert completed.valid
        k = model.canonical()
        # alpha.K = 10 - 3*sqrt(10), so lambda = floor(3/(10 - 3*sqrt(10))) + 1 = 6
        assert completed.lambda_ == 6
        assert intersect(completed.gamma, k) == make_scalar(59, -18, 10)
        assert intersect(completed.gamma, completed.gamma) == -1
        assert in_positive_cone(completed.gamma) is ConePosition.OUTSIDE

    def test_gamma_in_generated_cone_outside_positive(self):
        model = BlowupModel(abelian_surface(), 2)
        witness = gamma_witness(alpha_from_s(model, witness_parameter(model), 1))
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
            model = p2_blowup(r)
            assert sign(uniruled_value(model)) <= 0
            assert not alpha_from_s(model, witness_parameter(model), 1).valid
        assert sign(uniruled_value(p2_blowup(11))) > 0
        assert alpha_from_s(p2_blowup(11), witness_parameter(p2_blowup(11)), 1).valid
