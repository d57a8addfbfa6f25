"""Thresholds, r-conditions, ray certificates, and the cone-equality check."""

import dataclasses
import functools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    abelian_surface,
    assert_same_certificates,
    dense_intersect,
    half_gram,
    k3_surface,
    levels_one_and_two,
    p2_blowup,
    p2_surface,
    standard_minus_one_records,
)
from surface_cones import cli, serialize, thresholds
from surface_cones.cli import load_fixture
from surface_cones.cones import ConePosition, in_positive_cone
from surface_cones.errors import (
    InternalConsistencyError,
    MixedRadicandError,
    PreconditionError,
    ThresholdError,
)
from surface_cones.lattice import BlowupModel, DivisorClass, SurfaceModel, intersect
from surface_cones.scalar import (
    as_fraction,
    compare,
    make_scalar,
    sign,
    sqrt_scalar,
)
from surface_cones.segre import segre_bounds
from surface_cones.strict_inclusion import alpha_from_s, witness_parameter
from surface_cones.thresholds import (
    ConditionCheck,
    ThresholdContext,
    certify_list,
    check_conditions,
    cone_equality_check,
    k_minus_sl_h_negative,
    ray_certificate,
    s_monotonicity,
    s_threshold,
)
from surface_cones.zariski import NegativeCurveRecord

DATA = Path(__file__).parent / "data"


def ctx_p2(r: int) -> ThresholdContext:
    return ThresholdContext.from_model(p2_blowup(r))


class TestSThreshold:
    def test_plane_r10_is_zero(self):
        assert s_threshold(ctx_p2(10), 1) == Fraction(0)

    def test_plane_r17_is_one(self):
        assert s_threshold(ctx_p2(17), 1) == Fraction(1)

    def test_plane_r12_irrational(self):
        assert s_threshold(ctx_p2(12), 1) == make_scalar(-3, 1, 11)

    def test_boundary_strictness_for_n_one(self):
        with pytest.raises(ThresholdError) as info:
            s_threshold(ctx_p2(1), 1)
        assert "strict" in str(info.value)

    def test_negative_radicand(self):
        with pytest.raises(ThresholdError) as info:
            s_threshold(ctx_p2(0), 1)
        assert "r too small" in str(info.value)

    @pytest.mark.parametrize("n", [0, -1])
    def test_level_below_one_rejected(self, n):
        with pytest.raises(PreconditionError, match="level must be a positive integer"):
            ctx_p2(10).delta_quarter(n)

    def test_weak_inequality_for_higher_n(self):
        # on a quartic K3 at r = 1 the n = 2 radicand is 4 - 2 = 2 > 0
        ctx = ThresholdContext.from_model(BlowupModel(k3_surface(), 1))
        value = s_threshold(ctx, 2)
        assert compare(value, sqrt_scalar(2) / 4) == 0

    def test_defines_k_sl_square(self):
        for r, n in ((11, 1), (12, 1), (17, 2), (20, 3)):
            model = p2_blowup(r)
            s = s_threshold(ThresholdContext.from_model(model), n)
            k_sl = model.canonical() - s * model.line()
            assert compare(intersect(k_sl, k_sl), Fraction(-1, n)) == 0


class TestCheckConditions:
    def test_plane_basic_bounds(self):
        report = check_conditions(ctx_p2(10), 1, 0)
        assert report.satisfied and report.bound == 10 and not report.strict
        assert check_conditions(ctx_p2(9), 1, 0).satisfied is False

    def test_k3_bound(self):
        ctx = ThresholdContext.from_model(BlowupModel(k3_surface(), 37))
        report = check_conditions(ctx, 2, 1)
        assert report.bound == 1 + 9 * 4 and report.satisfied

    def test_abelian_strict_branch(self):
        ctx = ThresholdContext.from_model(BlowupModel(abelian_surface(), 2))
        report = check_conditions(ctx, 1, 0)
        assert report.strict and report.bound == 1 and report.satisfied
        ctx1 = ThresholdContext.from_model(BlowupModel(abelian_surface(), 1))
        assert check_conditions(ctx1, 1, 0).satisfied is False

    def test_invalid_bounds_rejected(self):
        with pytest.raises(PreconditionError):
            check_conditions(ctx_p2(10), 0, 0)


def _reference_check_conditions(ctx, nu, pi):
    """``check_conditions`` as it read before ``ThresholdContext.r_condition``."""
    q = Fraction(2 * pi + nu - 1)
    if q <= ctx.AK / ctx.A_sq:
        bound = ctx.kY_sq + 1 - ctx.AK**2 / ctx.A_sq
        strict = True
        satisfied = ctx.r > bound
        binding = f"r > K_Y^2 + 1 - (A.K_Y)^2/A^2 = {bound}"
    else:
        bound = ctx.kY_sq + 1 + ctx.A_sq * q**2 - 2 * ctx.AK * q
        strict = False
        satisfied = ctx.r >= bound
        binding = f"r >= K_Y^2 + 1 + A^2*q^2 - 2*(A.K_Y)*q = {bound}"
    return ConditionCheck(
        satisfied=satisfied, q=q, strict=strict, bound=bound, binding=binding, slack=ctx.r - bound
    )


def _reference_curve_conditions(ctx, n, p):
    """First violated r-inequality for a single (-n,p)-ray, as it read before."""
    if n == 1:
        bound1 = ctx.kY_sq + 1 - ctx.AK**2 / ctx.A_sq
        if not ctx.r > bound1:
            return f"r > K_Y^2 + 1 - (A.K_Y)^2/A^2 = {bound1}"
        if p > ctx.AK / (2 * ctx.A_sq):
            bound2 = ctx.kY_sq + 1 + 4 * ctx.A_sq * p**2 - 4 * ctx.AK * p
            if not ctx.r >= bound2:
                return f"r >= K_Y^2 + 1 + 4*A^2*p^2 - 4*(A.K_Y)*p = {bound2}"
        return None
    q = Fraction(2 * p + n - 1)
    bound1 = ctx.kY_sq + Fraction(1, n) - ctx.AK**2 / ctx.A_sq
    if not ctx.r >= bound1:
        return f"r >= K_Y^2 + 1/{n} - (A.K_Y)^2/A^2 = {bound1}"
    if q > ctx.AK / ctx.A_sq:
        bound2 = ctx.kY_sq + Fraction(1, n) + ctx.A_sq * q**2 - 2 * ctx.AK * q
        if not ctx.r >= bound2:
            return f"r >= K_Y^2 + 1/{n} + A^2*q^2 - 2*(A.K_Y)*q = {bound2}"
    return None


bounded_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=12)


class TestRCondition:
    @settings(max_examples=400, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12),
        bounded_rationals,
        bounded_rationals,
        st.integers(0, 40),
        st.integers(1, 6),
        st.integers(0, 6),
    )
    # the first bound failing at n = 2, and met with equality at n = 2 and at n = 1
    @example(Fraction(1), Fraction(2), Fraction(12), 5, 2, 0)
    @example(Fraction(1), Fraction(0), Fraction(15, 2), 8, 2, 0)
    @example(Fraction(1), Fraction(0), Fraction(7), 8, 1, 0)
    def test_matches_reference_bodies(self, a_sq, ak, k_sq, r, n, p):
        ctx = ThresholdContext(A_sq=a_sq, AK=ak, kY_sq=k_sq, r=r)
        assert check_conditions(ctx, n, p) == _reference_check_conditions(ctx, n, p)
        got = ctx.r_condition(n, 2 * p + n - 1)
        reference = _reference_curve_conditions(ctx, n, p)
        assert got.satisfied is (reference is None)
        if reference is None:
            return
        bound = Fraction(reference.rsplit("= ", 1)[1])
        strict = reference.startswith("r > ")
        if bound == got.bound:
            assert strict is got.strict
        else:
            # both bounds fail: the reference named the first, r_condition the binding one
            assert bound < got.bound and not got.strict
            assert got.q > ak / a_sq


class TestRayCertificate:
    def test_exceptional_curve(self):
        model = p2_blowup(12)
        s = s_threshold(ThresholdContext.from_model(model), 1)
        cert = ray_certificate(model, NegativeCurveRecord.from_class(model.exceptional(1)), s)
        assert cert.valid and cert.t0 == 1 and all(cert.checks.values())
        assert sign(intersect(cert.alpha, cert.alpha)) == 0

    def test_line_type_curve_at_rational_threshold(self):
        model = p2_blowup(17)
        s = s_threshold(ThresholdContext.from_model(model), 1)
        curve = NegativeCurveRecord.from_class(
            model.pullback([1]) - model.exceptional(1) - model.exceptional(2)
        )
        cert = ray_certificate(model, curve, s)
        assert cert.valid
        assert cert.t0 == make_scalar(2, 1, 3)

    def test_condition_violation_named(self):
        # genus-1 class 3H - E_1 - ... - E_10 at r = 10 needs r >= 26
        model = p2_blowup(10)
        cubic = model.pullback([3])
        for i in range(1, 11):
            cubic = cubic - model.exceptional(i)
        record = NegativeCurveRecord.from_class(cubic)
        assert record.genus == 1
        s = s_threshold(ThresholdContext.from_model(model), 1)
        cert = ray_certificate(model, record, s)
        assert not cert.valid
        assert "26" in cert.failing

    def test_wrong_threshold_rejected(self):
        model = p2_blowup(12)
        record = NegativeCurveRecord.from_class(model.exceptional(1))
        with pytest.raises(PreconditionError):
            ray_certificate(model, record, Fraction(1, 2))

    def test_alpha_on_the_boundary_of_the_positive_cone(self):
        model = p2_blowup(12)
        s = s_threshold(ThresholdContext.from_model(model), 1)
        for record in standard_minus_one_records(model)[:20]:
            cert = ray_certificate(model, record, s)
            assert cert.valid and cert.checks["alpha_in_positive_cone"]
            assert in_positive_cone(cert.alpha) is ConePosition.BOUNDARY
            assert sign(intersect(cert.alpha, model.line())) > 0

    def test_t0_at_least_one_over_n(self):
        surface = SurfaceModel(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(-3,), a_Y=(1,), kind="P2")
        model = BlowupModel(surface, 30)
        ctx = ThresholdContext.from_model(model)
        # (-2, 0): conic through 7 points 2H - E_1..E_7 wait (2H-sum_7 E)^2 = 4-7 = -3;
        # use H - E_1 - E_2 - E_3: square -2, genus 0
        cls = model.pullback([1])
        for i in (1, 2, 3):
            cls = cls - model.exceptional(i)
        record = NegativeCurveRecord.from_class(cls)
        assert record.self_int == -2
        s = s_threshold(ctx, 2)
        cert = ray_certificate(model, record, s, level=2)
        assert cert.valid
        assert compare(cert.t0, Fraction(1, 2)) >= 0

    def test_containment_monotonicity_by_rational_shift(self):
        # a witness at threshold s stays a positive-cone witness at s' > s
        # after the shift alpha' = alpha + (s' - s) L
        model = p2_blowup(17)
        s = s_threshold(ThresholdContext.from_model(model), 1)  # = 1, rational
        for record in standard_minus_one_records(model)[:10]:
            cert = ray_certificate(model, record, s)
            assert cert.valid
            for shift in (Fraction(1, 7), Fraction(2)):
                shifted = cert.alpha + shift * model.line()
                assert in_positive_cone(shifted) is not ConePosition.OUTSIDE
                rebuilt = cert.t0 * record.cls - (
                    model.canonical() - (s + shift) * model.line()
                )
                assert rebuilt == shifted


FIXTURES = (
    "abelian", "enriques", "k3_generic", "p2_r1", "p2_r9",
    "p2_r10", "p2_r11", "p2_r12", "p2_r17",
)


def per_curve_certificates(model, curves):
    ctx = ThresholdContext.from_model(model)
    return [
        ray_certificate(model, c, s_threshold(ctx, int(-c.self_int)), level=int(-c.self_int))
        for c in curves
    ]


def permute_e(divisor, perm):
    """sigma(divisor): the coordinate of E_(i+1) moves to E_(perm[i]+1)."""
    m = divisor.model.base.rank
    e_block = [None] * divisor.model.r
    for i, c in enumerate(divisor.coords[m:]):
        e_block[perm[i]] = c
    return DivisorClass(divisor.model, divisor.coords[:m] + tuple(e_block))


class TestCertifyList:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_per_curve_build_on_fixtures(self, name):
        doc = load_fixture(name)
        model = serialize.blowup_from_json(doc)
        curves = [serialize.curve_from_json(model, c) for c in doc["curves"]]
        try:
            expected = per_curve_certificates(model, curves)
        except ThresholdError as exc:
            with pytest.raises(ThresholdError, match=re.escape(str(exc))):
                certify_list(model, curves)
            return
        assert_same_certificates(certify_list(model, curves), expected)

    def test_invalid_orbit_members_copy_the_failure(self):
        doc = load_fixture("p2_r9")
        model = serialize.blowup_from_json(doc)
        curves = [serialize.curve_from_json(model, c) for c in doc["curves"]]
        certs = certify_list(model, curves)
        assert len({c.failing for c in certs}) == 1
        assert not any(c.valid for c in certs) and all(c.alpha is None for c in certs)

    @settings(max_examples=15, deadline=None)
    @given(st.permutations(range(17)))
    def test_permuted_list_gets_permuted_certificates(self, perm):
        model = p2_blowup(17)
        curves = levels_one_and_two(model)
        assert {c.self_int for c in curves} == {-1, -2}
        moved = [NegativeCurveRecord.from_class(permute_e(c.cls, perm)) for c in curves]
        expected = [
            dataclasses.replace(cert, curve=m, alpha=permute_e(cert.alpha, perm))
            for cert, m in zip(per_curve_certificates(model, curves), moved)
        ]
        got = certify_list(model, moved)
        assert_same_certificates(got, expected)
        assert all(c.valid for c in got)
        for cert in got:
            doc = serialize.ray_certificate_to_json(model, cert)
            assert serialize.verify_certificate(doc).ok

    def test_orbits_differing_only_in_base_coordinates(self):
        # (1, 1) - 2E_1 and (1, -1) - 2E_2 share square -4, genus 0, E-multiset
        # and C.L, but are not related by a permutation of the E_i
        surface = SurfaceModel(chi=2, kY_sq=0, gram_Y=((2, 0), (0, -2)), k_Y=(0, 0), a_Y=(1, 0))
        model = BlowupModel(surface, 19)
        curves = [
            NegativeCurveRecord.from_class(model.divisor([1, b] + [0] * i + [-2] + [0] * (18 - i)))
            for b, i in ((1, 0), (-1, 1))
        ]
        certs = certify_list(model, curves)
        assert all(c.valid for c in certs)
        assert_same_certificates(certs, per_curve_certificates(model, curves))

    def test_contracted_curve_raises_at_the_same_index(self):
        model = p2_blowup(17)
        e = model.exceptional
        classes = [e(1), e(2), model.pullback([1]) - e(1) - e(2), e(3) - e(4), e(5), e(4) - e(3)]
        curves = [NegativeCurveRecord.from_class(c) for c in classes]
        failed_at = None
        for i in range(len(curves)):
            try:
                per_curve_certificates(model, curves[i : i + 1])
            except PreconditionError as exc:
                failed_at, message = i, str(exc)
                break
        assert failed_at == 3
        assert len(certify_list(model, curves[:failed_at])) == failed_at
        with pytest.raises(PreconditionError, match=re.escape(message)):
            certify_list(model, curves)


class TestMonotonicity:
    def test_plane_r17(self):
        values = s_monotonicity(ctx_p2(17), 2)
        assert values[0] == 1
        assert values[1] == make_scalar(-3, 1, Fraction(33, 2))

    def test_increasing_up_to_five(self):
        values = s_monotonicity(ctx_p2(40), 5)
        for a, b in zip(values, values[1:]):
            assert compare(a, b) < 0

    def test_singleton(self):
        assert len(s_monotonicity(ctx_p2(11), 1)) == 1

    def test_radicand_failure_propagates(self):
        with pytest.raises(ThresholdError):
            s_monotonicity(ctx_p2(1), 1)


class TestPairingIdentity:
    def test_worked_example(self):
        assert k_minus_sl_h_negative(p2_blowup(10), Fraction(0), Fraction(1, 100)) == Fraction(-29, 10)

    def test_negative_for_small_delta(self):
        model = p2_blowup(12)
        s = s_threshold(ThresholdContext.from_model(model), 1)
        value = k_minus_sl_h_negative(model, s, Fraction(1, 24))
        assert sign(value) < 0

    def test_large_delta_flips_sign(self):
        value = k_minus_sl_h_negative(p2_blowup(10), Fraction(0), Fraction(1))
        assert sign(value) > 0  # -3 + 10 > 0: the delta rule prevents this regime

    def test_random_triples(self):
        rng = random.Random(11)
        done = 0
        while done < 100:
            g1 = rng.randint(1, 3)
            k1 = rng.choice([-5, -3, -1, 1, 3])
            a1 = rng.randint(1, 3)
            if (g1 + k1) % 2:
                continue
            try:
                surface = SurfaceModel(
                    chi=1, kY_sq=Fraction(k1 * k1 * g1), gram_Y=((g1,),),
                    k_Y=(k1,), a_Y=(a1,),
                )
            except Exception:
                continue
            n = rng.randint(1, 3)
            ctx0 = ThresholdContext(
                A_sq=surface.a_sq, AK=surface.a_dot_k, kY_sq=surface.kY_sq, r=0
            )
            r_min = surface.kY_sq + 1 - ctx0.AK**2 / ctx0.A_sq
            r = max(2, int(r_min) + 2) + rng.randint(0, 5)
            model = BlowupModel(surface, r)
            s = s_threshold(ThresholdContext.from_model(model), n)
            delta = Fraction(1, rng.randint(2, 100) * r)
            k_minus_sl_h_negative(model, s, delta)  # raises on identity mismatch
            done += 1


def v_pairing(x, s):
    """x.(K - sL) by the dense reference pairing."""
    return dense_intersect(x, x.model.canonical()) - s * dense_intersect(x, x.model.line())


def outside_the_lemma(x, s):
    """x.(K - sL) >= 0 and x outside Pos-bar, which is {x^2 >= 0, x.L >= 0} on the plane."""
    in_pos_bar = dense_intersect(x, x) >= 0 and dense_intersect(x, x.model.line()) >= 0
    return sign(v_pairing(x, s)) >= 0 and not in_pos_bar


class TestMainTheorem:
    def test_plane_r12_full_run(self):
        model = p2_blowup(12)
        curves = standard_minus_one_records(model)
        assert len(curves) == 78
        report = cone_equality_check(model, curves, 1, 0)
        assert report.passed
        assert report.s == make_scalar(-3, 1, 11)
        assert report.trapped == tuple(c.valid for c in certify_list(model, curves))
        assert report.trapped == (True,) * 78

    def test_conditions_checked_before_sampling(self):
        model = p2_blowup(9)
        with pytest.raises(ThresholdError):
            cone_equality_check(model, [], 1, 0)

    def test_out_of_bounds_curve_rejected(self):
        model = p2_blowup(30)
        cls = model.pullback([1])
        for i in (1, 2, 3):
            cls = cls - model.exceptional(i)
        record = NegativeCurveRecord.from_class(cls)  # a (-2, 0) class
        with pytest.raises(PreconditionError):
            cone_equality_check(model, [record], 1, 0)

    def test_mixed_levels_certified_at_own_thresholds(self):
        # (nu, pi) = (2, 1) on the plane needs r >= 9 + 1 + 9 + 18 = 37; each
        # curve is decided at its own s_n, and its certificate has s_n <= s_nu
        model = BlowupModel(p2_surface(), 37)
        records = [NegativeCurveRecord.from_class(model.exceptional(i)) for i in (1, 2)]
        cls = model.pullback([1])
        for i in (1, 2, 3):
            cls = cls - model.exceptional(i)
        records.append(NegativeCurveRecord.from_class(cls))
        report = cone_equality_check(model, records, 2, 1)
        assert report.passed
        assert report.thresholds == tuple(s_monotonicity(ThresholdContext.from_model(model), 2))
        certificates = certify_list(model, records)
        assert [c.level for c in certificates] == [1, 1, 2]
        assert report.trapped == tuple(c.valid for c in certificates) == (True,) * 3
        for cert in certificates:
            assert compare(cert.s, report.s) <= 0

    def test_deterministic_given_seed(self):
        model = p2_blowup(11)
        curves = standard_minus_one_records(model)
        a = cone_equality_check(model, curves, 1, 0)
        b = cone_equality_check(model, curves, 1, 0)
        assert a.passed and b.passed
        assert (a.thresholds, a.trapped) == (b.thresholds, b.trapped)

    @pytest.mark.parametrize("r, lo, hi", [(10, 3001, 3162), (12, 2764, 2886)])
    def test_lemma_on_the_generated_cone(self, r, lo, hi):
        # x = p + sum w_i C_i with p = L - sum m_i E_i, m_i in ((3 + s)/r, 1/sqrt(r)),
        # so p^2 > 0 and p.(K - sL) > 0, and w_i in {0, 1/1000}: with every
        # certificate valid, the lemma puts each x with x.(K - sL) >= 0 in Pos-bar
        model = p2_blowup(r)
        curves = standard_minus_one_records(model)
        report = cone_equality_check(model, curves, 1, 0)
        assert report.passed
        s, rng, tested = report.s, random.Random(r), 0
        # every m = k/10000 with lo <= k <= hi lies in that interval
        assert compare(r * Fraction(lo, 10000), 3 + s) > 0 and r * Fraction(hi, 10000) ** 2 < 1
        for _ in range(300):
            ms = [Fraction(rng.randint(lo, hi), 10000) for _ in range(r)]
            x = model.divisor([1] + [-m for m in ms])
            for record in curves:
                if rng.random() < 0.5:
                    x = x + Fraction(1, 1000) * record.cls
            tested += sign(v_pairing(x, s)) >= 0
            assert not outside_the_lemma(x, s)
        assert tested > 0

    def test_planted_lowered_threshold(self):
        # at s_1 - 2 the certificates no longer hold: the (-1)-curve L - E_1 - E_2
        # pairs to 4 - sqrt(11) > 0 with K - sL and has square -1
        model = p2_blowup(12)
        s = s_threshold(ThresholdContext.from_model(model), 1) - 2
        x = model.line() - model.exceptional(1) - model.exceptional(2)
        assert intersect(x, model.canonical() - s * model.line()) == make_scalar(4, -1, 11)
        assert outside_the_lemma(x, s)

    def test_zero_pairing_is_tested(self):
        # s_1 = 0 on the plane at r = 10, and L - 3E_1 meets K - s_1 L = K in 0
        # but has square -8, so the oracle flags it
        model = p2_blowup(10)
        assert s_threshold(ThresholdContext.from_model(model), 1) == 0
        x = model.line() - 3 * model.exceptional(1)
        assert intersect(x, model.canonical()) == 0
        assert outside_the_lemma(x, 0)


def certificate_outcome(model, record):
    """The builder's verdict on one curve at its own level, or its precondition text."""
    n = int(-record.self_int)
    s = s_threshold(ThresholdContext.from_model(model), n)
    try:
        return ray_certificate(model, record, s, level=n).valid
    except PreconditionError as exc:
        return str(exc)


def lemma_outcome(model, record):
    """``cone_equality_check``'s verdict on one curve, at (nu, pi) its own type, or its text."""
    n, p = int(-record.self_int), int(record.genus)
    try:
        return cone_equality_check(model, [record], n, p).trapped[0]
    except PreconditionError as exc:
        return str(exc)


# (surface fields, a_Y choices): integral a_Y and a_Y with denominators 2 and 3
DIFFERENTIAL_BASES = [
    (dict(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(-3,)), [(1,), (Fraction(1, 2),), (Fraction(1, 3),)]),
    (
        dict(chi=2, kY_sq=0, gram_Y=((4, 1), (1, -2)), k_Y=(0, 0)),
        [(1, 0), (Fraction(1, 2), 0), (1, Fraction(1, 3))],
    ),
    (dict(chi=2, kY_sq=0, gram_Y=((2,),), k_Y=(0,)), [(1,), (Fraction(1, 2),), (Fraction(2, 3),)]),
    (
        dict(chi=1, kY_sq=0, gram_Y=((0, 1), (1, 0)), k_Y=(0, 0)),
        [(1, 1), (Fraction(1, 2), 1), (1, Fraction(1, 3))],
    ),
]


# a_Y with A^2 <= 1/(4r) at every admissible r: h = L - delta*sum E_i needs delta < 1/(2r)
SMALL_A_BASES = [
    (dict(chi=1, kY_sq=9, gram_Y=((1,),), k_Y=(-3,)), [(Fraction(1, 10),), (Fraction(1, 20),)]),
    (dict(chi=2, kY_sq=0, gram_Y=((2,),), k_Y=(0,)), [(Fraction(1, 10),)]),
    (
        dict(chi=1, kY_sq=0, gram_Y=((0, 1), (1, 0)), k_Y=(0, 0)),
        [(Fraction(1, 10), Fraction(1, 9))],
    ),
]


def draw_curve(rng, bases=DIFFERENTIAL_BASES):
    """A random integral class of type (n, p), n <= 4, p <= 3, at an r where (n, p) is admissible.

    r starts at the combined condition's bound, where s_n can equal q, and
    the E-block may be positive, so C.L < 0 and contracted classes occur.
    """
    spec, a_choices = rng.choice(bases)
    gram, k_y = spec["gram_Y"], spec["k_Y"]
    base = [rng.randint(-3, 3) for _ in gram]
    e_block = [rng.choice((-3, -2, -1, -1, 0, 0, 1)) for _ in range(rng.randint(0, 6))]

    def pair(x, y):
        return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))

    square = pair(base, base) - sum(e * e for e in e_block)
    c_dot_k = pair(base, k_y) - sum(e_block)
    n, p = -square, (square + c_dot_k) // 2 + 1
    if not (1 <= n <= 4 and 0 <= p <= 3):
        return None
    surface = SurfaceModel(a_Y=rng.choice(a_choices), **spec)
    condition = ThresholdContext.from_model(BlowupModel(surface, 0)).r_condition(1, 2 * p + n - 1)
    r = max(len(e_block), math.ceil(condition.bound) + condition.strict) + rng.randint(0, 3)
    if not 1 <= r <= 60:
        return None
    model = BlowupModel(surface, r)
    coords = base + e_block + [0] * (r - len(e_block))
    return model, NegativeCurveRecord.from_class(model.divisor(coords))


def k3_reproducer():
    """The K3 input on which the builder crashes: the pullback of a (-2)-curve and E_1..E_3."""
    doc = json.loads((DATA / "k3_minus_two_curve_r37.json").read_text())
    model = serialize.blowup_from_json(doc)
    return model, [serialize.curve_from_json(model, c) for c in doc["curves"]]


def quadric_canonical():
    """K_X on P1xP1 blown up at 9 points, a (-1)-class of genus 0."""
    surface = SurfaceModel(chi=1, kY_sq=8, gram_Y=((0, 1), (1, 0)), k_Y=(-2, -2), a_Y=(1, 1))
    model = BlowupModel(surface, 9)
    return model, NegativeCurveRecord.from_class(model.canonical())


class TestDecidedByTheLemma:
    """``cone_equality_check`` decides each curve by u <= -1; ``ray_certificate`` is the oracle."""

    @pytest.mark.parametrize("name", ["p2_r10", "p2_r12", "p2_r17", "k3_generic"])
    def test_builds_no_certificate(self, monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError("cone_equality_check built a certificate")

        monkeypatch.setattr(thresholds, "certify_list", refuse)
        monkeypatch.setattr(thresholds, "ray_certificate", refuse)
        doc = load_fixture(name)
        model = serialize.blowup_from_json(doc)
        curves = [serialize.curve_from_json(model, c) for c in doc["curves"]]
        bounds = segre_bounds(model.base.chi)
        report = cone_equality_check(model, curves, bounds.nu, bounds.pi)
        assert report.passed and len(report.trapped) == len(curves)

    def test_contracted_curve_raises_at_the_same_index(self):
        model = p2_blowup(17)
        e = model.exceptional
        classes = [e(1), model.pullback([1]) - e(1) - e(2), e(3) - e(4), e(5), e(4) - e(3)]
        curves = [NegativeCurveRecord.from_class(c) for c in classes]
        with pytest.raises(PreconditionError) as expected:
            certify_list(model, curves)
        assert cone_equality_check(model, curves[:2], 2, 0).trapped == (True, True)
        with pytest.raises(PreconditionError, match=f"^{re.escape(str(expected.value))}$"):
            cone_equality_check(model, curves, 2, 0)

    def test_k_x_on_the_quadric_at_r9(self):
        # C.L = A.K_Y = -4 < 0 forces s_1 = 0 and t0 = 1, so alpha = C - K = 0
        model, record = quadric_canonical()
        assert record.dot(model.line()) == -4
        cert = ray_certificate(model, record, Fraction(0), level=1)
        assert cert.valid and cert.alpha.is_zero()
        assert lemma_outcome(model, record) is True

    def test_backward_alpha_is_not_trapped(self):
        # C = K - f with f = 3L - E_1 - ... - E_9 null and K-orthogonal at r = 10:
        # u = C.K = -1, but alpha = C - K = -f has alpha.L = C.L - A.K_Y = -3 < 0
        model = p2_blowup(10)
        record = NegativeCurveRecord.from_class(model.divisor([-6] + [2] * 9 + [1]))
        assert (record.self_int, record.genus, record.dot(model.line())) == (-1, 0, -6)
        assert certificate_outcome(model, record) is False
        assert lemma_outcome(model, record) is False
        # with a_Y = 1/10, A^2 = 1/100 < 1/(4r): h = L - sum E_i/20 has h^2 < 0 and pairs
        # nonnegatively with this backward alpha, which alpha.L < 0 puts outside the cone
        surface = dataclasses.replace(p2_surface(), a_Y=(Fraction(1, 10),))
        model = BlowupModel(surface, 10)
        record = NegativeCurveRecord.from_class(model.divisor([-6] + [2] * 9 + [1]))
        alpha = record.cls - model.canonical()
        assert intersect(alpha, model.line()) == Fraction(-3, 10)
        assert sign(intersect(alpha, model.ample_h(Fraction(1, 20)))) >= 0
        assert in_positive_cone(alpha) is ConePosition.OUTSIDE
        assert certificate_outcome(model, record) is False
        assert lemma_outcome(model, record) is False

    def test_decided_once_per_type(self, monkeypatch):
        # p2_r17's 153 curves are E_i and L - E_i - E_j: two values of (n, p, C.L, E_i or not)
        doc = load_fixture("p2_r17")
        model = serialize.blowup_from_json(doc)
        curves = serialize._curves_from_json(model, doc["curves"])
        bounds = segre_bounds(model.base.chi)
        calls = []
        monkeypatch.setattr(thresholds, "compare", lambda x, y: calls.append(x) or compare(x, y))
        report = cone_equality_check(model, curves, bounds.nu, bounds.pi)
        assert report.passed and len(report.trapped) == 153
        assert len(calls) - (bounds.nu - 1) == 2  # s_monotonicity compares nu - 1 pairs

    def test_types_apart_by_c_dot_l(self):
        # L - E_1 - E_2 and the backward class above share (n, p) = (1, 0) and neither is
        # an E_i; only their C.L, 1 and -6, sets their verdicts apart
        model = p2_blowup(10)
        e = model.exceptional
        classes = [model.pullback([1]) - e(1) - e(2), model.divisor([-6] + [2] * 9 + [1])]
        curves = [NegativeCurveRecord.from_class(c) for c in classes]
        report = cone_equality_check(model, curves + curves[:1], 1, 0)
        assert report.trapped == (True, False, True)

    def test_first_contracted_curve_raises(self, monkeypatch):
        model = p2_blowup(17)
        e = model.exceptional
        classes = [e(1), e(3) - e(4), model.pullback([1]) - e(1) - e(2), e(6) - e(5)]
        curves = [NegativeCurveRecord.from_class(c) for c in classes]
        checked = []
        original = thresholds._require_not_contracted
        monkeypatch.setattr(
            thresholds,
            "_require_not_contracted",
            lambda record, d: checked.append(record) or original(record, d),
        )
        with pytest.raises(PreconditionError, match="^contracted curve is not exceptional"):
            cone_equality_check(model, curves, 2, 0)
        assert checked == curves[:2]

    def test_contracted_curve_of_an_exceptional_type(self):
        # a base (-1)-class y with A.y = 0 has the type (1, 0) and the C.L = 0 of an E_i but
        # is not one, so it does not share E_1's verdict: the check raises at it
        surface = SurfaceModel(chi=1, kY_sq=8, gram_Y=((1, 0), (0, -1)), k_Y=(-3, 1), a_Y=(1, 0))
        model = BlowupModel(surface, 10)
        classes = [model.exceptional(1), model.pullback([0, 1])]
        curves = [NegativeCurveRecord.from_class(c) for c in classes]
        assert (curves[1].self_int, curves[1].genus, curves[1].dot(model.line())) == (-1, 0, 0)
        assert cone_equality_check(model, curves[:1], 1, 0).passed
        with pytest.raises(PreconditionError, match="^contracted curve is not exceptional"):
            cone_equality_check(model, curves, 1, 0)

    def test_verdict_equals_the_certificate(self):
        rng = random.Random(19)
        compared = untrapped = raised = skipped = 0
        drawn = [draw_curve(rng) for _ in range(20000)]
        model, curves = k3_reproducer()
        drawn += [(model, c) for c in curves] + [quadric_canonical()]
        for entry in filter(None, drawn):
            model, record = entry
            try:
                expected = certificate_outcome(model, record)
            except MixedRadicandError:
                skipped += 1
                continue
            assert lemma_outcome(model, record) == expected, (model, record.cls.coords)
            compared += 1
            untrapped += expected is False
            raised += isinstance(expected, str)
        assert compared >= 1500 and untrapped >= 1 and raised >= 1 and skipped >= 1

    def test_verdict_equals_the_certificate_below_a_quarter_r(self):
        rng = random.Random(20)
        compared = untrapped = 0
        drawn = [draw_curve(rng, SMALL_A_BASES) for _ in range(3000)]
        # |C.L| <= 3/10 on the drawn P2 classes; this one has C.L = -6/10 < A.K_Y
        model = BlowupModel(dataclasses.replace(p2_surface(), a_Y=(Fraction(1, 10),)), 10)
        drawn.append((model, NegativeCurveRecord.from_class(model.divisor([-6] + [2] * 9 + [1]))))
        for entry in filter(None, drawn):
            model, record = entry
            assert model.base.a_sq <= Fraction(1, 4 * model.r)
            try:
                expected = certificate_outcome(model, record)
            except MixedRadicandError:
                continue
            assert lemma_outcome(model, record) == expected, (model, record.cls.coords)
            compared += 1
            untrapped += expected is False
        assert compared >= 200 and untrapped >= 1


def h_rule(alpha):
    """The h-rule for a null alpha: alpha.h >= 0 for h = L - delta*sum E_i.

    delta = A^2/(A^2 + r) has r*delta^2 = A^2 * r*A^2/(A^2 + r)^2 < A^2, so h
    lies inside the positive cone.
    """
    model = alpha.model
    delta = model.base.a_sq / (model.base.a_sq + model.r)
    assert model.r * delta * delta < model.base.a_sq
    return sign(intersect(alpha, model.ample_h(delta))) >= 0


def built_alphas(model, curves):
    """The alpha of every ray certificate and strict-inclusion witness built on the input."""
    alphas = []
    try:
        alphas += [cert.alpha for cert in certify_list(model, curves) if cert.alpha is not None]
    except ThresholdError:
        pass  # r is below the bound for the list's levels: no certificate is built
    # D_t(s) is 0 at s_1 and A^2 at A.K_Y/A^2 + 1, so this alpha is always null
    alphas.append(alpha_from_s(model, witness_parameter(model), 1).alpha)
    return alphas


FORWARDNESS_INPUTS = {
    **{name: functools.partial(load_fixture, name) for name in (
        "abelian", "enriques", "k3_generic", "p2_r1", "p2_r9", "p2_r10", "p2_r11", "p2_r12",
        "p2_r17",
    )},
    "backward_alpha_r10": lambda: json.loads((DATA / "p2_backward_alpha_r10.json").read_text()),
    # A^2 = 1/64 = 1/(4r): delta = 1/(2r) would put h on the null cone
    "eighth_plane_r16": lambda: {
        "surface": dict(load_fixture("p2_r10")["surface"], a_Y=["1/8"]),
        "r": 16,
        "curves": [{"coords": [1, -1, -1] + [0] * 14}],
    },
}


class TestForwardnessRules:
    """``alpha_in_positive_cone`` against the h-rule of ``h_rule`` on null classes.

    h^2 = A^2 - r*delta^2 > 0 and h.L = A^2 > 0 put h inside Pos, and L^perp is
    negative definite, so a null alpha pairs nonnegatively with h exactly when
    alpha.L >= 0: the two rules agree on every null class.
    """

    @pytest.mark.parametrize("name", sorted(FORWARDNESS_INPUTS))
    def test_built_alphas_and_their_negatives(self, name):
        parsed = cli._parse(FORWARDNESS_INPUTS[name](), ())
        model, curves = parsed.model, parsed.curves
        alphas = built_alphas(model, curves)
        verdicts = set()
        for alpha in alphas + [-alpha for alpha in alphas]:
            assert sign(intersect(alpha, alpha)) == 0
            new = in_positive_cone(alpha) is not ConePosition.OUTSIDE
            assert new == h_rule(alpha), alpha.coords
            verdicts.add(new)
        assert verdicts == ({True, False} if alphas else set())

    def test_seeded_ray_alphas(self):
        rng = random.Random(22)
        compared = 0
        drawn = [draw_curve(rng) for _ in range(6000)]
        drawn += [draw_curve(rng, SMALL_A_BASES) for _ in range(3000)]
        for entry in filter(None, drawn):
            model, record = entry
            n = int(-record.self_int)
            s = s_threshold(ThresholdContext.from_model(model), n)
            try:
                cert = ray_certificate(model, record, s, level=n)
            except (PreconditionError, MixedRadicandError):
                continue
            if cert.alpha is None:
                continue
            for alpha in (cert.alpha, -cert.alpha):
                new = in_positive_cone(alpha) is not ConePosition.OUTSIDE
                assert new == h_rule(alpha), (model, record.cls.coords)
            compared += 1
        assert compared >= 300


class TestCurveLevel:
    """A curve whose C^2 is not an integer has no level n = -C^2 and no threshold."""

    def setup_method(self):
        # gram_Y [[1/2]] at r = 12: L - E_1 - E_2 has C^2 = -3/2 and genus 1
        self.model, curves = half_gram(12)
        self.curve = curves[12]
        assert (self.curve.self_int, self.curve.genus) == (Fraction(-3, 2), 1)

    def test_main_theorem_check(self):
        assert check_conditions(ThresholdContext.from_model(self.model), 2, 1).satisfied
        with pytest.raises(PreconditionError, match="self-intersection -3/2 is not an integer"):
            cone_equality_check(self.model, [self.curve], 2, 1)

    def test_certify_list(self):
        exceptional = NegativeCurveRecord.from_class(self.model.exceptional(1))
        assert certify_list(self.model, [exceptional])[0].valid
        with pytest.raises(PreconditionError, match="self-intersection -3/2 is not an integer"):
            certify_list(self.model, [exceptional, self.curve])

    @pytest.mark.parametrize("level", [1, 2])
    def test_ray_certificate(self, level):
        s = s_threshold(ThresholdContext.from_model(self.model), level)
        with pytest.raises(PreconditionError, match="self-intersection -3/2 is not an integer"):
            ray_certificate(self.model, self.curve, s, level=level)


class TestThresholdSliceMonotonicity:
    def test_classes_on_k_sl_perp_stay_nonnegative_at_smaller_t(self):
        # gamma.L >= 0 and gamma.(K - sL) = 0 force gamma.(K - tL) >= 0 for t <= s
        model = p2_blowup(17)
        ctx = ThresholdContext.from_model(model)
        s = s_threshold(ctx, 2)
        t = s_threshold(ctx, 1)  # = 1 < s
        assert compare(t, s) < 0
        line = model.line()
        k_sl = model.canonical() - s * line
        scale = intersect(line, k_sl)
        rng = random.Random(13)
        for _ in range(50):
            base = model.divisor([Fraction(rng.randint(-3, 3)) for _ in range(model.rank)])
            gamma = base - (intersect(base, k_sl) / scale) * line
            assert sign(intersect(gamma, k_sl)) == 0
            if sign(intersect(gamma, line)) < 0:
                gamma = -gamma
            assert sign(intersect(gamma, model.canonical() - t * line)) >= 0
