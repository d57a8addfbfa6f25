"""Thresholds, r-conditions, ray certificates, and the cone-equality sampler."""

import dataclasses
import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    abelian_surface,
    dense_intersect,
    half_gram,
    k3_surface,
    levels_one_and_two,
    p2_blowup,
    p2_surface,
    standard_minus_one_records,
)
from surface_cones import serialize, thresholds
from surface_cones.cli import load_fixture
from surface_cones.cones import ConePosition, in_positive_cone
from surface_cones.errors import InternalConsistencyError, PreconditionError, ThresholdError
from surface_cones.lattice import BlowupModel, DivisorClass, SurfaceModel, intersect
from surface_cones.scalar import (
    as_fraction,
    compare,
    exact_sqrt,
    is_rational,
    make_scalar,
    sign,
    sqrt_scalar,
)
from surface_cones.segre import segre_bounds
from surface_cones.thresholds import (
    ConditionCheck,
    SampledCounterexample,
    ThresholdContext,
    certify_list,
    check_conditions,
    choose_positive_delta,
    k_minus_sl_h_negative,
    main_theorem_check,
    ray_certificate,
    s_monotonicity,
    s_threshold,
)
from surface_cones.zariski import NegativeCurveRecord


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

    def test_alpha_h_strictly_positive_with_chosen_delta(self):
        model = p2_blowup(12)
        s = s_threshold(ThresholdContext.from_model(model), 1)
        for record in standard_minus_one_records(model)[:20]:
            cert = ray_certificate(model, record, s)
            assert cert.valid
            h = model.ample_h(cert.delta)
            assert sign(intersect(cert.alpha, h)) > 0

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


def assert_same_certificates(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in dataclasses.fields(a):
            assert getattr(a, field.name) == getattr(b, field.name), field.name


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


class TestMainTheorem:
    def test_plane_r12_full_run(self):
        model = p2_blowup(12)
        curves = standard_minus_one_records(model)
        assert len(curves) == 78
        report = main_theorem_check(model, curves, 1, 0, samples=200, seed=0)
        assert report.passed
        assert report.s == make_scalar(-3, 1, 11)
        assert all(c.valid for c in report.certificates)
        assert report.counterexamples == ()

    def test_conditions_checked_before_sampling(self):
        model = p2_blowup(9)
        with pytest.raises(ThresholdError):
            main_theorem_check(model, [], 1, 0, samples=10, seed=0)

    def test_out_of_bounds_curve_rejected(self):
        model = p2_blowup(30)
        cls = model.pullback([1])
        for i in (1, 2, 3):
            cls = cls - model.exceptional(i)
        record = NegativeCurveRecord.from_class(cls)  # a (-2, 0) class
        with pytest.raises(PreconditionError):
            main_theorem_check(model, [record], 1, 0, samples=10, seed=0)

    def test_mixed_levels_certified_at_own_thresholds(self):
        # (nu, pi) = (2, 1) on the plane needs r >= 9 + 1 + 9 + 18 = 37;
        # each curve is certified at its own s_n with s_n <= s_nu verified
        model = BlowupModel(p2_surface(), 37)
        records = [NegativeCurveRecord.from_class(model.exceptional(i)) for i in (1, 2)]
        cls = model.pullback([1])
        for i in (1, 2, 3):
            cls = cls - model.exceptional(i)
        records.append(NegativeCurveRecord.from_class(cls))
        report = main_theorem_check(model, records, 2, 1, samples=50, seed=3)
        assert report.passed
        assert [c.level for c in report.certificates] == [1, 1, 2]
        for cert in report.certificates:
            assert compare(cert.s, report.s) <= 0

    def test_deterministic_given_seed(self):
        model = p2_blowup(11)
        curves = standard_minus_one_records(model)
        a = main_theorem_check(model, curves, 1, 0, samples=25, seed=9)
        b = main_theorem_check(model, curves, 1, 0, samples=25, seed=9)
        assert a.counterexamples == b.counterexamples == ()
        assert [c.alpha for c in a.certificates] == [c.alpha for c in b.certificates]

    def test_counterexample_reported_once_per_sample(self, monkeypatch):
        # -L pairs to sqrt(11) > 0 with K - s_1 L on the plane at r = 12 and
        # has (-L).L < 0, so every draw is a counterexample when it is the boundary class
        model = p2_blowup(12)
        outside = -model.line()
        s = s_threshold(ThresholdContext.from_model(model), 1)
        assert sign(intersect(outside, model.canonical() - s * model.line())) == 1
        assert in_positive_cone(outside) is ConePosition.OUTSIDE
        # the boundary step of every draw returns -L with its pairings with L and K
        boundary = (intersect(outside, model.line()), intersect(outside, model.canonical()))
        monkeypatch.setattr(
            thresholds, "_boundary_draw", lambda model: lambda rng: (*boundary, lambda: outside)
        )
        report = main_theorem_check(model, [], 1, 0, samples=7, seed=2)
        expected = SampledCounterexample(coords=outside.coords, pairing_sign=1)
        assert report.counterexamples == (expected,) * 7
        assert not report.passed

    def test_zero_pairing_is_tested(self, monkeypatch):
        # s_1 = 0 on the plane at r = 10, and L - 3E_1 meets K - s_1 L = K in 0
        # but has square -8, so a draw that is this class is a counterexample
        model = p2_blowup(10)
        assert s_threshold(ThresholdContext.from_model(model), 1) == 0
        x = model.line() - 3 * model.exceptional(1)
        boundary = (intersect(x, model.line()), intersect(x, model.canonical()))
        assert boundary[1] == 0
        monkeypatch.setattr(
            thresholds, "_boundary_draw", lambda model: lambda rng: (*boundary, lambda: x)
        )
        report = main_theorem_check(model, [], 1, 0, samples=3, seed=0)
        expected = SampledCounterexample(coords=x.coords, pairing_sign=0)
        assert report.counterexamples == (expected,) * 3


def _reference_boundary_class(model, rng):
    """Reference boundary draw: searches for the null base on every call."""
    base = None
    for k in range(1, model.r + 1):
        c = exact_sqrt(Fraction(k) / model.base.a_sq)
        if c is not None and is_rational(c):
            coords = list(c * v for v in model.base.a_Y)
            coords += [Fraction(-1)] * k + [Fraction(0)] * (model.r - k)
            base = model.divisor(coords)
            break
    if base is None:
        return model.line()
    for _ in range(32):
        direction = model.divisor(
            [Fraction(rng.randint(-3, 3)) for _ in range(model.rank)]
        )
        d_sq = dense_intersect(direction, direction)
        if sign(d_sq) == 0:
            continue
        t = -2 * dense_intersect(base, direction) / d_sq
        x = base + t * direction
        if x.is_zero():
            continue
        x_dot_l = sign(dense_intersect(x, model.line()))
        if x_dot_l < 0:
            x = -x
        elif x_dot_l == 0:
            continue
        return x
    return base


def reference_draw(model, curves, s, rng):
    """Reference sample: each weighted curve added in Fractions, one pairing with K - sL."""
    coords = list(_reference_boundary_class(model, rng).coords)
    for record in curves:
        weight = rng.randint(0, 10)
        if weight:
            for idx, v in enumerate(record.cls.coords):
                if v:
                    coords[idx] += weight * v
    gamma = model.divisor(coords)
    return gamma, sign(dense_intersect(gamma, model.canonical() - s * model.line()))


def k3_sextic(r):
    """K3 with H^2 = 6, not a square: the null base exists only for r >= 6.

    The curves are the E_i and, for r >= 7, the genus-4 class H - E_1 - ... - E_7.
    """
    model = BlowupModel(k3_surface(6), r)
    records = [NegativeCurveRecord.from_class(model.exceptional(i)) for i in range(1, r + 1)]
    if r >= 7:
        cls = model.pullback([1])
        for i in range(1, 8):
            cls = cls - model.exceptional(i)
        records.append(NegativeCurveRecord.from_class(cls))
    return model, records


@functools.lru_cache(maxsize=None)
def draw_case(name):
    if name.startswith("k3_sextic_r"):
        model, curves = k3_sextic(int(name.rpartition("r")[2]))
    elif name.startswith("half_gram_r"):
        model, curves = half_gram(int(name.rpartition("r")[2]))
    else:
        doc = load_fixture(name)
        model = serialize.blowup_from_json(doc)
        curves = [serialize.curve_from_json(model, c) for c in doc["curves"]]
    return model, curves


class CountingRandom(random.Random):
    """A ``random.Random`` that records the bounds of every ``randint`` call."""

    def __init__(self, seed):
        self.bounds = []
        super().__init__(seed)

    def randint(self, a, b):
        self.bounds.append((a, b))
        return super().randint(a, b)


class TestSampleDraw:
    """``_sample_draw`` against the Fraction-sum draw it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(
            ["p2_r10", "p2_r12", "p2_r17", "k3_generic", "k3_sextic_r8", "k3_sextic_r5",
             "half_gram_r6"]
        ),
        level=st.integers(1, 2),
        shift=st.integers(-60, 4),
        seed=st.integers(0, 2**64),
    )
    @example(name="p2_r10", level=1, shift=0, seed=0)  # s_1 = 0 is rational
    @example(name="p2_r12", level=1, shift=-60, seed=0)  # the pairing is positive
    def test_matches_reference_draw(self, name, level, shift, seed):
        # s = s_level + shift/2: the thresholds give negative pairings, a shift
        # far enough down makes them positive
        model, curves = draw_case(name)
        s = s_threshold(ThresholdContext.from_model(model), level) + Fraction(shift, 2)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        pairing, build = thresholds._sample_draw(model, curves, s)(rng)
        ref_gamma, ref_pairing = reference_draw(model, curves, s, ref_rng)
        assert pairing == ref_pairing
        # gamma is built lazily, whatever the pairing; a draw decided from x alone
        # draws its weights when it is first built
        gamma = build()
        assert all(type(c) is Fraction for c in gamma.coords)
        assert gamma.coords == ref_gamma.coords
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("name", ["half_gram_r6", "abelian"])
    def test_matches_reference_on_fixed_seeds(self, name):
        # non-integral Gram rows, and a Y-block of rank 2, with pairings of both signs
        model, curves = draw_case(name)
        boundary = thresholds._boundary_draw(model)
        for seed in range(40):
            x_l, x_k, x = boundary(random.Random(seed))
            assert (x_l, x_k) == (intersect(x(), model.line()), intersect(x(), model.canonical()))
        s_1 = s_threshold(ThresholdContext.from_model(model), 1)
        pairings = set()
        for s in (s_1, s_1 - 20):
            draw = thresholds._sample_draw(model, curves, s)
            for seed in range(40):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                pairing, build = draw(rng)
                ref_gamma, ref_pairing = reference_draw(model, curves, s, ref_rng)
                assert (pairing, build().coords) == (ref_pairing, ref_gamma.coords)
                assert rng.random() == ref_rng.random()
                pairings.add(pairing)
        assert pairings == {-1, 1}

    def test_fallback_to_line_draws_nothing(self):
        model = BlowupModel(k3_surface(6), 5)
        assert thresholds._null_base(model) is None
        rng = random.Random(4)
        x_l, x_k, x = thresholds._boundary_draw(model)(rng)
        assert x() == model.line()
        assert (x_l, x_k) == (intersect(x(), model.line()), intersect(x(), model.canonical()))
        assert rng.random() == random.Random(4).random()

    def test_fallback_to_base_after_32_redraws(self):
        class ZeroDirections:
            """Draws d = 0, so d^2 = 0 on every try."""

            calls = 0

            def randint(self, a, b):
                self.calls += 1
                return 0

        model, _ = draw_case("p2_r12")
        rng, ref_rng = ZeroDirections(), ZeroDirections()
        x_l, x_k, x = thresholds._boundary_draw(model)(rng)
        assert x() == thresholds._null_base(model) == _reference_boundary_class(model, ref_rng)
        assert (x_l, x_k) == (intersect(x(), model.line()), intersect(x(), model.canonical()))
        assert rng.calls == ref_rng.calls == 32 * model.rank

    def test_only_nonnegative_pairings_are_tested(self, monkeypatch):
        # s = s_1 - 3/2 on p2_r12: 21 of the 40 draws pair nonnegatively with K - sL
        model, curves = draw_case("p2_r12")
        shift = Fraction(3, 2)
        original = thresholds.s_threshold
        monkeypatch.setattr(thresholds, "s_threshold", lambda ctx, n: original(ctx, n) - shift)
        tested = []

        def counting(gamma):
            tested.append(gamma)
            return in_positive_cone(gamma)

        monkeypatch.setattr(thresholds, "in_positive_cone", counting)
        samples, seed = 40, 5
        report = main_theorem_check(model, curves, 1, 0, samples=samples, seed=seed)
        s = original(ThresholdContext.from_model(model), 1) - shift
        assert report.s == s
        draws = [
            reference_draw(model, curves, s, random.Random(seed * 1_000_003 + k))
            for k in range(samples)
        ]
        expected = [gamma for gamma, pairing in draws if pairing >= 0]
        assert 0 < len(expected) < samples
        assert tested == expected

    @pytest.mark.parametrize("name", ["p2_r10", "p2_r12", "k3_generic", "p2_r17"])
    def test_negative_boundary_class_defers_the_weights(self, name):
        # at s_nu every listed curve pairs to <= -1 with K - sL, and so does x on
        # every draw: the draw is decided from x alone, and build() draws the
        # weights once, in list order, as the reference does
        model, curves = draw_case(name)
        s = s_threshold(ThresholdContext.from_model(model), segre_bounds(model.base.chi).nu)
        v = model.canonical() - s * model.line()
        assert all(compare(record.dot(v), -1) <= 0 for record in curves)
        draw = thresholds._sample_draw(model, curves, s)
        for seed in range(50):
            rng, ref_rng = CountingRandom(seed), random.Random(seed)
            pairing, build = draw(rng)
            assert pairing == -1
            assert (0, 10) not in rng.bounds
            boundary_calls = len(rng.bounds)
            gamma = build()
            assert rng.bounds[boundary_calls:] == [(0, 10)] * len(curves)
            assert build() == gamma
            assert len(rng.bounds) == boundary_calls + len(curves)
            ref_gamma, ref_pairing = reference_draw(model, curves, s, ref_rng)
            assert (pairing, gamma.coords) == (ref_pairing, ref_gamma.coords)
            assert rng.random() == ref_rng.random()

    def test_positive_curve_lifts_a_negative_boundary_class(self, monkeypatch):
        # s = s_1 - 2 = -2 on the plane at r = 10: x = E_3 pairs to -1 with K - sL,
        # C = L - E_1 - E_2 to +1, so x + w*C pairs to w - 1 and is tested for
        # w >= 1; it has square -1 - w^2 and is a counterexample each time
        model = p2_blowup(10)
        original = thresholds.s_threshold
        monkeypatch.setattr(thresholds, "s_threshold", lambda ctx, n: original(ctx, n) - 2)
        x = model.exceptional(3)
        curve = NegativeCurveRecord.from_class(
            model.line() - model.exceptional(1) - model.exceptional(2)
        )
        v = model.canonical() + 2 * model.line()
        assert (intersect(x, v), curve.dot(v)) == (-1, 1)
        boundary = (intersect(x, model.line()), intersect(x, model.canonical()))
        monkeypatch.setattr(
            thresholds, "_boundary_draw", lambda model: lambda rng: (*boundary, lambda: x)
        )
        samples, seed = 30, 3
        report = main_theorem_check(model, [curve], 1, 0, samples=samples, seed=seed)
        assert report.s == -2
        weights = [random.Random(seed * 1_000_003 + k).randint(0, 10) for k in range(samples)]
        expected = [
            SampledCounterexample(coords=(x + w * curve.cls).coords, pairing_sign=sign(w - 1))
            for w in weights
            if w >= 1
        ]
        assert 0 < len(expected) < samples
        assert {c.pairing_sign for c in expected} == {0, 1}
        assert report.counterexamples == tuple(expected)


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
            main_theorem_check(self.model, [self.curve], 2, 1, samples=5, seed=0)

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


class TestDeltaChooser:
    def test_cap_respected(self):
        model = p2_blowup(12)
        s = s_threshold(ThresholdContext.from_model(model), 1)
        alpha = model.exceptional(1) - (model.canonical() - s * model.line())
        delta = choose_positive_delta(alpha, Fraction(1, 24))
        assert delta is not None and delta <= Fraction(1, 24)

    def test_hopeless_direction_returns_none(self):
        model = p2_blowup(2)
        bad = -model.line()
        assert choose_positive_delta(bad, Fraction(1, 4)) is None

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_exactly_k_halvings(self, k):
        model = p2_blowup(2)
        cap = Fraction(1, 4)
        # alpha.(L - delta*(E_1 + E_2)) = cap/2^k - delta: negative until delta = cap/2^k
        alpha = model.divisor([cap / 2**k, -1, 0])
        assert choose_positive_delta(alpha, cap) == cap / 2**k

    @pytest.mark.parametrize("cap", [Fraction(0), Fraction(-1, 4)])
    def test_nonpositive_cap_rejected(self, cap):
        with pytest.raises(PreconditionError):
            choose_positive_delta(p2_blowup(2).line(), cap)
