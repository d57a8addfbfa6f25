"""Acceptance suite: exact reproduction of the documented consequences.

Every criterion asserts exact equalities (zero tolerance: all arithmetic is
rational or in quadratic towers) and prints one line when it passes.  A
failed assertion is the corresponding [FAIL].
"""

import random
from fractions import Fraction

from helpers import brute_force_zariski, p2_blowup, standard_minus_one_records
from surface_cones import cli, serialize
from surface_cones.cones import ConePosition, diagonalize, in_positive_cone, pairing_nonneg_check
from surface_cones.lattice import BlowupModel, SurfaceModel, intersect
from surface_cones.scalar import as_fraction, compare, make_scalar, sign
from surface_cones.segre import (
    K3CurveKind,
    PencilVerdict,
    classify_k3_curve,
    curve_bound_check,
    pencil_counterexample,
    segre_bounds,
)
from surface_cones.strict_inclusion import alpha_from_s, uniruled_value, witness_parameter
from surface_cones.thresholds import (
    ThresholdContext,
    certify_list,
    check_conditions,
    cone_equality_check,
    k_minus_sl_h_negative,
    ray_certificate,
    s_monotonicity,
    s_threshold,
)
from surface_cones.zariski import zariski_decompose

FIXTURE_NAMES = (
    "p2_r9", "p2_r10", "p2_r11", "p2_r12", "p2_r17",
    "k3_generic", "abelian", "enriques",
)


def fixture_model(name: str) -> BlowupModel:
    return serialize.blowup_from_json(cli.load_fixture(name))


def test_criterion_1_plane_threshold_chain():
    bounds = segre_bounds(1)
    assert (bounds.nu, bounds.pi) == (1, 0)
    ctx10 = ThresholdContext.from_model(p2_blowup(10))
    condition = check_conditions(ctx10, 1, 0)
    assert condition.bound == 10 and not condition.strict and condition.satisfied
    assert s_threshold(ctx10, 1) == Fraction(0)
    assert s_threshold(ThresholdContext.from_model(p2_blowup(17)), 1) == Fraction(1)
    print("ACCEPTANCE 1 [PASS] plane threshold chain: (nu,pi)=(1,0), r>=10, s(10)=0, s(17)=1")


def test_criterion_2_r_greater_ten_double_recovery():
    assert uniruled_value(p2_blowup(10)) == Fraction(0)
    assert uniruled_value(p2_blowup(11)) == make_scalar(-3, 1, 10)
    assert witness_parameter(p2_blowup(10)) == 0
    ten = alpha_from_s(p2_blowup(10), Fraction(0), 1)
    assert not ten.valid and ten.failing == "alpha_dot_K_positive"
    assert witness_parameter(p2_blowup(11)) == make_scalar(-3, 1, 10)
    eleven = alpha_from_s(p2_blowup(11), make_scalar(-3, 1, 10), 1)
    assert eleven.valid
    assert intersect(eleven.alpha, p2_blowup(11).canonical()) == make_scalar(10, -3, 10)
    print("ACCEPTANCE 2 [PASS] r>10 recovered twice: uniruled 0 at r=10, -3+sqrt(10) at r=11;"
          " s_1 = 0 fails alpha.K > 0 at r=10, s_1 = sqrt(10)-3 holds at r=11"
          " with alpha.K = 10-3*sqrt(10)")


def test_criterion_3_certificate_validity_sweep():
    model = p2_blowup(12)
    curves = standard_minus_one_records(model)
    assert len(curves) == 78
    s = s_threshold(ThresholdContext.from_model(model), 1)
    docs = []
    for record in curves:
        cert = ray_certificate(model, record, s)
        assert cert.valid, cert.failing
        assert sign(intersect(cert.alpha, cert.alpha)) == 0
        assert compare(cert.t0, 1) >= 0
        assert sign(intersect(cert.alpha, model.line())) > 0
        docs.append(serialize.ray_certificate_to_json(model, cert))
    for doc in docs:
        result = serialize.verify_certificate(doc)
        assert result.ok, result.failing
    print("ACCEPTANCE 3 [PASS] all 78 certificates on Bl_12 valid and re-verified from JSON")


def test_criterion_4_zariski_oracle_equivalence():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        r = rng.randint(1, 4)  # lattice rank up to 5
        model = p2_blowup(r)
        pool = standard_minus_one_records(model)
        rng.shuffle(pool)
        curves = pool[: rng.randint(1, min(3, len(pool)))]
        divisor = Fraction(rng.randint(0, 3)) * model.line()
        for record in curves:
            divisor = divisor + Fraction(rng.randint(0, 4)) * record.cls
        decomposition = zariski_decompose(divisor, curves)
        oracle_p, oracle_coeffs = brute_force_zariski(divisor, curves)
        assert decomposition.P == oracle_p
        assert decomposition.coeffs == oracle_coeffs
        assert intersect(decomposition.P, decomposition.negative_part()) == 0
        assert decomposition.check_invariants() is None
        checked += 1
    print("ACCEPTANCE 4 [PASS] 200 random instances: iterative == brute-force, P.N = 0, support negative definite")


def test_criterion_5_pairing_identity_on_random_triples():
    rng = random.Random(55)
    checked = 0
    while checked < 100:
        g1 = rng.randint(1, 3)
        k1 = rng.choice([-5, -3, -1, 1, 3, 5])
        a1 = rng.randint(1, 3)
        if (g1 + k1) % 2:
            continue
        surface = SurfaceModel(
            chi=1, kY_sq=Fraction(k1 * k1 * g1), gram_Y=((g1,),), k_Y=(k1,), a_Y=(a1,)
        )
        n = rng.randint(1, 3)
        floor = surface.kY_sq + 1 - surface.a_dot_k**2 / surface.a_sq
        r = max(2, int(floor) + 2) + rng.randint(0, 6)
        model = BlowupModel(surface, r)
        s = s_threshold(ThresholdContext.from_model(model), n)
        delta = Fraction(1, rng.randint(2, 50) * r)
        value = k_minus_sl_h_negative(model, s, delta)  # raises on identity mismatch
        expected = -(s * surface.a_sq - surface.a_dot_k) + r * delta
        assert compare(value, expected) == 0
        checked += 1
    print("ACCEPTANCE 5 [PASS] (K-sL).h equals -sqrt(D_n/4) + r*delta on 100 random triples")


def test_criterion_6_property_suites():
    # Hodge signature on every bundled fixture
    for name in FIXTURE_NAMES:
        model = fixture_model(name)
        report = diagonalize(model)
        assert (report.n_plus, report.n_minus, report.n_zero) == (1, model.rank - 1, 0)
    # positive-cone pairing nonnegativity on 1000 sampled pairs
    model = p2_blowup(4)
    rng = random.Random(6)
    pairs = 0
    while pairs < 1000:
        members = []
        while len(members) < 2:
            coords = [Fraction(rng.randint(-3, 9))] + [
                Fraction(rng.randint(-3, 3)) for _ in range(4)
            ]
            candidate = model.divisor(coords)
            if in_positive_cone(candidate) is not ConePosition.OUTSIDE:
                members.append(candidate)
        report = pairing_nonneg_check(members[0], members[1])
        assert report.ok and report.nonnegative
        pairs += 1
    # monotone thresholds on every fixture where the radicands exist
    for name in FIXTURE_NAMES:
        model = fixture_model(name)
        ctx = ThresholdContext.from_model(model)
        for nu in range(1, 6):
            try:
                values = s_monotonicity(ctx, nu)
            except Exception:
                break
            for a, b in zip(values, values[1:]):
                assert compare(a, b) < 0
    # adjunction parity on 1000 integer classes
    model = p2_blowup(6)
    k = model.canonical()
    for _ in range(1000):
        cls = model.divisor([Fraction(rng.randint(-5, 5)) for _ in range(model.rank)])
        value = as_fraction(intersect(cls, cls) + intersect(cls, k))
        assert value.denominator == 1 and value.numerator % 2 == 0
    # the K3 table is exactly the adjunction-consistent rows within (2, 1)
    table = []
    for c2 in (-1, -2):
        for p in (0, 1):
            kind = classify_k3_curve(c2, p, 2 * p - 2 - c2)
            if kind is not K3CurveKind.VIOLATES:
                table.append(kind)
                assert curve_bound_check(c2, p, 2)
    assert sorted(k.value for k in table) == ["I", "II", "III"]
    print("ACCEPTANCE 6 [PASS] signatures, pairing, monotonicity, parity, K3 table: all exact")


def test_criterion_7_counterexample_detectors():
    enriques = cli.load_fixture("enriques")
    chi = Fraction(enriques["surface"]["chi"])
    pencil = enriques["pencils"][0]
    report = pencil_counterexample(chi, pencil["g"], pencil["dim"])
    assert report.verdict is PencilVerdict.SEGRE_FAILS
    assert chi == 1 and report.expected_chi == 2  # the exact contradiction 1 != 2
    abelian = fixture_model("abelian")
    bounds = segre_bounds(abelian.base.chi)
    assert bounds.exceptional_only
    print("ACCEPTANCE 7 [PASS] Enriques pencil: chi=1 != dim+g+1=2; abelian: exceptional-only")


def test_criterion_8_main_theorem_falsification_sampling():
    # trapped curves at levels s_n <= s_nu prove that no class of the generated
    # cone pairing nonnegatively with K - s_nu L leaves the positive cone (the
    # lemma of cone_equality_check), so no sample can falsify it; each verdict
    # is the validity of the explicit certificate, built here as the oracle
    model = p2_blowup(12)
    curves = standard_minus_one_records(model)
    report = cone_equality_check(model, curves, 1, 0)
    assert report.passed
    assert report.s == make_scalar(-3, 1, 11)
    certificates = certify_list(model, curves)
    assert report.trapped == tuple(c.valid for c in certificates) == (True,) * 78
    for cert in certificates:
        assert compare(cert.s, report.s) <= 0
    print("ACCEPTANCE 8 [PASS] 78 curves trapped at s_n <= s_1, each a valid certificate")
