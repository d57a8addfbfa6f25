"""Round trips and the standalone verifier, including tamper detection."""

import copy
import dataclasses
import functools
import inspect
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    abelian_surface,
    assert_same_certificates,
    levels_one_and_two,
    p2_blowup,
    p2_surface,
    standard_minus_one_records,
)
from surface_cones import cli, lattice, serialize
from surface_cones import zariski
from surface_cones.errors import (
    CertificateError,
    MalformedValueError,
    ModelValidationError,
    SurfaceConesError,
)
from surface_cones.lattice import BlowupModel, intersect
from surface_cones.scalar import (
    compare,
    make_scalar,
    scalar_from_json,
    scalar_to_json,
    sign,
    sqrt_scalar,
)
from surface_cones.segre import segre_bounds
from surface_cones.strict_inclusion import (
    alpha_checks,
    alpha_from_s,
    gamma_checks,
    gamma_witness,
    witness_parameter,
)
from surface_cones.thresholds import (
    RECORDED_RAY_CHECKS,
    RayContainmentCert,
    ThresholdContext,
    certify_list,
    cone_equality_check,
    ray_certificate,
    ray_checks,
    s_threshold,
)
from surface_cones.zariski import NegativeCurveRecord, ZariskiDecomposition, zariski_decompose

DATA = Path(__file__).parent / "data"


def ray_cert_doc(r: int = 12, curve_index: int = 0):
    model = p2_blowup(r)
    curves = standard_minus_one_records(model)
    s = s_threshold(ThresholdContext.from_model(model), 1)
    cert = ray_certificate(model, curves[curve_index], s)
    return serialize.ray_certificate_to_json(model, cert)


class TestModelRoundTrip:
    def test_surface_round_trip(self):
        for surface in (p2_surface(), abelian_surface()):
            doc = serialize.surface_to_json(surface)
            assert serialize.surface_from_json(doc) == surface

    def test_blowup_round_trip(self):
        model = p2_blowup(5)
        assert serialize.blowup_from_json(serialize.blowup_to_json(model)) == model

    def test_divisor_scalar_coords_round_trip(self):
        model = p2_blowup(2)
        s = make_scalar(-3, 1, 11)
        divisor = model.divisor([s, Fraction(1, 2), -1])
        doc = serialize.divisor_to_json(divisor)
        assert serialize.divisor_from_json(model, doc, "x") == divisor

    def test_schema_error_paths(self):
        with pytest.raises(Exception) as info:
            serialize.surface_from_json(
                {"chi": 1, "kY_sq": 9, "gram_Y": [[1, 2], [0, -1]], "k_Y": [-3, 1],
                 "a_Y": [1, 0], "class": "P2"}
            )
        assert "gram_Y[0][1]" in str(info.value)


def reference_divisor_from_json(model, doc, field):
    """``divisor_from_json`` before distinct values were parsed once: one parse per coordinate."""
    if not isinstance(doc, list):
        raise ModelValidationError("divisor must be a coordinate list", field)
    try:
        coords = [scalar_from_json(c) for c in doc]
    except (KeyError, ValueError):
        for i, c in enumerate(doc):
            serialize._scalar_from_json(c, f"{field}[{i}]")
        raise
    if len(coords) != model.rank:
        raise ModelValidationError(f"expected {model.rank} coordinates, got {len(coords)}", field)
    return model.divisor(coords)


def divisor_outcome(parse, doc):
    try:
        divisor = parse(p2_blowup(1), doc, "d")
    except Exception as exc:  # the comparison is of the exception, whatever it is
        return type(exc), getattr(exc, "field", None), str(exc)
    return tuple(divisor.coords), tuple(map(type, divisor.coords))


JSON_COORDINATES = [0, 1, -2, "0", "1", "-1/2", "1/0", "abc", "", True, False, 1.0, None, [1],
                    {"a": "1", "b": "1", "d": "2"}, {"a": 1}]
# a tower value in the radical tower of the dict above, which forces the mixed-type parse
TOWER = {"a": "0", "b": "-1/2", "d": "2"}


class TestDivisorFromJson:
    @pytest.mark.parametrize(
        "doc, expected",
        [
            ([1, True], (MalformedValueError, "d[1]")),
            (["1", 1], None),
            ([1, 1.0], (MalformedValueError, "d[1]")),
            (["1/0"], (MalformedValueError, "d[0]")),
            (["abc", "abc"], (MalformedValueError, "d[0]")),
            ([1, "1/0"], (MalformedValueError, "d[1]")),
            (["2", "2", "2"], (ModelValidationError, "d")),  # rank 2, three coordinates
        ],
    )
    def test_examples_match_reference(self, doc, expected):
        result = divisor_outcome(serialize.divisor_from_json, doc)
        assert result == divisor_outcome(reference_divisor_from_json, doc)
        if expected is not None:
            assert result[:2] == expected

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(JSON_COORDINATES), min_size=0, max_size=3))
    def test_matches_reference(self, doc):
        assert divisor_outcome(serialize.divisor_from_json, doc) == divisor_outcome(
            reference_divisor_from_json, doc
        )

    def test_equal_values_share_one_parse(self):
        divisor = serialize.divisor_from_json(p2_blowup(3), ["1", "-1", "-1", "1"], "d")
        assert divisor.coords[1] is divisor.coords[2]
        assert divisor.coords == (1, -1, -1, 1)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([TOWER, "1", TOWER, {"a": "1", "b": "1"}, "1", {"a": "1", "b": "1"}], "alpha[3]"),
            ([TOWER, 1, True, TOWER, True, 0], "alpha[2]"),
            ([TOWER, "1/0", TOWER, "1/0", "0", "0"], "alpha[1]"),
        ],
    )
    def test_mixed_list_names_the_first_malformed_coordinate(self, doc, field):
        # the malformed value repeats after a valid one: the per-call memo must not hide it
        with pytest.raises(MalformedValueError) as info:
            serialize.divisor_from_json(p2_blowup(5), doc, "alpha")
        assert info.value.field == field

    @pytest.mark.parametrize("order", [0, 1])
    def test_a_string_is_never_its_canonical_dict(self, order):
        # the dict and the string of its canonical JSON must get distinct memo keys
        doc = [TOWER, serialize._canonical(TOWER)][:: 1 - 2 * order]
        with pytest.raises(MalformedValueError) as info:
            serialize.divisor_from_json(p2_blowup(1), doc, "alpha")
        assert info.value.field == f"alpha[{1 - order}]"

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(JSON_COORDINATES), min_size=0, max_size=6),
        st.integers(0, 6),
    )
    def test_mixed_lists_match_the_per_coordinate_parse(self, doc, position):
        doc.insert(position, TOWER)
        model = p2_blowup(len(doc) - 1)

        def parsed(parse):
            try:
                divisor = parse(model, doc, "d")
            except Exception as exc:
                return type(exc), getattr(exc, "field", None), str(exc)
            return tuple(divisor.coords), tuple(map(type, divisor.coords))

        assert parsed(serialize.divisor_from_json) == parsed(reference_divisor_from_json)


class TestRayVerification:
    def test_valid_certificate_verifies(self):
        result = serialize.verify_certificate(ray_cert_doc())
        assert result.ok

    def test_all_json_round_trips_through_text(self):
        doc = ray_cert_doc(curve_index=20)
        text = json.dumps(doc)
        assert serialize.verify_certificate(json.loads(text)).ok

    def test_tampered_alpha_names_alpha_sq_zero(self):
        doc = ray_cert_doc()
        doc["alpha"][2] = "5"
        result = serialize.verify_certificate(doc)
        assert not result.ok
        assert result.failing == "alpha_sq_zero violated"

    def test_tampered_t0_detected(self):
        doc = ray_cert_doc()
        doc["t0"] = "3"
        result = serialize.verify_certificate(doc)
        assert not result.ok

    def test_tampered_curve_record_detected(self):
        doc = ray_cert_doc()
        doc["curve"]["self_int"] = -2
        result = serialize.verify_certificate(doc)
        assert not result.ok
        assert "curve_record_consistent" in result.failing

    def test_unknown_kind_rejected(self):
        with pytest.raises(CertificateError):
            serialize.verify_certificate({"kind": "mystery"})

    def test_missing_kind_rejected(self):
        with pytest.raises(CertificateError):
            serialize.verify_certificate({"surface": {}})


def verify_exit(doc, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path)])
    return code, capsys.readouterr().err


class TestRayVerifyRejections:
    """Edits that the builder would never emit; each exits 3 naming its invariant."""

    @pytest.mark.parametrize(
        "field, value, invariant",
        [("n", 5, "curve_level"), ("p", 7, "curve_level"), ("level", 3, "s_threshold")],
    )
    def test_edited_field(self, tmp_path, capsys, field, value, invariant):
        doc = ray_cert_doc()
        assert serialize.verify_certificate(doc).ok
        doc[field] = value
        code, err = verify_exit(doc, tmp_path, capsys)
        assert code == 3
        assert f"{invariant} violated" in err

    def test_smaller_root_rejected(self, tmp_path, capsys):
        doc = ray_cert_doc()
        ctx = ThresholdContext.from_model(p2_blowup(12))
        # the two roots of (K - sL)^2 = -1/n sum to 2*A.K_Y/A^2
        doc["s"] = scalar_to_json(2 * ctx.AK / ctx.A_sq - s_threshold(ctx, 1))
        assert doc["s"] == {"a": "-3", "b": "-1", "d": "11"}
        code, err = verify_exit(doc, tmp_path, capsys)
        assert code == 3
        assert "s_threshold violated" in err

    def test_r_inequality_rejected(self, tmp_path, capsys):
        # genus-1 cubic 3H - E_1 - ... - E_10 at r = 10 needs r >= 26
        model = p2_blowup(10)
        cubic = model.pullback([3])
        for i in range(1, 11):
            cubic = cubic - model.exceptional(i)
        record = NegativeCurveRecord.from_class(cubic)
        s = s_threshold(ThresholdContext.from_model(model), 1)
        k_minus_sl = model.canonical() - s * model.line()
        u = intersect(cubic, k_minus_sl)
        t0 = -u + sqrt_scalar(u * u - 1)
        doc = serialize.ray_certificate_to_json(model, ray_certificate(model, record, s))
        doc.update(
            t0=scalar_to_json(t0),
            alpha=serialize.divisor_to_json(t0 * cubic - k_minus_sl),
            checks=dict.fromkeys(RECORDED_RAY_CHECKS, True),
            valid=True,
            failing=None,
        )
        code, err = verify_exit(doc, tmp_path, capsys)
        assert code == 3
        assert "r_inequality violated" in err


def planted_alpha_dot_k_zero():
    """The p2_r10 from-s witness at s = 0 marked valid: alpha = 3L - E_2 - ... - E_10, alpha.K = 0."""
    witness = alpha_from_s(p2_blowup(10), Fraction(0), 1)
    assert witness.failing == "alpha_dot_K_positive"
    return {**serialize.witness_to_json(witness), "valid": True, "failing": None}


def planted_smaller_t0_root(r):
    """L - E_1 - E_2 with t0 the smaller root of its quadratic: 1/T for the larger root T.

    u = C.(K - sL) = 2 - sqrt(r - 1), so t0 is about 0.46 at r = 12 and 0.57 at r = 11.
    """
    model = p2_blowup(r)
    doc = ray_cert_doc(r, curve_index=r)
    curve = model.pullback([1]) - model.exceptional(1) - model.exceptional(2)
    k_minus_sl = model.canonical() - scalar_from_json(doc["s"]) * model.line()
    u = intersect(curve, k_minus_sl)
    assert u == 2 - sqrt_scalar(r - 1)
    t0 = -u - sqrt_scalar(u * u - 1)
    doc.update(t0=scalar_to_json(t0), alpha=serialize.divisor_to_json(t0 * curve - k_minus_sl))
    return doc


# on p2_r11, between s_1 = sqrt(10) - 3 and (3 - sqrt(5))/4: the witness holds with D_t > 0,
# so t > 1 and alpha.E_1 = 1 - t < 0, where the witness at s_1 has D_t = 0 and alpha.E_1 = 0
INTERIOR_S = Fraction(3, 16)


def from_s_witness_doc(s=None):
    """The p2_r11 from-s witness at s, by default the witness parameter s_1 = sqrt(10) - 3."""
    model = p2_blowup(11)
    s = witness_parameter(model) if s is None else s
    return model, s, serialize.witness_to_json(gamma_witness(alpha_from_s(model, s, 1)))


def planted_t_below_one():
    """The p2_r11 from-s witness with t = 1 - sqrt(D_t) and its alpha: still null, alpha.C > 0."""
    model, s, doc = from_s_witness_doc(INTERIOR_S)
    t = 1 - sqrt_scalar(ThresholdContext.from_model(model).k_minus_sl_sq(s) + 1)
    alpha = t * model.exceptional(1) - (model.canonical() - s * model.line())
    doc.update(t=scalar_to_json(t), alpha=serialize.divisor_to_json(alpha))
    return doc


def planted_t_off_alpha():
    """The p2_r11 from-s witness with t raised by 1 and alpha kept: only the identity fails."""
    _, _, doc = from_s_witness_doc()
    doc["t"] = scalar_to_json(scalar_from_json(doc["t"]) + 1)
    return doc


def planted_witness_alpha_negated():
    """The p2_r11 from-s witness with alpha negated: still null, but alpha.L < 0."""
    model, _, doc = from_s_witness_doc()
    alpha = serialize.divisor_from_json(model, doc["alpha"], "alpha")
    assert sign(intersect(alpha, model.line())) > 0
    doc["alpha"] = serialize.divisor_to_json(-alpha)
    return doc


def planted_gamma_null():
    """The p2_r11 from-s witness with gamma and lambda null: its alpha holds, but no gamma."""
    _, _, doc = from_s_witness_doc()
    doc.update({"gamma": None, "lambda": None})
    return doc


def planted_p_outside_positive_cone():
    """p2_r10, curves E_1..E_10, D = L - E_1 - ... - E_4: no curve meets D negatively, D^2 = -3."""
    model = p2_blowup(10)
    curves = [NegativeCurveRecord.from_class(model.exceptional(i)) for i in range(1, 11)]
    divisor = model.divisor([1] + [-1] * 4 + [0] * 6)
    return serialize.zariski_to_json(zariski_decompose(divisor, curves))


def planted_ray_doc(model, cls, level):
    """A ray certificate of ``cls`` at ``level`` from the formulas alone, recorded as valid.

    s = s_level, u = C.(K - sL), t0 = (-u + sqrt(u^2 - n/level))/n and
    alpha = t0*C - (K - sL), so alpha^2 = 0 even where the builder refuses
    the level or the curve.
    """
    record = NegativeCurveRecord.from_class(cls)
    n, p = int(-record.self_int), int(record.genus)
    s = s_threshold(ThresholdContext.from_model(model), level)
    k_minus_sl = model.canonical() - s * model.line()
    u = intersect(cls, k_minus_sl)
    t0 = (-u + sqrt_scalar(u * u - Fraction(n, level))) / n
    cert = RayContainmentCert(
        record, n, p, level, s, t0, t0 * cls - k_minus_sl,
        dict.fromkeys(RECORDED_RAY_CHECKS, True), True, None,
    )
    return serialize.ray_certificate_to_json(model, cert)


def planted_backward_alpha():
    """The certificate built on tests/data/p2_backward_alpha_r10.json, re-marked valid.

    Its alpha is null with alpha.L = -3/10, so it lies outside the positive
    cone, and every check before ``alpha_in_positive_cone`` holds.
    """
    doc = json.loads((DATA / "p2_backward_alpha_r10.json").read_text())
    model = serialize.blowup_from_json(doc)
    (cert,) = certify_list(model, serialize._curves_from_json(model, doc["curves"]))
    assert cert.failing == "alpha_in_positive_cone"
    assert intersect(cert.alpha, model.line()) == Fraction(-3, 10)
    doc = serialize.ray_certificate_to_json(model, cert)
    doc.update(checks=dict.fromkeys(RECORDED_RAY_CHECKS, True), valid=True, failing=None)
    return doc


def planted_curve_level():
    """L - E_1 - E_2 - E_3, of level n = 2, certified at level 1 on p2_r37, where s_1 = 3."""
    model = p2_blowup(37)
    e = model.exceptional
    return planted_ray_doc(model, model.line() - e(1) - e(2) - e(3), level=1)


def planted_curve_pairing_bound():
    """K_X on p2_r10, of type (1, 0), at level m = 2: u = -1 + 3*s_2 is about -0.753.

    The larger root t0 is at least 1/n exactly when u <= -(1 + n/m)/2, which
    needs m > n.  Where the r-inequality holds, s_m >= s_n >= q >= 0 makes
    u <= -1 for C.L >= 0, so u > -1 needs C.L < 0, hence q = 0: only a
    (-1)-class with C.L < 0 and s_m*|C.L| <= (1 - 1/m)/2 keeps every earlier
    check true.  Here s_1 = 0, C.L = -3 and 3*s_2 = 3*sqrt(19/2) - 9 <= 1/4.
    """
    model = p2_blowup(10)
    doc = planted_ray_doc(model, model.canonical(), level=2)
    u = intersect(model.canonical(), model.canonical() - scalar_from_json(doc["s"]) * model.line())
    assert compare(u, -1) > 0 and compare(u, Fraction(-3, 4)) <= 0
    return doc


def planted_r_inequality():
    """The genus-1 cubic 3L - E_1 - ... - E_10 at r = 10, which needs r >= 26."""
    model = p2_blowup(10)
    return planted_ray_doc(model, model.divisor([3] + [-1] * 10), level=1)


def planted_smaller_s_root():
    """The p2_r12 certificate with s the smaller root: the roots sum to 2*A.K_Y/A^2."""
    doc = ray_cert_doc()
    ctx = ThresholdContext.from_model(p2_blowup(12))
    doc["s"] = scalar_to_json(2 * ctx.AK / ctx.A_sq - s_threshold(ctx, 1))
    return doc


def planted_alpha_not_null():
    doc = ray_cert_doc()
    doc["alpha"][2] = "5"
    return doc


def planted_recorded_checks_false():
    """The p2_r12 certificate with every recorded check false and a bogus failing name."""
    doc = ray_cert_doc()
    doc.update(checks=dict.fromkeys(doc["checks"], False), failing="bogus")
    return doc


def planted_witness_checks_false():
    _, _, doc = from_s_witness_doc()
    doc["checks"] = dict.fromkeys(doc["checks"], False)
    return doc


def planted_gamma(lambda_of, s=None):
    """The p2_r11 from-s witness at s with gamma = C + lambda*alpha, lambda = lambda_of(alpha)."""
    model, _, doc = from_s_witness_doc(s)
    alpha = serialize.divisor_from_json(model, doc["alpha"], "alpha")
    lam = lambda_of(alpha)
    gamma = model.exceptional(1) + lam * alpha
    doc.update({"lambda": scalar_to_json(lam), "gamma": serialize.divisor_to_json(gamma)})
    return doc


def planted_zariski(classes, divisor, P, coeffs):
    """A decomposition document on p2_r10; classes, divisor and P as coordinate lists."""
    model = p2_blowup(10)

    def cls(coords):
        return model.divisor(coords + [0] * (11 - len(coords)))

    curves = tuple(NegativeCurveRecord.from_class(cls(c)) for c in classes)
    return serialize.zariski_to_json(ZariskiDecomposition(cls(divisor), cls(P), coeffs, curves))


PLANTED = [
    pytest.param(planted_alpha_dot_k_zero, "alpha_dot_K_positive", id="alpha_dot_k_zero"),
    pytest.param(planted_backward_alpha, "alpha_in_positive_cone", id="backward_alpha"),
    pytest.param(
        planted_witness_alpha_negated, "alpha_in_positive_cone", id="witness_alpha_negated"
    ),
    pytest.param(lambda: planted_smaller_t0_root(12), "t0_positive", id="smaller_t0_r12"),
    # t0 in [1/(2n), 1/n): a bound halved to 1/(2n) would accept it
    pytest.param(lambda: planted_smaller_t0_root(11), "t0_positive", id="smaller_t0_r11"),
    pytest.param(planted_t_below_one, "alpha_dot_C_nonpos", id="t_below_one"),
    pytest.param(planted_t_off_alpha, "alpha_identity", id="t_off_alpha"),
    pytest.param(planted_gamma_null, "gamma_identity", id="gamma_null"),
    pytest.param(planted_p_outside_positive_cone, "P_in_positive_cone", id="p_outside_cone"),
    pytest.param(planted_curve_level, "curve_level", id="level_below_n"),
    pytest.param(planted_curve_pairing_bound, "curve_pairing_bound", id="pairing_above_minus_one"),
    pytest.param(planted_r_inequality, "r_inequality", id="cubic_at_r10"),
    pytest.param(planted_smaller_s_root, "s_threshold", id="smaller_s_root"),
    pytest.param(planted_alpha_not_null, "alpha_sq_zero", id="alpha_not_null"),
    pytest.param(planted_recorded_checks_false, "recorded_checks", id="ray_checks_false"),
    pytest.param(planted_witness_checks_false, "recorded_checks", id="witness_checks_false"),
    # lambda = 1/(2*alpha.C) gives gamma^2 = C^2 + 2*lambda*(alpha.C) = 0
    pytest.param(
        lambda: planted_gamma(
            lambda a: 1 / (2 * intersect(a, a.model.exceptional(1))), INTERIOR_S
        ),
        "gamma_sq_negative", id="gamma_null_square",
    ),
    # lambda = 1/alpha.K gives gamma.K = C.K + 1 = 0
    pytest.param(
        lambda: planted_gamma(lambda a: 1 / intersect(a, a.model.canonical())),
        "gamma_dot_K_positive", id="gamma_dot_k_zero",
    ),
    # P = L + E_1 for D = L
    pytest.param(
        lambda: planted_zariski([[0, 1]], [1], [1, 1], {}), "decomposition_sum", id="p_not_d"
    ),
    # P = L + E_1 and N = -E_1
    pytest.param(
        lambda: planted_zariski([[0, 1]], [1], [1, 1], {0: Fraction(-1)}),
        "coefficients_nonnegative", id="negative_coefficient",
    ),
    # P = L - E_1 and N = E_1: P.N = 1, so P is not orthogonal to the support
    pytest.param(
        lambda: planted_zariski([[0, 1]], [1], [1, -1], {0: Fraction(1)}),
        "P_orthogonal_to_support", id="p_dot_n_one",
    ),
    # D = P = L + E_1 with no support, and P.E_1 = -1
    pytest.param(
        lambda: planted_zariski([[0, 1]], [1, 1], [1, 1], {}), "P_nef_against_list",
        id="p_meets_e1_negatively",
    ),
    # E_1 and L - E_1 - E_2 have Gram [[-1, 1], [1, -1]]; P = L - E_2 meets both in 0
    pytest.param(
        lambda: planted_zariski(
            [[0, 1], [1, -1, -1]], [2, 0, -2], [1, 0, -1], {0: Fraction(1), 1: Fraction(1)}
        ),
        "support_negative_definite", id="singular_support",
    ),
]


@pytest.mark.parametrize("plant, check", PLANTED)
def test_planted_boundary_document(tmp_path, capsys, plant, check):
    """A document at the boundary of one check: verify exits 3 naming that check first."""
    code, err = verify_exit(plant(), tmp_path, capsys)
    assert code == 3
    assert err == f"certificate 0: {check} violated\n"


def test_planted_table_covers_every_check():
    model = p2_blowup(12)
    cert = certify_list(model, standard_minus_one_records(model))[0]
    names = set(
        ray_checks(model, cert.curve, cert.n, cert.p, cert.level, cert.s, cert.t0, cert.alpha)
    )
    model, _, doc = from_s_witness_doc()
    curve = model.exceptional(1)
    alpha = serialize.divisor_from_json(model, doc["alpha"], "alpha")
    s, t = scalar_from_json(doc["s"]), scalar_from_json(doc["t"])
    names |= set(alpha_checks(alpha, curve, s, t))
    names |= set(gamma_checks(curve + alpha, curve, 1, alpha))
    source = inspect.getsource(ZariskiDecomposition.check_invariants)
    names |= set(re.findall(r'return "(\w+)"', source))
    assert len(names) == 19
    assert names <= {param.values[1] for param in PLANTED}


def test_zariski_refuses_the_planted_input(capsys, tmp_path):
    doc = planted_p_outside_positive_cone()
    path = tmp_path / "in.json"
    path.write_text(json.dumps({k: doc[k] for k in ("surface", "r", "curves", "divisor")}))
    assert cli.main(["zariski", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "infeasible: list incomplete: P not in positive cone\n"


def reference_verify(documents):
    """The per-entry loop that ``verify`` ran before it became orbit-aware."""
    for i, doc in enumerate(documents):
        result = serialize.verify_certificate(doc)
        if not result.ok:
            return i, result.failing
    return None


def outcome(check, documents):
    """(index, failing) or None, or the class of the exception raised."""
    try:
        return check(documents)
    except Exception as exc:
        return type(exc)


@functools.lru_cache(maxsize=1)
def plane_list_text() -> str:
    """18 certificates at r = 17 in five orbits of sizes 7, 5, 3, 2 and 1, in list order."""
    model = p2_blowup(17)
    certificates = certify_list(model, levels_one_and_two(model))
    return json.dumps([serialize.ray_certificate_to_json(model, c) for c in certificates])


def integral_alpha_list() -> list[dict]:
    """The plane list with every integral alpha coordinate of the first orbit written as an int."""
    documents = json.loads(plane_list_text())
    orbit = _orbit(documents[0])
    for doc in documents:
        if _orbit(doc) == orbit:
            doc["alpha"] = [int(a) if re.fullmatch(r"-?\d+", a) else a for a in doc["alpha"]]
    assert all(type(a) is int for a in documents[0]["alpha"])
    return documents


def test_orbit_key_ignores_untyped_coordinates():
    for coords in (
        ["1", 1], [True, False], ["1", 1.0, "0"], [Fraction(1)], [{"a": "1"}], [[1], [0]], [None]
    ):
        assert serialize._orbit_key(coords, 1) is None
    assert serialize._orbit_key(["1", "-1", "0", "-1"], 1) == (("1",), ("-1", "-1", "0"))
    assert serialize._orbit_key([1, 0, -1], 1) == ((1,), (-1, 0))


def test_orbit_alpha_needs_a_function_of_the_curve():
    curve, alpha = ["1", "0", "-1", "-1"], ["a", "b", "c", "c"]
    assert serialize._orbit_alpha(curve, alpha, 1)(["1", "-1", "0", "-1"]) == ("a", "c", "b", "c")
    assert serialize._orbit_alpha(curve, alpha, 1)(curve) == tuple(alpha)
    assert serialize._orbit_alpha(curve, ["a", "b", "c", "d"], 1) is None


def _e_positions(doc):
    return range(len(doc["curve"]["coords"]) - doc["r"], len(doc["curve"]["coords"]))


def _orbit(doc):
    coords = doc["curve"]["coords"]
    return coords[0], sorted(coords[1:])


def _plus_one(value):
    if isinstance(value, dict):
        return {**value, "a": _plus_one(value["a"])}
    return str(Fraction(value) + 1)


def _respelled(value):
    """The same rational written as 2p/2q."""
    if isinstance(value, dict):
        return {**value, "a": _respelled(value["a"])}
    value = Fraction(value)
    return f"{2 * value.numerator}/{2 * value.denominator}"


def swap_alpha(docs, index, pick):
    """Swap two alpha E-values at positions where the curve's values differ."""
    coords, alpha = docs[index]["curve"]["coords"], docs[index]["alpha"]
    positions = _e_positions(docs[index])
    pairs = [(i, j) for i in positions for j in positions if i < j and coords[i] != coords[j]]
    i, j = pairs[pick % len(pairs)]
    alpha[i], alpha[j] = alpha[j], alpha[i]


def foreign_curve(docs, index, pick):
    """Give the entry the curve record of an entry outside its orbit."""
    others = [d for d in docs if _orbit(d) != _orbit(docs[index])]
    docs[index]["curve"] = json.loads(json.dumps(others[pick % len(others)]["curve"]))


def odd_coordinate(docs, index, pick):
    """Write one curve coordinate as another JSON value, of another type or spelling."""
    coords = docs[index]["curve"]["coords"]
    values = [True, 1.0, 0, "1/1", "-0", {"a": "0", "b": "1", "d": "2"}, [0], None]
    coords[pick % len(coords)] = values[pick // len(coords) % len(values)]


def tamper_alpha(docs, index, pick):
    """Add 1 to one alpha coordinate."""
    alpha = docs[index]["alpha"]
    k = pick % len(alpha)
    alpha[k] = _plus_one(alpha[k])


def respell_alpha(docs, index, pick):
    """Write one alpha coordinate with an equal value but other JSON."""
    alpha = docs[index]["alpha"]
    k = pick % len(alpha)
    alpha[k] = _respelled(alpha[k])


def odd_field(docs, index, pick):
    """Set n, s or level to true or 1.0."""
    docs[index][("n", "s", "level")[pick % 3]] = (True, 1.0)[pick // 3 % 2]


def edit_checks(docs, index, pick):
    """Flip a recorded check, write it as 1, or add one."""
    checks = docs[index]["checks"]
    name = sorted(checks)[pick % len(checks)]
    edit = pick // len(checks) % 3
    if edit == 2:
        checks["extra"] = True
    else:
        checks[name] = (False, 1)[edit]


def retype_leaf(docs, index, pick):
    """Write one leaf with another type: an equal value under ``==``, or an integral string's int.

    chi = 1 as 1.0 or true, self_int as a float, genus = 0 as false, or an
    integral string inside s or inside a tower-valued alpha coordinate as
    that int.
    """
    doc = docs[index]
    curve = doc["curve"]
    edits = [
        (doc["surface"], "chi", 1.0),
        (doc["surface"], "chi", True),
        (curve, "self_int", float(curve["self_int"])),
        (curve, "genus", False),
    ]
    towers = [value for value in [doc["s"], *doc["alpha"]] if isinstance(value, dict)]
    for tower in towers:
        towers += [value for value in tower.values() if isinstance(value, dict)]
        edits += [
            (tower, key, int(value))
            for key, value in tower.items()
            if isinstance(value, str) and re.fullmatch(r"-?\d+", value)
        ]
    container, key, value = edits[pick % len(edits)]
    container[key] = value


EDITS = {
    f.__name__: f
    for f in (
        swap_alpha, foreign_curve, odd_coordinate, tamper_alpha, respell_alpha, odd_field,
        edit_checks, retype_leaf,
    )
}
IN_ORDER = list(range(18))


class TestOrbitVerify:
    """``serialize._verify_documents`` against the per-entry reference loop.

    In list order, entry 0 is the first of the E_i orbit, 13 the first of a
    quartic orbit, and 15 (E_7) and 17 (a quartic) are later members.
    """

    def test_members_are_not_rederived(self, monkeypatch):
        calls = []
        full = serialize.verify_certificate
        monkeypatch.setattr(serialize, "verify_certificate", lambda d: calls.append(d) or full(d))
        assert serialize._verify_documents(json.loads(plane_list_text())) is None
        assert len(calls) == 5

    def test_p2_r17_fixture_two_full_checks(self, monkeypatch, capsys):
        cli.main(["certify-ray", "--input", "fixture:p2_r17"])
        documents = json.loads(capsys.readouterr().out)["certificates"]
        calls = []
        full = serialize.verify_certificate
        monkeypatch.setattr(serialize, "verify_certificate", lambda d: calls.append(d) or full(d))
        assert serialize._verify_documents(documents) is None
        assert (len(documents), len(calls)) == (153, 2)

    def test_p2_r17_members_make_no_canonical_call(self, monkeypatch, capsys):
        cli.main(["certify-ray", "--input", "fixture:p2_r17"])
        documents = json.loads(capsys.readouterr().out)["certificates"]
        running, outside = [], []  # the full check under way; _canonical calls outside one
        canonical, full = serialize._canonical, serialize.verify_certificate

        def checked(doc):
            running.append(doc)
            try:
                return full(doc)
            finally:
                running.pop()

        def counted(value):
            if not running:
                outside.append(value)
            return canonical(value)

        monkeypatch.setattr(serialize, "verify_certificate", checked)
        monkeypatch.setattr(serialize, "_canonical", counted)
        assert serialize._verify_documents(documents) is None
        assert (len(documents), outside) == (153, [])

    def test_int_alpha_members_skip_rederivation(self, monkeypatch):
        documents = integral_alpha_list()
        calls = []
        full = serialize.verify_certificate
        monkeypatch.setattr(serialize, "verify_certificate", lambda d: calls.append(d) or full(d))
        assert serialize._verify_documents(documents) is None
        assert len(calls) == 5

    @pytest.mark.parametrize("index", [0, 1, 15])  # the head and two members of the E_i orbit
    @pytest.mark.parametrize("retype", [float, bool])
    def test_int_alpha_leaf_of_another_type_is_caught(self, index, retype):
        documents = integral_alpha_list()
        alpha = documents[index]["alpha"]
        k = next(k for k, a in enumerate(alpha) if retype is float or a in (0, 1))
        original = alpha[k]
        alpha[k] = retype(original)
        assert alpha[k] == original  # only the type tells them apart
        expected = outcome(reference_verify, documents)
        assert expected is MalformedValueError
        assert outcome(serialize._verify_documents, documents) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.permutations(IN_ORDER),
        edit=st.sampled_from(sorted(EDITS)),
        index=st.integers(0, 17),
        pick=st.integers(0, 10_000),
    )
    @example(order=IN_ORDER, edit="swap_alpha", index=17, pick=0)
    @example(order=IN_ORDER, edit="swap_alpha", index=15, pick=3)
    @example(order=IN_ORDER, edit="foreign_curve", index=17, pick=0)
    @example(order=IN_ORDER, edit="foreign_curve", index=15, pick=4)
    @example(order=IN_ORDER, edit="odd_coordinate", index=15, pick=18)
    @example(order=IN_ORDER, edit="tamper_alpha", index=0, pick=5)
    @example(order=IN_ORDER, edit="tamper_alpha", index=13, pick=0)
    @example(order=IN_ORDER, edit="respell_alpha", index=0, pick=3)
    @example(order=IN_ORDER, edit="odd_field", index=15, pick=0)  # n = true where n is 1
    @example(order=IN_ORDER, edit="odd_field", index=15, pick=3)  # n = 1.0 where n is 1
    @example(order=IN_ORDER, edit="odd_field", index=17, pick=1)  # s = true
    @example(order=IN_ORDER, edit="odd_field", index=17, pick=5)  # level = 1.0
    @example(order=IN_ORDER, edit="edit_checks", index=17, pick=0)
    @example(order=IN_ORDER, edit="edit_checks", index=0, pick=3)
    @example(order=IN_ORDER, edit="retype_leaf", index=15, pick=0)  # chi = 1.0
    @example(order=IN_ORDER, edit="retype_leaf", index=17, pick=1)  # chi = true
    @example(order=IN_ORDER, edit="retype_leaf", index=17, pick=2)  # self_int = -2.0
    @example(order=IN_ORDER, edit="retype_leaf", index=15, pick=2)  # self_int = -1.0
    @example(order=IN_ORDER, edit="retype_leaf", index=16, pick=3)  # genus = false
    @example(order=IN_ORDER, edit="retype_leaf", index=16, pick=5)  # "b": 1 in an alpha tower
    @example(order=IN_ORDER, edit="retype_leaf", index=17, pick=6)  # "b": 2 in an alpha tower
    @example(order=IN_ORDER, edit="retype_leaf", index=17, pick=4)  # "a": -3 in s
    @example(order=IN_ORDER, edit="retype_leaf", index=13, pick=4)  # a head's "a": -3 in s
    def test_single_edit_matches_reference(self, order, edit, index, pick):
        listed = json.loads(plane_list_text())
        documents = [listed[i] for i in order]
        EDITS[edit](documents, index, pick)
        assert outcome(serialize._verify_documents, documents) == outcome(
            reference_verify, documents
        )


def plane_curve_entries(r: int, spell) -> list[dict]:
    """All E_i, then all L - E_i - E_j, at r: two orbits; coordinates written by ``spell``."""
    records = standard_minus_one_records(p2_blowup(r))
    return [{"coords": [spell(int(c)) for c in record.cls.coords]} for record in records]


def declared_entries(r: int) -> list[dict]:
    """The same list as ``curve_to_json`` writes it: str coords, declared fields."""
    return [serialize.curve_to_json(record) for record in standard_minus_one_records(p2_blowup(r))]


def record_fields(record) -> tuple:
    fields = (
        record.cls, record.self_int, record.genus, record.is_exceptional, record.support,
        record._gram_row,
    )
    return fields, tuple(map(type, fields))


def per_curve(model, entries):
    """The curve list as read before orbits: ``curve_from_json`` on each entry."""
    return [serialize.curve_from_json(model, c, f"curves[{i}]") for i, c in enumerate(entries)]


def parse_outcome(parse, model, entries):
    """Each record's fields, or the error's class, text and field."""
    try:
        return [record_fields(record) for record in parse(model, entries)]
    except SurfaceConesError as exc:
        return type(exc), str(exc), getattr(exc, "field", None)


def curve_list(name: str) -> tuple:
    """(model, curve entries) of a fixture, or of an r = 17 plane list in one spelling."""
    if name.startswith("plane_r17"):
        spelling = name.removeprefix("plane_r17_")
        entries = {
            "int": plane_curve_entries(17, int),
            "str": plane_curve_entries(17, str),
            "declared": declared_entries(17),
        }[spelling]
        return p2_blowup(17), entries
    doc = cli.load_fixture(name)
    return serialize.blowup_from_json(doc), doc["curves"]


FIXTURES = [
    "abelian", "enriques", "k3_generic", "p2_r1", "p2_r9", "p2_r10", "p2_r11", "p2_r12", "p2_r17"
]


def set_self_int(entry):
    entry["self_int"] = -2


def bool_coordinate(entry):
    entry["coords"][0] = False


def extra_key(entry):
    entry["note"] = "moved"


def string_coordinates(entry):
    entry["coords"] = [str(c) for c in entry["coords"]]


def flip_exceptional(entry):
    entry["is_exceptional"] = not entry.get("is_exceptional", False)


def drop_genus(entry):
    entry.pop("genus", None)


def float_self_int(entry):
    entry["self_int"] = float(entry.get("self_int", -1))


MEMBER_EDITS = {
    f.__name__: f
    for f in (
        set_self_int, bool_coordinate, extra_key, string_coordinates, flip_exceptional,
        drop_genus, float_self_int,
    )
}


class TestCurvesPerOrbit:
    """``serialize._curves_from_json`` parses one entry per S_r-orbit and defers the rest."""

    @pytest.mark.parametrize(
        "name", FIXTURES + ["plane_r17_int", "plane_r17_str", "plane_r17_declared"]
    )
    def test_records_equal_the_per_curve_parse(self, name):
        model, entries = curve_list(name)
        assert parse_outcome(serialize._curves_from_json, model, entries) == parse_outcome(
            per_curve, model, entries
        )

    def test_default_exceptional_list(self):
        model = p2_blowup(17)
        parsed = cli._parse(serialize.blowup_to_json(model), ())
        built = [NegativeCurveRecord.from_class(model.exceptional(i)) for i in range(1, 18)]
        assert list(map(record_fields, parsed.curves)) == list(map(record_fields, built))

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_default_list_at_small_r(self, r):
        model = p2_blowup(r)
        curves = cli._parse(serialize.blowup_to_json(model), ()).curves
        assert all(record.representative is curves[0] for record in curves)
        assert [record.cls for record in curves] == [model.exceptional(i) for i in range(1, r + 1)]

    def test_p2_r17_validates_two_records(self, monkeypatch):
        calls = []
        original = zariski._integer_form
        monkeypatch.setattr(zariski, "_integer_form", lambda d: calls.append(d) or original(d))
        model, entries = curve_list("p2_r17")
        assert len(serialize._curves_from_json(model, entries)) == 153
        assert len(calls) == 2

    @pytest.mark.parametrize("spelling", ["int", "declared"])
    @pytest.mark.parametrize("edit", sorted(MEMBER_EDITS))
    @pytest.mark.parametrize("index", [5, 16, 40, 152])  # later members of both orbits
    def test_edited_member_matches_the_per_curve_parse(self, spelling, edit, index):
        model, entries = curve_list(f"plane_r17_{spelling}")
        MEMBER_EDITS[edit](entries[index])
        expected = parse_outcome(per_curve, model, entries)
        assert parse_outcome(serialize._curves_from_json, model, entries) == expected

    def test_edited_member_errors_name_its_field(self):
        model, entries = curve_list("plane_r17_declared")
        set_self_int(entries[40])
        assert parse_outcome(serialize._curves_from_json, model, entries) == (
            ModelValidationError,
            "curves[40].self_int: declared self-intersection -2 but class squares to -1",
            "curves[40].self_int",
        )
        model, entries = curve_list("plane_r17_int")
        bool_coordinate(entries[40])
        assert parse_outcome(serialize._curves_from_json, model, entries)[1:] == (
            "curves[40].coords[0]: not a serialized scalar: False",
            "curves[40].coords[0]",
        )


# the record fields a deferred member builds at the first read of one of them
DEFERRED_FIELDS = ("cls", "support", "_gram_row")


def read_member(index: int):
    """Entry ``index`` of the declared r = 17 plane list, read lazily and unread, and its twin.

    The twin is the same entry parsed in full by ``curve_from_json``.
    """
    model, entries = curve_list("plane_r17_declared")
    records = serialize._curves_from_json(model, entries)
    member = records[index]
    assert member.representative is not member
    assert not set(DEFERRED_FIELDS) & set(vars(member))
    return member, serialize.curve_from_json(model, entries[index], f"curves[{index}]")


def contracted_entry(rng: random.Random, model: BlowupModel) -> dict:
    """E_i - E_j: C^2 = -2, genus 0 and C.L = 0, but no E_i, so deciding it raises."""
    i, j = rng.sample(range(model.base.rank, model.rank), 2)
    coords = [0] * model.rank
    coords[i], coords[j] = 1, -1
    return {"coords": coords}


def decide_outcome(parse, model, entries, nu, pi, keep):
    """``trapped`` of the records ``parse`` reads, sliced by ``keep``, or the first error."""
    try:
        records = parse(model, entries)[keep]
        return "decided", cone_equality_check(model, records, nu, pi).trapped
    except SurfaceConesError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "field", None)


class TestDeferredMembers:
    """A later member of an S_r-orbit builds its class, support and G*C at the first read."""

    @pytest.mark.parametrize(
        "view",
        [lambda record: record, hash, repr, dataclasses.replace, copy.deepcopy],
        ids=["eq", "hash", "repr", "replace", "deepcopy"],
    )
    @pytest.mark.parametrize("index", [5, 40])  # E_6 and one L - E_i - E_j
    def test_unread_member_matches_its_eager_twin(self, view, index):
        member, twin = read_member(index)
        assert view(member) == view(twin)
        assert serialize.curve_to_json(member) == serialize.curve_to_json(twin)

    def test_copies_stay_deferred_and_replace_builds_in_full(self):
        member, twin = read_member(40)
        copied = copy.deepcopy(member)
        assert not set(DEFERRED_FIELDS) & set(vars(copied))
        assert copied.representative == member.representative
        assert record_fields(copied) == record_fields(twin)
        replaced = dataclasses.replace(member)
        assert replaced.representative is replaced
        assert record_fields(replaced) == record_fields(twin)

    @pytest.mark.parametrize("first", DEFERRED_FIELDS)
    def test_first_read_builds_all_three(self, first):
        member, twin = read_member(40)
        assert getattr(member, first) == getattr(twin, first)
        assert set(DEFERRED_FIELDS) <= set(vars(member))
        assert record_fields(member) == record_fields(twin)
        with pytest.raises(AttributeError):
            member.curve

    @pytest.mark.parametrize("command", ["certify-ray", "analyze", "verify"])
    def test_p2_r17_builds_two_gram_rows(self, command, monkeypatch, tmp_path, capsys):
        # one G*C row per orbit: certify-ray, analyze and ray verify read no member's
        # class, support or row, and build them only for each orbit's representative
        certs = tmp_path / "certs.json"
        assert cli.main(["certify-ray", "--input", "fixture:p2_r17", "--output", str(certs)]) == 0
        rows = []
        original = zariski._support_and_row
        monkeypatch.setattr(
            zariski, "_support_and_row", lambda model, ints: rows.append(ints) or original(model, ints)
        )
        argv = {
            "certify-ray": ["certify-ray", "--input", "fixture:p2_r17"],
            "analyze": ["analyze", "--input", "fixture:p2_r17", "--samples", "0"],
            "verify": ["verify", str(certs)],
        }[command]
        assert cli.main(argv) == 0
        assert len(rows) == 2

    def test_p2_r17_reads_and_decides_two_classes(self, monkeypatch):
        # one class per orbit: the E_i and the L - E_i - E_j
        model, entries = curve_list("p2_r17")
        listed = {tuple(map(Fraction, entry["coords"])) for entry in entries}
        built = []
        original = lattice.DivisorClass.__post_init__

        def counted(divisor):
            if divisor.coords in listed:
                built.append(divisor.coords)
            original(divisor)

        monkeypatch.setattr(lattice.DivisorClass, "__post_init__", counted)
        bounds = segre_bounds(model.base.chi)
        records = serialize._curves_from_json(model, entries)
        report = cone_equality_check(model, records, bounds.nu, bounds.pi)
        assert report.passed and len(report.trapped) == 153
        assert len(built) == 2

    def test_lazy_and_per_curve_lists_decide_alike(self):
        """Seeded: shuffled lists, edited entries, contracted orbits and sublists of records.

        A slice of the read records may drop an orbit's representative, the
        first entry of its key; its members still take their verdict from it.
        """
        rng = random.Random(23)
        kinds = set()
        for _ in range(60):
            model, entries = curve_list(rng.choice(["p2_r12", "plane_r17_declared", "k3_generic"]))
            entries = json.loads(json.dumps(entries))
            if rng.random() < 0.4:
                entries += [contracted_entry(rng, model) for _ in range(rng.randint(1, 3))]
            rng.shuffle(entries)
            entries = entries[rng.randrange(len(entries) // 2):]
            if rng.random() < 0.2:
                MEMBER_EDITS[rng.choice(sorted(MEMBER_EDITS))](rng.choice(entries))
            nu, pi = rng.choice([(1, 0), (2, 0), (2, 1)])
            start = rng.randrange(len(entries))
            keep = slice(start, rng.randint(start, len(entries)))
            lazy = decide_outcome(serialize._curves_from_json, model, entries, nu, pi, keep)
            assert lazy == decide_outcome(per_curve, model, entries, nu, pi, keep)
            kinds.add(lazy[0])
        assert kinds >= {"decided", "PreconditionError", "ModelValidationError"}


def certify_ray_input(name: str) -> dict:
    """The input document of a fixture, a tests/data file or a plane list at r = 17."""
    if name in FIXTURES:
        return cli.load_fixture(name)
    if name in ("p2_backward_alpha_r10", "k3_minus_two_curve_r37"):
        return json.loads((DATA / f"{name}.json").read_text())
    doc = serialize.blowup_to_json(p2_blowup(17))
    entries = plane_curve_entries(17, int)  # 17 E_i, then 136 L - E_i - E_j
    if name == "interleaved":
        # L - E_i - E_j and E_i alternate, then the other lines follow
        doc["curves"] = [e for pair in zip(entries[17:], entries[:17]) for e in pair] + entries[34:]
    elif name == "mixed_spelling":
        # an int first coordinate among strings gives the entry no orbit key
        entries[40]["coords"] = [1] + [str(c) for c in entries[40]["coords"][1:]]
        doc["curves"] = entries
    return doc  # "default": no curves key, so E_1..E_17


def per_curve_certificates(model, curves):
    """The certificate documents as written before orbits: ``certify_list`` builds every curve."""
    return [serialize.ray_certificate_to_json(model, c) for c in certify_list(model, curves)]


@pytest.mark.parametrize("name", ["p2_r17", "interleaved"])
def test_certify_list_builds_each_member_like_its_eager_twin(name):
    doc = certify_ray_input(name)
    model = serialize.blowup_from_json(doc)
    curves = serialize._curves_from_json(model, doc["curves"])
    twins = [
        serialize.curve_from_json(model, entry, f"curves[{i}]")
        for i, entry in enumerate(doc["curves"])
    ]
    members = [curve for curve in curves if curve.representative is not curve]
    assert len(members) == 151
    assert not any(set(DEFERRED_FIELDS) & set(vars(member)) for member in members)
    assert_same_certificates(certify_list(model, curves), certify_list(model, twins))


class TestCertifyRayPerOrbit:
    """``certify-ray`` writes each orbit member from its representative's document."""

    def run(self, doc, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["certify-ray", "--input", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "name",
        FIXTURES
        + ["default", "interleaved", "mixed_spelling"]
        + ["p2_backward_alpha_r10", "k3_minus_two_curve_r37"],
    )
    def test_report_equals_the_per_curve_report(self, name, tmp_path, capsys, monkeypatch):
        doc = certify_ray_input(name)
        outcome = self.run(doc, tmp_path, capsys)
        monkeypatch.setattr(serialize, "_ray_certificates_to_json", per_curve_certificates)
        assert outcome == self.run(doc, tmp_path, capsys)
        code, out, err = outcome
        if code == 0:
            report = json.loads(out)
            assert out == json.dumps(report, indent=2) + "\n"
            assert serialize._verify_documents(report["certificates"]) is None
        expected = {
            "p2_backward_alpha_r10": (2, "1 certificate(s) invalid: alpha_in_positive_cone\n"),
            "k3_minus_two_curve_r37": (1, "error: mixed radicands: "),
            "p2_r1": (2, "infeasible: r too small for n = 1"),
            "p2_r9": (2, "45 certificate(s) invalid: r >= "),
        }.get(name, (0, ""))
        assert code == expected[0] and err.startswith(expected[1])

    def test_a_sublist_without_its_representatives(self):
        model, entries = curve_list("plane_r17_declared")
        curves = serialize._curves_from_json(model, entries)[5:]
        documents = serialize._ray_certificates_to_json(model, curves)
        assert documents == per_curve_certificates(model, curves)
        assert cli._indented_json(documents) == json.dumps(documents, indent=2)

    def test_members_build_no_class(self, monkeypatch):
        # the 151 later members of p2_r17's two orbits cost no class: neither curve nor alpha
        model, entries = curve_list("p2_r17")
        curves = serialize._curves_from_json(model, entries)
        heads = [curve for curve in curves if curve.representative is curve]
        built = []
        original = lattice.DivisorClass.__post_init__
        monkeypatch.setattr(
            lattice.DivisorClass, "__post_init__", lambda d: built.append(d) or original(d)
        )
        certify_list(model, heads)
        per_head = len(built)
        assert len(serialize._ray_certificates_to_json(model, curves)) == 153
        assert len(built) == 2 * per_head
        assert not any("cls" in vars(curve) for curve in curves if curve.representative is not curve)


NESTED = {"b": {"d": 1, "c": [2, {"f": 0, "e": 1}]}, "a": None}


@pytest.mark.parametrize("value", [1, 1.0, True, "1", None, "Zariski–Fujita é", NESTED])
def test_canonical_encoder_equals_json_dumps(value):
    assert serialize._canonical(value) == json.dumps(value, sort_keys=True)


def test_canonical_encoder_is_type_strict():
    assert len({serialize._canonical(v) for v in (1, 1.0, True, "1")}) == 4


class TestZariskiVerification:
    def make_doc(self):
        model = p2_blowup(2)
        curves = standard_minus_one_records(model)
        divisor = 3 * model.pullback([1]) - 2 * model.exceptional(1) + model.exceptional(2)
        decomposition = zariski_decompose(divisor + 2 * curves[0].cls, curves)
        return serialize.zariski_to_json(decomposition)

    def test_valid_decomposition_verifies(self):
        assert serialize.verify_certificate(self.make_doc()).ok

    def test_tampered_coefficient_detected(self):
        doc = self.make_doc()
        key = next(iter(doc["coeffs"]))
        doc["coeffs"][key] = str(Fraction(doc["coeffs"][key]) + 1)
        result = serialize.verify_certificate(doc)
        assert not result.ok

    def test_tampered_nef_part_detected(self):
        doc = self.make_doc()
        doc["P"][0] = "7"
        result = serialize.verify_certificate(doc)
        assert not result.ok


class TestStrictWitnessVerification:
    def test_from_s_witness_verifies(self):
        model = p2_blowup(11)
        witness = gamma_witness(alpha_from_s(model, witness_parameter(model), 1))
        doc = serialize.witness_to_json(witness)
        assert serialize.verify_certificate(doc).ok

    def test_tampered_gamma_detected(self):
        _, _, doc = from_s_witness_doc()
        doc["gamma"][0] = "2"
        result = serialize.verify_certificate(doc)
        assert not result.ok
        assert "gamma" in result.failing

    def test_tampered_alpha_detected(self):
        _, _, doc = from_s_witness_doc()
        doc["alpha"][0] = "2"
        result = serialize.verify_certificate(doc)
        assert not result.ok
        assert result.failing == "alpha_sq_zero violated"
