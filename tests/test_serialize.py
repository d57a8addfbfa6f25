"""Round trips and the standalone verifier, including tamper detection."""

import json
from fractions import Fraction

import pytest

from helpers import abelian_surface, p2_blowup, p2_surface, standard_minus_one_records
from surface_cones import cli, serialize
from surface_cones.errors import CertificateError
from surface_cones.lattice import intersect
from surface_cones.scalar import make_scalar, scalar_to_json, sqrt_scalar
from surface_cones.strict_inclusion import (
    alpha_from_s,
    gamma_witness,
    solve_s_system,
    uniruled_witness,
)
from surface_cones.thresholds import ThresholdContext, ray_certificate, s_threshold
from surface_cones.zariski import NegativeCurveRecord, zariski_decompose


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
            delta="1/20",
            checks={"alpha_sq_zero": True, "alpha_dot_h_nonneg": True, "t0_positive": True},
            valid=True,
            failing=None,
        )
        code, err = verify_exit(doc, tmp_path, capsys)
        assert code == 3
        assert "r_inequality violated" in err


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
    def test_uniruled_witness_verifies(self):
        model = p2_blowup(11)
        witness = gamma_witness(uniruled_witness(model).witness)
        doc = serialize.witness_to_json(witness)
        assert serialize.verify_certificate(doc).ok

    def test_from_s_witness_verifies(self):
        model = p2_blowup(11)
        witness = gamma_witness(alpha_from_s(model, solve_s_system(model)[0].sample, 1))
        doc = serialize.witness_to_json(witness)
        assert serialize.verify_certificate(doc).ok

    def test_tampered_gamma_detected(self):
        model = p2_blowup(11)
        witness = gamma_witness(uniruled_witness(model).witness)
        doc = serialize.witness_to_json(witness)
        doc["gamma"][0] = "2"
        result = serialize.verify_certificate(doc)
        assert not result.ok
        assert "gamma" in result.failing

    def test_tampered_alpha_detected(self):
        model = p2_blowup(11)
        witness = gamma_witness(uniruled_witness(model).witness)
        doc = serialize.witness_to_json(witness)
        doc["alpha"][0] = "2"
        result = serialize.verify_certificate(doc)
        assert not result.ok
        assert result.failing == "alpha_sq_zero violated"
