"""Command-line behavior: exit codes, diagnostics, determinism, fixtures."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from surface_cones import cli
from surface_cones.lattice import intersect
from surface_cones.scalar import scalar_from_json, scalar_to_json, sign, sqrt_scalar
from surface_cones.thresholds import ThresholdContext


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


P2_SURFACE = {"chi": 1, "kY_sq": 9, "gram_Y": [[1]], "k_Y": [-3], "a_Y": [1], "class": "P2"}
# 1 + sqrt(-2), 1 + sqrt(2) and 1 + sqrt(3) as serialized scalars
NON_REAL = {"a": "1", "b": "1", "d": "-2"}
ROOT_2 = {"a": "1", "b": "1", "d": "2"}
ROOT_3 = {"a": "1", "b": "1", "d": "3"}
# K_Y = (2/3)*A with A.K_Y = 24 > 0: first_bound(1) = 1, so r = 1 is case A of strict-inclusion
POSITIVE_AK_SURFACE = {"chi": 1, "kY_sq": 16, "gram_Y": [[4]], "k_Y": [2], "a_Y": [3]}


class TestAnalyze:
    def test_p2_r12_fixture(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["analyze", "--input", "fixture:p2_r12", "--samples", "50",
             "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["segre_bounds"] == {"nu": 1, "pi": 0, "exceptional_only": False}
        assert report["thresholds"] == [{"a": "-3", "b": "1", "d": "11"}]
        assert report["main_theorem"]["passed"] is True
        assert report["main_theorem"]["certificates"] == 78
        # the witness parameter is s_1 = sqrt(11) - 3, the first threshold
        assert list(report["strict_inclusion"]) == ["s", "uniruled_value", "uniruled_satisfied"]
        assert report["strict_inclusion"]["s"] == report["thresholds"][0]
        assert report["strict_inclusion"]["uniruled_satisfied"] is True

    def test_conditions_fail_exit_two(self, capsys):
        code, _, err = run_cli(["analyze", "--input", "fixture:p2_r9", "--samples", "5"], capsys)
        assert code == 2
        assert "binding" in err

    def test_k3_with_a_minus_two_curve(self, capsys):
        # the pullback of the base's (-2)-curve and E_1..E_3 at r = 37, (nu, pi) = (2, 1):
        # analyze decides each curve by u <= -1 and builds no t0; certify-ray still
        # builds t0 for the (-2)-curve, whose square root lies in a second quadratic field
        path = str(Path(__file__).parent / "data" / "k3_minus_two_curve_r37.json")
        code, out, _ = run_cli(["analyze", "--input", path], capsys)
        assert code == 0
        main = json.loads(out)["main_theorem"]
        assert (main["certificates"], main["certificates_valid"], main["passed"]) == (4, 4, True)
        code, _, err = run_cli(["certify-ray", "--input", path], capsys)
        assert code == 1
        assert err.startswith("error: mixed radicands: cannot combine")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run_cli(
                ["analyze", "--input", "fixture:p2_r11", "--samples", "20",
                 "--seed", "4", "--output", str(path)],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("command", ["analyze", "thresholds"])
@pytest.mark.parametrize(
    "field, value", [("nu", "abc"), ("nu", True), ("pi", 1.5), ("nu", 0), ("pi", -1)]
)
def test_malformed_bounds_exit_one(capsys, tmp_path, command, field, value):
    doc = dict(cli.load_fixture("p2_r12"), **{field: value})
    code, _, err = run_cli([command, "--input", write_json(tmp_path, "in.json", doc)], capsys)
    assert code == 1
    assert f"{field}:" in err


@pytest.mark.parametrize("command", ["analyze", "thresholds"])
@pytest.mark.parametrize("field, value, minimum", [("nu", 0, 1), ("pi", -1, 0)])
def test_bound_below_minimum_names_the_field(capsys, tmp_path, command, field, value, minimum):
    doc = dict(cli.load_fixture("p2_r12"), **{field: value})
    path = write_json(tmp_path, "in.json", doc)
    code, out, err = run_cli([command, "--input", path, "--samples", "0"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {field}: must be at least {minimum}, got {value}\n"


# every bundled fixture and test input on which ``thresholds`` exits 0
THRESHOLDS_INPUTS = {
    **{name: f"fixture:{name}" for name in (
        "abelian", "enriques", "k3_generic", "p2_r10", "p2_r11", "p2_r12", "p2_r17",
    )},
    **{name: str(Path(__file__).parent / "data" / f"{name}.json") for name in (
        "k3_minus_two_curve_r37", "p2_backward_alpha_r10",
    )},
}


class TestThresholds:
    def test_r1_boundary_exit_two(self, capsys):
        code, _, err = run_cli(["thresholds", "--input", "fixture:p2_r1"], capsys)
        assert code == 2
        assert "r > K_Y^2 + 1 - (A.K_Y)^2/A^2" in err

    def test_r12_report(self, capsys):
        code, out, _ = run_cli(["thresholds", "--input", "fixture:p2_r12"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["thresholds"] == [{"a": "-3", "b": "1", "d": "11"}]
        assert report["condition"]["satisfied"] is True

    @pytest.mark.parametrize("name", sorted(THRESHOLDS_INPUTS))
    def test_k_minus_sl_dot_l_is_minus_root_of_d_nu(self, capsys, name):
        # v = K - s_nu L has v.L = A.K_Y - s_nu*A^2 = -sqrt(D_nu/4) < 0, and L is nef
        code, out, _ = run_cli(["thresholds", "--input", THRESHOLDS_INPUTS[name]], capsys)
        assert code == 0
        report = json.loads(out)
        assert "delta" not in report and "k_minus_sl_dot_h" not in report
        model = cli._parse(report["input"], ()).model
        expected = -sqrt_scalar(ThresholdContext.from_model(model).delta_quarter(report["nu"]))
        assert report["k_minus_sl_dot_l"] == scalar_to_json(expected)
        assert sign(scalar_from_json(report["k_minus_sl_dot_l"])) < 0

    @pytest.mark.parametrize("name", sorted(THRESHOLDS_INPUTS))
    def test_k_minus_sl_dot_l_is_the_pairing_of_v_with_l(self, capsys, name):
        # the reported value is the intersection number (K - s_nu L).L on the blow-up
        code, out, _ = run_cli(["thresholds", "--input", THRESHOLDS_INPUTS[name]], capsys)
        assert code == 0
        report = json.loads(out)
        model = cli._parse(report["input"], ()).model
        s = scalar_from_json(report["thresholds"][-1])
        v = model.canonical() - s * model.line()
        assert report["k_minus_sl_dot_l"] == scalar_to_json(intersect(v, model.line()))

    def test_text_format_reports_v_dot_l(self, capsys):
        code, out, _ = run_cli(
            ["thresholds", "--input", "fixture:p2_r12", "--format", "text"], capsys
        )
        assert code == 0
        # -sqrt(11) at r = 12, shown by its str like a threshold
        assert out.endswith("\nk_minus_sl_dot_l: -sqrt(11)\n")
        assert "delta" not in out and "k_minus_sl_dot_h" not in out

    @pytest.mark.parametrize("command", ["analyze", "thresholds"])
    def test_text_format_shows_irrational_thresholds(self, capsys, command):
        code, out, _ = run_cli([command, "--input", "fixture:p2_r12", "--format", "text"], capsys)
        assert code == 0
        # s_1 = sqrt(11) - 3, a tower value, is shown, not counted
        assert "\nthresholds: [-3+sqrt(11)]\n" in out
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_text_format_shows_scalar_fields(self, capsys):
        code, out, _ = run_cli(["analyze", "--input", "fixture:p2_r12", "--format", "text"], capsys)
        assert code == 0
        # s_1 as the thresholds line shows it, not as an a/b/d block
        assert "\nmain_theorem:\n  s: -3+sqrt(11)\n" in out
        assert "\nstrict_inclusion:\n  s: -3+sqrt(11)\n  uniruled_value: -3+sqrt(11)\n" in out
        assert "  a: " not in out

    def test_k_minus_sl_dot_l_on_the_backward_alpha_input(self, capsys):
        # a_Y = 1/10 at r = 10: A.K_Y = -3/10 and s_1 = 0
        path = str(Path(__file__).parent / "data" / "p2_backward_alpha_r10.json")
        code, out, _ = run_cli(["thresholds", "--input", path], capsys)
        assert code == 0
        assert json.loads(out)["k_minus_sl_dot_l"] == "-3/10"

    def test_malformed_gram_exit_one(self, capsys, tmp_path):
        doc = {"surface": dict(P2_SURFACE, gram_Y=[[1, 0], [2, -1]], k_Y=[-3, 1], a_Y=[1, 0]),
               "r": 2}
        path = write_json(tmp_path, "bad.json", doc)
        code, _, err = run_cli(["thresholds", "--input", path], capsys)
        assert code == 1
        assert "gram_Y[0][1]" in err or "gram_Y[1][0]" in err


class TestCertifyAndVerify:
    def test_round_trip(self, capsys, tmp_path):
        certs_path = tmp_path / "certs.json"
        code, _, _ = run_cli(
            ["certify-ray", "--input", "fixture:p2_r12", "--output", str(certs_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(certs_path.read_text())
        # one certificate per orbit: E_1 and L - E_1 - E_2, the other 76 curves as member rows
        certificates = doc["certificates"]
        assert [1 + len(cert["members"]) for cert in certificates] == [12, 66]
        code, out, _ = run_cli(["verify", str(certs_path)], capsys)
        assert code == 0
        assert "78" in out

    def test_tampered_certificate_exit_three(self, capsys, tmp_path):
        certs_path = tmp_path / "certs.json"
        run_cli(["certify-ray", "--input", "fixture:p2_r11", "--output", str(certs_path)], capsys)
        doc = json.loads(certs_path.read_text())
        doc["certificates"][0]["alpha"][0] = "17"
        tampered = write_json(tmp_path, "tampered.json", doc)
        code, _, err = run_cli(["verify", tampered], capsys)
        assert code == 3
        assert "alpha_sq_zero violated" in err

    def test_verify_writes_its_verdict_to_output(self, capsys, tmp_path):
        certs_path, verdict = tmp_path / "certs.json", tmp_path / "verdict.txt"
        run_cli(["certify-ray", "--input", "fixture:p2_r12", "--output", str(certs_path)], capsys)
        code, out, err = run_cli(["verify", str(certs_path), "--output", str(verdict)], capsys)
        assert (code, out, err) == (0, "", "")
        assert verdict.read_text() == "verified 78 certificate(s): all invariants hold\n"

    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_verify_to_an_unwritable_output_exits_one(self, capsys, tmp_path, target):
        certs_path = tmp_path / "certs.json"
        run_cli(["certify-ray", "--input", "fixture:p2_r12", "--output", str(certs_path)], capsys)
        output = tmp_path / "missing" / "v.txt" if target == "missing_directory" else tmp_path
        code, out, err = run_cli(["verify", str(certs_path), "--output", str(output)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: --output: ")

    def test_a_failed_verify_writes_no_output(self, capsys, tmp_path):
        # the exit-3 diagnostic still goes to stderr, and the --output file is never created
        certs_path, verdict = tmp_path / "certs.json", tmp_path / "verdict.txt"
        run_cli(["certify-ray", "--input", "fixture:p2_r11", "--output", str(certs_path)], capsys)
        doc = json.loads(certs_path.read_text())
        doc["certificates"][0]["alpha"][0] = "17"
        tampered = write_json(tmp_path, "tampered.json", doc)
        code, out, err = run_cli(["verify", tampered, "--output", str(verdict)], capsys)
        assert (code, out, err) == (3, "", "certificate 0: alpha_sq_zero violated\n")
        assert not verdict.exists()

    def test_backward_alpha_below_a_quarter_r(self, capsys, tmp_path):
        # a_Y = 1/10 at r = 10: A^2 = 1/100 <= 1/(4r), so h = L - sum E_i/20 has h^2 < 0;
        # the curve's null alpha has alpha.L = -3/10, outside the positive cone
        path = str(Path(__file__).parent / "data" / "p2_backward_alpha_r10.json")
        code, out, err = run_cli(["certify-ray", "--input", path], capsys)
        assert (code, err) == (2, "1 certificate(s) invalid: alpha_in_positive_cone\n")
        doc = json.loads(out)
        cert = doc["certificates"][0]
        assert "delta" not in cert and not cert["valid"]
        assert cert["failing"] == "alpha_in_positive_cone"
        # the same document with every check true and marked valid
        cert.update(valid=True, failing=None)
        cert["checks"]["alpha_in_positive_cone"] = True
        code, _, err = run_cli(["verify", write_json(tmp_path, "old.json", doc)], capsys)
        assert (code, err) == (3, "certificate 0: alpha_in_positive_cone violated\n")

    def test_document_with_delta_fails_recorded_checks(self, capsys, tmp_path):
        # the older schema: a delta field, and alpha_dot_h_nonneg for alpha_in_positive_cone
        certs_path = tmp_path / "certs.json"
        run_cli(["certify-ray", "--input", "fixture:p2_r12", "--output", str(certs_path)], capsys)
        cert = json.loads(certs_path.read_text())["certificates"][0]
        checks = {"alpha_sq_zero": True, "alpha_dot_h_nonneg": True, "t0_positive": True}
        cert.update(delta="1/24", checks=checks)
        code, _, err = run_cli(["verify", write_json(tmp_path, "old.json", cert)], capsys)
        assert (code, err) == (3, "certificate 0: recorded_checks violated\n")

    def test_truncated_json_exit_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "ray_containment", "surface"')
        code, _, _ = run_cli(["verify", str(path)], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 0),
            ("level", 0),
            ("s", "1/0"),
            ("s", NON_REAL),
            ("s", {"a": ROOT_2, "b": "1", "d": "3"}),  # sqrt(2) plus a multiple of sqrt(3)
        ],
    )
    def test_zero_denominator_field_exit_one(self, capsys, tmp_path, field, value):
        certs_path = tmp_path / "certs.json"
        run_cli(["certify-ray", "--input", "fixture:p2_r12", "--output", str(certs_path)], capsys)
        cert = json.loads(certs_path.read_text())["certificates"][1]
        cert[field] = value
        code, _, err = run_cli(["verify", write_json(tmp_path, "bad.json", cert)], capsys)
        assert code == 1
        assert f"{field}:" in err

    @pytest.mark.parametrize(
        "path, field",
        [
            (("curve", "coords", 1), "curve.coords[1]"),
            (("curve", "self_int"), "curve.self_int"),
            (("alpha", 0), "alpha[0]"),
            (("s",), "s"),
            (("t0",), "t0"),
        ],
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_as_number_exit_one(self, capsys, tmp_path, path, field, value):
        # E_1 has curve coordinate 1 at index 1, so true there once verified
        certs_path = tmp_path / "certs.json"
        run_cli(["certify-ray", "--input", "fixture:p2_r12", "--output", str(certs_path)], capsys)
        doc = json.loads(certs_path.read_text())
        target = doc["certificates"][0]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        code, _, err = run_cli(["verify", write_json(tmp_path, "bad.json", doc)], capsys)
        assert code == 1
        assert f"{field}:" in err

    @pytest.mark.parametrize("certificates", [5, [], {}, "certs", None])
    def test_certificates_must_be_a_nonempty_list(self, capsys, tmp_path, certificates):
        path = write_json(tmp_path, "list.json", {"certificates": certificates})
        code, out, err = run_cli(["verify", path], capsys)
        assert (code, out) == (1, "")
        assert "certificates:" in err

    @pytest.mark.parametrize(
        "command, fixture, key",
        [("certify-ray", "p2_r12", "n"), ("zariski", None, "coeffs"),
         ("strict-inclusion", "p2_r11", "s")],
    )
    def test_missing_field_named(self, capsys, tmp_path, command, fixture, key):
        if fixture is None:
            doc = {"surface": P2_SURFACE, "r": 1, "curves": [{"coords": [0, 1]}], "divisor": [2, 1]}
            source = write_json(tmp_path, "in.json", doc)
        else:
            source = f"fixture:{fixture}"
        out_path = tmp_path / "out.json"
        assert run_cli([command, "--input", source, "--output", str(out_path)], capsys)[0] == 0
        doc = json.loads(out_path.read_text())
        document = doc["certificates"][0] if "certificates" in doc else doc
        del document[key]
        code, out, err = run_cli(["verify", write_json(tmp_path, "bad.json", doc)], capsys)
        assert (code, out, err) == (1, "", f"error: {key}: missing required field\n")

    @pytest.mark.parametrize(
        "doc",
        [{"surface": P2_SURFACE, "r": 12, "curves": []}, {"surface": P2_SURFACE, "r": 0}],
        ids=["empty_list", "r_zero"],
    )
    def test_no_curve_to_certify_exit_one(self, capsys, tmp_path, doc):
        out_path = tmp_path / "certs.json"
        code, out, err = run_cli(
            ["certify-ray", "--input", write_json(tmp_path, "in.json", doc),
             "--output", str(out_path)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: curves: ")
        assert not out_path.exists()

    def test_unknown_kind_exit_one(self, capsys, tmp_path):
        path = write_json(tmp_path, "odd.json", {"kind": "mystery"})
        code, _, _ = run_cli(["verify", str(path)], capsys)
        assert code == 1


class TestZariski:
    def test_decomposition_output(self, capsys, tmp_path):
        doc = {"surface": P2_SURFACE, "r": 1,
               "curves": [{"coords": [0, 1]}], "divisor": [1, 1]}
        path = write_json(tmp_path, "in.json", doc)
        code, out, _ = run_cli(["zariski", "--input", path], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["P"] == ["1", "0"]
        assert report["coeffs"] == {"0": "1"}

    def test_incomplete_list_exit_two(self, capsys, tmp_path):
        doc = {"surface": P2_SURFACE, "r": 2,
               "curves": [{"coords": [0, 1, 0]}], "divisor": [0, 1, -2]}
        path = write_json(tmp_path, "in.json", doc)
        code, _, err = run_cli(["zariski", "--input", path], capsys)
        assert code == 2
        assert "list incomplete" in err

    def test_verify_decomposition(self, capsys, tmp_path):
        doc = {"surface": P2_SURFACE, "r": 1,
               "curves": [{"coords": [0, 1]}], "divisor": [2, 1]}
        path = write_json(tmp_path, "in.json", doc)
        out_path = tmp_path / "dec.json"
        run_cli(["zariski", "--input", path, "--output", str(out_path)], capsys)
        code, _, _ = run_cli(["verify", str(out_path)], capsys)
        assert code == 0


    @pytest.mark.parametrize(
        "divisor, error",
        [
            ([NON_REAL, 0], "divisor[0]: non-real scalar: radicand -2 < 0"),
            ([ROOT_2, ROOT_3], "divisor: divisor coordinates must lie in a single radical tower"),
            # the decomposition's own preconditions
            ([ROOT_2, 0], "divisor: Zariski decomposition expects rational coordinates"),
            ([-1, 1], "divisor: divisor must pair nonnegatively with L"),
        ],
    )
    def test_scalar_layer_errors_name_the_divisor(self, capsys, tmp_path, divisor, error):
        doc = {"surface": P2_SURFACE, "r": 1, "divisor": divisor}
        code, out, err = run_cli(["zariski", "--input", write_json(tmp_path, "in.json", doc)], capsys)
        assert (code, out, err) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("coeffs", [{"0": "1/0"}, [], {"1": "1"}, {"-1": "1"}])
    def test_malformed_coeffs_exit_one(self, capsys, tmp_path, coeffs):
        doc = {"surface": P2_SURFACE, "r": 1,
               "curves": [{"coords": [0, 1]}], "divisor": [1, 2]}
        path = write_json(tmp_path, "in.json", doc)
        out_path = tmp_path / "dec.json"
        run_cli(["zariski", "--input", path, "--output", str(out_path)], capsys)
        decomposition = json.loads(out_path.read_text())
        assert decomposition["coeffs"] == {"0": "2"}
        decomposition["coeffs"] = coeffs
        code, _, err = run_cli(["verify", write_json(tmp_path, "bad.json", decomposition)], capsys)
        assert code == 1
        assert "coeffs" in err


class TestSegreCheck:
    def test_enriques_fixture(self, capsys):
        code, out, _ = run_cli(["segre-check", "--input", "fixture:enriques"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pencils"][0]["verdict"] == "segre_fails"
        assert report["bounds"] == {"nu": 1, "pi": 0, "exceptional_only": False}

    def test_abelian_fixture_exceptional_only(self, capsys):
        code, out, _ = run_cli(["segre-check", "--input", "fixture:abelian"], capsys)
        assert code == 0
        assert json.loads(out)["bounds"]["exceptional_only"] is True

    def test_k3_fixture_kinds(self, capsys):
        code, out, _ = run_cli(["segre-check", "--input", "fixture:k3_generic"], capsys)
        assert code == 0
        report = json.loads(out)
        assert all(row["k3_kind"] == "I" for row in report["curves"])

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            ["segre-check", "--input", "fixture:enriques", "--format", "text"], capsys
        )
        assert code == 0
        assert "segre_fails" in out

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"pencils": [5]}, "pencils[0]"),
            ({"pencils": 5}, "pencils"),
            ({"pencils": [{"g": 1}]}, "pencils[0].dim"),
            ({"nagata": [{"mults": [1, 1]}]}, "nagata[0].deg"),
            ({"nagata": [{"deg": 3}]}, "nagata[0].mults"),
            ({"nagata": [{"deg": 3, "mults": 2}]}, "nagata[0].mults"),
            ({"nagata": [{"deg": 3, "mults": [1], "variant": "bogus"}]}, "nagata[0].variant"),
            ({"nagata": {"deg": 3}}, "nagata"),
            ({"pencils": [{"g": 1, "dim": -1}]}, "pencils[0].dim"),
            ({"pencils": [{"g": -1, "dim": 0}]}, "pencils[0].g"),
            ({"nagata": [{"deg": 0, "mults": [1]}]}, "nagata[0].deg"),
            ({"nagata": [{"deg": 3, "mults": []}]}, "nagata[0].mults"),
            ({"nagata": [{"deg": 3, "mults": [1, "-1/2"]}]}, "nagata[0].mults[1]"),
            ({"pencils": [{"g": "1/2", "dim": 0}]}, "pencils[0].g"),
            ({"pencils": [{"g": 0, "dim": "3/2"}]}, "pencils[0].dim"),
        ],
    )
    def test_malformed_entries_exit_one(self, capsys, tmp_path, changes, field):
        doc = {"surface": dict(P2_SURFACE), "r": 1, **changes}
        code, out, err = run_cli(
            ["segre-check", "--input", write_json(tmp_path, "in.json", doc)], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field}: ")

    def test_genus_zero_pencil_accepted(self, capsys, tmp_path):
        doc = {"surface": dict(P2_SURFACE), "r": 1, "pencils": [{"g": 0, "dim": 0}]}
        code, out, _ = run_cli(
            ["segre-check", "--input", write_json(tmp_path, "in.json", doc)], capsys
        )
        assert code == 0
        row = json.loads(out)["pencils"][0]
        assert (row["g"], row["dim"]) == ("0", "0")

    @pytest.mark.parametrize("command", ["segre-check", "analyze", "thresholds"])
    def test_non_integer_chi_exit_one(self, capsys, tmp_path, command):
        doc = {"surface": dict(P2_SURFACE, chi="1/2"), "r": 12}
        path = write_json(tmp_path, "in.json", doc)
        code, out, err = run_cli([command, "--input", path, "--samples", "0"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: chi: must be an integer to derive nu and pi, got 1/2\n"

    @pytest.mark.parametrize("command", ["analyze", "thresholds"])
    def test_given_bounds_do_not_read_chi(self, capsys, tmp_path, command):
        doc = {"surface": dict(P2_SURFACE, chi="1/2"), "r": 12, "nu": 1, "pi": 0}
        path = write_json(tmp_path, "in.json", doc)
        code, _, _ = run_cli([command, "--input", path, "--samples", "0"], capsys)
        assert code == 0


def _e1_record(r, **changes):
    """The declared record of E_1 on a plane blown up at r points, with ``changes``."""
    record = {"coords": [0, 1] + [0] * (r - 1), "self_int": -1, "genus": 0, "is_exceptional": True}
    record.update(changes)
    return {key: value for key, value in record.items() if value is not None}


class TestCurveRecordInputs:
    @pytest.mark.parametrize(
        "curves, field",
        [
            (5, "curves"),
            ({"0": _e1_record(12)}, "curves"),
            ([_e1_record(12, genus=None)], "curves[0].genus"),
            ([_e1_record(12, is_exceptional=None)], "curves[0].is_exceptional"),
            ([_e1_record(12, is_exceptional="no")], "curves[0].is_exceptional"),
            ([_e1_record(12, is_exceptional=0)], "curves[0].is_exceptional"),
            ([_e1_record(12), _e1_record(12, self_int=-2)], "curves[1].self_int"),
            ([_e1_record(12, genus=1)], "curves[0].genus"),
            ([_e1_record(12, is_exceptional=False)], "curves[0].is_exceptional"),
            ([{"coords": [0] + ["1/2"] * 8 + [0] * 4}], "curves[0]"),
            ([{"coords": [NON_REAL] + [0] * 12}], "curves[0].coords[0]"),
            ([_e1_record(12), {"coords": [0, ROOT_2, ROOT_3] + [0] * 10}], "curves[1].coords"),
        ],
    )
    def test_malformed_record_exit_one(self, capsys, tmp_path, curves, field):
        doc = dict(cli.load_fixture("p2_r12"), curves=curves)
        path = write_json(tmp_path, "in.json", doc)
        code, out, err = run_cli(["certify-ray", "--input", path], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field}: ")

    def test_non_integral_self_intersection_exit_one(self, capsys, tmp_path):
        # gram_Y [[1/2]]: L - E_1 - E_2 squares to -3/2, so it has no level n = -C^2
        surface = {"chi": 1, "kY_sq": "1/2", "gram_Y": [["1/2"]], "k_Y": [-1], "a_Y": [1]}
        doc = {"surface": surface, "r": 12, "curves": [{"coords": [1, -1, -1] + [0] * 10}]}
        path = write_json(tmp_path, "in.json", doc)
        code, out, err = run_cli(["certify-ray", "--input", path], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: curve self-intersection -3/2 is not an integer, "
            "so the curve has no level n = -C^2\n"
        )

    @pytest.mark.parametrize("command", ["zariski", "certify-ray"])
    def test_scalar_coordinate_exit_one(self, capsys, tmp_path, command):
        # 1 + sqrt(2) as a curve coordinate: the class is not rational, let alone integral
        curve = {"coords": [{"a": "1", "b": "1", "d": "2"}, 1]}
        doc = dict(cli.load_fixture("p2_r1"), curves=[curve], divisor=[3, -1])
        path = write_json(tmp_path, "in.json", doc)
        code, out, err = run_cli([command, "--input", path], capsys)
        assert (code, out) == (1, "")
        assert err == "error: curves[0]: curve class must have integer coordinates\n"

    @pytest.mark.parametrize("declared", [True, False])
    def test_verify_scalar_coordinate_record(self, capsys, tmp_path, declared):
        doc = {"surface": P2_SURFACE, "r": 1, "curves": [{"coords": [0, 1]}], "divisor": [3, -1]}
        out_path = tmp_path / "dec.json"
        run_cli(["zariski", "--input", write_json(tmp_path, "in.json", doc),
                 "--output", str(out_path)], capsys)
        decomposition = json.loads(out_path.read_text())
        scalar_coords = [{"a": "1", "b": "1", "d": "2"}, 1]
        if declared:
            decomposition["curves"][0]["coords"] = scalar_coords
        else:
            decomposition["curves"][0] = {"coords": scalar_coords}
        code, _, err = run_cli(["verify", write_json(tmp_path, "bad.json", decomposition)], capsys)
        assert code == 3
        assert err == ("certificate 0: curve_record_consistent violated "
                       "(curves[0]: curve class must have integer coordinates)\n")

    def test_verify_names_the_inconsistent_record(self, capsys, tmp_path):
        doc = {"surface": P2_SURFACE, "r": 2,
               "curves": [{"coords": [0, 1, 0]}, {"coords": [0, 0, 1]}], "divisor": [2, 3, 0]}
        out_path = tmp_path / "dec.json"
        run_cli(["zariski", "--input", write_json(tmp_path, "in.json", doc),
                 "--output", str(out_path)], capsys)
        decomposition = json.loads(out_path.read_text())
        decomposition["curves"][1]["self_int"] = -2
        code, _, err = run_cli(["verify", write_json(tmp_path, "bad.json", decomposition)], capsys)
        assert code == 3
        assert "curve_record_consistent violated (curves[1].self_int: " in err
        del decomposition["curves"][1]["genus"]
        code, _, err = run_cli(["verify", write_json(tmp_path, "bad.json", decomposition)], capsys)
        assert code == 1
        assert "curves[1].genus: missing required field" in err


class TestBoolInputs:
    @pytest.mark.parametrize(
        "command, edit, field",
        [
            ("zariski", lambda doc: doc.update(divisor=[3, True]), "divisor[1]"),
            ("analyze", lambda doc: doc.update(curves=[{"coords": [False, 1]}]),
             "curves[0].coords[0]"),
            ("thresholds", lambda doc: doc["surface"].update(chi=True), "chi"),
            ("segre-check", lambda doc: doc.update(pencils=[{"g": True, "dim": 0}]), "pencils[0].g"),
            ("segre-check", lambda doc: doc.update(nagata=[{"deg": 3, "mults": [1, True]}]),
             "nagata[0].mults[1]"),
            ("slice", lambda doc: doc.update(classes=[[1, False]]), "classes[0][1]"),
        ],
        ids=["divisor", "curve", "chi", "pencil", "nagata", "slice-class"],
    )
    def test_bool_as_number_exit_one(self, capsys, tmp_path, command, edit, field):
        doc = {"surface": dict(P2_SURFACE), "r": 1}
        edit(doc)
        code, _, err = run_cli([command, "--input", write_json(tmp_path, "in.json", doc)], capsys)
        assert code == 1
        assert f"{field}:" in err


class TestStrictInclusion:
    def test_witness_found_exit_zero(self, capsys, tmp_path):
        out_path = tmp_path / "witness.json"
        code, _, _ = run_cli(
            ["strict-inclusion", "--input", "fixture:p2_r11", "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "strict_inclusion"
        assert doc["construction"] == "from_s" and "route" not in doc
        assert doc["s"] == {"a": "-3", "b": "1", "d": "10"} and doc["t"] == "1"
        assert doc["lambda"] == "6"
        code, _, _ = run_cli(["verify", str(out_path)], capsys)
        assert code == 0

    def test_case_a_witness_at_c_plus_one(self, capsys, tmp_path):
        # s = A.K_Y/A^2 + 1 = 2/3 + 1
        path = write_json(tmp_path, "in.json", {"surface": POSITIVE_AK_SURFACE, "r": 1})
        out_path = tmp_path / "witness.json"
        code, _, _ = run_cli(
            ["strict-inclusion", "--input", path, "--output", str(out_path)], capsys
        )
        assert code == 0
        assert json.loads(out_path.read_text())["s"] == "5/3"
        code, _, _ = run_cli(["verify", str(out_path)], capsys)
        assert code == 0

    @pytest.mark.parametrize(
        "surface",
        [P2_SURFACE, POSITIVE_AK_SURFACE],
        ids=["plane", "positive_a_dot_k"],
    )
    def test_no_exceptional_curve_exit_two(self, capsys, tmp_path, surface):
        path = write_json(tmp_path, "in.json", {"surface": surface, "r": 0})
        code, out, err = run_cli(["strict-inclusion", "--input", path], capsys)
        assert code == 2 and out == ""
        assert "r >= 1" in err

    @pytest.mark.parametrize(
        "field, value",
        [("construction", 5), ("construction", "tilted"), ("construction", "uniruled"),
         ("curve_index", True), ("curve_index", 12)],
    )
    def test_malformed_witness_field_exit_one(self, capsys, tmp_path, field, value):
        out_path = tmp_path / "witness.json"
        run_cli(["strict-inclusion", "--input", "fixture:p2_r11", "--output", str(out_path)], capsys)
        witness = json.loads(out_path.read_text())
        witness[field] = value
        code, _, err = run_cli(["verify", write_json(tmp_path, "bad.json", witness)], capsys)
        assert code == 1
        assert field in err

    def test_no_witness_exit_two(self, capsys):
        code, _, err = run_cli(["strict-inclusion", "--input", "fixture:p2_r10"], capsys)
        assert code == 2
        # s_1 = 0 gives alpha.K = 0
        assert err == "conditions not satisfied: the witness at s = 0 fails alpha_dot_K_positive\n"


class TestSlice:
    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"labels": ["H", "E1"]}, "labels"),  # shorter than classes
            ({"labels": ["H", "E1", "conic", "extra"]}, "labels"),
            ({"labels": "HE1"}, "labels"),
            ({"labels": None}, "labels"),
            ({"labels": ["H", 5, "conic"]}, "labels[1]"),
            ({"labels": ["H", "E,1", "conic"]}, "labels[1]"),
            ({"labels": ["H", "E1", 'the "conic"']}, "labels[2]"),
            ({"labels": ["H\nE", "E1", "conic"]}, "labels[0]"),
            ({"classes": {"H": [1, 0, 0]}}, "classes"),
            ({"classes": "H"}, "classes"),
            ({"classes": True}, "classes"),
            ({"classes": [[1, 0, 0], [0, NON_REAL, 0], [1, -1, -1]]}, "classes[1][1]"),
            ({"classes": [[1, 0, 0], [0, 1, 0], [1, ROOT_2, ROOT_3]]}, "classes[2]"),
            ({"plane_normal": [NON_REAL, 0, 0]}, "plane_normal[0]"),
            ({"plane_normal": [ROOT_2, ROOT_3, 0]}, "plane_normal"),
        ],
    )
    def test_malformed_classes_and_labels_exit_one(self, capsys, tmp_path, changes, field):
        doc = {"surface": P2_SURFACE, "r": 2,
               "classes": [[1, 0, 0], [0, 1, 0], [1, -1, -1]], **changes}
        code, out, err = run_cli(["slice", "--input", write_json(tmp_path, "in.json", doc)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field}: ")

    def test_csv_output(self, capsys, tmp_path):
        doc = {"surface": P2_SURFACE, "r": 2,
               "classes": [[1, 0, 0], [0, 1, 0], [1, -1, -1]],
               "labels": ["H", "E1", "conic"]}
        path = write_json(tmp_path, "in.json", doc)
        code, out, _ = run_cli(["slice", "--input", path, "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label,x1,x2,x3,flag"
        assert lines[1].startswith("H,1,")
        assert ",at_infinity" in lines[2]


MODEL_COMMANDS = ["analyze", "thresholds", "certify-ray", "zariski", "segre-check",
                  "strict-inclusion", "slice"]


class TestSurfaceFields:
    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize("key", ["k_Y", "a_Y"])
    @pytest.mark.parametrize("value", [True, 0, None, "x"])
    def test_non_list_vector_exit_one(self, capsys, tmp_path, command, key, value):
        doc = {"surface": dict(P2_SURFACE, **{key: value}), "r": 12}
        code, out, err = run_cli([command, "--input", write_json(tmp_path, "in.json", doc)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {key}: must be a list, got ")

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    @pytest.mark.parametrize("value", [True, [], 3, None])
    def test_non_string_class_exit_one(self, capsys, tmp_path, command, value):
        doc = {"surface": dict(P2_SURFACE, **{"class": value}), "r": 12}
        code, out, err = run_cli([command, "--input", write_json(tmp_path, "in.json", doc)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: class: unknown surface class {value!r}\n"

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_adjunction_parity_names_k_y(self, capsys, tmp_path, command):
        # gram_Y[0][0] + k_Y[0] is even, but e_0.K_Y = (gram_Y k_Y)_0 = 2 makes e_0^2 + e_0.K_Y odd
        surface = {"chi": 1, "kY_sq": 2, "gram_Y": [[1, 1], [1, -1]], "k_Y": [1, 1], "a_Y": [1, 0]}
        doc = {"surface": surface, "r": 1}
        code, out, err = run_cli([command, "--input", write_json(tmp_path, "in.json", doc)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: k_Y: adjunction parity fails: e_0^2 + e_0.K_Y = 3 is odd\n"


class TestCoordinateListLength:
    """A coordinate list of the wrong length names its field."""

    def test_curve_coords_for_another_r(self, capsys, tmp_path):
        doc = dict(cli.load_fixture("p2_r12"), r=0)
        code, out, err = run_cli(
            ["certify-ray", "--input", write_json(tmp_path, "in.json", doc)], capsys
        )
        assert (code, out) == (1, "")
        assert err == "error: curves[0].coords: expected 1 coordinates, got 13\n"

    def test_short_divisor(self, capsys, tmp_path):
        doc = {"surface": P2_SURFACE, "r": 2, "divisor": [1, 0]}
        code, out, err = run_cli(
            ["zariski", "--input", write_json(tmp_path, "in.json", doc)], capsys
        )
        assert (code, out) == (1, "")
        assert err == "error: divisor: expected 3 coordinates, got 2\n"

    @pytest.mark.parametrize("field", ["divisor", "P"])
    def test_short_decomposition_field(self, capsys, tmp_path, field):
        doc = {"surface": P2_SURFACE, "r": 2, "divisor": [2, 1, 0]}
        out_path = tmp_path / "dec.json"
        run_cli(["zariski", "--input", write_json(tmp_path, "in.json", doc),
                 "--output", str(out_path)], capsys)
        decomposition = json.loads(out_path.read_text())
        decomposition[field] = decomposition[field][:2]
        code, out, err = run_cli(["verify", write_json(tmp_path, "bad.json", decomposition)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {field}: expected 3 coordinates, got 2\n"

    def test_short_slice_class(self, capsys, tmp_path):
        doc = {"surface": P2_SURFACE, "r": 2, "classes": [[1, 0, 0], [0, 1]]}
        code, out, err = run_cli(
            ["slice", "--input", write_json(tmp_path, "in.json", doc)], capsys
        )
        assert (code, out) == (1, "")
        assert err == "error: classes[1]: expected 3 coordinates, got 2\n"


FIELD_PATH = re.compile(r"error: [A-Za-z_]\w*(\[\d+\])*(\.\w+(\[\d+\])*)*: ")
MUTATIONS = [True, None, 1.5, "x", [], {}, -1, [[1]]]


@pytest.mark.parametrize("fixture", ["p2_r12", "k3_generic", "abelian"])
def test_single_field_mutations_exit_cleanly(capsys, tmp_path, fixture):
    """Each top-level and surface field set to each malformed value, through every command.

    Every command reads ``surface``, ``r`` and ``curves``.  No mutation may
    raise out of ``cli.main``, and an exit 1 must name a field path.
    """
    base = cli.load_fixture(fixture)
    paths = [(key,) for key in base] + [("surface", key) for key in base["surface"]]
    path = tmp_path / "in.json"
    failures = []
    for *parents, key in paths:
        for value in MUTATIONS:
            doc = json.loads(json.dumps(base))
            target = doc
            for parent in parents:
                target = target[parent]
            target[key] = value
            path.write_text(json.dumps(doc))
            for command in MODEL_COMMANDS:
                args = [command, "--input", str(path)]
                if command == "analyze":
                    args += ["--samples", "0"]
                try:
                    code = cli.main(args)
                except Exception as exc:  # the test reports any escape, whatever its type
                    failures.append((key, value, command, repr(exc)))
                    continue
                err = capsys.readouterr().err
                if code == 1 and not FIELD_PATH.match(err):
                    failures.append((key, value, command, err))
    assert failures == []


class TestInputHandling:
    def test_missing_input_exit_one(self, capsys):
        code, _, err = run_cli(["analyze"], capsys)
        assert code == 1
        assert "--input" in err

    def test_missing_file_exit_one(self, capsys):
        code, _, _ = run_cli(["analyze", "--input", "/nonexistent/x.json"], capsys)
        assert code == 1

    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    @pytest.mark.parametrize("command", ["certify-ray", "analyze"])
    def test_unwritable_output_exit_one(self, capsys, tmp_path, command, target):
        output = tmp_path / "missing" / "x.json" if target == "missing_directory" else tmp_path
        code, out, err = run_cli(
            [command, "--input", "fixture:p2_r12", "--samples", "0", "--output", str(output)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: --output: ")


JSON_ATOMS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**30, max_value=10**60).map(lambda n: -n if n % 2 else n)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.text(alphabet=st.characters(min_codepoint=0x80))
)
JSON_TREES = st.recursive(
    JSON_ATOMS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(st.text(max_size=3), max_size=4)
    | st.lists(st.integers(), max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=30,
)

# trees built from a few dict objects, each of which may appear many times at any depth
SHARED_TREES = st.lists(
    st.dictionaries(st.text(max_size=3), JSON_TREES, min_size=1, max_size=3), min_size=1, max_size=3
).flatmap(
    lambda pool: st.recursive(
        st.sampled_from(pool),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=3), children, max_size=4),
        max_leaves=12,
    )
)


class TestIndentedJson:
    """The report writer against ``json.dumps(value, indent=2)``, its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_TREES)
    @example({"a": [], "b": {}, "c": [[]], "d": ({"e": ()},), "\u00e9\u2028": "\ud83d\ude00\x00\""})
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 2**100, True, None])
    @example(["1", "-1/2", {"a": "1", "b": "1", "d": "2"}, 3, [1, 2], []])
    def test_equals_json_dumps(self, value):
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    def test_shared_dicts_equal_json_dumps(self):
        shared = {"a": ["1", "2"], "b": {"c": None}}
        cases = [
            [shared, shared],  # twice at one indent
            {"x": shared, "y": [shared, {"z": shared}]},  # at three indents
            [shared, {"v": shared}, shared],  # a list item and a dict value
            {"outer": shared, "inner": shared["b"], "again": [shared["b"]]},  # its own child
        ]
        for value in cases:
            assert cli._indented_json(value) == json.dumps(value, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(SHARED_TREES)
    def test_trees_of_shared_subtrees_equal_json_dumps(self, value):
        assert cli._indented_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1: 2}, {None: 1}, [Fraction(1, 2)], {"a": {1, 2}}, b"x"])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._indented_json(value)
