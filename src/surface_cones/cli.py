"""Command-line front door: surface JSON in, reports and certificates out.

Exit codes: 0 success (witness/certificate produced, checks pass), 1 input
or schema error (diagnostic names the offending field), 2 mathematical
infeasibility (the binding inequality is printed), 3 a certificate failed
re-verification (first violated invariant named).  Output is deterministic
for a fixed (input, seed, package version).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from . import segre, serialize, strict_inclusion, thresholds, zariski
from .cones import render_slice_csv, slice_export
from .errors import (
    CertificateError,
    MalformedValueError,
    ModelValidationError,
    PreconditionError,
    SurfaceConesError,
    ThresholdError,
    ZariskiError,
)
from .lattice import BlowupModel, SurfaceKind, intersect
from .scalar import scalar_to_json, sign
from .thresholds import ThresholdContext

COMMANDS = (
    "analyze",
    "thresholds",
    "certify-ray",
    "zariski",
    "segre-check",
    "strict-inclusion",
    "slice",
    "verify",
)


@dataclass
class RunConfig:
    command: str
    input_path: str | None
    output_path: str | None
    seed: int
    samples: int
    format: str


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture, e.g. ``p2_r12`` or ``k3_generic``."""
    return Path(str(resources.files("surface_cones") / "fixtures" / f"{name}.json"))


def load_fixture(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def _load_input(config: RunConfig) -> dict:
    if config.input_path is None:
        raise ModelValidationError("no input file given", "--input")
    if config.input_path.startswith("fixture:"):
        path = fixture_path(config.input_path.split(":", 1)[1])
    else:
        path = Path(config.input_path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelValidationError(f"cannot read input: {exc}", "--input")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ModelValidationError("top-level JSON must be an object", "--input")
    return doc


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        Path(config.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_report(config: RunConfig, report: dict) -> None:
    if config.format == "text":
        _emit(config, _render_text(report))
    else:
        _emit(config, json.dumps(report, indent=2) + "\n")


def _render_text(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line)


def _model_and_curves(doc: dict) -> tuple[BlowupModel, list[zariski.NegativeCurveRecord]]:
    model = serialize.blowup_from_json(doc)
    if "curves" in doc:
        curves = serialize._curves_from_json(model, doc["curves"])
    else:
        curves = [
            zariski.NegativeCurveRecord.from_class(model.exceptional(i))
            for i in range(1, model.r + 1)
        ]
    return model, curves


def _bounds(doc: dict, model: BlowupModel) -> segre.SegreBounds:
    if "nu" in doc or "pi" in doc:
        nu = serialize._int_from_json(doc.get("nu", 1), "nu")
        pi = serialize._int_from_json(doc.get("pi", 0), "pi")
        return segre.SegreBounds(nu=nu, pi=pi, exceptional_only=False)
    return segre.segre_bounds(model.base.chi)


def _cmd_thresholds(config: RunConfig, doc: dict) -> int:
    model, _ = _model_and_curves(doc)
    ctx = ThresholdContext.from_model(model)
    bounds = _bounds(doc, model)
    values = thresholds.s_monotonicity(ctx, bounds.nu)
    condition = thresholds.check_conditions(ctx, bounds.nu, bounds.pi)
    if not condition.satisfied:
        sys.stderr.write(f"conditions unsatisfied: binding inequality {condition.binding}\n")
        return 2
    delta = thresholds.delta_cap(model)
    report = {
        "command": "thresholds",
        "seed": config.seed,
        "input": doc,
        "nu": bounds.nu,
        "pi": bounds.pi,
        "exceptional_only": bounds.exceptional_only,
        "condition": {
            "satisfied": condition.satisfied,
            "binding": condition.binding,
            "slack": str(condition.slack),
            "q": str(condition.q),
        },
        "thresholds": [scalar_to_json(v) for v in values],
        "delta": str(delta),
        "k_minus_sl_dot_h": scalar_to_json(
            thresholds.k_minus_sl_h_negative(model, values[-1], delta)
        ),
    }
    _emit_report(config, report)
    return 0


def _cmd_certify_ray(config: RunConfig, doc: dict) -> int:
    model, curves = _model_and_curves(doc)
    certs = thresholds.certify_list(model, curves)
    report = {
        "kind": "certificate_list",
        "command": "certify-ray",
        "seed": config.seed,
        "certificates": [serialize.ray_certificate_to_json(model, c) for c in certs],
    }
    _emit_report(config, report)
    invalid = [c for c in certs if not c.valid]
    if invalid:
        sys.stderr.write(f"{len(invalid)} certificate(s) invalid: {invalid[0].failing}\n")
        return 2
    return 0


def _cmd_zariski(config: RunConfig, doc: dict) -> int:
    model, curves = _model_and_curves(doc)
    if "divisor" not in doc:
        raise ModelValidationError("missing required field", "divisor")
    divisor = serialize.divisor_from_json(model, doc["divisor"], "divisor")
    decomposition = zariski.ne_decompose(divisor, curves)
    report = serialize.zariski_to_json(decomposition)
    report["command"] = "zariski"
    report["seed"] = config.seed
    _emit_report(config, report)
    return 0


def _entries(doc: dict, key: str, fields: tuple[str, ...]) -> list[dict]:
    """The optional list ``doc[key]`` of objects that each hold ``fields``; [] when absent."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise MalformedValueError(f"must be a list of objects, got {entries!r}", key)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MalformedValueError(f"must be an object, got {entry!r}", f"{key}[{i}]")
        for name in fields:
            if name not in entry:
                raise ModelValidationError("missing required field", f"{key}[{i}].{name}")
    return entries


def _cmd_segre_check(config: RunConfig, doc: dict) -> int:
    model, curves = _model_and_curves(doc)
    chi = model.base.chi
    bounds = segre.segre_bounds(chi)
    curve_rows = []
    for i, record in enumerate(curves):
        row: dict[str, Any] = {
            "index": i,
            "self_int": str(record.self_int),
            "genus": str(record.genus),
            "bound_chain": segre.curve_bound_check(record.self_int, record.genus, chi),
        }
        if model.base.kind is SurfaceKind.K3:
            ck = intersect(record.cls, model.canonical())
            row["k3_kind"] = segre.classify_k3_record(record, ck).value
        curve_rows.append(row)
    pencil_rows = []
    for i, pencil in enumerate(_entries(doc, "pencils", ("g", "dim"))):
        outcome = segre.pencil_counterexample(
            chi,
            serialize._number_from_json(pencil["g"], f"pencils[{i}].g"),
            serialize._number_from_json(pencil["dim"], f"pencils[{i}].dim"),
            pg=model.base.pg,
            q=model.base.irregularity,
        )
        pencil_rows.append(
            {
                "index": i,
                "g": str(pencil["g"]),
                "dim": str(pencil["dim"]),
                "verdict": outcome.verdict.value,
                "expected_chi": str(outcome.expected_chi),
                "chi_bound_holds": outcome.chi_bound_holds,
            }
        )
    nagata_rows = []
    for i, entry in enumerate(_entries(doc, "nagata", ("deg", "mults"))):
        try:
            variant = segre.NagataVariant(entry.get("variant", "nagata"))
        except ValueError:
            raise ModelValidationError(
                f"not a Nagata variant: {entry['variant']!r}", f"nagata[{i}].variant"
            )
        mults = entry["mults"]
        if not isinstance(mults, list):
            raise MalformedValueError(f"must be a list, got {mults!r}", f"nagata[{i}].mults")
        nagata_rows.append(
            {
                "index": i,
                "variant": variant.value,
                "holds": segre.nagata_checks(
                    serialize._number_from_json(entry["deg"], f"nagata[{i}].deg"),
                    [
                        serialize._number_from_json(m, f"nagata[{i}].mults[{j}]")
                        for j, m in enumerate(mults)
                    ],
                    variant,
                ),
            }
        )
    report = {
        "command": "segre-check",
        "seed": config.seed,
        "chi": str(chi),
        "bounds": {
            "nu": bounds.nu,
            "pi": bounds.pi,
            "exceptional_only": bounds.exceptional_only,
        },
        "curves": curve_rows,
        "pencils": pencil_rows,
        "nagata": nagata_rows,
    }
    if config.format == "text":
        lines = [
            f"chi = {chi}: nu = {bounds.nu}, pi = {bounds.pi}"
            + (" (all negative curves must be exceptional)" if bounds.exceptional_only else "")
        ]
        if curve_rows:
            lines.append(f"{'idx':>4} {'C^2':>6} {'p_a':>5} {'chain':>6}" + ("  kind" if model.base.kind is SurfaceKind.K3 else ""))
            for row in curve_rows:
                line = f"{row['index']:>4} {row['self_int']:>6} {row['genus']:>5} {str(row['bound_chain']):>6}"
                if "k3_kind" in row:
                    line += f"  {row['k3_kind']}"
                lines.append(line)
        for row in pencil_rows:
            lines.append(
                f"pencil g={row['g']} dim={row['dim']}: {row['verdict']}"
                f" (chi = {chi} vs dim+g+1 = {row['expected_chi']})"
            )
        for row in nagata_rows:
            lines.append(f"nagata[{row['index']}] {row['variant']}: {row['holds']}")
        _emit(config, "\n".join(lines) + "\n")
    else:
        _emit_report(config, report)
    return 0


def _cmd_strict_inclusion(config: RunConfig, doc: dict) -> int:
    model, _ = _model_and_curves(doc)
    labels = strict_inclusion.condition_sets(model)
    intervals = strict_inclusion.solve_s_system(model) if labels else []
    witness = None
    route = None
    for interval in intervals:
        if interval.sample is None:
            continue
        candidate = strict_inclusion.alpha_from_s(model, interval.sample, 1)
        if candidate.valid:
            witness = strict_inclusion.gamma_witness(candidate)
            route = "from_s"
            break
    uniruled_value = None
    if witness is None and model.r >= 2:
        outcome = strict_inclusion.uniruled_witness(model)
        uniruled_value = outcome.value
        if outcome.satisfied and outcome.witness is not None and outcome.witness.valid:
            witness = strict_inclusion.gamma_witness(outcome.witness)
            route = "uniruled"
    if witness is None or not witness.valid:
        message = "conditions not satisfied: no witness available"
        if not labels:
            message += " (none of the four condition systems holds)"
        if uniruled_value is not None:
            message += f"; uniruled criterion value sign {sign(uniruled_value)}"
        sys.stderr.write(message + "\n")
        return 2
    report = serialize.witness_to_json(witness)
    report["command"] = "strict-inclusion"
    report["seed"] = config.seed
    report["route"] = route
    report["condition_sets"] = sorted(label.value for label in labels)
    report["intervals"] = [
        {
            "lower": scalar_to_json(i.lower),
            "lower_strict": i.lower_strict,
            "upper": None if i.upper is None else scalar_to_json(i.upper),
            "upper_strict": i.upper_strict,
            "sample": None if i.sample is None else str(i.sample),
        }
        for i in intervals
    ]
    _emit_report(config, report)
    return 0


def _cmd_analyze(config: RunConfig, doc: dict) -> int:
    model, curves = _model_and_curves(doc)
    ctx = ThresholdContext.from_model(model)
    bounds = _bounds(doc, model)
    condition = thresholds.check_conditions(ctx, bounds.nu, bounds.pi)
    if not condition.satisfied:
        sys.stderr.write(f"conditions unsatisfied: binding inequality {condition.binding}\n")
        return 2
    values = thresholds.s_monotonicity(ctx, bounds.nu)
    main = thresholds.main_theorem_check(
        model, curves, bounds.nu, bounds.pi, samples=config.samples, seed=config.seed
    )
    labels = strict_inclusion.condition_sets(model)
    intervals = strict_inclusion.solve_s_system(model) if labels else []
    strict_report: dict[str, Any] = {
        "condition_sets": sorted(label.value for label in labels),
        "intervals": [
            {
                "lower": scalar_to_json(i.lower),
                "upper": None if i.upper is None else scalar_to_json(i.upper),
                "sample": None if i.sample is None else str(i.sample),
            }
            for i in intervals
        ],
    }
    if model.r >= 2:
        outcome = strict_inclusion.uniruled_witness(model)
        strict_report["uniruled_value"] = scalar_to_json(outcome.value)
        strict_report["uniruled_satisfied"] = outcome.satisfied
    report = {
        "command": "analyze",
        "seed": config.seed,
        "samples": config.samples,
        "input": doc,
        "segre_bounds": {
            "nu": bounds.nu,
            "pi": bounds.pi,
            "exceptional_only": bounds.exceptional_only,
        },
        "condition": {
            "satisfied": condition.satisfied,
            "binding": condition.binding,
            "slack": str(condition.slack),
        },
        "thresholds": [scalar_to_json(v) for v in values],
        "main_theorem": {
            "s": scalar_to_json(main.s),
            "certificates": len(main.certificates),
            "certificates_valid": sum(1 for c in main.certificates if c.valid),
            "counterexamples": [
                [str(v) for v in ce.coords] for ce in main.counterexamples
            ],
            "passed": main.passed,
        },
        "strict_inclusion": strict_report,
    }
    _emit_report(config, report)
    return 0 if main.passed else 2


def _cmd_slice(config: RunConfig, doc: dict) -> int:
    model, _ = _model_and_curves(doc)
    classes = [
        serialize.divisor_from_json(model, coords, f"classes[{i}]")
        for i, coords in enumerate(doc.get("classes", []))
    ]
    labels = doc.get("labels")
    normal = (
        serialize.divisor_from_json(model, doc["plane_normal"], "plane_normal")
        if "plane_normal" in doc
        else model.line()
    )
    rows = slice_export(model, classes, normal, labels=labels)
    _emit(config, render_slice_csv(rows, model.rank))
    return 0


def _cmd_verify(config: RunConfig, doc: dict) -> int:
    documents = doc["certificates"] if "certificates" in doc else [doc]
    if not isinstance(documents, list) or not documents:
        raise ModelValidationError(
            "must be a non-empty list of certificate documents", "certificates"
        )
    failure = serialize._verify_documents(documents)
    if failure is not None:
        index, failing = failure
        sys.stderr.write(f"certificate {index}: {failing}\n")
        return 3
    sys.stdout.write(f"verified {len(documents)} certificate(s): all invariants hold\n")
    return 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "thresholds": _cmd_thresholds,
    "certify-ray": _cmd_certify_ray,
    "zariski": _cmd_zariski,
    "segre-check": _cmd_segre_check,
    "strict-inclusion": _cmd_strict_inclusion,
    "slice": _cmd_slice,
    "verify": _cmd_verify,
}


def run(config: RunConfig) -> int:
    """Dispatch one command; maps typed errors to the documented exit codes."""
    try:
        doc = _load_input(config)
        return _HANDLERS[config.command](config, doc)
    except (ThresholdError, ZariskiError) as exc:
        binding = getattr(exc, "binding", None)
        sys.stderr.write(f"infeasible: {exc}" + (f" [{binding}]" if binding else "") + "\n")
        return 2
    except (ModelValidationError, CertificateError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SurfaceConesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surface-cones",
        description="Exact cone computations and certificates on blown-up surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        if name == "verify":
            cmd.add_argument("certificate", nargs="?", help="certificate JSON path")
        cmd.add_argument("--input", help="surface JSON path, or fixture:NAME")
        cmd.add_argument("--output", help="write the report here instead of stdout")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--samples", type=int, default=1000)
        cmd.add_argument("--format", choices=("json", "text", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    input_path = getattr(args, "certificate", None) or args.input
    if args.samples < 0:
        sys.stderr.write("error: --samples must be nonnegative\n")
        return 1
    config = RunConfig(
        command=args.command,
        input_path=input_path,
        output_path=args.output,
        seed=args.seed,
        samples=args.samples,
        format=args.format,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
