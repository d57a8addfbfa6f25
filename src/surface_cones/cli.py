"""Command-line front door: surface JSON in, reports and certificates out.

Exit codes: 0 success (witness/certificate produced, checks pass), 1 input
or schema error (diagnostic names the offending field), 2 mathematical
infeasibility (the binding inequality is printed), 3 a certificate failed
re-verification (first violated invariant named).  Output is deterministic
for a fixed (input, seed, package version).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
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
from .lattice import BlowupModel, DivisorClass, SurfaceKind, intersect, parse_int, parse_rational
from .scalar import scalar_to_json, sign
from .thresholds import ConditionCheck, ThresholdContext

def fixture_path(name: str) -> Path:
    """Path of a bundled fixture, e.g. ``p2_r12`` or ``k3_generic``."""
    return Path(str(resources.files("surface_cones") / "fixtures" / f"{name}.json"))


def load_fixture(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def _load_input(input_path: str | None) -> dict:
    if input_path is None:
        raise ModelValidationError("no input file given", "--input")
    if input_path.startswith("fixture:"):
        path = fixture_path(input_path.split(":", 1)[1])
    else:
        path = Path(input_path)
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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise ModelValidationError(f"cannot write output: {exc}", "--output")
    else:
        sys.stdout.write(text)


def _emit_report(args: argparse.Namespace, report: dict) -> None:
    if args.format == "text":
        _emit(args, _render_text(report) + "\n")
    else:
        _emit(args, _indented_json(report) + "\n")


def _indented_json(value) -> str:
    """``json.dumps(value, indent=2)``, character for character, written by one recursion.

    Strings go through the C ``encode_basestring_ascii``, and a list of only
    strings or only ints is written with one join.  The types are those
    ``json`` writes without a ``default``: dicts with string keys, lists,
    tuples, strings, ints, floats, booleans and None; any other raises
    TypeError.  Unlike ``json.dumps`` it does not check for cycles.
    """
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _float_json(value: float) -> str:
    """A float as ``json`` writes it: its repr, or NaN, Infinity and -Infinity."""
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == -float("inf"):
        return "-Infinity"
    return float.__repr__(value)


# the text of a value of exactly one of these types; subclasses take the isinstance tests
_ATOMS = {
    str: _quote,
    int: int.__repr__,
    float: _float_json,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the text of ``value`` to ``out``; ``newline`` is the line break and its indent."""
    atom = _ATOMS.get(type(value))
    if atom is not None:
        out.append(atom(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        prefix = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            atom = _ATOMS.get(type(item))
            if atom is not None:
                out.append(prefix + _quote(key) + ": " + atom(item))
            else:
                out.append(prefix + _quote(key) + ": ")
                _write_json(item, inner, out)
            prefix = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        if all(type(item) is str for item in value):
            out.append("[" + inner + separator.join(map(_quote, value)) + newline + "]")
        elif all(type(item) is int for item in value):
            out.append("[" + inner + separator.join(map(int.__repr__, value)) + newline + "]")
        else:
            prefix = "[" + inner
            for item in value:
                atom = _ATOMS.get(type(item))
                if atom is not None:
                    out.append(prefix + atom(item))
                else:
                    out.append(prefix)
                    _write_json(item, inner, out)
                prefix = separator
            out.append(newline + "]")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_json(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_text(report: dict, indent: str = "") -> str:
    """One ``key: value`` line per field, a dict as an indented block; no final newline.

    A serialized scalar, or a list of them, shows each scalar's ``str``
    value, any other list of dicts only its length.
    """
    lines = []
    for key, value in report.items():
        if isinstance(value, dict) and (scalar := _scalar_texts([value])) is not None:
            lines.append(f"{indent}{key}: {scalar[0]}")
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list) and value and (scalars := _scalar_texts(value)) is not None:
            lines.append(f"{indent}{key}: [{', '.join(scalars)}]")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}: [{len(value)} entries]")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line)


def _scalar_texts(values: list) -> list[str] | None:
    """The ``str`` of each entry read as a serialized scalar, or None if one is not."""
    try:
        return [str(serialize._scalar_from_json(v, "")) for v in values]
    except MalformedValueError:
        return None


@dataclasses.dataclass
class _Input:
    """An input document with the fields its command reads parsed and validated.

    Fields the command does not read keep their defaults.
    """

    doc: dict
    model: BlowupModel
    curves: list[zariski.NegativeCurveRecord]
    bounds: segre.SegreBounds | None = None
    divisor: DivisorClass | None = None
    # (g, dim, g and dim as written, which the report echoes)
    pencils: list[tuple[Fraction, Fraction, str, str]] = dataclasses.field(default_factory=list)
    # (variant, deg, mults)
    nagata: list[tuple[segre.NagataVariant, Fraction, list[Fraction]]] = dataclasses.field(
        default_factory=list
    )
    classes: list[DivisorClass] = dataclasses.field(default_factory=list)
    labels: list[str] | None = None
    plane_normal: DivisorClass | None = None


def _parse(doc: dict, reads: tuple[str, ...]) -> _Input:
    """Parse ``surface``, ``r`` and ``curves``, then each field of ``reads``, in that order.

    ``nu`` and ``pi`` are read together into ``bounds``; without them, and
    for ``chi``, ``bounds`` is derived from chi, which must be an integer.
    ``curves`` defaults to the exceptional classes E_1..E_r.
    """
    model = serialize.blowup_from_json(doc)
    parsed = _Input(doc, model, serialize._document_curves(model, doc))
    if "nu" in reads and ("nu" in doc or "pi" in doc):
        nu = parse_int(doc.get("nu", 1), "nu", 1)
        pi = parse_int(doc.get("pi", 0), "pi", 0)
        parsed.bounds = segre.SegreBounds(nu=nu, pi=pi, exceptional_only=False)
    elif "nu" in reads or "chi" in reads:
        chi = model.base.chi
        if chi.denominator != 1:
            raise ModelValidationError(f"must be an integer to derive nu and pi, got {chi}", "chi")
        parsed.bounds = segre.segre_bounds(chi)
    if "divisor" in reads:
        if "divisor" not in doc:
            raise ModelValidationError("missing required field", "divisor")
        parsed.divisor = serialize.divisor_from_json(model, doc["divisor"], "divisor")
    if "pencils" in reads:
        for i, pencil in enumerate(_entries(doc, "pencils", ("g", "dim"))):
            at = f"pencils[{i}]"
            g, dim = (parse_rational(pencil[name], f"{at}.{name}") for name in ("g", "dim"))
            for name, value in (("g", g), ("dim", dim)):
                if value.denominator != 1:
                    raise ModelValidationError(f"must be an integer, got {value}", f"{at}.{name}")
                if value < 0:
                    raise ModelValidationError(f"must be nonnegative, got {value}", f"{at}.{name}")
            parsed.pencils.append((g, dim, str(pencil["g"]), str(pencil["dim"])))
    if "nagata" in reads:
        for i, entry in enumerate(_entries(doc, "nagata", ("deg", "mults"))):
            at = f"nagata[{i}]"
            try:
                variant = segre.NagataVariant(entry.get("variant", "nagata"))
            except ValueError:
                raise ModelValidationError(
                    f"not a Nagata variant: {entry['variant']!r}", f"{at}.variant"
                )
            mults = _list(entry["mults"], f"{at}.mults", "rational numbers")
            deg = parse_rational(entry["deg"], f"{at}.deg")
            if deg <= 0:
                raise ModelValidationError(f"must be positive, got {deg}", f"{at}.deg")
            if not mults:
                raise ModelValidationError("needs at least one multiplicity", f"{at}.mults")
            mults = [parse_rational(m, f"{at}.mults[{j}]") for j, m in enumerate(mults)]
            for j, m in enumerate(mults):
                if m < 0:
                    raise ModelValidationError(f"must be nonnegative, got {m}", f"{at}.mults[{j}]")
            parsed.nagata.append((variant, deg, mults))
    if "classes" in reads:
        parsed.classes = [
            serialize.divisor_from_json(model, coords, f"classes[{i}]")
            for i, coords in enumerate(_list(doc.get("classes", []), "classes", "coordinate lists"))
        ]
    if "labels" in reads and "labels" in doc:
        parsed.labels = _list(doc["labels"], "labels", "strings")
        if len(parsed.labels) != len(parsed.classes):
            raise ModelValidationError(
                f"{len(parsed.labels)} labels for {len(parsed.classes)} classes", "labels"
            )
        for i, label in enumerate(parsed.labels):
            if not isinstance(label, str) or any(c in label for c in ',"\r\n'):
                raise MalformedValueError(
                    f"must be a string without commas, quotes or line breaks, got {label!r}",
                    f"labels[{i}]",
                )
    if "plane_normal" in reads:
        parsed.plane_normal = (
            serialize.divisor_from_json(model, doc["plane_normal"], "plane_normal")
            if "plane_normal" in doc
            else model.line()
        )
    return parsed


def _list(value, field: str, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedValueError(f"must be a list of {what}, got {value!r}", field)
    return value


def _entries(doc: dict, key: str, fields: tuple[str, ...]) -> list[dict]:
    """The optional list ``doc[key]`` of objects that each hold ``fields``; [] when absent."""
    entries = _list(doc.get(key, []), key, "objects")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise MalformedValueError(f"must be an object, got {entry!r}", f"{key}[{i}]")
        for name in fields:
            if name not in entry:
                raise ModelValidationError("missing required field", f"{key}[{i}].{name}")
    return entries


def _condition_json(condition) -> dict[str, Any]:
    return {
        "satisfied": condition.satisfied,
        "binding": condition.binding,
        "slack": str(condition.slack),
    }


def _r_condition(inp: _Input) -> ConditionCheck | None:
    """The r-condition of the input's (nu, pi), or None once its binding inequality is written."""
    ctx = ThresholdContext.from_model(inp.model)
    condition = thresholds.check_conditions(ctx, inp.bounds.nu, inp.bounds.pi)
    if condition.satisfied:
        return condition
    sys.stderr.write(f"conditions unsatisfied: binding inequality {condition.binding}\n")
    return None


def _cmd_thresholds(args: argparse.Namespace, inp: _Input) -> int:
    model, bounds = inp.model, inp.bounds
    ctx = ThresholdContext.from_model(model)
    values = thresholds.s_monotonicity(ctx, bounds.nu)
    condition = _r_condition(inp)
    if condition is None:
        return 2
    report = {
        "command": "thresholds",
        "seed": args.seed,
        "input": inp.doc,
        **dataclasses.asdict(bounds),
        "condition": {**_condition_json(condition), "q": str(condition.q)},
        "thresholds": [scalar_to_json(v) for v in values],
        # v.L < 0 for v = K - s_nu L and nef L, so v is not effective
        "k_minus_sl_dot_l": scalar_to_json(ctx.AK - values[-1] * ctx.A_sq),
    }
    _emit_report(args, report)
    return 0


def _cmd_certify_ray(args: argparse.Namespace, inp: _Input) -> int:
    if not inp.curves:
        # verify rejects an empty certificate list, so none is written
        raise ModelValidationError("no curve to certify: list one, or give r >= 1", "curves")
    documents = serialize._ray_certificates_to_json(inp.model, inp.curves)
    report = {
        "kind": "certificate_list",
        "command": "certify-ray",
        "seed": args.seed,
        "certificates": documents,
    }
    _emit_report(args, report)
    invalid = [doc for doc in documents if not doc["valid"]]
    if invalid:
        count, failing = _curve_count(invalid), invalid[0]["failing"]
        sys.stderr.write(f"{count} certificate(s) invalid: {failing}\n")
        return 2
    return 0


def _cmd_zariski(args: argparse.Namespace, inp: _Input) -> int:
    try:
        decomposition = zariski.ne_decompose(inp.divisor, inp.curves)
    except PreconditionError as exc:
        # its preconditions concern the divisor alone: the parsed curves share its model
        raise ModelValidationError(str(exc), "divisor") from exc
    report = serialize.zariski_to_json(decomposition)
    report["command"] = "zariski"
    report["seed"] = args.seed
    _emit_report(args, report)
    return 0


def _cmd_segre_check(args: argparse.Namespace, inp: _Input) -> int:
    model, bounds = inp.model, inp.bounds
    chi = model.base.chi
    curve_rows = []
    for i, record in enumerate(inp.curves):
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
    for i, (g, dim, g_text, dim_text) in enumerate(inp.pencils):
        outcome = segre.pencil_counterexample(chi, g, dim)
        pencil_rows.append(
            {
                "index": i,
                "g": g_text,
                "dim": dim_text,
                "verdict": outcome.verdict.value,
                "expected_chi": str(outcome.expected_chi),
                "chi_bound_holds": outcome.chi_bound_holds,
            }
        )
    nagata_rows = [
        {"index": i, "variant": variant.value, "holds": segre.nagata_checks(deg, mults, variant)}
        for i, (variant, deg, mults) in enumerate(inp.nagata)
    ]
    report = {
        "command": "segre-check",
        "seed": args.seed,
        "chi": str(chi),
        "bounds": dataclasses.asdict(bounds),
        "curves": curve_rows,
        "pencils": pencil_rows,
        "nagata": nagata_rows,
    }
    if args.format == "text":
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
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit_report(args, report)
    return 0


def _cmd_strict_inclusion(args: argparse.Namespace, inp: _Input) -> int:
    model = inp.model
    if model.r < 1:
        sys.stderr.write("conditions not satisfied: the witness curve E_1 needs r >= 1\n")
        return 2
    witness = strict_inclusion.alpha_from_s(model, strict_inclusion.witness_parameter(model), 1)
    if not witness.valid:
        sys.stderr.write(
            f"conditions not satisfied: the witness at s = {witness.s} fails {witness.failing}\n"
        )
        return 2
    report = serialize.witness_to_json(strict_inclusion.gamma_witness(witness))
    report["command"] = "strict-inclusion"
    report["seed"] = args.seed
    _emit_report(args, report)
    return 0


def _cmd_analyze(args: argparse.Namespace, inp: _Input) -> int:
    model, bounds = inp.model, inp.bounds
    condition = _r_condition(inp)
    if condition is None:
        return 2
    main = thresholds.cone_equality_check(model, inp.curves, bounds.nu, bounds.pi)
    # the witness parameter only: strict-inclusion builds and checks the witness
    strict_report: dict[str, Any] = {
        "s": scalar_to_json(strict_inclusion.witness_parameter(model)),
    }
    if model.r >= 2:
        value = strict_inclusion.uniruled_value(model)
        strict_report["uniruled_value"] = scalar_to_json(value)
        strict_report["uniruled_satisfied"] = sign(value) > 0
    report = {
        "command": "analyze",
        "seed": args.seed,
        # echoed only: the lemma proves what a sampler would test
        "samples": args.samples,
        "input": inp.doc,
        "segre_bounds": dataclasses.asdict(bounds),
        "condition": _condition_json(condition),
        "thresholds": [scalar_to_json(v) for v in main.thresholds],
        "main_theorem": {
            "s": scalar_to_json(main.s),
            # the curves decided and those trapped: see cone_equality_check
            "certificates": len(main.trapped),
            "certificates_valid": sum(main.trapped),
            # empty whenever "passed" can be true: see cone_equality_check
            "counterexamples": [],
            "passed": main.passed,
        },
        "strict_inclusion": strict_report,
    }
    _emit_report(args, report)
    return 0 if main.passed else 2


def _cmd_slice(args: argparse.Namespace, inp: _Input) -> int:
    rows = slice_export(inp.model, inp.classes, inp.plane_normal, labels=inp.labels)
    _emit(args, render_slice_csv(rows, inp.model.rank))
    return 0


def _cmd_verify(args: argparse.Namespace, doc: dict) -> int:
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
    _emit(args, f"verified {_curve_count(documents)} certificate(s): all invariants hold\n")
    return 0


def _curve_count(documents: list[dict]) -> int:
    """The curves that certificate documents cover: a ray certificate's member rows count too."""
    return sum(
        1 + len(doc.get("members", ())) if doc["kind"] == serialize.RAY_KIND else 1
        for doc in documents
    )


# Each model command's handler and the fields it reads besides surface, r and curves;
# "chi" asks for the bounds nu and pi derived from the surface's chi.
_HANDLERS = {
    "analyze": (_cmd_analyze, ("nu", "pi")),
    "thresholds": (_cmd_thresholds, ("nu", "pi")),
    "certify-ray": (_cmd_certify_ray, ()),
    "zariski": (_cmd_zariski, ("divisor",)),
    "segre-check": (_cmd_segre_check, ("chi", "pencils", "nagata")),
    "strict-inclusion": (_cmd_strict_inclusion, ()),
    "slice": (_cmd_slice, ("classes", "labels", "plane_normal")),
}


def run(args: argparse.Namespace) -> int:
    """Dispatch one parsed command line; maps typed errors to the documented exit codes."""
    try:
        doc = _load_input(getattr(args, "certificate", None) or args.input)
        if args.command == "verify":
            return _cmd_verify(args, doc)
        handler, reads = _HANDLERS[args.command]
        return handler(args, _parse(doc, reads))
    except (ThresholdError, ZariskiError) as exc:
        binding = getattr(exc, "binding", None)
        sys.stderr.write(f"infeasible: {exc}" + (f" [{binding}]" if binding else "") + "\n")
        return 2
    except SurfaceConesError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="surface-cones",
        description="Exact cone computations and certificates on blown-up surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_HANDLERS, "verify"):
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
    if args.samples < 0:
        sys.stderr.write("error: --samples must be nonnegative\n")
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
