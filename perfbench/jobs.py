"""The workloads' fixed job lists, their prepared inputs and each job's correctness gate.

A job is either a CLI call, ``surface_cones.cli.main(argv)`` with the
report written to a file, or a call of a public library function.  Its gate
returns None when the output is correct and otherwise names what is wrong.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import gen

# analyze jobs per fixture; uneven, so that the median and the tail percentile
# of the job latencies fall inside one fixture's cluster, not between two
ANALYZE_MIX = {"p2_r10": 2, "p2_r12": 3, "k3_generic": 3, "p2_r17": 4}
ANALYZE_SAMPLES = 250
# At r = 10 the plane has no strict-inclusion witness (the command exits 2).
STRICT_RUNGS = (17, 25, 35)
LIST_CHECK_RUNGS = (10, 17)
LIST_CHECK_SAMPLES = 3

WORKLOADS = ("analyze-sample", "build-certs", "verify-certs")


@dataclass
class Result:
    exit_code: int | None
    output: bytes
    stderr: str
    value: Any
    seconds: float


@dataclass
class Job:
    name: str
    gate: Callable[["Job", Result], str | None]
    argv: list[str] | None = None
    output: Path | None = None
    call: Callable[[], Any] | None = None
    expect_exit: int = 0
    # the certificate document a verify job checks, for the output-derived counts
    checked: Path | None = None

    def run(self, cli) -> Result:
        """Run the job once; the timed region is the CLI call or the library call alone."""
        if self.call is not None:
            start = perf_counter()
            value = self.call()
            seconds = perf_counter() - start
            return Result(None, repr(value).encode(), "", value, seconds)
        if self.output is not None and self.output.exists():
            self.output.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self.argv)
        seconds = perf_counter() - start
        output = stdout.getvalue().encode()
        if self.output is not None and self.output.exists():
            output = self.output.read_bytes() + output
        return Result(code, output, stderr.getvalue(), None, seconds)

    def check(self, result: Result) -> str | None:
        if self.call is None and result.exit_code != self.expect_exit:
            stderr = result.stderr.strip()[:200]
            return f"exit {result.exit_code}, expected {self.expect_exit}: {stderr}"
        return self.gate(self, result)

    def document(self, result: Result) -> dict:
        """The JSON document a CLI job produced or checked; the basis of the derived counts."""
        if self.checked is not None:
            return json.loads(self.checked.read_text())
        return json.loads(result.output)


# -- gates -------------------------------------------------------------------


def _gate_analyze(job: Job, result: Result) -> str | None:
    main = json.loads(result.output)["main_theorem"]
    if not main["passed"]:
        return "analyze did not pass"
    if main["certificates_valid"] != main["certificates"]:
        return f"{main['certificates_valid']} of {main['certificates']} certificates valid"
    return None


def _reverify(docs: list[dict]) -> str | None:
    from surface_cones import serialize

    for i, doc in enumerate(docs):
        verdict = serialize.verify_certificate(doc)
        if not verdict.ok:
            return f"certificate {i} fails re-verification: {verdict.failing}"
        if doc.get("delta") is not None and _halvings(doc) is None:
            return f"certificate {i}: delta {doc['delta']} is not 1/(2r) halved"
    return None


def _gate_certificates(job: Job, result: Result) -> str | None:
    doc = json.loads(result.output)
    return _reverify(doc["certificates"] if "certificates" in doc else [doc])


def _gate_zariski(job: Job, result: Result) -> str | None:
    doc = json.loads(result.output)
    total = [Fraction(c) for c in doc["P"]]
    for index, coeff in doc["coeffs"].items():
        coords = doc["curves"][int(index)]["coords"]
        total = [t + Fraction(coeff) * Fraction(c) for t, c in zip(total, coords)]
    if total != [Fraction(c) for c in doc["divisor"]]:
        return "D != P + sum a_i C_i"
    if not doc["coeffs"]:
        return "empty negative part"
    return _reverify([doc])


def _gate_verified(job: Job, result: Result) -> str | None:
    if not result.output.startswith(b"verified "):
        return f"unexpected verify output {result.output[:80]!r}"
    return None


def _gate_rejected(job: Job, result: Result) -> str | None:
    if "violated" not in result.stderr:
        return f"tampered certificate rejected without a named invariant: {result.stderr[:200]}"
    return None


def _gate_list_check(job: Job, result: Result) -> str | None:
    report = result.value
    if not report.passed:
        failures = report.reconstruction_failures + report.extremality_failures
        return f"list decomposition check failed: {failures[:2]}"
    return None


# -- output-derived counts -----------------------------------------------------

_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _halvings(cert: dict) -> int | None:
    """k with delta = 1/(2r) / 2^k, or None when delta is not of that form."""
    ratio = Fraction(1, 2 * cert["r"]) / Fraction(cert["delta"])
    k = ratio.numerator.bit_length() - 1
    return k if ratio.denominator == 1 and ratio.numerator == 1 << k else None


def _tower_depth(value) -> int:
    if isinstance(value, dict) and set(value) == {"a", "b", "d"}:
        return 1 + max(_tower_depth(part) for part in value.values())
    return 0


def _walk(value):
    yield value
    if isinstance(value, dict):
        for item in value.values():
            yield from _walk(item)
    elif isinstance(value, list):
        for item in value:
            yield from _walk(item)


def _certificates(doc: dict) -> list[dict]:
    if "certificates" in doc:
        return doc["certificates"]
    return [doc] if doc.get("kind") in ("ray_containment", "strict_inclusion") else []


@dataclass
class DerivedCounts:
    """Counts computed from job outputs; each must repeat exactly across rounds and runs."""

    output_bytes: int = 0
    cli_jobs: int = 0
    delta_halvings: int = 0
    deltas: int = 0
    tower_depth_max: int = 0
    scalars: int = 0
    numerator_bits_max: int = 0
    rationals: int = 0

    def add(self, job: Job, result: Result) -> None:
        if job.call is not None:
            return
        self.cli_jobs += 1
        self.output_bytes += len(result.output)
        doc = job.document(result)
        for cert in _certificates(doc):
            if cert.get("delta") is not None:
                self.delta_halvings += _halvings(cert) or 0
                self.deltas += 1
        for value in _walk(doc):
            if isinstance(value, dict) and set(value) == {"a", "b", "d"}:
                self.tower_depth_max = max(self.tower_depth_max, _tower_depth(value))
                self.scalars += 1
            if isinstance(value, str) and _RATIONAL.fullmatch(value):
                bits = abs(Fraction(value).numerator).bit_length()
                self.numerator_bits_max = max(self.numerator_bits_max, bits)
                self.rationals += 1


# -- workloads -------------------------------------------------------------


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _cli_job(name, argv, output: Path, gate, **kw) -> Job:
    return Job(name=name, gate=gate, argv=argv + ["--output", str(output)], output=output, **kw)


def _ladder_inputs(seed: int, workdir: Path) -> dict[int, dict]:
    """Write each rung's input and Zariski inputs; parse them once through the package."""
    from surface_cones import serialize

    rungs = {}
    for r, doc in gen.ladder(seed).items():
        divisors = doc.pop("divisors")
        model = serialize.blowup_from_json(doc)
        curves = [
            serialize.curve_from_json(model, c, f"curves[{i}]") for i, c in enumerate(doc["curves"])
        ]
        zariski_inputs = []
        for k, divisor in enumerate(divisors):
            serialize.divisor_from_json(model, divisor, "divisor")
            path = workdir / f"zariski-r{r}-{k}.json"
            zariski_inputs.append(_write(path, {**doc, "divisor": divisor}))
        rungs[r] = {
            "input": _write(workdir / f"plane-r{r}.json", doc),
            "zariski": zariski_inputs,
            "model": model,
            "curves": curves,
        }
    return rungs


def _analyze_sample(seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"analyze-sample:{seed}")
    jobs = []
    for fixture, count in ANALYZE_MIX.items():
        for _ in range(count):
            job_seed = rng.randrange(1 << 30)
            argv = ["analyze", "--input", f"fixture:{fixture}"]
            argv += ["--samples", str(ANALYZE_SAMPLES), "--seed", str(job_seed)]
            out = workdir / f"analyze-{fixture}-{job_seed}.json"
            jobs.append(_cli_job(f"analyze {fixture} seed {job_seed}", argv, out, _gate_analyze))
    return jobs


def _list_check(model, curves, seed: int):
    """The library job; the function is looked up per call, so traced rounds reach the wrapper."""
    from surface_cones import zariski

    return zariski.list_decomposition_check(model, curves, samples=LIST_CHECK_SAMPLES, seed=seed)


def _build_certs(seed: int, workdir: Path, rungs: dict[int, dict]) -> list[Job]:
    rng = random.Random(f"build-certs:{seed}")
    jobs = []
    for r, rung in rungs.items():
        commands = ["certify-ray"] + (["strict-inclusion"] if r in STRICT_RUNGS else [])
        for command in commands:
            argv = [command, "--input", str(rung["input"]), "--seed", str(seed)]
            out = workdir / f"{command}-r{r}.json"
            jobs.append(_cli_job(f"{command} r{r}", argv, out, _gate_certificates))
        for k, path in enumerate(rung["zariski"]):
            argv = ["zariski", "--input", str(path), "--seed", str(seed)]
            out = workdir / f"zariski-out-r{r}-{k}.json"
            jobs.append(_cli_job(f"zariski r{r} divisor {k}", argv, out, _gate_zariski))
        if r in LIST_CHECK_RUNGS:
            list_seed = rng.randrange(1 << 30)
            call = functools.partial(_list_check, rung["model"], rung["curves"], list_seed)
            jobs.append(Job(f"list_decomposition_check r{r}", _gate_list_check, call=call))
    return jobs


def _tamper_scalar(value):
    """The serialized scalar plus one."""
    if isinstance(value, dict):
        return {**value, "a": _tamper_scalar(value["a"])}
    return str(Fraction(value) + 1)


def _tampered(doc: dict) -> dict:
    """A copy whose last certificate no longer satisfies its invariants."""
    doc = json.loads(json.dumps(doc))
    target = doc["certificates"][-1] if "certificates" in doc else doc
    field_name = "P" if target["kind"] == "zariski_decomposition" else "alpha"
    target[field_name][0] = _tamper_scalar(target[field_name][0])
    return doc


def _verify_certs(seed: int, workdir: Path, rungs: dict[int, dict], cli) -> list[Job]:
    """Verify jobs on certificates built, untimed, from the build-certs inputs.

    Every built document gets a verify job.  Every ray list and witness, and
    the first Zariski decomposition on each rung from r = 17 up, also get one
    on a tampered copy, which must exit 3.  That makes 25 jobs: an odd count
    puts the median latency inside one job's cluster, not between two.
    """
    jobs = []
    for job in _build_certs(seed, workdir, rungs):
        if job.call is not None:
            continue
        result = job.run(cli)
        failure = job.check(result)
        if failure is not None:
            raise RuntimeError(f"preparing verify-certs: {job.name}: {failure}")
        built = job.output.with_name("built-" + job.output.name)
        built.write_bytes(result.output)
        argv = ["verify", str(built)]
        jobs.append(Job(f"verify {job.name}", _gate_verified, argv=argv, checked=built))
        if job.name.endswith("divisor 1") or job.name == "zariski r10 divisor 0":
            continue
        bad = job.output.with_name("tampered-" + job.output.name)
        _write(bad, _tampered(json.loads(result.output)))
        argv = ["verify", str(bad)]
        name = f"verify tampered {job.name}"
        jobs.append(Job(name, _gate_rejected, argv=argv, expect_exit=3, checked=bad))
    return jobs


def build(name: str, seed: int, workdir: Path, cli) -> list[Job]:
    """The fixed job list of a workload for a seed, with every input prepared."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "analyze-sample":
        return _analyze_sample(seed, workdir)
    rungs = _ladder_inputs(seed, workdir)
    if name == "build-certs":
        return _build_certs(seed, workdir, rungs)
    if name == "verify-certs":
        return _verify_certs(seed, workdir, rungs, cli)
    raise ValueError(f"unknown workload {name!r}")


def clear_environment() -> None:
    """Remove the package's tuning knobs so every run uses the defaults."""
    os.environ.pop("SURFACE_CONES_DELTA_CAP", None)
