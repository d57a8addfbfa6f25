"""Benchmark of the surface-cones package, driven from outside in one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build-certs --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
One client runs a workload's fixed job list in a closed loop -- the next job
starts when the previous one has returned -- and repeats the list ("a
round") until ``--seconds`` have passed, and at least ``MIN_ROUNDS`` times.
Each job is a ``surface_cones.cli.main(argv)`` call with ``--output`` to a
file, or one public library call.  Every output passes its job's correctness
gate and must be byte-identical in every round and in every earlier run of
the same code and seed; a job that fails either check counts as failed.
Gates and the output-derived counts run after each round, outside the
timed job calls.

``--trace 0`` reports the end-to-end metrics from untraced rounds.
``--trace 1`` alternates untraced rounds with traced ones (see ``spans.py``)
and reports the per-layer metrics of the traced rounds, plus the tracing
overhead.  The last line of standard output is the result object; the line
before it holds the details: sample counts, the tail percentile, the failed
ratio, output digests and the output-derived counts with their bases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# With the job counts in jobs.py, eight rounds make the tail percentile p75,
# p90 and p95 on the three workloads, each in the lower half of one job's
# latency cluster, so it moves only when most of a run is slowed.
MIN_ROUNDS = 8
MAX_TRACED_ROUNDS = 5
SETUP_SAMPLES = 11
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# the import a fresh process pays before its first CLI call
_SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import surface_cones, surface_cones.cli\n"
    "print(time.perf_counter() - start)\n"
)

PER_LAYER_UNITS = {
    "cli.jobs": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "serialize.parse.calls": "count",
    "serialize.parse.self_s": "s",
    "serialize.emit.calls": "count",
    "serialize.emit.self_s": "s",
    "serialize.verify.calls": "count",
    "serialize.verify.self_s": "s",
    "serialize.verify.rejected": "count",
    "thresholds.certify.calls": "count",
    "thresholds.certify.self_s": "s",
    "thresholds.certify.invalid": "count",
    "thresholds.delta_halvings": "count",
    "thresholds.other.self_s": "s",
    "thresholds.sampler.self_s": "s",
    "thresholds.sampler.drawn": "count",
    "thresholds.sampler.tested": "count",
    "thresholds.sampler.tested_ratio": "ratio",
    "strict_inclusion.calls": "count",
    "strict_inclusion.self_s": "s",
    "zariski.decompose.calls": "count",
    "zariski.decompose.self_s": "s",
    "zariski.rounds": "count",
    "zariski.check.calls": "count",
    "zariski.check.self_s": "s",
    "linalg.calls": "count",
    "linalg.self_s": "s",
    "cones.calls": "count",
    "cones.self_s": "s",
    "lattice.intersect.calls": "count",
    "lattice.intersect.self_s": "s",
    "lattice.other.self_s": "s",
    "lattice.divisor_new.calls": "count",
    "scalar.sign.calls": "count",
    "scalar.compare.calls": "count",
    "scalar.sqrt.calls": "count",
    "scalar.new.calls": "count",
    "scalar.self_s": "s",
    "scalar.tower_depth_max": "levels",
    "scalar.numerator_bits_max": "bits",
    "trace.job_s": "s",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Round:
    """Latencies, outputs and failures of one pass over the job list.

    The first round runs every job's correctness gate and computes the
    output-derived counts.  A later round passes that round as ``reference``
    and instead requires each job's exit code, output and error text to be
    byte-identical to it, which also means its gate would pass.
    """

    def __init__(
        self,
        job_list: list[jobs.Job],
        cli,
        tracer: spans.Tracer | None,
        reference: Round | None = None,
    ):
        self.seconds: list[float | None] = []
        self.digests: list[str] = []
        self.failures: list[str] = []
        self.counts = jobs.DerivedCounts()
        self.layers: dict[str, float] = {}
        results = []
        if tracer is not None:
            first, counters = tracer.mark(), tracer.counters.copy()
            tracer.install()
        try:
            for index, job in enumerate(job_list):
                if tracer is not None:
                    tracer.job_id = index
                try:
                    results.append(job.run(cli))
                except Exception:
                    results.append(None)
                    self.failures.append(f"{job.name}: {traceback.format_exc(limit=3)}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.check_restored()
            self.layers = tracer.summarize(first, tracer.mark(), tracer.counters - counters)
        for index, (job, result) in enumerate(zip(job_list, results)):
            if result is None:
                self.seconds.append(None)
                self.digests.append("")
                continue
            self.seconds.append(result.seconds)
            text = f"{result.exit_code}\0".encode() + result.output + b"\0" + result.stderr.encode()
            self.digests.append(hashlib.sha256(text).hexdigest())
            if reference is not None:
                if self.digests[-1] != reference.digests[index]:
                    self.failures.append(f"{job.name}: output differs from the first round")
                continue
            try:
                failure = job.check(result)
                if failure is None:
                    self.counts.add(job, result)
            except Exception:
                failure = traceback.format_exc(limit=3)
            if failure is not None:
                self.failures.append(f"{job.name}: {failure}")
        self.latencies = [t for t in self.seconds if t is not None]
        self.wall = sum(self.latencies)


def measure_setup() -> list[float]:
    """Import time of the package and its CLI in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def code_fingerprint() -> str:
    """Hash of the package sources and of the benchmark, keying stored digests."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.json")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten of ``samples`` beyond it."""
    for p in TAIL_LADDER:
        if samples * (100 - p) / 100 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def check_stored(first: Round, stored: Path) -> list[str]:
    """The outputs and derived counts must match the earlier run stored for this code and seed."""
    record = {"digests": first.digests, "counts": vars(first.counts)}
    if not stored.exists():
        stored.parent.mkdir(parents=True, exist_ok=True)
        stored.write_text(json.dumps(record))
        return []
    earlier = json.loads(stored.read_text())
    failures = [
        f"job {i} output differs from the stored run"
        for i, (x, y) in enumerate(zip(earlier["digests"], record["digests"]))
        if x != y
    ]
    if earlier["counts"] != record["counts"]:
        failures.append("output-derived counts differ from the stored run")
    return failures


def measure(job_list: list[jobs.Job], cli, seconds: float, tracer: spans.Tracer | None):
    """Untraced rounds until ``seconds`` have passed.

    With a tracer, each of the first ``MAX_TRACED_ROUNDS`` untraced rounds
    is followed by a traced one, which bounds the spans kept in memory.
    """
    untraced: list[Round] = []
    traced: list[Round] = []
    min_rounds = 1 if tracer is not None else MIN_ROUNDS
    deadline = perf_counter() + seconds
    while len(untraced) < min_rounds or perf_counter() < deadline:
        if tracer is not None:
            tracer.check_restored()
        reference = untraced[0] if untraced else None
        untraced.append(Round(job_list, cli, None, reference))
        if tracer is not None and len(traced) < MAX_TRACED_ROUNDS:
            traced.append(Round(job_list, cli, tracer, untraced[0]))
    return untraced, traced


def end_to_end(untraced: list[Round], setup: list[float], tail_p: float) -> dict:
    latencies = [t for rnd in untraced for t in rnd.latencies]
    return {
        "wall_s": statistics.median(rnd.wall for rnd in untraced),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": percentile(latencies, tail_p) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(traced: list[Round], untraced: list[Round]) -> tuple[dict, list[str]]:
    """Per-layer values of the traced rounds: medians of times, counts that must repeat."""
    failures = []
    values = {}
    for name in traced[0].layers:
        series = [rnd.layers[name] for rnd in traced]
        if name.endswith("_s"):
            values[name] = statistics.median(series)
        else:
            if len(set(series)) != 1:
                failures.append(f"count {name} differs between traced rounds: {series}")
            values[name] = series[0]
    counts = untraced[0].counts
    values["cli.output_bytes"] = counts.output_bytes
    values["thresholds.delta_halvings"] = counts.delta_halvings
    values["scalar.tower_depth_max"] = counts.tower_depth_max
    values["scalar.numerator_bits_max"] = counts.numerator_bits_max
    values["trace.job_s"] = statistics.median(rnd.wall for rnd in traced)
    values["trace.accounted_ratio"] = statistics.median(
        sum(v for k, v in rnd.layers.items() if k.endswith(".self_s")) / rnd.wall for rnd in traced
    )
    values["trace.overhead_ratio"] = values["trace.job_s"] / statistics.median(
        rnd.wall for rnd in untraced
    )
    return values, failures


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(args) -> dict:
    jobs.clear_environment()
    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import surface_cones.cli as cli

    workdir = WORK / args.workload
    job_list = jobs.build(args.workload, args.seed, workdir / "inputs", cli)
    tracer = spans.Tracer() if args.trace else None
    untraced, traced = measure(job_list, cli, args.seconds, tracer)
    rounds = untraced + traced
    stored = workdir / "digests" / f"seed{args.seed}-{code_fingerprint()[:16]}.json"
    failures = [f for rnd in rounds for f in rnd.failures] + check_stored(untraced[0], stored)
    tail_p = tail_percentile(len(job_list) * MIN_ROUNDS)
    if tracer is None:
        metrics = with_units(end_to_end(untraced, setup, tail_p), END_TO_END_UNITS)
    else:
        values, count_failures = layer_metrics(traced, untraced)
        failures += count_failures
        metrics = with_units(values, PER_LAYER_UNITS)
        tracer.write(workdir, [job.name for job in job_list])
    attempted = len(job_list) * len(rounds)
    failed = min(attempted, len(failures))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "spans": tracer.mark() if tracer is not None else 0,
        "jobs_per_round": len(job_list),
        "job_samples": len(job_list) * len(untraced),
        "job_tail_percentile": tail_p,
        "job_fail_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "setup_samples": len(setup),
        "output_digest": hashlib.sha256("".join(untraced[0].digests).encode()).hexdigest(),
        "derived_counts": vars(untraced[0].counts),
        "job_median_ms": {
            job.name: statistics.median(rnd.seconds[i] or 0.0 for rnd in untraced) * 1e3
            for i, job in enumerate(job_list)
        },
        "failures": failures[:5],
    }
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "surface_cones" / "__init__.py").is_file():
        sys.stderr.write(f"error: package sources not found under {SRC}\n")
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
