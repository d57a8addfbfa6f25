"""Smoke test of the benchmark: one job per workload, untraced and traced.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It checks that the tracer reaches names re-bound by ``from ... import``,
that every metric named in ``BENCHMARK.json`` is reported with its unit,
that every job passes its gate, that the traced wrappers are gone after a
traced round, and that a tampered certificate is rejected: it exits
3, the trace counts it, and the same job exiting 0 would count as failed.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import jobs
import run
import spans


def _declared(kind: str) -> dict[str, str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[kind]}


def _pick(workload: str, job_list: list[jobs.Job]) -> jobs.Job:
    if workload == "verify-certs":
        return next(job for job in job_list if job.expect_exit == 3)
    if workload == "build-certs":
        return next(job for job in job_list if job.call is not None)
    return job_list[0]


def main() -> int:
    problems = []
    jobs.clear_environment()
    setup = run.measure_setup()
    sys.path.insert(0, str(run.SRC))
    import surface_cones.cli as cli

    from surface_cones import lattice, linalg, thresholds, zariski

    originals = (thresholds.intersect, linalg.solve_linear)
    probe = spans.Tracer()
    probe.install()
    if thresholds.intersect is originals[0] or zariski.linalg.solve_linear is originals[1]:
        problems.append("tracer misses thresholds.intersect or zariski.linalg.solve_linear")
    if thresholds.intersect is not lattice.intersect:
        problems.append("tracer wraps one function twice")
    probe.uninstall()
    probe.check_restored()

    end_to_end_units, layer_units = _declared("end_to_end"), _declared("per_layer")
    for workload in jobs.WORKLOADS:
        job_list = jobs.build(workload, 0, run.WORK / "smoke" / workload, cli)
        job = _pick(workload, job_list)
        tracer = spans.Tracer()
        untraced, traced = run.measure([job], cli, 0, tracer)
        tracer.check_restored()
        problems += [f"{workload}: {f}" for rnd in untraced + traced for f in rnd.failures]
        reported = run.with_units(run.end_to_end(untraced, setup, 50.0), run.END_TO_END_UNITS)
        values, failures = run.layer_metrics(traced, untraced)
        problems += [f"{workload}: {f}" for f in failures]
        covered = values["trace.accounted_ratio"]
        if covered < 0.95:
            problems.append(f"{workload}: layer self times cover {covered:.3f} of the job")
        if job.call is not None and values["zariski.check.calls"] != 1:
            problems.append("the traced round missed the library job's entry point")
        reported.update(run.with_units(values, run.PER_LAYER_UNITS))
        for name, unit in {**end_to_end_units, **layer_units}.items():
            if name not in reported:
                problems.append(f"{workload}: metric {name} missing")
            elif reported[name]["unit"] != unit:
                got = reported[name]["unit"]
                problems.append(f"{workload}: metric {name} in {got}, declared {unit}")
        if workload == "verify-certs":
            rejected = values["serialize.verify.rejected"]
            if rejected != 1:
                problems.append(f"tampered certificate counted as rejected {rejected} times")
            result = job.run(cli)
            result.exit_code = 0
            if job.check(result) is None:
                problems.append("a tampered certificate accepted with exit 0 passes its gate")
        print(f"{workload}: {job.name}: {traced[0].wall * 1e3:.1f} ms traced")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
