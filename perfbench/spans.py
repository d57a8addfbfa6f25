"""Opt-in tracing of the package's layers from outside the package.

:func:`install` wraps every public function of the traced modules and
re-binds each wrapped function wherever a package module holds it, which
covers names imported with ``from ... import`` (``thresholds.intersect``)
as well as attribute access through a module (``zariski.linalg``).  Each
call records a span -- name, start, end, parent span and job id -- into
flat in-memory arrays; nothing is written until the run ends.
:meth:`Tracer.uninstall` puts every original back and :meth:`Tracer.check_restored`
proves it, so untraced rounds run the unmodified package.

Self time of a span is its duration minus the durations of its direct
children.  Every wrapped function belongs to exactly one layer, and each
job's outermost span is its entry point (``cli.main`` or the library call),
so the layer self times of a round add up to its traced job time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

TRACED_MODULES = (
    "cli",
    "serialize",
    "thresholds",
    "strict_inclusion",
    "zariski",
    "linalg",
    "cones",
    "lattice",
    "scalar",
)

# Layer of a wrapped function, by "module.function"; unlisted functions
# belong to the layer named after their module.
LAYER_OF = {
    "serialize.surface_from_json": "serialize.parse",
    "serialize.blowup_from_json": "serialize.parse",
    "serialize.divisor_from_json": "serialize.parse",
    "serialize.curve_from_json": "serialize.parse",
    "serialize.surface_to_json": "serialize.emit",
    "serialize.blowup_to_json": "serialize.emit",
    "serialize.divisor_to_json": "serialize.emit",
    "serialize.curve_to_json": "serialize.emit",
    "serialize.ray_certificate_to_json": "serialize.emit",
    "serialize.zariski_to_json": "serialize.emit",
    "serialize.witness_to_json": "serialize.emit",
    "serialize.verify_certificate": "serialize.verify",
    "thresholds.ray_certificate": "thresholds.certify",
    "thresholds.main_theorem_check": "thresholds.sampler",
    "zariski.zariski_decompose": "zariski.decompose",
    "zariski.ne_decompose": "zariski.decompose",
    "zariski.list_decomposition_check": "zariski.check",
    "lattice.intersect": "lattice.intersect",
}


def layer_of(span_name: str) -> str:
    if span_name in LAYER_OF:
        return LAYER_OF[span_name]
    module = span_name.split(".", 1)[0]
    return f"{module}.other" if module in ("thresholds", "lattice") else module


LAYERS = (
    "cli",
    "serialize.parse",
    "serialize.emit",
    "serialize.verify",
    "thresholds.certify",
    "thresholds.sampler",
    "thresholds.other",
    "strict_inclusion",
    "zariski.decompose",
    "zariski.check",
    "linalg",
    "cones",
    "lattice.intersect",
    "lattice.other",
    "scalar",
)


class Tracer:
    """Span store and the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.job_id = -1
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span_name: str, observe=None):
        nid = self._name_id(span_name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, result)
            return result

        return traced

    def _count_calls(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        from surface_cones import lattice, scalar

        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"surface_cones.{short}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                span_name = f"{short}.{attr}"
                wrappers[fn] = self._wrap(fn, span_name, OBSERVERS.get(span_name))
        plan = []
        for name, module in sorted(sys.modules.items()):
            if name != "surface_cones" and not name.startswith("surface_cones."):
                continue
            for attr, value in sorted(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    plan.append((module, attr, value, wrappers[value]))
        for owner, attr, counter in (
            (scalar.Scalar, "__init__", "scalar.new.calls"),
            (lattice.DivisorClass, "__post_init__", "lattice.divisor_new.calls"),
        ):
            original = vars(owner)[attr]
            plan.append((owner, attr, original, self._count_calls(original, counter)))
        return plan

    def install(self) -> None:
        """Bind the wrappers in place of every traced function."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def check_restored(self) -> None:
        """Raise unless every patched attribute holds its original object again."""
        for owner, attr, original, _ in self._patches or ():
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"traced wrapper still bound at {owner!r}.{attr}")

    # -- analysis ------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to delimit one round's spans."""
        return len(self.start)

    def summarize(self, first: int, last: int, counters: Counter) -> dict[str, float]:
        """Per-layer metrics of the spans [first, last) plus the round's ``counters``."""
        names, parents = self.name, self.parent
        durations = [self.end[i] - self.start[i] for i in range(first, last)]
        child_time = [0.0] * len(durations)
        for k in range(len(durations)):
            p = parents[first + k]
            if p >= first:
                child_time[p - first] += durations[k]
        layers = [layer_of(n) for n in self.names]
        nid = self._name_ids.get
        sampler, decompose = nid("thresholds.main_theorem_check"), nid("zariski.zariski_decompose")
        positive_cone, solve = nid("cones.in_positive_cone"), nid("linalg.solve_linear")
        calls: Counter = Counter()
        self_s = dict.fromkeys(LAYERS, 0.0)
        # ancestor flags, 1 = under the sampler, 2 = under zariski_decompose
        under = [0] * len(durations)
        for k in range(len(durations)):
            n, p = names[first + k], parents[first + k]
            calls[self.names[n]] += 1
            calls[layers[n]] += 1
            self_s[layers[n]] += durations[k] - child_time[k]
            if p >= first:
                under[k] = under[p - first]
            if n == positive_cone and under[k] & 1:
                calls["sampler.tested"] += 1
            if n == solve and under[k] & 2:
                calls["zariski.rounds"] += 1
            under[k] |= (n == sampler) | (n == decompose) << 1
        drawn = counters["thresholds.sampler.drawn"]
        metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
        metrics.update(
            {
                "cli.jobs": calls["cli.main"],
                "serialize.parse.calls": calls["serialize.parse"],
                "serialize.emit.calls": calls["serialize.emit"],
                "serialize.verify.calls": calls["serialize.verify"],
                "serialize.verify.rejected": counters["serialize.verify.rejected"],
                "thresholds.certify.calls": calls["thresholds.certify"],
                "thresholds.certify.invalid": counters["thresholds.certify.invalid"],
                "thresholds.sampler.drawn": drawn,
                "thresholds.sampler.tested": calls["sampler.tested"],
                "thresholds.sampler.tested_ratio": (
                    calls["sampler.tested"] / drawn if drawn else 0.0
                ),
                "strict_inclusion.calls": calls["strict_inclusion"],
                "zariski.decompose.calls": calls["zariski.decompose"],
                "zariski.rounds": calls["zariski.rounds"],
                "zariski.check.calls": calls["zariski.check"],
                "linalg.calls": calls["linalg"],
                "cones.calls": calls["cones"],
                "lattice.intersect.calls": calls["lattice.intersect"],
                "lattice.divisor_new.calls": counters["lattice.divisor_new.calls"],
                "scalar.sign.calls": calls["scalar.sign"],
                "scalar.compare.calls": calls["scalar.compare"],
                "scalar.sqrt.calls": calls["scalar.sqrt_scalar"] + calls["scalar.exact_sqrt"],
                "scalar.new.calls": counters["scalar.new.calls"],
            }
        )
        return metrics

    def write(self, directory: Path, job_names: list[str]) -> None:
        """Write every recorded span.

        ``spans.bin`` holds the columns one after another; ``spans.json``
        names them, their item types and the span and job names.
        """
        columns = {c: getattr(self, c) for c in ("name", "parent", "job", "start", "end")}
        index = {
            "spans": len(self.start),
            "columns": [
                {"field": c, "typecode": a.typecode, "itemsize": a.itemsize}
                for c, a in columns.items()
            ],
            "names": self.names,
            "jobs": job_names,
            "clock": "time.perf_counter, seconds",
        }
        with open(directory / "spans.bin", "wb") as handle:
            for column in columns.values():
                column.tofile(handle)
        (directory / "spans.json").write_text(json.dumps(index, indent=1))


def _observe_certificate(counters: Counter, cert) -> None:
    if not cert.valid:
        counters["thresholds.certify.invalid"] += 1


def _observe_verify(counters: Counter, result) -> None:
    if not result.ok:
        counters["serialize.verify.rejected"] += 1


def _observe_sampler(counters: Counter, report) -> None:
    counters["thresholds.sampler.drawn"] += report.samples


OBSERVERS = {
    "thresholds.ray_certificate": _observe_certificate,
    "serialize.verify_certificate": _observe_verify,
    "thresholds.main_theorem_check": _observe_sampler,
}
