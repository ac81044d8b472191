"""Span recorder for the traced benchmark run.

The package is not instrumented. ``Tracer.install`` replaces public
functions of the ``score_mewma`` modules with timing wrappers, under every
name through which the package or the benchmark calls them, and
``Tracer.uninstall`` puts the originals back. Spans stay in memory until
``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (defining module, attribute, modules that call it through that name).
# A name bound with ``from .x import f`` is a separate reference, so each
# calling module is patched where the lookup happens.
FUNCTIONS = (
    ("mc", "simulate_run_lengths", ("calibrate",)),
    ("mc", "replication_rng", ("mc", "calibrate")),
    ("mc", "sample_patients", ("calibrate", "cli")),
    ("calibrate", "calibrate_h", ("score_mewma",)),
    ("calibrate", "estimate_arl", ("score_mewma", "shifts")),
    ("shifts", "apply_shift", ("shifts",)),
    ("shifts", "run_arl_study", ("score_mewma",)),
    ("shifts", "run_pair_study", ("score_mewma",)),
    ("chart", "update", ("chart",)),
    ("likelihood", "per_record_scores", ("chart",)),
    ("likelihood", "fit_mle", ("likelihood",)),
    ("likelihood", "expected_score_covariance", ("likelihood", "cli")),
    ("cli", "main", ("cli",)),
)
# generators: one span per item, so the consumer's pulls are timed
GENERATORS = (
    ("chart", "run_stream", ("calibrate", "cli")),
    ("io", "iter_patient_rows", ("io",)),
)
STUDY_CALLS = ("shifts.run_arl_study", "shifts.run_pair_study")


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    attrs: dict | None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    def get(self, key, default=0):
        return self.attrs.get(key, default) if self.attrs else default


def _sim_attrs(args, kwargs, out):
    return {
        "reps": int(out.run_lengths.shape[0]),
        "cap": float(out.cap),
        "steps": int(out.run_lengths.sum()),
        "censored": int((~out.resolved).sum()),
        "seed": repr(kwargs.get("seed")),
    }


ATTRS = {
    "mc.simulate_run_lengths": _sim_attrs,
    "mc.sample_patients": lambda args, kwargs, out: {"patients": len(out)},
    "likelihood.fit_mle": lambda args, kwargs, out: {
        "newton_iters": sum(r.iterations for r in out.node_reports)
    },
    "calibrate.calibrate_h": lambda args, kwargs, out: {"h": float(out.h), "iterations": int(out.iterations)},
}
CPU_TIMED = {"mc.simulate_run_lengths"}


class Tracer:
    """Records spans into a list; safe to call from worker threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span belongs to the call that started the pool
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def end(self, token, name: str, attrs: dict | None = None) -> None:
        now = time.perf_counter_ns()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append(Span(sid, parent, name, start, now, attrs))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; errors are recorded by class and re-raised."""
        return self.wrap(fn, name)(*args, **kwargs)

    def wrap(self, fn, name: str):
        attrs_of = ATTRS.get(name)
        cpu = name in CPU_TIMED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.begin()
            cpu0 = time.process_time() if cpu else 0.0
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(token, name, {"error": type(exc).__name__})
                raise
            attrs = attrs_of(args, kwargs, out) if attrs_of else None
            if cpu:
                attrs["cpu_s"] = time.process_time() - cpu0
            tracer.end(token, name, attrs)
            return out

        return wrapper

    def wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    token = tracer.begin()
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.end(token, name, {"stop": True})
                        return
                    except BaseException as exc:
                        tracer.end(token, name, {"error": type(exc).__name__})
                        raise
                    tracer.end(token, name)
                    yield item
            finally:
                inner.close()

        return wrapper

    def install(self, package) -> None:
        """Patch the package's modules; ``package`` is the imported score_mewma."""

        def module(short):
            return package if short == "score_mewma" else importlib.import_module(f"score_mewma.{short}")

        for table, make in ((FUNCTIONS, self.wrap), (GENERATORS, self.wrap_generator)):
            for home, attr, callers in table:
                wrapped = make(getattr(module(home), attr), f"{home}.{attr}")
                for caller in callers:
                    self._patch(module(caller), attr, wrapped)
        sample_cls = module("mc").RunLengthSample
        self._patch(sample_cls, "at_limit", self.wrap(sample_cls.at_limit, "calibrate.at_limit"))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, times in ns from the first span."""
        t0 = min((s.start_ns for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                row = {"id": s.id, "parent": s.parent, "name": s.name,
                       "start_ns": s.start_ns - t0, "end_ns": s.end_ns - t0}
                if s.attrs:
                    row["attrs"] = s.attrs
                f.write(json.dumps(row) + "\n")


class SpanTable:
    """Spans by name, with each span's self time: its duration minus its children's."""

    def __init__(self, spans: list[Span]):
        self._child_ns: dict[int, int] = defaultdict(int)
        self._by_name: dict[str, list[Span]] = defaultdict(list)
        self._names: dict[int, str] = {}
        for s in spans:
            if s.parent is not None:
                self._child_ns[s.parent] += s.ns
            self._by_name[s.name].append(s)
            self._names[s.id] = s.name

    def of(self, name: str) -> list[Span]:
        return self._by_name.get(name, [])

    def items(self, name: str) -> list[Span]:
        """A generator's spans that yielded an item."""
        return [s for s in self.of(name) if not s.attrs]

    def ok(self, name: str) -> list[Span]:
        """Calls that returned; their attrs were recorded."""
        return [s for s in self.of(name) if "error" not in (s.attrs or {})]

    def parent_name(self, span: Span) -> str | None:
        return self._names.get(span.parent)

    def total_s(self, spans) -> float:
        return sum(s.ns for s in spans) / 1e9

    def mean_s(self, name: str) -> float:
        return _per(self.total_s(self.of(name)), len(self.of(name)))

    def self_s(self, name: str) -> float:
        return sum(max(0, s.ns - self._child_ns.get(s.id, 0)) for s in self.of(name)) / 1e9

    def errors(self, name: str) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.of(name):
            if "error" in (s.attrs or {}):
                out[s.attrs["error"]] += 1
        return dict(out)


def _per(total: float, n: float, scale: float = 1.0) -> float:
    return total * scale / n if n else 0.0


def _calibration_passes(t: SpanTable) -> tuple[list[float], int, int]:
    """Cap / h of every pass, and steps in superseded passes and in all passes.

    A stage's passes share a seed; every pass of a stage but its last was
    replaced by one with a wider cap.
    """
    passes_of: dict[int, list[Span]] = defaultdict(list)
    for s in t.ok("mc.simulate_run_lengths"):
        passes_of[s.parent].append(s)
    ratios, superseded, total = [], 0, 0
    for cal in t.ok("calibrate.calibrate_h"):
        stages: dict[str, list[Span]] = defaultdict(list)
        for s in passes_of[cal.id]:
            ratios.append(s.attrs["cap"] / cal.attrs["h"])
            stages[s.attrs["seed"]].append(s)
            total += s.attrs["steps"]
        for stage in stages.values():
            superseded += sum(s.attrs["steps"] for s in sorted(stage, key=lambda s: s.start_ns)[:-1])
    return ratios, superseded, total


def layer_metrics(t: SpanTable) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass; a layer the workload never calls reports 0."""
    counts = count_metrics(t)
    sims = t.ok("mc.simulate_run_lengths")
    sim_s = t.total_s(sims)
    steps, reps = counts["mc.patient_steps"], counts["mc.reps"]
    sampled = t.ok("mc.sample_patients")
    ratios, superseded, cal_steps = _calibration_passes(t)
    rows = sorted(s.ns / 1e9 for s in t.of("calibrate.estimate_arl") if t.parent_name(s) in STUDY_CALLS)
    records = counts["chart.records"]
    parsed = t.items("io.iter_patient_rows")
    cli_rows = sum(1 for s in t.items("chart.run_stream") if t.parent_name(s) == "cli.main")
    failures = counts["likelihood.fit_failures"]
    return {
        "mc.passes": (float(counts["mc.passes"]), "count"),
        "mc.reps": (float(reps), "count"),
        "mc.patient_steps": (float(steps), "count"),
        "mc.censored_frac": (_per(counts["mc.censored"], reps), "ratio"),
        "mc.ns_per_patient_step": (_per(sim_s, steps, 1e9), "ns"),
        "mc.cpu_per_wall": (_per(sum(s.attrs["cpu_s"] for s in sims), sim_s), "ratio"),
        "mc.rng_setup_us": (t.mean_s("mc.replication_rng") * 1e6, "us"),
        "mc.sample_patients_us_per_patient": (
            _per(t.total_s(sampled), sum(s.attrs["patients"] for s in sampled), 1e6), "us"),
        "calibrate.max_cap_over_h": (max(ratios, default=0.0), "ratio"),
        "calibrate.superseded_steps_frac": (_per(superseded, cal_steps), "ratio"),
        "calibrate.iterations": (float(counts["calibrate.iterations"]), "count"),
        "calibrate.at_limit_ms": (t.mean_s("calibrate.at_limit") * 1e3, "ms"),
        "calibrate.self_s": (_per(t.self_s("calibrate.calibrate_h"), len(t.of("calibrate.calibrate_h"))), "s"),
        "shifts.row_s_p50": (statistics.median(rows) if rows else 0.0, "s"),
        "shifts.apply_shift_ms": (t.mean_s("shifts.apply_shift") * 1e3, "ms"),
        "chart.records": (float(records), "count"),
        "chart.update_us": (t.mean_s("chart.update") * 1e6, "us"),
        "chart.run_stream_self_us": (_per(t.self_s("chart.run_stream"), records, 1e6), "us"),
        "likelihood.per_record_scores_us": (t.mean_s("likelihood.per_record_scores") * 1e6, "us"),
        "likelihood.fit_mle_ms": (t.mean_s("likelihood.fit_mle") * 1e3, "ms"),
        "likelihood.newton_iters": (float(counts["likelihood.newton_iters"]), "count"),
        "likelihood.fit_failures": (float(sum(failures.values())), "count"),
        "likelihood.fit_failures.FitError": (float(failures.get("FitError", 0)), "count"),
        "likelihood.fit_failures.SeparationError": (float(failures.get("SeparationError", 0)), "count"),
        "io.parse_us_per_row": (_per(t.total_s(parsed), len(parsed), 1e6), "us"),
        "cli.write_us_per_row": (_per(t.self_s("cli.main"), cli_rows, 1e6), "us"),
    }


def count_metrics(t: SpanTable) -> dict:
    """Counts that must repeat exactly for one seed at any thread count."""
    sims = t.ok("mc.simulate_run_lengths")
    return {
        "mc.passes": len(sims),
        "mc.reps": sum(s.attrs["reps"] for s in sims),
        "mc.patient_steps": sum(s.attrs["steps"] for s in sims),
        "mc.censored": sum(s.attrs["censored"] for s in sims),
        "calibrate.iterations": sum(s.get("iterations") for s in t.of("calibrate.calibrate_h")),
        "chart.records": len(t.items("chart.run_stream")),
        "likelihood.newton_iters": sum(s.get("newton_iters") for s in t.of("likelihood.fit_mle")),
        "likelihood.fit_failures": t.errors("likelihood.fit_mle"),
    }
