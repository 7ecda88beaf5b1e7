"""In-memory spans around every call into cpbsim's public functions.

The program is not instrumented. Instead, for the length of one traced
operation, each public cpbsim function is replaced in the namespace of every
cpbsim module that calls it (``cpbsim.propagate.build_hamiltonian``,
``cpbsim.cli.run_protocol``, ...) by a wrapper that records a span. A span
is named after the function's defining module, so ``model.build_hamiltonian``
covers calls from ``propagate``, ``experiment``, ``thermo`` and ``noise``.
Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from workloads import grid_steps, step_flops

MODULES = (
    "cli",
    "config",
    "drive",
    "experiment",
    "model",
    "noise",
    "propagate",
    "thermo",
)


def _evolve_counts(bound, result):
    args = bound.arguments
    t_start = args["t_start"]
    t_stop = args["t_stop"]
    if t_stop is None:
        t_stop = args["protocol"].duration
    return {"steps": grid_steps(t_stop - t_start, args["config"].time_step)}


def _spectrum_counts(bound, result):
    return {"samples": bound.arguments["n_samples"]}


def _experiment_counts(bound, result):
    return {"events": bound.arguments["n_events"]}


def _work_counts(bound, result):
    events = bound.arguments["n_events"]
    return {"events": events, "kept": events - result.n_discarded}


# Work counted where it happens: computed from each call's arguments/result.
COUNTERS = {
    "propagate.evolve": _evolve_counts,
    "propagate.spectrum_trace": _spectrum_counts,
    "experiment.sample_experiment": _experiment_counts,
    "thermo.sample_work": _work_counts,
}


class Tracer:
    """Span store: ``[name, start, end, parent, op, counts]`` per call."""

    def __init__(self) -> None:
        self.spans: list = []
        self.op = None
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound, result)
            return result

        return traced

    def write(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, counts) in enumerate(self.spans):
                rec = {
                    "id": i,
                    "op": op,
                    "name": name,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                }
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")


def _targets():
    """(module, attribute, span name, function) for every public cpbsim
    function reachable through a cpbsim module's namespace."""
    out = []
    for short in MODULES:
        module = importlib.import_module(f"cpbsim.{short}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("cpbsim."):
                continue
            span = f"{obj.__module__.removeprefix('cpbsim.')}.{obj.__name__}"
            out.append((module, attr, span, obj))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Route every public cpbsim call through ``tracer`` while active."""
    targets = _targets()
    try:
        for module, attr, span, fn in targets:
            setattr(module, attr, tracer.wrap(span, fn))
        yield tracer
    finally:
        for module, attr, _span, fn in targets:
            setattr(module, attr, fn)


class OpProfile:
    """Per-function aggregates of one traced operation's spans."""

    def __init__(self, spans: list, first: int) -> None:
        self.calls: Counter = Counter()
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        child_s: dict = defaultdict(float)
        self.root_s = 0.0
        self.problems: list = []
        for i, (name, start, end, parent, _op, counts) in enumerate(spans, first):
            if end is None or end < start:
                self.problems.append(f"span {i} ({name}) has no valid end")
                continue
            duration = end - start
            if parent is None:
                self.root_s += duration
            else:
                child_s[parent] += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            for key, value in (counts or {}).items():
                self.counts[f"{name}.{key}"] += value
        self.n_spans = len(spans)
        self.self_sum = 0.0
        for i, (name, start, end, _parent, _op, _counts) in enumerate(spans, first):
            if end is None or end < start:
                continue
            own = (end - start) - child_s.get(i, 0.0)
            if own < -1e-9:
                self.problems.append(f"children of span {i} ({name}) outlast it")
            self.self_s[name] += own
            self.self_sum += own

    def check_closure(self, wall: float) -> float:
        """Untraced time of the op; records a problem unless the self times
        plus the untraced time add up to the op's wall time."""
        untraced = wall - self.root_s
        if untraced < 0.0:
            self.problems.append(f"root spans ({self.root_s:.6f} s) exceed op wall {wall:.6f} s")
        gap = abs(self.self_sum + untraced - wall)
        if gap > 1e-9 * self.n_spans + 1e-6 * wall:
            self.problems.append(f"self times + untraced miss op wall by {gap:.3e} s")
        return untraced

    def count_signature(self) -> dict:
        """Everything that must repeat exactly from one operation to the next."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()}, **dict(self.counts)}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(p: OpProfile, n_charges: int, bytes_written: int, files_written: int) -> dict:
    """Per-layer metric values (name -> (value, unit)) of one operation."""
    steps = p.counts["propagate.evolve.steps"]
    sample_exp_events = p.counts["experiment.sample_experiment.events"]
    work_events = p.counts["thermo.sample_work.events"]
    cmd_self = sum(v for k, v in p.self_s.items() if k.startswith("cli.cmd_"))
    return {
        "propagate.evolve.calls": (p.calls["propagate.evolve"], "count"),
        "propagate.evolve.self_s": (p.self_s["propagate.evolve"], "s"),
        "propagate.evolve.steps": (steps, "count"),
        "propagate.evolve.us_per_step": (
            _ratio(p.total_s["propagate.evolve"], steps, 1e6),
            "us",
        ),
        "propagate.step_flops_computed": (step_flops(n_charges), "flop"),
        "op.eigensolves_computed": (
            steps
            + p.calls["model.eigensystem"]
            + p.counts["propagate.spectrum_trace.samples"],
            "count",
        ),
        "drive.sample_drive.calls": (p.calls["drive.sample_drive"], "count"),
        "drive.sample_drive.self_s": (p.self_s["drive.sample_drive"], "s"),
        "model.build_hamiltonian.calls": (p.calls["model.build_hamiltonian"], "count"),
        "model.build_hamiltonian.self_s": (p.self_s["model.build_hamiltonian"], "s"),
        "model.eigensystem.calls": (p.calls["model.eigensystem"], "count"),
        "model.eigensystem.self_s": (p.self_s["model.eigensystem"], "s"),
        "propagate.spectrum_trace.self_s": (p.self_s["propagate.spectrum_trace"], "s"),
        "noise.ratio_trace.self_s": (p.self_s["noise.ratio_trace"], "s"),
        "noise.dephasing_ratio.calls": (p.calls["noise.dephasing_ratio"], "count"),
        "noise.kolmogorov_distance_quadrature.self_s": (
            p.self_s["noise.kolmogorov_distance_quadrature"],
            "s",
        ),
        "experiment.run_protocol.calls": (p.calls["experiment.run_protocol"], "count"),
        "experiment.run_protocol.self_s": (p.self_s["experiment.run_protocol"], "s"),
        "experiment.prepare_ensemble.self_s": (p.self_s["experiment.prepare_ensemble"], "s"),
        "experiment.sample_experiment.self_s": (
            p.self_s["experiment.sample_experiment"],
            "s",
        ),
        "experiment.sample_experiment.ns_per_event": (
            _ratio(p.self_s["experiment.sample_experiment"], sample_exp_events, 1e9),
            "ns",
        ),
        "thermo.energy_ladder.self_s": (p.self_s["thermo.energy_ladder"], "s"),
        "thermo.sample_work.calls": (p.calls["thermo.sample_work"], "count"),
        "thermo.sample_work.self_s": (p.self_s["thermo.sample_work"], "s"),
        "thermo.sample_work.ns_per_event": (
            _ratio(p.self_s["thermo.sample_work"], work_events, 1e9),
            "ns",
        ),
        "thermo.sample_work.kept_ratio": (
            _ratio(p.counts["thermo.sample_work.kept"], work_events),
            "ratio",
        ),
        "thermo.work_distribution_exact.self_s": (
            p.self_s["thermo.work_distribution_exact"],
            "s",
        ),
        "thermo.bk_ratio_check.self_s": (p.self_s["thermo.bk_ratio_check"], "s"),
        "cli.cmd.self_s": (cmd_self, "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "cli.files_written": (files_written, "count"),
        "config.config_from_mapping.self_s": (p.self_s["config.config_from_mapping"], "s"),
    }
