"""Spans around steinmpc's layer boundaries, recorded from outside the package.

A span is (name, start, end, parent). The tracer keeps spans in memory and the
traced run writes them out when it ends. Layers are traced by replacing the
attributes their callers look up at call time: module functions such as
``harness.mppi_solve``, class methods such as
``track.CenterlineReference.horizon_states``, and the environment's
``derivative`` field through ``dataclasses.replace``. Every wrapper returns
exactly what it wraps, so traced trials reproduce untraced ones bit for bit.

The traced control cycle starts at the harness's call into ``mppi_solve`` and
ends at the next such call or when the trial returns, like the untraced one.
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

CYCLE = "harness.cycle"
TRIAL = "harness.run_trial"
MPPI = "controllers.mppi_solve"
ROLLOUT = "costs.rollout_cost_batch"
SVGD = "inference.svgd_step"
GAP_MODEL = "harness.gap_model"
SIMULATE = "harness.simulate"
DERIV_PLANNER = "dynamics.derivative.planner"
DERIV_SINGLE = "dynamics.derivative.single"
REFERENCE = "track.reference"
PROGRESS = "track.progress"
WRITE = "reporting.write"
KERNELS = {"RbfKernel": "rbf", "ImqKernel": "imq", "ConstantKernel": "constant"}

# Which question a rollout call answers, from the span it runs under.
ROLLOUT_CALLERS = ("plan", "rescore", "log", "gap_ref", "probe")
_CALLER_BY_PARENT = {SVGD: "probe", GAP_MODEL: "gap_ref", CYCLE: "log"}


class Tracer:
    """In-memory span store; spans nest strictly, one thread at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def begin(self, name: str, attrs: dict | None = None) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(i)
        if attrs:
            self.attrs[i] = attrs
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[self.name_id[i]]!r} closed out of order")

    def current(self) -> str | None:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def is_open(self, i: int) -> bool:
        return bool(self._stack) and self._stack[-1] == i

    def arrays(self):
        """(names, name_id, start, end, parent) with the per-span columns as numpy arrays."""
        return (np.array(self.names, dtype=object), np.array(self.name_id, dtype=np.int32),
                np.array(self.start, dtype=np.int64), np.array(self.end, dtype=np.int64),
                np.array(self.parent, dtype=np.int64))

    def save(self, path) -> None:
        names, name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=names.astype(str), name_id=name_id, start=start,
                            end=end, parent=parent)


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (``Tracer.finish`` rejects any other order), so
    children never overlap each other or outlast their parent.
    """
    start, end, parent = (np.asarray(a, dtype=np.int64) for a in (start, end, parent))
    dur = end - start
    kids = parent >= 0
    covered = np.bincount(parent[kids], weights=dur[kids], minlength=len(dur))
    return dur - covered.astype(np.int64)


@contextmanager
def patched(replacements):
    """Set ``owner.attr = value`` for each triple; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def span_wrapper(tracer: Tracer, name: str, fn):
    """``fn`` inside a span called ``name``; returns exactly what ``fn`` returns."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(i)
    return traced


def derivative_wrapper(tracer: Tracer, fn):
    """Derivative span named by call shape: planner grid (C >= 2) or single plan."""
    @functools.wraps(fn)
    def traced(x, *args, **kwargs):
        shape = np.shape(x)
        i = tracer.begin(DERIV_PLANNER if len(shape) >= 3 and shape[0] >= 2 else DERIV_SINGLE)
        try:
            return fn(x, *args, **kwargs)
        finally:
            tracer.finish(i)
    return traced


class _LayerTracing:
    """Wrappers for one traced run, sharing the per-cycle bookkeeping.

    Rollout calls are classified by the span they run under. Each call's
    (start state, plan row, theta) keys are hashed when its cycle closes,
    outside every span, so the hashing is not charged to any layer.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.cycle: int | None = None
        self.mppi_rollouts = 0
        self.pending: list[tuple] = []

    def close_cycle(self) -> None:
        if self.cycle is None:
            return
        if self.tracer.is_open(self.cycle):
            self.tracer.finish(self.cycle)
        self.cycle = None
        seen = set()
        for i, x0, plans, thetas, costs in self.pending:
            x0b = np.asarray(x0, dtype=float).tobytes()
            rows = [r.tobytes() for r in plans.reshape(plans.shape[0], -1)]
            ths = [t.tobytes() for t in thetas]
            repeats = 0
            for rb in rows:
                for tb in ths:
                    key = (x0b, rb, tb)
                    if key in seen:
                        repeats += 1
                    else:
                        seen.add(key)
            attrs = self.tracer.attrs[i]
            attrs["repeats"] = repeats
            attrs["nonfinite"] = int(np.count_nonzero(~np.isfinite(costs)))
        self.pending.clear()

    def mppi(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.close_cycle()
            self.cycle = self.tracer.begin(CYCLE)
            self.mppi_rollouts = 0
            i = self.tracer.begin(MPPI)
            try:
                return fn(*args, **kwargs)
            finally:
                self.tracer.finish(i)
        return traced

    def rollout(self, fn):
        @functools.wraps(fn)
        def traced(spec, env, x0, plans, thetas, *args, **kwargs):
            parent = self.tracer.current()
            if parent == MPPI:
                caller = "plan" if self.mppi_rollouts == 0 else "rescore"
                self.mppi_rollouts += 1
            else:
                caller = _CALLER_BY_PARENT.get(parent, "other")
            plan_arr = np.asarray(plans, dtype=float)
            plan_arr = plan_arr[None] if plan_arr.ndim == 2 else plan_arr
            theta_arr = np.atleast_2d(np.asarray(thetas, dtype=float))
            attrs = {"caller": caller, "C": plan_arr.shape[0], "P": theta_arr.shape[0],
                     "H": plan_arr.shape[1]}
            i = self.tracer.begin(ROLLOUT, attrs)
            try:
                costs = fn(spec, env, x0, plans, thetas, *args, **kwargs)
            finally:
                self.tracer.finish(i)
            if self.cycle is not None:
                self.pending.append((i, x0, plan_arr, theta_arr, costs))
            return costs
        return traced

    def run_trial(self, fn):
        @functools.wraps(fn)
        def traced(config, *args, **kwargs):
            env = config.env
            env = dataclasses.replace(env, derivative=derivative_wrapper(self.tracer, env.derivative))
            config = dataclasses.replace(config, env=env)
            kernel = KERNELS.get(type(config.svgd.kernel).__name__, "other")
            i = self.tracer.begin(TRIAL, {"kernel": kernel})
            try:
                return fn(config, *args, **kwargs)
            finally:
                self.close_cycle()
                self.tracer.finish(i)
        return traced


def traced_layers(tracer: Tracer):
    """Context manager that attaches every layer wrapper, reporting into ``tracer``."""
    from steinmpc import cli, controllers, costs, harness, kernels, track

    layers = _LayerTracing(tracer)
    rollout = layers.rollout(costs.rollout_cost_batch)
    replacements = [
        (harness, "run_trial", layers.run_trial(harness.run_trial)),
        (harness, "mppi_solve", layers.mppi(harness.mppi_solve)),
        # rollout_cost_batch is looked up in three modules: the objectives in
        # controllers, the gap probe in harness, trajectory_cost in costs.
        (controllers, "rollout_cost_batch", rollout),
        (harness, "rollout_cost_batch", rollout),
        (costs, "rollout_cost_batch", rollout),
        (harness, "svgd_step", span_wrapper(tracer, SVGD, harness.svgd_step)),
        (harness, "_gap_model", span_wrapper(tracer, GAP_MODEL, harness._gap_model)),
        (harness, "rk4_step", span_wrapper(tracer, SIMULATE, harness.rk4_step)),
        (track.CenterlineReference, "horizon_states",
         span_wrapper(tracer, REFERENCE, track.CenterlineReference.horizon_states)),
        (track.LapProgress, "update", span_wrapper(tracer, PROGRESS, track.LapProgress.update)),
        (cli, "write_step_csv", span_wrapper(tracer, WRITE, cli.write_step_csv)),
        (cli, "write_summary_json", span_wrapper(tracer, WRITE, cli.write_summary_json)),
    ]
    for cls_name, short in KERNELS.items():
        cls = getattr(kernels, cls_name)
        for method in ("matrix", "grad_first_tensor"):
            replacements.append(
                (cls, method, span_wrapper(tracer, f"kernels.{short}", getattr(cls, method))))
    return patched(replacements)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the recorded spans; idle layers read zero."""
    names, name_id, start, end, parent = tracer.arrays()
    dur = end - start
    self_ns = self_times(start, end, parent)
    by_name = {n: np.flatnonzero(name_id == k) for k, n in enumerate(names)}

    def spans(name):
        return by_name.get(name, np.empty(0, dtype=np.int64))

    cycles = spans(CYCLE)
    steps = max(len(cycles), 1)

    def per_step(x):
        return float(x) / steps

    def mean(values):
        return float(np.mean(values)) if len(values) else 0.0

    planner, single = spans(DERIV_PLANNER), spans(DERIV_SINGLE)
    rollouts = spans(ROLLOUT)
    ra = [tracer.attrs[int(i)] for i in rollouts]
    work = np.array([a["C"] * a["P"] * a["H"] for a in ra], dtype=float)
    grid = np.array([a["C"] >= 2 for a in ra], dtype=bool)
    plan_calls = [a for a in ra if a["caller"] == "plan"]
    probes = [a for a in ra if a["caller"] == "probe"]
    rollout_ns = dur[rollouts]

    m = {
        "dynamics.derivative_calls_per_step": per_step(len(planner) + len(single)),
        "dynamics.derivative_us.planner": mean(dur[planner]) / 1e3,
        "dynamics.derivative_us.single": mean(dur[single]) / 1e3,
    }
    for caller in ROLLOUT_CALLERS:
        m[f"costs.rollout_calls_per_step.{caller}"] = per_step(
            sum(a["caller"] == caller for a in ra))
    m.update({
        "costs.rollout_ms_per_step.planner": per_step(rollout_ns[grid].sum()) / 1e6,
        "costs.rollout_ms_per_step.single": per_step(rollout_ns[~grid].sum()) / 1e6,
        "costs.rollout_self_ms_per_step": per_step(self_ns[rollouts].sum()) / 1e6,
        "costs.state_steps_per_step": per_step(work.sum()),
        "costs.ns_per_state_step": float(rollout_ns.sum() / work.sum()) if work.sum() else 0.0,
        "costs.redundant_pairs_per_step": per_step(sum(a.get("repeats", 0) for a in ra)),
        "controllers.mppi_self_ms": per_step(self_ns[spans(MPPI)].sum()) / 1e6,
        "controllers.nonfinite_cost_frac": (
            sum(a.get("nonfinite", 0) for a in plan_calls)
            / max(sum(a["C"] * a["P"] for a in plan_calls), 1)),
        "inference.svgd_ms_per_step": per_step(dur[spans(SVGD)].sum()) / 1e6,
        "inference.svgd_self_ms": per_step(self_ns[spans(SVGD)].sum()) / 1e6,
        "inference.probe_thetas_per_step": per_step(sum(a["P"] for a in probes)),
    })

    # Kernel time per cycle run under that kernel: cycles are children of trials.
    trial_kernel = {int(i): tracer.attrs[int(i)]["kernel"] for i in spans(TRIAL)}
    cycle_kernels = [trial_kernel.get(int(parent[c])) for c in cycles]
    for short in KERNELS.values():
        n_cycles = cycle_kernels.count(short)
        total = dur[spans(f"kernels.{short}")].sum()
        m[f"kernels.kernel_us_per_step.{short}"] = float(total) / n_cycles / 1e3 if n_cycles else 0.0

    m.update({
        "track.reference_calls_per_step": per_step(len(spans(REFERENCE))),
        "track.reference_us": mean(dur[spans(REFERENCE)]) / 1e3,
        "track.progress_us": mean(dur[spans(PROGRESS)]) / 1e3,
    })

    # Step self time: the cycle minus plan, infer, simulate and the log re-score.
    accounted = {MPPI, SVGD, GAP_MODEL, SIMULATE}
    in_cycle = np.isin(parent, cycles)
    charged = np.zeros(len(start), dtype=bool)
    for k, n in enumerate(names):
        if n in accounted:
            charged |= name_id == k
    log_calls = rollouts[[a["caller"] == "log" for a in ra]] if len(ra) else rollouts
    charged[log_calls] = True
    m["harness.step_self_ms"] = per_step(dur[cycles].sum() - dur[in_cycle & charged].sum()) / 1e6
    for q in (50, 90):
        m[f"harness.traced_step_ms_p{q}"] = (
            float(np.percentile(dur[cycles], q)) / 1e6 if len(cycles) else 0.0)

    n_trials = len(spans(TRIAL))
    m["reporting.write_ms_per_trial"] = (
        float(dur[spans(WRITE)].sum()) / n_trials / 1e6 if n_trials else 0.0)
    return m
