"""Closed-loop benchmark of steinmpc: control-step latency, batch throughput, traced layers.

    python3 bench/run.py                      # every workload, untraced then traced
    python3 bench/run.py --workload racing-nominal --seed 3 --seconds 45 --trace 0

A run repeats one trial (one CLI batch for the batch workload). With
``--trace 0`` it makes a fixed number of repeats for the given ``--seconds``
and reports the end-to-end metrics from the fastest time of each identical
piece of work; with ``--trace 1`` every layer is wrapped, the trial repeats
for ``--seconds`` and the per-layer metrics cover all repeats. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 7
# A cycle's time is the least over the repeats and over this many
# neighbouring cycles on each side in the same trial (see ``fastest``).
NEIGHBOURS = 10
MIN_REPEATS = 3
# Untraced repeats stop early past this many times ``--seconds``, so that a
# much slower program still ends within the runner's time limit.
OVERRUN_FACTOR = 2.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "steps_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_units() -> dict[str, str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


@dataclasses.dataclass
class Repeat:
    """One pass over a run's trial or batch."""

    wall: float = 0.0
    trial_walls: list = dataclasses.field(default_factory=list)
    trial_steps: list = dataclasses.field(default_factory=list)
    trial_cycles: list = dataclasses.field(default_factory=list)  # cycle times (ms) per trial
    trial_kernels: list = dataclasses.field(default_factory=list)  # CLI batch
    sub_walls: dict = dataclasses.field(default_factory=dict)  # CLI batch: wall per kernel
    outcomes: list = dataclasses.field(default_factory=list)  # (success, completion time)


class Checks:
    """Trials attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str], label: str, n_trials: int = 1) -> None:
        self.attempted += n_trials
        if problems:
            self.failed += n_trials
            for p in problems:
                print(f"check failed: {label}: {p}", file=sys.stderr)


def repeat_count(workload, seconds: float) -> int:
    """Untraced repeats for a ``seconds`` run: a fixed number, not a time
    budget, so that a faster program gets no more samples to take minima
    over than a slower one."""
    return max(MIN_REPEATS, round(seconds / workload.repeat_s))


def repeat(one_pass, count: int, limit_s: float = float("inf")) -> list[Repeat]:
    """Call ``one_pass`` ``count`` times, or fewer once ``limit_s`` has passed."""
    started = time.perf_counter()
    repeats = [one_pass()]
    while len(repeats) < count and time.perf_counter() - started < limit_s:
        repeats.append(one_pass())
    return repeats


def repeat_until(seconds: float, one_pass) -> list[Repeat]:
    """Call ``one_pass`` at least once, and again while the last pass ran
    and the next is expected to end within ``seconds`` of the start."""
    started = time.perf_counter()
    repeats = [one_pass()]
    while (repeats[-1].trial_walls
           and time.perf_counter() - started + repeats[-1].wall <= seconds):
        repeats.append(one_pass())
    return repeats


# ------------------------------------------------------------ cycle timing

def stamp_cycles(deliver):
    """Patch the harness to time every control cycle of every trial.

    ``harness.mppi_solve`` takes one timestamp per cycle, and
    ``harness.run_trial`` hands the trial's cycle times (ms, one per pair of
    consecutive planner entries) to ``deliver(config, cycle_ms)`` when the
    trial returns. Pool workers are forked after the patch, so trials run
    by the CLI's workers are timed the same way. Returns the patch context.
    """
    from tracing import patched
    from workloads import harness

    stamps: list[int] = []
    solve, run_trial = harness.mppi_solve, harness.run_trial

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter_ns())
        return solve(*args, **kwargs)

    def timed_trial(config, *args, **kwargs):
        stamps.clear()
        result = run_trial(config, *args, **kwargs)
        deliver(config, np.diff(np.asarray(stamps, dtype=np.int64)) / 1e6)
        return result

    return patched([(harness, "mppi_solve", stamped), (harness, "run_trial", timed_trial)])


def trial_pass(workload, seed: int, checks: Checks, cycles: list | None = None):
    """A function that runs the workload's trial once, in this process.

    With ``cycles``, the list ``stamp_cycles`` delivers to, each repeat
    keeps the trial's cycle times.
    """
    from workloads import check_trial, harness, load_digests

    base = workload.trial_config()
    trial_seed = workload.pool_entry(seed)
    config = dataclasses.replace(base, seed=trial_seed)
    expected = load_digests(workload).get(str(trial_seed))
    label = f"trial seed {trial_seed}"

    def one_pass() -> Repeat:
        rep = Repeat()
        if cycles is not None:
            cycles.clear()
        t0 = time.perf_counter()
        try:
            result = harness.run_trial(config)
        except Exception:
            checks.record([traceback.format_exc()], label)
            return rep
        rep.wall = time.perf_counter() - t0
        rep.trial_walls.append(rep.wall)
        rep.trial_steps.append(result.steps)
        rep.outcomes.append((result.success, result.completion_time))
        if cycles is not None:
            rep.trial_cycles.append(cycles[-1])
        checks.record(check_trial(result, base.env, expected), label)
        return rep

    return one_pass


# ------------------------------------------------------------- CLI batches

def cycle_file(kernel: str, seed: int) -> Path:
    from workloads import WORK
    return WORK / "cycles" / f"{kernel}-{seed}.npy"


def save_cycles(config, cycle_ms) -> None:
    """``stamp_cycles`` delivery for pool workers: one file per trial."""
    from tracing import KERNELS
    np.save(cycle_file(KERNELS[type(config.svgd.kernel).__name__], config.seed), cycle_ms)


def time_sub_batches(sub_walls: dict):
    """Patch ``cli._run_one_batch`` (one kernel's pool run and its result
    files) to record its wall time in ``sub_walls`` under the kernel's name;
    returns the patch context."""
    from tracing import patched
    from workloads import cli

    run_one_batch = cli._run_one_batch

    def timed(trial, seeds, jobs, out_dir, doc_hash, label):
        t0 = time.perf_counter()
        try:
            return run_one_batch(trial, seeds, jobs, out_dir, doc_hash, label)
        finally:
            sub_walls[label] = time.perf_counter() - t0

    return patched([(cli, "_run_one_batch", timed)])


def batch_pass(workload, seed: int, checks: Checks, jobs: int, out_name: str,
               sub_walls: dict | None = None):
    """A function that runs the workload's CLI batch once with ``jobs`` workers.

    With ``sub_walls`` (see ``time_sub_batches``), each repeat keeps the
    kernels' sub-batch wall times and the cycle times ``save_cycles`` wrote.
    """
    from workloads import WORK, check_batch, load_digests, read_batch_trials, run_cli_batch

    env = workload.trial_config().env
    digests = load_digests(workload)
    j = workload.pool_entry(seed)
    n_trials = 3 * len(workload.document(j)["batch"]["seeds"])
    out_dir = WORK / out_name
    label = f"batch {j}"

    def one_pass() -> Repeat:
        rep = Repeat()
        if sub_walls is not None:
            sub_walls.clear()
            shutil.rmtree(WORK / "cycles", ignore_errors=True)
            (WORK / "cycles").mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            code = run_cli_batch(workload, j, jobs, out_dir)
        except Exception:
            checks.record([traceback.format_exc()], label, n_trials)
            return rep
        rep.wall = time.perf_counter() - t0
        if code != 0:
            checks.record([f"exit code {code}"], label, n_trials)
            return rep
        try:
            trials = read_batch_trials(out_dir)
            timing = json.loads((out_dir / "timing.json").read_text())
            walls = [timing[f"{t['kernel']}_trial_{t['seed']}"] for t in trials]
            if sub_walls is not None:
                rep.trial_cycles = [np.load(cycle_file(t["kernel"], t["seed"])) for t in trials]
                rep.sub_walls = dict(sub_walls)
        except Exception:
            checks.record([traceback.format_exc()], label, n_trials)
            return rep
        for t, wall in zip(trials, walls):
            rep.trial_walls.append(wall)
            rep.trial_steps.append(t["steps"])
            rep.trial_kernels.append(t["kernel"])
            rep.outcomes.append((t["success"], t["completion_time"]))
        problems = check_batch(out_dir, trials, env, digests.get(str(j)))
        if len(trials) != n_trials:
            problems.append(f"{len(trials)} trial records, expected {n_trials}")
        checks.record(problems, label, n_trials)
        return rep

    return one_pass


# ------------------------------------------------------------------ metrics

def peak_rss_mb(jobs: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * workers) / 1024.0


def setup_seconds(workload, checks: Checks) -> float:
    """Median wall time of fresh interpreters that import, build and run one cycle."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        code = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload.name],
                              check=False, timeout=120, stdout=subprocess.DEVNULL).returncode
        times.append(time.perf_counter() - t0)
        if code != 0:
            checks.record([f"exit code {code}"], "setup probe")
    return statistics.median(times)


def warm_up(workload, checks: Checks) -> None:
    """One control cycle before timing; a failure counts as a failed attempt."""
    from workloads import warm_up as one_cycle

    try:
        one_cycle(workload.trial_config())
    except Exception:
        checks.record([traceback.format_exc()], "warm-up")


def window_min(x: np.ndarray, k: int) -> np.ndarray:
    """Each entry's minimum over itself and up to ``k`` entries on each side."""
    padded = np.pad(x, k, mode="edge")
    return np.lib.stride_tricks.sliding_window_view(padded, 2 * k + 1).min(axis=1)


def fastest(repeats: list[Repeat], workload, jobs: int) -> dict:
    """End-to-end figures from the fastest time of each identical piece of work.

    Repeats run bit-identical work, so they differ only by what else the
    machine was doing, which can only add time. Each control cycle, and
    each trial's time outside its cycles, takes its minimum over the
    repeats. Neighbouring cycles of a trial make the same calls at the same
    array shapes, and the machine's slow spells can cover every repeat of a
    cycle, so each cycle then takes the least of the ``NEIGHBOURS`` cycles
    on either side too. A trial's best time is the sum of those. The wall
    time is the trials' best times shared over ``jobs`` workers. For the batch it adds,
    each at its minimum, every kernel sub-batch's time beyond its trials'
    share (pool start-up, uneven load, result files) and the CLI's time
    outside its sub-batches. ``trials_per_s`` is stated at the workload's
    nominal trial size, so it does not depend on which trial a seed draws.
    """
    n_trials = max(len(r.trial_walls) for r in repeats)
    complete = [r for r in repeats if len(r.trial_walls) == n_trials]
    steps = sum(complete[0].trial_steps)
    cycles, trial_best = [], []
    for t in range(n_trials):
        best = window_min(np.min([r.trial_cycles[t] for r in complete], axis=0), NEIGHBOURS)
        rest = min(r.trial_walls[t] - r.trial_cycles[t].sum() / 1e3 for r in complete)
        cycles.append(best)
        trial_best.append(best.sum() / 1e3 + rest)
    wall = sum(trial_best) / jobs
    if not workload.in_process:
        for kernel in complete[0].sub_walls:
            wall += min(r.sub_walls[kernel] - sum(
                w for w, k in zip(r.trial_walls, r.trial_kernels) if k == kernel) / jobs
                for r in complete)
        wall += min(r.wall - sum(r.sub_walls.values()) for r in complete)
    return {
        "step_ms_p50": float(np.percentile(np.concatenate(cycles), 50)),
        "steps_per_s": steps / wall,
        "trials_per_s": steps / wall / workload.nominal_steps,
    }


def end_to_end(workload, seed: int, seconds: float) -> tuple[Checks, dict]:
    """Untraced run: a fixed number of repeats of the trial or batch.

    Timings of repeats whose outputs fail the check still count: the run
    reports them, with ``correct`` false. Only a repeat that raised or
    wrote no results has none.
    """
    from workloads import JOBS

    checks = Checks()
    warm_up(workload, checks)
    count, limit_s = repeat_count(workload, seconds), OVERRUN_FACTOR * seconds
    if workload.in_process:
        jobs, cycles = 1, []
        with stamp_cycles(lambda config, cycle_ms: cycles.append(cycle_ms)):
            repeats = repeat(trial_pass(workload, seed, checks, cycles), count, limit_s)
    else:
        jobs, sub_walls = JOBS, {}
        with stamp_cycles(save_cycles), time_sub_batches(sub_walls):
            repeats = repeat(batch_pass(workload, seed, checks, jobs, "batch", sub_walls),
                             count, limit_s)
    timed = [r for r in repeats if r.trial_walls]
    metrics = fastest(timed, workload, jobs) if timed else {}
    metrics["peak_rss_mb"] = peak_rss_mb(jobs)
    metrics["setup_s"] = setup_seconds(workload, checks)
    walls = ", ".join(f"{r.wall:.2f}" for r in repeats)
    samples = sum(len(c) for c in repeats[0].trial_cycles) or len(repeats[0].trial_walls)
    print(f"{workload.name}: {len(repeats)}/{count} repeats of {len(repeats[0].trial_walls)} trials "
          f"(walls {walls} s); {samples} step samples per repeat", file=sys.stderr)
    return checks, metrics


def traced(workload, seed: int, seconds: float) -> tuple[Checks, dict]:
    """Traced run: every layer wrapped, figures over all repeats."""
    from tracing import Tracer, layer_metrics, traced_layers
    from workloads import JOBS, WORK

    checks = Checks()
    metrics = {}
    started = time.perf_counter()
    if not workload.in_process:
        # The pool's busy share comes from the CLI's own timing sidecar.
        pool = batch_pass(workload, seed, checks, JOBS, "pool")()
        if pool.trial_walls:
            metrics["harness.worker_busy_frac"] = sum(pool.trial_walls) / (JOBS * pool.wall)
        one_pass = batch_pass(workload, seed, checks, 1, "traced")
    else:
        one_pass = trial_pass(workload, seed, checks)

    warm_up(workload, checks)
    tracer = Tracer()
    loop_started = time.perf_counter()
    with traced_layers(tracer):
        repeats = repeat_until(seconds - (loop_started - started), one_pass)
    loop_wall = time.perf_counter() - loop_started
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.save(WORK / f"spans-{workload.name}-{seed}.npz")
    metrics.update(layer_metrics(tracer))
    if workload.in_process:
        # One worker: the share of the loop spent inside run_trial.
        metrics["harness.worker_busy_frac"] = sum(r.wall for r in repeats) / loop_wall

    builds = []
    for _ in range(5):
        t0 = time.perf_counter()
        workload.trial_config()
        builds.append(time.perf_counter() - t0)
    metrics["configfile.build_ms"] = 1e3 * statistics.median(builds)
    outcomes = repeats[0].outcomes
    metrics["harness.success_frac"] = (
        sum(s for s, _ in outcomes) / len(outcomes) if outcomes else 0.0)
    metrics["harness.completion_s_mean"] = (
        statistics.fmean(c for _, c in outcomes) if outcomes else 0.0)
    return checks, metrics


# ---------------------------------------------------------------------- CLI

def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    if trace:
        checks, values = traced(workload, seed, seconds)
        units = layer_units()
    else:
        checks, values = end_to_end(workload, seed, seconds)
        units = END_TO_END_UNITS
    correct = checks.failed == 0 and checks.attempted > 0
    missing = set(units) - set(values)
    if missing and correct:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    # A run whose every repeat raised has no timings; it still reports, with
    # null for what it could not measure and ``correct`` false.
    return {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]) if name in values else None,
                           "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process; prints a table."""
    from workloads import WORKLOADS

    ok = True
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                check=False, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            results[(name, trace)] = result
            print(f"\n{name} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, v in result["metrics"].items():
                print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
        if (name, 0) in results and (name, 1) in results:
            plain = results[(name, 0)]["metrics"]["step_ms_p50"]["value"]
            with_spans = results[(name, 1)]["metrics"]["harness.traced_step_ms_p50"]["value"]
            print(f"  tracing overhead on the median step: {with_spans - plain:+.3f} ms "
                  f"({100 * (with_spans / plain - 1):+.1f} %)")
    print(json.dumps({"correct": ok, "results": {f"{n}/trace={t}": r
                                                  for (n, t), r in results.items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all",
                        help="cartpole-adaptive, racing-nominal, rocket-kernels-batch or all")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=45.0, help="measured wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 for the traced per-layer run")
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
