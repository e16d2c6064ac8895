"""Command-line front end for the benchmark suite.

Subcommands:
    run            one trial from a config file
    batch          a seed batch with optional process parallelism
    ablate-kernels the rocket batch repeated across the three kernels
    race-progress  per-method lap-progress series on the racing task

Exit codes: 0 run completed (success or timeout both count), 2 invalid
configuration (the message names the offending field), 3 solver failure,
4 inference failure (the gap turned non-finite during the particle update).
Codes 3 and 4 come from ``run``; batch commands record each trial's
terminal reason in its result files.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .configfile import (
    ConfigError,
    build_trial_config,
    config_hash,
    load_config,
    resolve_seeds,
    serialize_config,
)
from .controllers import VARIANTS
from .harness import run_batch, run_trial
from .kernels import ConstantKernel, ImqKernel, RbfKernel
from .reporting import (
    aggregate_row,
    format_float,
    summary_record,
    write_aggregate_csv,
    write_progress_csv,
    write_step_csv,
    write_summary_json,
    write_timing_json,
)

__all__ = ["main"]


def _resolved_document(trial, batch, doc):
    """Reconstruct the fully-defaulted document actually being run."""
    env = trial.env
    kernel = trial.svgd.kernel
    if isinstance(kernel, RbfKernel):
        kernel_doc = {"type": "rbf", "bandwidth": kernel.bandwidth}
    elif isinstance(kernel, ImqKernel):
        kernel_doc = {"type": "imq", "offset": kernel.offset, "decay": kernel.decay}
    else:
        kernel_doc = {"type": "constant"}
    def weight_doc(mat):
        mat = np.asarray(mat, dtype=float)
        if np.count_nonzero(mat - np.diag(np.diag(mat))):
            return [row.tolist() for row in mat]
        return np.diag(mat).tolist()

    cost_doc = {
        "q": weight_doc(trial.cost.Q),
        "r": weight_doc(trial.cost.R),
        "q_f": weight_doc(trial.cost.Q_f),
    }
    cost_section = doc.get("cost", {}) or {}
    if cost_section.get("reference") is not None:
        cost_doc["reference"] = dict(cost_section["reference"])
    else:
        cost_doc["x_des"] = np.asarray(trial.cost.x_des, dtype=float).tolist()
    if cost_section.get("extra") is not None:
        cost_doc["extra"] = dict(cost_section["extra"])
    controller_doc = {
        "variant": trial.controller.variant,
        "gamma": trial.controller.robust.gamma,
        "risk_lambda": trial.controller.robust.risk_lambda,
        "risk_epsilon": trial.controller.robust.risk_epsilon,
        "nominal_theta": None if trial.controller.nominal_theta is None
        else np.asarray(trial.controller.nominal_theta, dtype=float).tolist(),
    }
    harness_doc = {
        "duration": trial.duration,
        "horizon_seconds": trial.horizon_seconds,
        "n_particles": trial.n_particles,
        "x0": np.asarray(trial.x0, dtype=float).tolist(),
        "success": dataclasses.asdict(trial.success),
        "log_ksd": trial.log_ksd,
    }
    if trial.track is not None:
        harness_doc["track"] = dataclasses.asdict(trial.track)
    return {
        "env": {
            "name": env.name,
            "dt": env.dt,
            "control_lower": np.asarray(env.control_lower, dtype=float).tolist(),
            "control_upper": np.asarray(env.control_upper, dtype=float).tolist(),
            "theta_true": np.asarray(env.theta_true, dtype=float).tolist(),
            "theta_lower": np.asarray(env.theta_lower, dtype=float).tolist(),
            "theta_upper": np.asarray(env.theta_upper, dtype=float).tolist(),
        },
        "cost": cost_doc,
        "controller": controller_doc,
        "svgd": {
            "step_size": trial.svgd.step_size,
            "iterations": trial.svgd.iterations,
            "kernel": kernel_doc,
            "fd_epsilon": trial.svgd.fd_epsilon,
            "sign_mode": trial.svgd.sign_mode,
        },
        "mppi": {
            "samples": trial.mppi.samples,
            "temperature": trial.mppi.temperature,
            "noise_fraction": list(trial.mppi.noise_fraction)
            if isinstance(trial.mppi.noise_fraction, (tuple, list))
            else trial.mppi.noise_fraction,
        },
        "batch": {"seeds": list(batch.seeds), "jobs": batch.jobs},
    }


def _prepare(args, seed_override=None, seed_count=None):
    doc = load_config(args.config)
    trial, batch = build_trial_config(doc, seed=seed_override)
    seeds = resolve_seeds(batch, seed_count)
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        if jobs < 1:
            raise ConfigError("batch.jobs", f"must be >= 1, got {jobs}")
        batch = dataclasses.replace(batch, jobs=jobs)
    return doc, trial, batch, seeds


def _maybe_dump(args, trial, batch, doc) -> bool:
    if getattr(args, "config_dump", False):
        sys.stdout.write(serialize_config(_resolved_document(trial, batch, doc)))
        return True
    return False


def _write_trial_outputs(out_dir, result, doc_hash):
    write_step_csv(os.path.join(out_dir, f"trial_{result.seed}.csv"), result)
    record = summary_record(result, doc_hash, __version__)
    write_summary_json(os.path.join(out_dir, f"trial_{result.seed}.json"), record)
    return record


def cmd_run(args) -> int:
    doc, trial, batch, _ = _prepare(args, seed_override=args.seed)
    if _maybe_dump(args, trial, batch, doc):
        return 0
    os.makedirs(args.out, exist_ok=True)
    result = run_trial(trial)
    doc_hash = config_hash(doc)
    _write_trial_outputs(args.out, result, doc_hash)
    write_timing_json(os.path.join(args.out, "timing.json"),
                      {f"trial_{result.seed}": result.wall_clock_seconds})
    if result.terminal_reason == "solver_failure":
        print(f"solver failure in trial seed={result.seed}", file=sys.stderr)
        return 3
    if result.terminal_reason == "inference_failure":
        print(f"inference failure in trial seed={result.seed}", file=sys.stderr)
        return 4
    print(f"seed {result.seed}: {result.terminal_reason} "
          f"t={format_float(result.completion_time)}")
    return 0


def _run_one_batch(trial, seeds, jobs, out_dir, doc_hash, label):
    batch_result = run_batch(trial, seeds, jobs=jobs)
    records, timing = [], {}
    for result in batch_result.results:
        records.append(_write_trial_outputs(out_dir, result, doc_hash))
        timing[f"{label}_trial_{result.seed}"] = result.wall_clock_seconds
    return batch_result, records, timing


def cmd_batch(args) -> int:
    doc, trial, batch, seeds = _prepare(args, seed_count=args.seeds)
    if _maybe_dump(args, trial, batch, doc):
        return 0
    os.makedirs(args.out, exist_ok=True)
    doc_hash = config_hash(doc)
    batch_result, _, timing = _run_one_batch(
        trial, seeds, batch.jobs, args.out, doc_hash, trial.controller.variant)
    row = aggregate_row(trial.controller.variant, trial.env.name, batch_result)
    write_aggregate_csv(os.path.join(args.out, "aggregate.csv"), [row])
    write_timing_json(os.path.join(args.out, "timing.json"), timing)
    print(f"{trial.controller.variant} on {trial.env.name}: "
          f"{format_float(batch_result.success_pct)}% success over {len(seeds)} seeds")
    return 0


_KERNEL_CHOICES = {
    "rbf": RbfKernel(),
    "imq": ImqKernel(),
    "constant": ConstantKernel(),
}


def cmd_ablate_kernels(args) -> int:
    doc, trial, batch, seeds = _prepare(args, seed_count=args.seeds)
    if trial.env.name != "rocket2d":
        raise ConfigError("env.name", "kernel ablation runs on the rocket2d environment")
    if _maybe_dump(args, trial, batch, doc):
        return 0
    os.makedirs(args.out, exist_ok=True)
    doc_hash = config_hash(doc)
    rows, timing = [], {}
    for name, kernel in _KERNEL_CHOICES.items():
        sub_dir = os.path.join(args.out, name)
        os.makedirs(sub_dir, exist_ok=True)
        svgd = dataclasses.replace(trial.svgd, kernel=kernel)
        variant_trial = dataclasses.replace(trial, svgd=svgd)
        batch_result, _, t = _run_one_batch(
            variant_trial, seeds, batch.jobs, sub_dir, doc_hash, name)
        rows.append(aggregate_row(name, trial.env.name, batch_result))
        timing.update(t)
        print(f"kernel {name}: {format_float(batch_result.success_pct)}% success, "
              f"mean time {format_float(batch_result.mean_time)}")
    write_aggregate_csv(os.path.join(args.out, "ablation.csv"), rows)
    write_timing_json(os.path.join(args.out, "timing.json"), timing)
    return 0


def cmd_race_progress(args) -> int:
    doc, trial, batch, seeds = _prepare(args, seed_count=args.seeds)
    if trial.env.name != "racecar":
        raise ConfigError("env.name", "race progress runs on the racecar environment")
    if _maybe_dump(args, trial, batch, doc):
        return 0
    os.makedirs(args.out, exist_ok=True)
    doc_hash = config_hash(doc)
    best_laps, timing = {}, {}
    for variant in VARIANTS:
        controller = dataclasses.replace(trial.controller, variant=variant)
        variant_trial = dataclasses.replace(trial, controller=controller)
        sub_dir = os.path.join(args.out, variant)
        os.makedirs(sub_dir, exist_ok=True)
        batch_result, _, t = _run_one_batch(
            variant_trial, seeds, batch.jobs, sub_dir, doc_hash, variant)
        timing.update(t)
        series = []
        best = None
        for result in batch_result.results:
            prog = np.append(result.progress, result.final_progress)
            times = np.append(result.times, result.steps * trial.env.dt)
            series.append((times, prog))
            crossed = np.nonzero(prog >= 1.0)[0]
            if crossed.size:
                lap_t = times[crossed[0]]
                best = lap_t if best is None else min(best, lap_t)
        best_laps[variant] = best
        longest = max(len(t) for t, _ in series)
        grid = max((t for t, _ in series), key=len)
        padded = np.vstack([
            np.append(p, np.full(longest - len(p), p[-1])) for _, p in series
        ])
        mean = padded.mean(axis=0)
        std = padded.std(axis=0, ddof=1) if padded.shape[0] > 1 else np.zeros(longest)
        write_progress_csv(os.path.join(args.out, f"progress_{variant}.csv"),
                           grid, mean, std)
        lap_text = "none" if best is None else format_float(best)
        print(f"{variant}: best lap {lap_text}")
    write_summary_json(os.path.join(args.out, "best_laps.json"), best_laps)
    write_timing_json(os.path.join(args.out, "timing.json"), timing)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinmpc-bench",
        description="Benchmark suite for Stein variational uncertainty-adaptive MPC.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeds_flag=True):
        p.add_argument("config", help="path to an experiment config file")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--config-dump", action="store_true",
                       help="print the resolved config and exit")
        if seeds_flag:
            p.add_argument("--seeds", type=int, default=None,
                           help="number of seeds (overrides the config)")
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes (default from config)")

    p_run = sub.add_parser("run", help="run a single trial")
    add_common(p_run, seeds_flag=False)
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser("batch", help="run a seed batch")
    add_common(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_ablate = sub.add_parser("ablate-kernels",
                              help="repeat a rocket batch across kernels")
    add_common(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate_kernels)

    p_race = sub.add_parser("race-progress",
                            help="lap-progress series for each controller")
    add_common(p_race)
    p_race.set_defaults(func=cmd_race_progress)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error at {exc.field}: {exc.args[0].split(': ', 1)[-1]}",
              file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error at <path>: cannot read {exc.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
