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

``--config-dump`` prints the document as the parser resolved it, every
default and every command-line override (``--seed``, ``--seeds``, ``--jobs``)
filled in, and exits. The printed document is a config file: the same
subcommand run on it without those flags runs the same trials.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .configfile import (
    KERNELS,
    ConfigError,
    config_hash,
    load_config,
    resolve_config,
    serialize_config,
)
from .controllers import VARIANTS
from .harness import run_batch, run_trial
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


def _prepare(args, seed=None, seed_count=None, env_name=None):
    """Resolve the config with the command line's overrides.

    Prints the resolved document and returns None under ``--config-dump``;
    otherwise makes the output directory and returns (trial, batch, hash of
    the document as written).
    """
    doc = load_config(args.config)
    trial, batch, resolved = resolve_config(doc, seed=seed, seed_count=seed_count,
                                            jobs=getattr(args, "jobs", None),
                                            env_name=env_name)
    if args.config_dump:
        sys.stdout.write(serialize_config(resolved))
        return None
    os.makedirs(args.out, exist_ok=True)
    return trial, batch, config_hash(doc)


def _write_trial_outputs(out_dir, result, doc_hash):
    write_step_csv(os.path.join(out_dir, f"trial_{result.seed}.csv"), result)
    write_summary_json(os.path.join(out_dir, f"trial_{result.seed}.json"),
                       summary_record(result, doc_hash, __version__))


def cmd_run(args) -> int:
    prepared = _prepare(args, seed=args.seed)
    if prepared is None:
        return 0
    trial, _, doc_hash = prepared
    result = run_trial(trial)
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
    timing = {}
    for result in batch_result.results:
        _write_trial_outputs(out_dir, result, doc_hash)
        timing[f"{label}_trial_{result.seed}"] = result.wall_clock_seconds
    return batch_result, timing


def cmd_batch(args) -> int:
    prepared = _prepare(args, seed_count=args.seeds)
    if prepared is None:
        return 0
    trial, batch, doc_hash = prepared
    batch_result, timing = _run_one_batch(
        trial, batch.seeds, batch.jobs, args.out, doc_hash, trial.controller.variant)
    row = aggregate_row(trial.controller.variant, trial.env.name, batch_result)
    write_aggregate_csv(os.path.join(args.out, "aggregate.csv"), [row])
    write_timing_json(os.path.join(args.out, "timing.json"), timing)
    print(f"{trial.controller.variant} on {trial.env.name}: "
          f"{format_float(batch_result.success_pct)}% success over {len(batch.seeds)} seeds")
    return 0


def cmd_ablate_kernels(args) -> int:
    prepared = _prepare(args, seed_count=args.seeds, env_name="rocket2d")
    if prepared is None:
        return 0
    trial, batch, doc_hash = prepared
    rows, timing = [], {}
    for name, kernel in KERNELS.items():
        sub_dir = os.path.join(args.out, name)
        os.makedirs(sub_dir, exist_ok=True)
        svgd = dataclasses.replace(trial.svgd, kernel=kernel())
        variant_trial = dataclasses.replace(trial, svgd=svgd)
        batch_result, t = _run_one_batch(
            variant_trial, batch.seeds, batch.jobs, sub_dir, doc_hash, name)
        rows.append(aggregate_row(name, trial.env.name, batch_result))
        timing.update(t)
        print(f"kernel {name}: {format_float(batch_result.success_pct)}% success, "
              f"mean time {format_float(batch_result.mean_time)}")
    write_aggregate_csv(os.path.join(args.out, "ablation.csv"), rows)
    write_timing_json(os.path.join(args.out, "timing.json"), timing)
    return 0


def cmd_race_progress(args) -> int:
    prepared = _prepare(args, seed_count=args.seeds, env_name="racecar")
    if prepared is None:
        return 0
    trial, batch, doc_hash = prepared
    best_laps, timing = {}, {}
    for variant in VARIANTS:
        controller = dataclasses.replace(trial.controller, variant=variant)
        variant_trial = dataclasses.replace(trial, controller=controller)
        sub_dir = os.path.join(args.out, variant)
        os.makedirs(sub_dir, exist_ok=True)
        batch_result, t = _run_one_batch(
            variant_trial, batch.seeds, batch.jobs, sub_dir, doc_hash, variant)
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
