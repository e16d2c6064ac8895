"""Command-line front end for the benchmark suite.

Subcommands:
    run            one trial from a config file
    batch          a seed batch with optional process parallelism
    ablate-kernels the rocket batch once per kernel at its defaults, ``svgd.kernel: {type: name}``
    race-progress  the racing batch once per ``controller.variant``, as lap-progress series

Exit codes: 0 run completed (success or timeout both count), 2 invalid
configuration, cross-field rules included, before any trial starts (the
message names the key or section at fault; ``<path>`` for a config file that
cannot be read as UTF-8 text, ``--out`` for an output path, or a sweep
setting's ``--out/<label>``, that cannot be a directory), 3 solver failure,
4 inference failure (the gap turned non-finite during the particle update).
Codes 3 and 4 come from ``run``; batch commands record each trial's
terminal reason in its result files.

``--config-dump`` prints the document as the parser resolved it, every
default and every command-line override (``--seed``, ``--seeds``, ``--jobs``)
filled in, and exits; it makes no ``--out`` directory and writes no file.
The printed document is a config file: the same subcommand run on it without
those flags runs the same trials, and each sweep setting is built from it with
its one key replaced. Every command reads a batch's seeds and workers from the
``batch`` section of its resolved document. Every setting's files carry the
config file's ``config_hash``.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
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
    batch_summary,
    format_float,
    summary_record,
    write_aggregate_csv,
    write_progress_csv,
    write_step_csv,
    write_summary_json,
    write_timing_json,
)

__all__ = ["main"]


def _write_trial_outputs(out_dir, result, doc_hash):
    write_step_csv(os.path.join(out_dir, f"trial_{result.seed}.csv"), result)
    write_summary_json(os.path.join(out_dir, f"trial_{result.seed}.json"),
                       summary_record(result, doc_hash, __version__))


def cmd_run(args, trial, resolved, doc_hash) -> int:
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
    results = run_batch(trial, seeds, jobs=jobs)
    timing = {}
    for result in results:
        _write_trial_outputs(out_dir, result, doc_hash)
        timing[f"{label}_trial_{result.seed}"] = result.wall_clock_seconds
    return results, timing


def cmd_batch(args, trial, resolved, doc_hash) -> int:
    batch = resolved["batch"]
    results, timing = _run_one_batch(
        trial, batch["seeds"], batch["jobs"], args.out, doc_hash, trial.controller.variant)
    row = aggregate_row(trial.controller.variant, trial.env.name, results)
    write_aggregate_csv(os.path.join(args.out, "aggregate.csv"), [row])
    write_timing_json(os.path.join(args.out, "timing.json"), timing)
    success_pct, _, _ = batch_summary(results)
    print(f"{trial.controller.variant} on {trial.env.name}: "
          f"{format_float(success_pct)}% success over {len(batch['seeds'])} seeds")
    return 0


def _make_dirs(*paths):
    """Make each directory; one that cannot be made is a ``ConfigError`` at ``--out``.

    A path that is, or lies under, an existing non-directory is found before
    any directory is made. When ``os.makedirs`` itself refuses a path (a name
    too long, say), the directories this call made are removed, deepest
    first. So neither failure leaves a directory behind.
    """
    missing = set()
    for path in paths:
        head = os.path.abspath(path)
        while not os.path.isdir(head):
            if os.path.lexists(head):
                code = errno.EEXIST if head == os.path.abspath(path) else errno.ENOTDIR
                raise ConfigError("--out", f"cannot make directory {path} ({os.strerror(code)})")
            missing.add(head)
            head = os.path.dirname(head)
    for path in paths:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            for made in sorted(missing, key=len, reverse=True):
                with contextlib.suppress(OSError):
                    os.rmdir(made)
            raise ConfigError("--out", f"cannot make directory {path} "
                                       f"({exc.strerror})") from None


def _sweep(args, resolved, doc_hash, key, settings):
    """Run the batch of each ``(label, value)`` setting into ``args.out/<label>``.

    A setting is ``resolved`` with its dotted ``section.key`` set to ``value``,
    and runs the seeds and jobs of its own resolved ``batch``. Builds every
    setting and makes its directory before the first trial, then yields
    ``(label, trial, results)`` per setting; writes ``timing.json`` last.
    """
    section, field = key.split(".")
    built = [(label, *resolve_config({**resolved, section: {**resolved[section], field: value}},
                                     env_name=args.env_name)) for label, value in settings]
    _make_dirs(*(os.path.join(args.out, label) for label, _ in settings))
    timing = {}
    for label, trial, setting in built:
        batch = setting["batch"]
        results, t = _run_one_batch(trial, batch["seeds"], batch["jobs"],
                                    os.path.join(args.out, label), doc_hash, label)
        timing.update(t)
        yield label, trial, results
    write_timing_json(os.path.join(args.out, "timing.json"), timing)


def cmd_ablate_kernels(args, trial, resolved, doc_hash) -> int:
    rows = []
    for name, trial, results in _sweep(args, resolved, doc_hash, "svgd.kernel",
                                       [(name, {"type": name}) for name in KERNELS]):
        rows.append(aggregate_row(name, trial.env.name, results))
        success_pct, mean_time, _ = batch_summary(results)
        print(f"kernel {name}: {format_float(success_pct)}% success, "
              f"mean time {format_float(mean_time)}")
    write_aggregate_csv(os.path.join(args.out, "ablation.csv"), rows)
    return 0


def cmd_race_progress(args, trial, resolved, doc_hash) -> int:
    best_laps = {}
    for variant, trial, results in _sweep(args, resolved, doc_hash, "controller.variant",
                                          [(variant, variant) for variant in VARIANTS]):
        series = [np.append(r.progress, r.final_progress) for r in results]
        times = [np.append(r.times, r.steps * trial.env.dt) for r in results]
        laps = [t[p >= 1.0] for t, p in zip(times, series)]
        best = best_laps[variant] = min((lap[0] for lap in laps if lap.size), default=None)
        grid = max(times, key=len)
        padded = np.array([np.pad(p, (0, len(grid) - len(p)), mode="edge") for p in series])
        mean = padded.mean(axis=0)
        std = padded.std(axis=0, ddof=1) if len(padded) > 1 else np.zeros(len(grid))
        write_progress_csv(os.path.join(args.out, f"progress_{variant}.csv"),
                           grid, mean, std)
        lap_text = "none" if best is None else format_float(best)
        print(f"{variant}: best lap {lap_text}")
    write_summary_json(os.path.join(args.out, "best_laps.json"), best_laps)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinmpc-bench",
        description="Benchmark suite for Stein variational uncertainty-adaptive MPC.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func, seeds_flag=True, env_name=None):
        p.set_defaults(func=func, env_name=env_name)
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
    add_common(p_run, cmd_run, seeds_flag=False)
    p_run.add_argument("--seed", type=int, default=None, help="seed override")

    p_batch = sub.add_parser("batch", help="run a seed batch")
    add_common(p_batch, cmd_batch)

    p_ablate = sub.add_parser("ablate-kernels",
                              help="repeat a rocket batch across kernels")
    add_common(p_ablate, cmd_ablate_kernels, env_name="rocket2d")

    p_race = sub.add_parser("race-progress",
                            help="lap-progress series for each controller")
    add_common(p_race, cmd_race_progress, env_name="racecar")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = load_config(args.config)
        trial, resolved = resolve_config(
            doc, seed=getattr(args, "seed", None), seed_count=getattr(args, "seeds", None),
            jobs=getattr(args, "jobs", None), env_name=args.env_name)
        if args.config_dump:
            sys.stdout.write(serialize_config(resolved))
            return 0
        _make_dirs(args.out)
        return args.func(args, trial, resolved, config_hash(doc))
    except ConfigError as exc:
        print(f"config error at {exc.field}: {exc.args[0].split(': ', 1)[-1]}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
