"""The benchmark's three closed-loop workloads, their inputs and their output checks.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and imports ``steinmpc`` from there, so the benchmark always runs
the sources next to it and never an installed copy. Without those sources the
import fails, which is how the benchmark refuses to run in a bare directory.

Trial seeds come from a fixed pool per workload. The workload seed picks one
pool entry, and every pool entry has an output digest recorded in
``bench/digests/<workload>.json``, so any workload seed gives inputs whose
outputs can be checked bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests"

if not (SRC / "steinmpc" / "__init__.py").is_file():
    raise ImportError(f"steinmpc sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import steinmpc  # noqa: E402
from steinmpc import cli, configfile, harness  # noqa: E402

if Path(steinmpc.__file__).resolve().parent != SRC / "steinmpc":
    raise ImportError(f"imported steinmpc from {steinmpc.__file__}, not from {SRC}")

# Rocket trials never reach the pad in the shipped configs, so every trial runs
# to its time limit; this duration fixes the batch workload's length.
ROCKET_DURATION = 1.0
ROCKET_SEEDS_PER_BATCH = 4
JOBS = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload: a config derivation, a seed pool and a stated trial size.

    ``pool`` is the number of recorded trial seeds (in-process workloads) or
    recorded batches (the CLI workload); workload seed ``s`` runs pool entry
    ``s % pool``. ``nominal_steps`` is the trial size ``trials_per_s`` is
    stated at. ``repeat_s`` is the wall time of one untraced repeat when the
    benchmark was added, on a 2-vCPU machine in its slower speed state; the
    untraced run makes ``--seconds / repeat_s`` repeats.
    """

    name: str
    config_file: str
    in_process: bool
    pool: int
    nominal_steps: int
    repeat_s: float

    def document(self, batch_index: int = 0) -> dict:
        doc = configfile.load_config(CONFIGS / self.config_file)
        if self.name == "racing-nominal":
            doc["controller"]["variant"] = "nominal"
        elif self.name == "rocket-kernels-batch":
            doc["harness"]["duration"] = ROCKET_DURATION
            doc["batch"] = {"seeds": batch_seeds(batch_index)}
        return doc

    def trial_config(self, batch_index: int = 0):
        """Load and build the workload's config, as a user of the package would."""
        trial, _ = configfile.build_trial_config(self.document(batch_index))
        return trial

    def pool_entry(self, seed: int) -> int:
        """The trial seed (or batch index, for the CLI workload) of workload seed ``seed``."""
        return seed % self.pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cartpole-adaptive", "cartpole.yaml", True, pool=48, nominal_steps=200,
                 repeat_s=6.0),
        Workload("racing-nominal", "racing.yaml", True, pool=96, nominal_steps=380,
                 repeat_s=2.5),
        Workload("rocket-kernels-batch", "kernel_ablation.yaml", False, pool=24,
                 nominal_steps=66, repeat_s=9.0),
    )
}


def batch_seeds(batch_index: int) -> list[int]:
    first = batch_index * ROCKET_SEEDS_PER_BATCH
    return list(range(first, first + ROCKET_SEEDS_PER_BATCH))


def warm_up(trial) -> None:
    """One control cycle, so lazy imports and first-call costs are paid."""
    harness.run_trial(dataclasses.replace(trial, duration=trial.env.dt))


# ---------------------------------------------------------------- batch runs

def write_batch_config(workload: Workload, batch_index: int) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{workload.name}-{batch_index}.yaml"
    path.write_text(configfile.serialize_config(workload.document(batch_index)), encoding="utf-8")
    return path


def run_cli_batch(workload: Workload, batch_index: int, jobs: int, out_dir: Path) -> int:
    """``steinmpc-bench ablate-kernels`` on one batch; returns the exit code."""
    config_path = write_batch_config(workload, batch_index)
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["ablate-kernels", str(config_path), "--jobs", str(jobs), "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ------------------------------------------------------------ output checks

def trial_digest(result) -> str:
    """SHA-256 over the logged states, controls, costs and particles."""
    h = hashlib.sha256()
    for name in ("states", "controls", "costs", "particles"):
        a = np.ascontiguousarray(getattr(result, name), dtype=np.float64)
        h.update(f"{name}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def files_digest(out_dir: Path) -> str:
    """SHA-256 over every result file's path and bytes, except the timing sidecar."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        if rel == "timing.json":
            continue
        h.update(rel.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def load_digests(workload: Workload) -> dict:
    path = DIGESTS / f"{workload.name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def _invariant_problems(reason, costs, particles, lower, upper) -> list[str]:
    problems = []
    if reason not in ("success", "timeout"):
        problems.append(f"terminal_reason {reason!r}")
    if not np.all(np.isfinite(costs)):
        problems.append("non-finite logged cost")
    if np.any(particles < lower) or np.any(particles > upper):
        problems.append("particle outside the parameter box")
    return problems


def check_trial(result, env, expected: str | None) -> list[str]:
    """Problems with one in-process trial; an empty list means it passed."""
    problems = _invariant_problems(result.terminal_reason, result.costs, result.particles,
                                   env.theta_lower, env.theta_upper)
    digest = trial_digest(result)
    if expected is None:
        problems.append("no recorded digest")
    elif digest != expected:
        problems.append(f"digest {digest[:12]} != recorded {expected[:12]}")
    return problems


def read_batch_trials(out_dir: Path) -> list[dict]:
    """Per-trial records of a CLI batch: summary JSON plus the step CSV arrays."""
    trials = []
    for summary in sorted(out_dir.glob("*/trial_*.json")):
        record = json.loads(summary.read_text())
        csv = summary.with_suffix(".csv")
        header = csv.read_text().split("\n", 1)[0].split(",")
        rows = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
        record["kernel"] = summary.parent.name
        record["costs"] = rows[:, header.index("cost")]
        particle_cols = [i for i, c in enumerate(header) if c.startswith("particle_")]
        record["particle_rows"] = rows[:, particle_cols]
        trials.append(record)
    return trials


def check_batch(out_dir: Path, trials: list[dict], env, expected: str | None) -> list[str]:
    """Problems with one CLI batch's result files; an empty list means it passed."""
    problems = []
    dim = env.param_dim
    for t in trials:
        particles = np.concatenate([t["particle_rows"].reshape(-1, dim),
                                    np.asarray(t["final_particles"]).reshape(-1, dim)])
        for p in _invariant_problems(t["terminal_reason"], t["costs"], particles,
                                     env.theta_lower, env.theta_upper):
            problems.append(f"{t['kernel']} seed {t['seed']}: {p}")
    digest = files_digest(out_dir)
    if expected is None:
        problems.append("no recorded digest")
    elif digest != expected:
        problems.append(f"digest {digest[:12]} != recorded {expected[:12]}")
    return problems
