"""Result persistence with byte-stable formatting.

Every float written by this module goes through a fixed 17-significant-digit
formatter, so a rerun of the same experiment produces byte-identical files.
Wall-clock timings are deliberately kept out of the result artifacts; they go
to a separate timing sidecar that carries no scientific content.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = [
    "format_float",
    "step_csv_header",
    "write_step_csv",
    "summary_record",
    "write_summary_json",
    "aggregate_row",
    "write_aggregate_csv",
    "write_progress_csv",
    "write_timing_json",
    "dumps_sorted",
]


def format_float(x) -> str:
    """Render one number with 17 significant digits (round-trip exact)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def _row(values) -> str:
    return ",".join(format_float(v) for v in values)


def step_csv_header(state_dim: int, control_dim: int, n_particles: int, param_dim: int) -> str:
    cols = ["t"]
    cols += [f"state_{i}" for i in range(state_dim)]
    cols += [f"control_{i}" for i in range(control_dim)]
    cols.append("cost")
    cols += [f"particle_{i}_{j}" for i in range(n_particles) for j in range(param_dim)]
    return ",".join(cols)


def write_step_csv(path, result) -> None:
    """Per-step trajectory log: t, state, control, cost, particle coordinates."""
    steps = result.steps
    n_particles = result.particles.shape[1] if steps else 0
    param_dim = result.particles.shape[2] if steps else 0
    state_dim = result.states.shape[1] if steps else len(result.final_state)
    control_dim = result.controls.shape[1] if steps else 0
    lines = [step_csv_header(state_dim, control_dim, n_particles, param_dim)]
    for k in range(steps):
        values = [result.times[k], *result.states[k], *result.controls[k],
                  result.costs[k], *result.particles[k].reshape(-1)]
        lines.append(_row(values))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def summary_record(result, doc_hash: str, version: str) -> dict:
    """Flatten one trial outcome into a JSON-ready record (no wall clock)."""
    record = {
        "seed": int(result.seed),
        "success": bool(result.success),
        "completion_time": None if result.completion_time is None else float(result.completion_time),
        "terminal_reason": str(result.terminal_reason),
        "steps": int(result.steps),
        "final_state": _jsonable(result.final_state),
        "final_particles": _jsonable(result.final_particles.particles),
        "final_particle_mean": _jsonable(np.mean(result.final_particles.particles, axis=0)),
        "config_hash": doc_hash,
        "version": version,
    }
    if result.final_progress is not None:
        record["final_progress"] = float(result.final_progress)
    if result.ksd is not None:
        record["ksd"] = _jsonable(result.ksd)
    return record


def dumps_sorted(value, indent: int = 0) -> str:
    """JSON with sorted keys and 17-significant-digit floats."""
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps_sorted(value[k], indent + 2)}'
            for k in sorted(value)
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {dumps_sorted(v, indent + 2)}" for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (int, str)):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_summary_json(path, record: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_sorted(record) + "\n")


AGGREGATE_HEADER = "method,env,success_pct,mean_time,std_time"


def aggregate_row(method: str, env_name: str, batch) -> str:
    return ",".join([
        method,
        env_name,
        format_float(batch.success_pct),
        format_float(batch.mean_time),
        format_float(batch.std_time),
    ])


def write_aggregate_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([AGGREGATE_HEADER, *rows]) + "\n")


def write_progress_csv(path, times, mean_progress, std_progress) -> None:
    lines = ["t,mean_progress,std_progress"]
    for t, m, s in zip(times, mean_progress, std_progress):
        lines.append(_row([t, m, s]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_timing_json(path, wall_clocks: dict) -> None:
    """Nondeterministic wall-clock sidecar, one entry per trial label."""
    record = {str(k): float(v) for k, v in wall_clocks.items()}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
