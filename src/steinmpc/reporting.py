"""Result persistence with byte-stable formatting.

Every float written by this module goes through a fixed 17-significant-digit
formatter, so a rerun of the same experiment produces byte-identical files.
Every file goes through one write path, ``_write_lines``: UTF-8, LF line
ends and a trailing newline. The step-CSV layout is read off the trial's
``(steps, ·)`` arrays, so a trial of zero steps writes the full header and
no rows. Wall-clock timings are deliberately kept out of the result
artifacts; they go to a separate timing sidecar that carries no scientific
content.
"""

from __future__ import annotations

import json

import numpy as np

from .inference import particle_mean

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
    """Render one number with 17 significant digits (round-trip exact); printf
    writes ``nan`` for either sign bit, ``inf`` and ``-inf``."""
    return "%.17g" % float(x)


def _row(values) -> str:
    return ",".join(format_float(v) for v in values)


def step_csv_header(state_dim: int, control_dim: int, n_particles: int, param_dim: int) -> str:
    cols = ["t"]
    cols += [f"state_{i}" for i in range(state_dim)]
    cols += [f"control_{i}" for i in range(control_dim)]
    cols.append("cost")
    cols += [f"particle_{i}_{j}" for i in range(n_particles) for j in range(param_dim)]
    return ",".join(cols)


def _write_lines(path, lines) -> None:
    """The one write path: UTF-8, LF line ends, a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_step_csv(path, result) -> None:
    """Per-step trajectory log: t, state, control, cost, particle coordinates."""
    steps, n, p = result.particles.shape
    table = np.column_stack([result.times, result.states, result.controls, result.costs,
                             result.particles.reshape(steps, n * p)])
    _write_lines(path, [step_csv_header(result.states.shape[1], result.controls.shape[1], n, p),
                        *map(_row, table)])


def summary_record(result, doc_hash: str, version: str) -> dict:
    """Flatten one trial outcome into a JSON-ready record (no wall clock)."""
    particles = result.final_particles.particles
    record = {
        "seed": int(result.seed),
        "success": bool(result.success),
        "completion_time": float(result.completion_time),
        "terminal_reason": str(result.terminal_reason),
        "steps": int(result.steps),
        "final_state": result.final_state.tolist(),
        "final_particles": particles.tolist(),
        "final_particle_mean": particle_mean(particles).tolist(),
        "config_hash": doc_hash,
        "version": version,
    }
    if result.final_progress is not None:
        record["final_progress"] = float(result.final_progress)
    if result.ksd is not None:
        record["ksd"] = result.ksd.tolist()
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
    _write_lines(path, [dumps_sorted(record)])


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
    _write_lines(path, [AGGREGATE_HEADER, *rows])


def write_progress_csv(path, times, mean_progress, std_progress) -> None:
    _write_lines(path, ["t,mean_progress,std_progress",
                        *map(_row, zip(times, mean_progress, std_progress))])


def write_timing_json(path, wall_clocks: dict) -> None:
    """Nondeterministic wall-clock sidecar, one entry per trial label."""
    record = {str(k): float(v) for k, v in wall_clocks.items()}
    _write_lines(path, [json.dumps(record, sort_keys=True, indent=2)])
