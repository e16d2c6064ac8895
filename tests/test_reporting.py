"""Byte-stable result files: float formatting, CSV layout, sorted JSON."""
import json
import random

import numpy as np
import pytest

from steinmpc.harness import BatchResult, TrialResult
from steinmpc.inference import ParticleSet
from steinmpc.reporting import (
    AGGREGATE_HEADER,
    aggregate_row,
    dumps_sorted,
    format_float,
    step_csv_header,
    summary_record,
    write_aggregate_csv,
    write_progress_csv,
    write_step_csv,
    write_summary_json,
    write_timing_json,
)


def test_format_float_known_renderings():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1 / 3) == "0.33333333333333331"
    assert format_float(1.0) == "1"
    assert format_float(-2.5) == "-2.5"
    assert format_float(1e300) == "1.0000000000000001e+300"
    assert format_float(5e-324) == "4.9406564584124654e-324"


def test_format_float_nonfinite():
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"
    with np.errstate(invalid="ignore"):
        negative_nan = np.float64("inf") - np.float64("inf")
    assert np.signbit(negative_nan)
    assert format_float(negative_nan) == "nan"


def test_format_float_round_trips_exactly():
    rng = random.Random(3)
    for _ in range(2000):
        x = rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-20, 20)
        assert float(format_float(x)) == x


def _tiny_result():
    return TrialResult(
        success=True,
        completion_time=0.2,
        terminal_reason="success",
        times=np.array([0.0, 0.1]),
        states=np.array([[1.0, 2.0], [1.5, 2.5]]),
        controls=np.array([[0.5], [-0.25]]),
        costs=np.array([3.0, 4.0]),
        particles=np.array([[[0.25], [0.75]], [[0.3], [0.7]]]),
        final_state=np.array([1.6, 2.6]),
        final_particles=ParticleSet(np.array([[0.3], [0.7]]), [0.0], [1.0]),
        seed=7,
    )


def test_step_csv_header_layout():
    assert step_csv_header(2, 1, 2, 1) == (
        "t,state_0,state_1,control_0,cost,particle_0_0,particle_1_0"
    )


def test_write_step_csv_golden(tmp_path):
    path = tmp_path / "trial.csv"
    write_step_csv(path, _tiny_result())
    assert path.read_bytes().decode() == (
        "t,state_0,state_1,control_0,cost,particle_0_0,particle_1_0\n"
        "0,1,2,0.5,3,0.25,0.75\n"
        "0.10000000000000001,1.5,2.5,-0.25,4,"
        "0.29999999999999999,0.69999999999999996\n"
    )


def test_write_step_csv_rfc4180_shape(tmp_path):
    path = tmp_path / "trial.csv"
    write_step_csv(path, _tiny_result())
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode().splitlines()
    widths = {len(line.split(",")) for line in lines}
    assert widths == {7}


def test_dumps_sorted_golden():
    doc = {"b": 1.5, "a": [True, None], "c": {"x": 0.1}}
    assert dumps_sorted(doc) == (
        '{\n  "a": [\n    true,\n    null\n  ],\n  "b": 1.5,'
        '\n  "c": {\n    "x": 0.10000000000000001\n  }\n}'
    )
    assert dumps_sorted({}) == "{}"
    assert dumps_sorted([]) == "[]"


def test_dumps_sorted_parses_back():
    doc = {"z": [1, 2.5, "s"], "a": {"k": False, "j": None}, "m": -0.1}
    parsed = json.loads(dumps_sorted(doc))
    assert parsed == doc


def test_dumps_sorted_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_sorted({"x": object()})


def test_summary_record_fields():
    record = summary_record(_tiny_result(), "abc123", "1.0")
    assert record["seed"] == 7
    assert record["success"] is True
    assert record["steps"] == 2
    assert record["config_hash"] == "abc123"
    assert record["version"] == "1.0"
    assert record["final_particle_mean"] == [0.5]
    # optional sections only appear when the trial produced them
    assert "final_progress" not in record
    assert "ksd" not in record


def test_summary_record_optional_sections():
    res = _tiny_result()
    res.final_progress = 1.25
    res.ksd = np.array([0.5, 0.25])
    record = summary_record(res, "h", "v")
    assert record["final_progress"] == 1.25
    assert record["ksd"] == [0.5, 0.25]


def test_write_summary_json_sorted_and_loadable(tmp_path):
    path = tmp_path / "trial.json"
    record = summary_record(_tiny_result(), "h", "v")
    write_summary_json(path, record)
    text = path.read_text()
    assert json.loads(text) == json.loads(dumps_sorted(record))
    keys = [line.split('"')[1] for line in text.splitlines()
            if line.startswith('  "')]
    assert keys == sorted(keys)


def test_aggregate_row_golden():
    class Batch:
        success_pct = 50.0
        mean_time = 1 / 3
        std_time = 0.0

    assert aggregate_row("stein_adaptive", "cartpole", Batch()) == (
        "stein_adaptive,cartpole,50,0.33333333333333331,0"
    )


def test_write_aggregate_csv(tmp_path):
    path = tmp_path / "agg.csv"
    write_aggregate_csv(path, ["a,b,1,2,3"])
    assert path.read_text() == AGGREGATE_HEADER + "\na,b,1,2,3\n"


def _result_with(seed, success, completion_time):
    res = _tiny_result()
    res.seed = seed
    res.success = success
    res.completion_time = completion_time
    return res


def test_batch_aggregates_are_order_independent():
    results = [
        _result_with(0, True, 1.0),
        _result_with(1, True, 9.0),
        _result_with(2, True, 0.1),
        _result_with(3, False, 30.0),
    ]
    forward = BatchResult(seeds=[0, 1, 2, 3], results=results)
    backward = BatchResult(seeds=[3, 2, 1, 0], results=results[::-1])
    for name in ("success_pct", "mean_time", "std_time"):
        assert getattr(forward, name) == getattr(backward, name)


def test_write_progress_csv_golden(tmp_path):
    path = tmp_path / "prog.csv"
    write_progress_csv(path, [0.0, 0.1], [0.0, 0.5], [0.0, 0.01])
    assert path.read_text() == (
        "t,mean_progress,std_progress\n0,0,0\n"
        "0.10000000000000001,0.5,0.01\n"
    )


def test_write_timing_json(tmp_path):
    path = tmp_path / "timing.json"
    write_timing_json(path, {"b_trial_1": 2.5, "a_trial_0": 1.25})
    loaded = json.loads(path.read_text())
    assert loaded == {"a_trial_0": 1.25, "b_trial_1": 2.5}
    text = path.read_text()
    assert text.index("a_trial_0") < text.index("b_trial_1")
