"""The benchmark's own tests: span arithmetic, wrapper transparency, idle layers.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the package's default test collection; they
run short trials and a small CLI batch, about half a minute in all.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORK, WORKLOADS, cli, configfile, harness  # noqa: E402

SHORT_STEPS = 12


def short_trial(name: str, seed: int = 3):
    trial = WORKLOADS[name].trial_config()
    return replace(trial, seed=seed, duration=SHORT_STEPS * trial.env.dt)


def traced_run(fn, spans=None):
    tracer = tracing.Tracer() if spans is None else spans
    with tracing.traced_layers(tracer):
        out = fn()
    return out, tracing.layer_metrics(tracer)


def short_rocket_batch(jobs: int, out_name: str, traced: bool):
    """A two-seed ablate-kernels batch of 12 steps per trial."""
    doc = WORKLOADS["rocket-kernels-batch"].document(0)
    doc["harness"]["duration"] = 0.18
    doc["batch"] = {"seeds": [0, 1]}
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / "selftest-rocket.yaml"
    path.write_text(configfile.serialize_config(doc))
    out_dir = WORK / out_name
    argv = ["ablate-kernels", str(path), "--jobs", str(jobs), "--out", str(out_dir)]
    if traced:
        code, metrics = traced_run(lambda: cli.main(argv))
    else:
        code, metrics = cli.main(argv), None
    assert code == 0
    return workloads.files_digest(out_dir), metrics


# ------------------------------------------------------------ span arithmetic

def test_self_times_on_synthetic_tree():
    # root [0, 100] has children a [10, 30], b [40, 70] and c [80, 95];
    # a has children g [12, 15] and h [20, 28]; h has one child k [21, 22].
    start = [0, 10, 40, 80, 12, 20, 21]
    end = [100, 30, 70, 95, 15, 28, 22]
    parent = [-1, 0, 0, 0, 1, 1, 5]
    got = tracing.self_times(start, end, parent).tolist()
    assert got == [100 - 20 - 30 - 15, 20 - 3 - 8, 30, 15, 3, 8 - 1, 1]


def test_tracer_records_nesting_and_rejects_misordered_close():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner", {"k": 1})
    assert tracer.current() == "inner"
    tracer.finish(inner)
    tracer.finish(outer)
    names, name_id, start, end, parent = tracer.arrays()
    assert [names[i] for i in name_id] == ["outer", "inner"]
    assert parent.tolist() == [-1, 0]
    assert start[0] <= start[1] <= end[1] <= end[0]
    assert tracer.attrs == {1: {"k": 1}}
    first = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.finish(first)


# ------------------------------------------------------------ timing figures

def test_window_min():
    got = run.window_min(np.array([5.0, 3.0, 4.0, 9.0, 8.0, 7.0]), 1)
    assert got.tolist() == [3.0, 3.0, 3.0, 4.0, 7.0, 7.0]


def test_fastest_takes_each_piece_at_its_minimum(monkeypatch):
    monkeypatch.setattr(run, "NEIGHBOURS", 0)
    workload = WORKLOADS["rocket-kernels-batch"]
    # Two repeats of a two-trial, two-kernel batch on 2 workers.
    slow = run.Repeat(wall=10.0, trial_walls=[2.0, 3.0], trial_steps=[3, 3],
                      trial_cycles=[np.array([500.0, 600.0]), np.array([900.0, 1000.0])],
                      trial_kernels=["rbf", "imq"], sub_walls={"rbf": 4.0, "imq": 5.0})
    fast = run.Repeat(wall=6.0, trial_walls=[1.5, 3.5], trial_steps=[3, 3],
                      trial_cycles=[np.array([700.0, 400.0]), np.array([800.0, 1100.0])],
                      trial_kernels=["rbf", "imq"], sub_walls={"rbf": 2.5, "imq": 3.0})
    got = run.fastest([slow, fast], workload, jobs=2)
    # Trial best: cycle minima plus the least time outside cycles.
    best = [(500 + 400) / 1e3 + min(2.0 - 1.1, 1.5 - 1.1),
            (800 + 1000) / 1e3 + min(3.0 - 1.9, 3.5 - 1.9)]
    overhead = min(4.0 - 1.0, 2.5 - 0.75) + min(5.0 - 1.5, 3.0 - 1.75) + min(1.0, 0.5)
    wall = sum(best) / 2 + overhead
    assert got["steps_per_s"] == pytest.approx(6 / wall)
    assert got["trials_per_s"] == pytest.approx(6 / wall / workload.nominal_steps)
    assert got["step_ms_p50"] == pytest.approx(np.percentile([500, 400, 800, 1000], 50))


def test_repeat_count_is_fixed_by_seconds():
    racing = WORKLOADS["racing-nominal"]
    assert run.repeat_count(racing, 45) == round(45 / racing.repeat_s)
    assert run.repeat_count(racing, 0.1) == run.MIN_REPEATS
    calls = []
    reps = run.repeat(lambda: calls.append(1) or run.Repeat(), 4)
    assert len(reps) == len(calls) == 4


def test_failed_run_still_reports(monkeypatch):
    # Outputs that fail the check keep their timings.
    monkeypatch.setattr(workloads, "load_digests", lambda workload: {})
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result = run.run_one("racing-nominal", 0, 0.1, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    # Trials that raise leave nothing to time.
    def broken(config):
        raise RuntimeError("broken trial")

    monkeypatch.setattr(harness, "run_trial", broken)
    result = run.run_one("racing-nominal", 0, 0.1, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert result["metrics"]["step_ms_p50"]["value"] is None
    assert result["metrics"]["setup_s"]["value"] > 0


# ------------------------------------------------------- wrapper transparency

def test_wrappers_return_exactly_what_they_wrap():
    sentinel = np.zeros((3, 2))  # an array, since rollout results are inspected later
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        return sentinel

    tracer = tracing.Tracer()
    layers = tracing._LayerTracing(tracer)
    trial = short_trial("cartpole-adaptive")
    plans, thetas = np.zeros((3, 4, 1)), np.ones((2, 2))
    cases = [
        (tracing.span_wrapper(tracer, "x", stub), (1, 2), {"k": 3}),
        (tracing.derivative_wrapper(tracer, stub), (np.zeros((2, 1, 4)), 0.0, 0.0), {}),
        (layers.mppi(stub), (1,), {"rng": 2}),
        (layers.rollout(stub), ("spec", "env", np.zeros(4), plans, thetas), {}),
        (layers.run_trial(stub), (trial,), {}),
    ]
    for wrapped, args, kwargs in cases:
        calls.clear()
        assert wrapped(*args, **kwargs) is sentinel
        (got_args, got_kwargs), = calls
        assert got_kwargs == kwargs
        if wrapped is not cases[-1][0]:
            assert all(g is a for g, a in zip(got_args, args))
    # run_trial hands on the same trial with only the derivative wrapped.
    (passed,), _ = calls[0]
    assert passed.env.derivative is not trial.env.derivative
    assert replace(passed, env=trial.env) == trial
    layers.close_cycle()


def test_traced_layers_give_bitwise_equal_outputs_and_restore_originals():
    from steinmpc import controllers, costs, kernels, track

    originals = {
        (harness, "mppi_solve"): harness.mppi_solve,
        (controllers, "rollout_cost_batch"): controllers.rollout_cost_batch,
        (kernels.RbfKernel, "matrix"): kernels.RbfKernel.matrix,
        (track.CenterlineReference, "horizon_states"): track.CenterlineReference.horizon_states,
    }
    rng = np.random.default_rng(0)
    trial = WORKLOADS["racing-nominal"].trial_config()
    env = trial.env
    plans = rng.uniform(env.control_lower, env.control_upper, size=(7, 10, 2))
    thetas = rng.uniform(env.theta_lower, env.theta_upper, size=(3, 2))
    x0 = trial.x0

    def outputs():
        return (costs.rollout_cost_batch(trial.cost, env, x0, plans, thetas),
                controllers.rollout_cost_batch(trial.cost, env, x0, plans[:1], thetas[0]),
                kernels.RbfKernel().matrix(thetas, thetas),
                kernels.ImqKernel().grad_first_tensor(thetas, thetas),
                trial.cost.x_des.horizon_states(x0, 10, env.dt))

    plain = outputs()
    traced, _ = traced_run(outputs)
    for a, b in zip(plain, traced):
        assert a.tobytes() == b.tobytes()
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn


# ------------------------------------------- tracing does not change results

@pytest.mark.parametrize("name", ["cartpole-adaptive", "racing-nominal"])
def test_traced_trial_digest_equals_untraced(name):
    trial = short_trial(name)
    plain = workloads.trial_digest(harness.run_trial(trial))
    traced, _ = traced_run(lambda: harness.run_trial(trial))
    assert workloads.trial_digest(traced) == plain


def test_traced_full_trial_matches_recorded_digest():
    workload = WORKLOADS["racing-nominal"]
    trial = replace(workload.trial_config(), seed=5)
    result, _ = traced_run(lambda: harness.run_trial(trial))
    assert workloads.trial_digest(result) == workloads.load_digests(workload)["5"]


def test_traced_in_process_batch_files_equal_pool_batch_files():
    pool_digest, _ = short_rocket_batch(jobs=2, out_name="selftest-pool", traced=False)
    traced_digest, _ = short_rocket_batch(jobs=1, out_name="selftest-traced", traced=True)
    assert traced_digest == pool_digest


# ------------------------------------------------------- idle layers read zero

# Values the code predicts at the commit that added the benchmark: a change
# that fuses or removes rollout calls changes them and must update these.
def test_cartpole_layers():
    spans = tracing.Tracer()
    _, m = traced_run(lambda: harness.run_trial(short_trial("cartpole-adaptive")), spans)
    assert all(v == 0 for k, v in m.items() if k.startswith("track."))
    assert m["dynamics.derivative_calls_per_step"] == 404
    for caller in tracing.ROLLOUT_CALLERS:
        assert m[f"costs.rollout_calls_per_step.{caller}"] == 1
    # First cycle: the log re-score repeats the chosen plan's 6 pairs and the
    # gap reference repeats theta_0. After the first SVGD step every particle
    # sits on the same box corner, so later cycles repeat far more; the
    # per-step figure reports that as measured.
    rollouts = [a for a in spans.attrs.values() if "caller" in a]
    first = rollouts[:len(tracing.ROLLOUT_CALLERS)]
    assert [a["caller"] for a in first] == list(tracing.ROLLOUT_CALLERS)
    assert [a["repeats"] for a in first] == [0, 0, 6, 1, 0]
    assert m["costs.redundant_pairs_per_step"] >= 7
    assert m["inference.probe_thetas_per_step"] == 20
    assert m["kernels.kernel_us_per_step.rbf"] > 0
    assert m["inference.svgd_self_ms"] > 0


def test_racing_layers():
    _, m = traced_run(lambda: harness.run_trial(short_trial("racing-nominal")))
    assert all(v == 0 for k, v in m.items() if k.startswith(("inference.", "kernels.")))
    assert m["dynamics.derivative_calls_per_step"] == 124
    calls = [m[f"costs.rollout_calls_per_step.{c}"] for c in tracing.ROLLOUT_CALLERS]
    assert calls == [1, 1, 1, 0, 0]
    assert m["costs.redundant_pairs_per_step"] == 1
    assert m["track.reference_calls_per_step"] == 3
    assert m["track.reference_us"] > 0 and m["track.progress_us"] > 0


def test_rocket_batch_layers():
    _, m = short_rocket_batch(jobs=1, out_name="selftest-layers", traced=True)
    assert m["dynamics.derivative_calls_per_step"] == 204
    assert m["inference.probe_thetas_per_step"] == 30
    assert m["kernels.kernel_us_per_step.rbf"] > 0
    assert m["kernels.kernel_us_per_step.imq"] > 0
    # svgd_step bypasses the kernel methods for the constant kernel.
    assert m["kernels.kernel_us_per_step.constant"] == 0
    assert m["reporting.write_ms_per_trial"] > 0
    assert all(v == 0 for k, v in m.items() if k.startswith("track."))
