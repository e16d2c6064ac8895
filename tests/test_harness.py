"""Closed-loop trial mechanics, success criteria, and batch aggregation."""
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
import yaml

from steinmpc import cli, controllers, costs, harness
from steinmpc.configfile import build_trial_config, load_config
from steinmpc.controllers import (
    ControllerSpec,
    MppiConfig,
    SolverFailureError,
    build_objective,
    mppi_solve,
)
from steinmpc.costs import CostSpec, rollout_cost_batch
from steinmpc.dynamics import EnvModel, make_cartpole, racecar_derivative
from steinmpc.harness import (
    CartpoleSuccess,
    RaceSuccess,
    RocketSuccess,
    TrialConfig,
    run_batch,
    run_trial,
)
from steinmpc.harness import _calibrated_controller, _gap_model
from steinmpc.inference import (
    ParticleSet,
    ScoreEvaluationError,
    SvgdConfig,
    probe_thetas,
    svgd_step,
)
from steinmpc.kernels import ConstantKernel, ImqKernel, RbfKernel
from steinmpc.reporting import batch_summary, step_csv_header, write_step_csv
from steinmpc.track import CenterlineReference

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

UP = math.pi


def test_cartpole_success_predicate():
    crit = CartpoleSuccess()
    assert crit.satisfied([0.0, UP, 5.0, 0.0])
    assert crit.satisfied([0.0, UP + 0.19, 0.0, 0.99])
    assert not crit.satisfied([0.0, UP + 0.21, 0.0, 0.0])
    assert not crit.satisfied([0.0, UP, 0.0, 1.01])
    # angle is compared on the circle, not the real line
    assert crit.satisfied([0.0, UP + 2.0 * math.pi, 0.0, 0.0])
    assert crit.satisfied([0.0, -UP, 0.0, 0.0])


def test_cartpole_hold_window():
    crit = CartpoleSuccess(hold_duration=0.5)
    times = [0.1 * k for k in range(8)]
    hanging = [0.0, 0.0, 0.0, 0.0]
    upright = [0.0, UP, 0.0, 0.0]

    held_5 = [hanging] * 3 + [upright] * 5  # spans t=0.3..0.7
    assert not crit.reached(times, held_5)
    held_6 = [hanging] * 2 + [upright] * 6  # spans t=0.2..0.7
    assert crit.reached(times, held_6)
    assert not crit.reached(times, [hanging] * 7 + [upright])
    # upright since the start counts from t=0
    assert crit.reached(times, [upright] * 8)
    assert not crit.reached([0.0], [upright])
    assert CartpoleSuccess(hold_duration=0.0).reached([0.0], [upright])


def test_rocket_success_predicate():
    crit = RocketSuccess()
    landed = [0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert crit.satisfied(landed)
    assert not crit.satisfied([0.61, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert not crit.satisfied([0.5, 0.06, 0.0, 0.0, 0.0, 0.0])
    assert not crit.satisfied([0.5, 0.0, 0.16, 0.0, 0.0, 0.0])
    assert not crit.satisfied([0.5, 0.0, 0.0, 0.15, 0.15, 0.0])  # speed 0.21
    assert crit.satisfied([0.5, 0.0, 0.0, 0.14, 0.14, 9.0])
    # reached reads the latest state alone
    assert crit.reached([0.0, 0.1], [[0.0] * 6, landed])
    assert not crit.reached([0.0, 0.1], [landed, [0.0] * 6])


def test_race_success_reads_progress():
    crit = RaceSuccess()
    states = [np.zeros(5)] * 2
    assert crit.reached([0.0, 0.1], states, [0.5, 1.0])
    assert not crit.reached([0.0, 0.1], states, [0.5, 0.99])
    assert not crit.reached([0.0, 0.1], states, None)
    assert RaceSuccess(laps=2.0).reached([0.0], [np.zeros(5)], [2.1])


@pytest.mark.parametrize("build,field,value,rule", [
    # a lap count of -1 would succeed before the first step
    (RaceSuccess, "laps", -1.0, "positive"),
    (RaceSuccess, "laps", 0.0, "positive"),
    # a negative tolerance would make success impossible
    (CartpoleSuccess, "angle_tol", -1.0, "positive"),
    (CartpoleSuccess, "rate_tol", 0.0, "positive"),
    (CartpoleSuccess, "hold_duration", -1e-9, "nonnegative"),
    (RocketSuccess, "x_tol", -0.1, "positive"),
    (RocketSuccess, "speed_tol", math.nan, "positive"),
    (RocketSuccess, "y_target", -math.inf, "real"),
])
def test_success_criteria_reject_fields_outside_their_range(build, field, value, rule):
    with pytest.raises(ValueError, match=f"{field} must be {rule} and finite"):
        build(**{field: value})
    # a target may take either sign
    assert RocketSuccess(x_target=-0.5, y_target=-1.0).x_target == -0.5


def _cartpole_trial(**overrides):
    kwargs = dict(
        env=make_cartpole(),
        cost=CostSpec(Q=np.diag([1.0, 5.0, 0.5, 0.5]), R=[[0.01]],
                      Q_f=np.diag([2.0, 10.0, 1.0, 1.0]),
                      x_des=[0.0, UP, 0.0, 0.0]),
        controller=ControllerSpec(variant="nominal"),
        svgd=SvgdConfig(step_size=0.001, kernel=RbfKernel()),
        mppi=MppiConfig(samples=8, temperature=1.0, noise_fraction=0.5),
        success=CartpoleSuccess(),
        x0=np.zeros(4),
        duration=0.2,
        horizon_seconds=0.2,
        seed=0,
    )
    kwargs.update(overrides)
    return TrialConfig(**kwargs)


def test_trial_config_validation():
    with pytest.raises(ValueError):
        _cartpole_trial(x0=np.zeros(3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            _cartpole_trial(x0=np.array([0.0, bad, 0.0, 0.0]))
    with pytest.raises(ValueError):
        _cartpole_trial(n_particles=0)
    with pytest.raises(ValueError):
        _cartpole_trial(duration=-1.0)
    # the horizon must be a whole number of env.dt steps when the trial is built
    with pytest.raises(ValueError, match="integer multiple"):
        _cartpole_trial(horizon_seconds=0.21)
    trial = _cartpole_trial(horizon_seconds=0.4)
    with pytest.raises(ValueError, match="integer multiple"):
        dataclasses.replace(trial, env=dataclasses.replace(trial.env, dt=0.03))


def test_timeout_trial_logs_every_step():
    result = run_trial(_cartpole_trial())
    assert not result.success
    assert result.terminal_reason == "timeout"
    assert result.completion_time == 0.2
    assert result.steps == 10  # cartpole's default dt 0.02 inside a 0.2 s budget
    assert np.array_equal(result.times, 0.02 * np.arange(10))
    assert result.states.shape == (10, 4)
    assert result.controls.shape == (10, 1)
    assert result.particles.shape == (10, 5, 2)
    assert result.progress is None and result.ksd is None
    assert result.wall_clock_seconds > 0


def test_immediate_success_logs_nothing():
    config = _cartpole_trial(x0=np.array([0.0, UP, 0.0, 0.0]),
                             success=CartpoleSuccess(hold_duration=0.0))
    result = run_trial(config)
    assert result.success
    assert result.terminal_reason == "success"
    assert result.completion_time == 0.0
    assert result.steps == 0
    assert result.states.shape == (0, 4)
    assert np.array_equal(result.final_state, config.x0)


def test_trials_are_reproducible():
    config = _cartpole_trial(controller=ControllerSpec(variant="stein_adaptive"),
                             duration=0.3, seed=5)
    a, b = run_trial(config), run_trial(config)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.particles, b.particles)
    assert np.array_equal(a.final_particles.particles,
                          b.final_particles.particles)


def test_different_seeds_differ():
    a = run_trial(_cartpole_trial(seed=0))
    b = run_trial(_cartpole_trial(seed=1))
    assert not np.array_equal(a.controls, b.controls)


def test_adaptive_variant_moves_particles():
    config = _cartpole_trial(controller=ControllerSpec(variant="stein_adaptive"),
                             svgd=SvgdConfig(step_size=0.05, kernel=RbfKernel()))
    result = run_trial(config)
    assert not np.array_equal(result.particles[0], result.particles[-1])


def test_frozen_variants_keep_particles():
    for variant in ("nominal", "emppi"):
        result = run_trial(_cartpole_trial(
            controller=ControllerSpec(variant=variant)))
        assert np.array_equal(result.particles[0], result.particles[-1])
        assert np.array_equal(result.particles[-1],
                              result.final_particles.particles)


def test_zero_step_size_freezes_adaptive_particles():
    config = _cartpole_trial(controller=ControllerSpec(variant="stein_adaptive"),
                             svgd=SvgdConfig(step_size=0.0, kernel=RbfKernel()))
    result = run_trial(config)
    assert np.array_equal(result.particles[0], result.particles[-1])


def test_ksd_logging_needs_compatible_kernel():
    stein = ControllerSpec(variant="stein_adaptive")
    logged = run_trial(_cartpole_trial(controller=stein, log_ksd=True))
    assert logged.ksd is not None
    assert len(logged.ksd) == logged.steps
    assert np.all(logged.ksd >= -1e-10)

    constant = run_trial(_cartpole_trial(
        controller=stein, log_ksd=True,
        svgd=SvgdConfig(step_size=0.001, kernel=ConstantKernel())))
    assert constant.ksd is None


def test_racing_trial_reports_progress():
    track_config = load_config(os.path.join(CONFIG_DIR, "racing.yaml"))
    trial, _ = build_trial_config(track_config)
    short = TrialConfig(
        env=trial.env, cost=trial.cost,
        controller=ControllerSpec(variant="nominal"),
        svgd=trial.svgd, mppi=MppiConfig(samples=8, temperature=1.0,
                                         noise_fraction=0.5),
        success=RaceSuccess(), x0=trial.x0, duration=0.3,
        horizon_seconds=0.15, track=trial.track, seed=0,
    )
    result = run_trial(short)
    assert result.progress is not None
    assert result.progress.shape == (result.steps,)
    assert isinstance(result.final_progress, float)
    assert result.terminal_reason == "timeout"


def _exploding_derivative(u, theta):
    def f(x):
        out = np.empty((2,) + np.broadcast(x[0], u[0], theta[0]).shape)
        out[0] = 1e308 * (1.0 + x[0])
        out[1] = 0.0
        return out
    return f


def test_diverging_dynamics_end_in_solver_failure():
    env = EnvModel(
        name="racecar", state_dim=2, control_dim=1, param_dim=1, dt=0.1,
        control_lower=[-1.0], control_upper=[1.0],
        theta_true=[1.0], theta_lower=[0.5], theta_upper=[1.5],
        derivative=_exploding_derivative,
    )
    config = TrialConfig(
        env=env,
        cost=CostSpec(Q=np.eye(2), R=[[0.1]], Q_f=np.eye(2), x_des=[0.0, 0.0]),
        controller=ControllerSpec(variant="nominal"),
        svgd=SvgdConfig(step_size=0.001, kernel=RbfKernel()),
        mppi=MppiConfig(samples=4, temperature=1.0, noise_fraction=0.5),
        success=RaceSuccess(),
        x0=np.zeros(2),
        duration=1.0,
    )
    result = run_trial(config)
    assert not result.success
    assert result.terminal_reason == "solver_failure"
    # racing follows the track, not the criterion: with no track no lap is measured
    assert result.progress is None
    assert result.final_progress is None


def _failing_svgd_step(after_calls):
    calls = []

    def step(particles, gaps, config):
        calls.append(None)
        if len(calls) > after_calls:
            raise ScoreEvaluationError(particles.particles[0])
        return particles

    return step


def test_inference_failure_ends_trial_with_logged_rows(monkeypatch):
    monkeypatch.setattr(harness, "svgd_step", _failing_svgd_step(after_calls=2))
    result = run_trial(_cartpole_trial(controller=ControllerSpec(variant="stein_adaptive")))
    assert not result.success
    assert result.terminal_reason == "inference_failure"
    # the failing third step was planned and logged before inference ran
    assert result.steps == 3
    assert result.states.shape == (3, 4)
    np.testing.assert_array_equal(result.final_state, result.states[-1])


@pytest.mark.parametrize("kernel", [RbfKernel(), ImqKernel(), ConstantKernel()],
                         ids=["rbf", "imq", "constant"])
def test_a_nonfinite_stein_drift_ends_the_trial_in_inference_failure(monkeypatch, kernel):
    # Every probe gap is finite, +-1e308, but their central differences
    # overflow: the particles' scores are +inf and -inf in turn, so the drift
    # is NaN (rbf, imq) or infinite (constant) and no moved set is built.
    solve = harness.mppi_solve

    def overflowing(env, warm, objective, *rest, **kwargs):
        plan, cost, row, ahead = solve(env, warm, objective, *rest, **kwargs)
        n, dim = objective.thetas.shape[0] - 1, objective.thetas.shape[1]
        turns = np.where(np.arange(n) % 2 == 0, 1e308, -1e308)
        tail = turns[:, None, None] * np.array([1.0, -1.0])[None, :, None]
        row = np.concatenate([[0.0], row[1:n + 1], np.repeat(tail, dim, axis=2).ravel()])
        return plan, cost, row, ahead

    monkeypatch.setattr(harness, "mppi_solve", overflowing)
    config = _cartpole_trial(controller=ControllerSpec(variant="stein_adaptive"),
                             svgd=SvgdConfig(step_size=0.001, kernel=kernel))
    result = run_trial(config)
    assert result.terminal_reason == "inference_failure" and not result.success
    assert result.steps == 1
    np.testing.assert_array_equal(result.final_state, config.x0)
    np.testing.assert_array_equal(result.final_particles.particles, result.particles[0])


def _fragile_derivative(u, theta):
    # a double integrator whose gain is nan for every theta above 1.2
    gain = np.where(theta[0] > 1.2, np.nan, theta[0])

    def f(x):
        out = np.empty((2,) + np.broadcast(x[0], u[0], gain).shape)
        out[0] = x[1]
        out[1] = u[0] * gain
        return out
    return f


def _fragile_env(theta_true):
    return EnvModel(
        name="fragile", state_dim=2, control_dim=1, param_dim=1, dt=0.1,
        control_lower=[-1.0], control_upper=[1.0],
        theta_true=theta_true, theta_lower=[0.5], theta_upper=[1.5],
        derivative=_fragile_derivative,
    )


def test_plant_divergence_ends_in_solver_failure_after_the_planned_row():
    # The nominal variant plans at theta = 1.0, where every rollout is
    # finite; the plant runs at 1.4, where the gain is nan, so the first
    # step it takes leaves no finite state.
    config = TrialConfig(
        env=_fragile_env(theta_true=[1.4]),
        cost=CostSpec(Q=np.eye(2), R=[[0.1]], Q_f=np.eye(2), x_des=[1.0, 0.0]),
        controller=ControllerSpec(variant="nominal"),
        svgd=SvgdConfig(step_size=0.001, kernel=RbfKernel()),
        mppi=MppiConfig(samples=4, temperature=1.0, noise_fraction=0.5),
        success=RaceSuccess(),
        x0=np.zeros(2),
        duration=1.0,
    )
    result = run_trial(config)
    assert not result.success
    assert result.terminal_reason == "solver_failure"
    assert result.steps == 1
    assert np.isfinite(result.costs[0])
    np.testing.assert_array_equal(result.states, [config.x0])
    np.testing.assert_array_equal(result.final_state, config.x0)


def test_nonfinite_probe_costs_fail_inference_not_the_solve():
    # The last particle sits on the fragile edge: its plus probe diverges
    # while every theta the objective scores stays finite.
    env = _fragile_env(theta_true=[1.0])
    spec = CostSpec(Q=np.eye(2), R=[[0.1]], Q_f=np.eye(2), x_des=[1.0, 0.0])
    x0 = np.zeros(2)
    particles = ParticleSet([[0.7], [1.0], [1.2]], env.theta_lower, env.theta_upper)
    svgd = SvgdConfig()
    probe = probe_thetas(particles, svgd.fd_epsilon)
    objective = build_objective(ControllerSpec(), spec, env, x0, particles.particles)
    cfg = MppiConfig(samples=16, noise_fraction=0.3)
    warm = np.zeros((5, 1))
    plan, cost, _, _ = mppi_solve(env, warm, objective, cfg, np.random.default_rng(0))
    p_plan, p_cost, row, _ = mppi_solve(env, warm, objective, cfg,
                                        np.random.default_rng(0), probe)
    assert p_plan.tobytes() == plan.tobytes() and p_cost == cost
    n = len(objective.thetas)
    assert np.all(np.isfinite(row[:n]))
    np.testing.assert_array_equal(np.isfinite(row[n:]), probe[:, 0] <= 1.2)

    # The rescore's probe tail is a fresh rollout of the same probe, byte for
    # byte, and the Stein step fails on the same row from either.
    known = row[n:] - row[0]
    rolled = _gap_model(objective, plan, probe)
    assert known.tobytes() == rolled.tobytes()
    with pytest.raises(ScoreEvaluationError) as from_known:
        svgd_step(particles, known, svgd)
    with pytest.raises(ScoreEvaluationError) as from_rollout:
        svgd_step(particles, rolled, svgd)
    assert from_known.value.theta.tobytes() == from_rollout.value.theta.tobytes()
    assert from_known.value.theta.tobytes() == probe[4].tobytes()


def test_solver_failure_mid_trial_logs_the_steps_before_it(monkeypatch):
    # The third cycle's solver fails before anything is applied: two rows are
    # logged, and the state the second control led to is final but not logged.
    solve = harness.mppi_solve
    calls = []

    def fails_third(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise SolverFailureError("no candidate plan produced a finite objective value")
        return solve(*args, **kwargs)

    monkeypatch.setattr(harness, "mppi_solve", fails_third)
    config = _cartpole_trial(controller=ControllerSpec(variant="stein_adaptive"))
    env = config.env
    result = run_trial(config)
    assert result.terminal_reason == "solver_failure" and not result.success
    assert result.steps == 2
    np.testing.assert_array_equal(result.times, [0.0, env.dt])
    assert result.states.shape == (2, 4) and result.controls.shape == (2, 1)
    assert result.costs.shape == (2,)
    assert result.particles.shape == (2, config.n_particles, env.param_dim)
    assert result.particle_means.shape == (2, env.param_dim)
    x1 = harness.rk4_step(env, config.x0, result.controls[0], env.theta_true)
    x2 = harness.rk4_step(env, x1, result.controls[1], env.theta_true)
    np.testing.assert_array_equal(result.states, [config.x0, x1])
    np.testing.assert_array_equal(result.final_state, x2)
    assert not np.array_equal(x2, x1)


def _no_finite_plan(*args, **kwargs):
    raise SolverFailureError("no candidate plan produced a finite objective value")


@pytest.mark.parametrize("case", ["duration_below_dt", "solver_fails_first_cycle"])
def test_zero_step_trial_writes_the_full_header_and_no_rows(case, monkeypatch, tmp_path):
    if case == "solver_fails_first_cycle":
        monkeypatch.setattr(harness, "mppi_solve", _no_finite_plan)
        config = _cartpole_trial()
    else:
        config = _cartpole_trial(duration=0.5 * make_cartpole().dt)
    result = run_trial(config)
    assert result.steps == 0
    path = tmp_path / "trial.csv"
    write_step_csv(path, result)
    env = config.env
    header = step_csv_header(env.state_dim, env.control_dim, config.n_particles, env.param_dim)
    assert path.read_bytes() == (header + "\n").encode()


def test_cli_run_exits_4_on_inference_failure(monkeypatch, tmp_path, capsys):
    doc = load_config(os.path.join(CONFIG_DIR, "cartpole.yaml"))
    doc["harness"]["duration"] = 0.1
    doc["mppi"]["samples"] = 8
    path = tmp_path / "cartpole.yaml"
    path.write_text(yaml.safe_dump(doc))
    monkeypatch.setattr(harness, "svgd_step", _failing_svgd_step(after_calls=0))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "0"])
    assert code == 4
    assert "inference failure" in capsys.readouterr().err
    assert (tmp_path / "out" / "trial_0.json").exists()


def test_cli_run_exits_3_on_solver_failure(monkeypatch, tmp_path, capsys):
    doc = load_config(os.path.join(CONFIG_DIR, "cartpole.yaml"))
    doc["harness"]["duration"] = 0.1
    path = tmp_path / "cartpole.yaml"
    path.write_text(yaml.safe_dump(doc))
    monkeypatch.setattr(harness, "mppi_solve", _no_finite_plan)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--seed", "0"])
    assert code == 3
    assert "solver failure in trial seed=0" in capsys.readouterr().err
    assert (tmp_path / "out" / "trial_0.json").exists()


@pytest.mark.parametrize("variant,iterations,log_ksd,rollouts", [
    ("stein_adaptive", 1, False, 2), ("nominal", 1, False, 2),
    ("stein_adaptive", 2, False, 3), ("stein_adaptive", 1, True, 3)],
    ids=["stein_adaptive-2", "nominal-2", "stein_adaptive-iterations_2-3",
         "stein_adaptive-log_ksd-3"])
def test_one_cycle_rolls_out_each_question_once(monkeypatch, variant, iterations, log_ksd,
                                                rollouts):
    # plan grid and the rescore of the averaged plan and the best candidate;
    # when adaptive, the first SVGD step's probe rides in the rescore. The
    # logged cost, the gap reference and the probe's gaps reuse the chosen
    # plan's rescore row, and the centerline reference is resolved once for
    # every rollout of the cycle. A second SVGD step and the KSD each roll
    # out the probe of the particles they score.
    trial, _ = build_trial_config(load_config(os.path.join(CONFIG_DIR, "racing.yaml")))
    trial = dataclasses.replace(
        trial, controller=ControllerSpec(variant=variant), duration=trial.env.dt,
        mppi=MppiConfig(samples=8, temperature=1.0, noise_fraction=0.5),
        svgd=dataclasses.replace(trial.svgd, iterations=iterations), log_ksd=log_ksd)
    calls = {"rollout": 0, "reference": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    rollout = counted("rollout", costs.rollout_cost_batch)
    for module in (controllers, costs, harness):
        monkeypatch.setattr(module, "rollout_cost_batch", rollout)
    monkeypatch.setattr(CenterlineReference, "horizon_states",
                        counted("reference", CenterlineReference.horizon_states))
    result = run_trial(trial)
    assert result.steps == 1
    assert calls == {"rollout": rollouts, "reference": 1}


@pytest.mark.parametrize("variant,iterations", [
    ("nominal", 1), ("emppi", 1), ("dro", 1), ("stein_adaptive", 0), ("stein_adaptive", 1)],
    ids=["nominal", "emppi", "dro", "stein_adaptive-iterations_0", "stein_adaptive-moving"])
def test_a_cycle_after_a_kept_best_candidate_rolls_out_once(monkeypatch, variant, iterations):
    # While the particles stay put, each cycle but the last rolls the next
    # cycle's planner grid out in its rescore, from the state the best
    # candidate reaches. A cycle after one that kept its best candidate plans
    # on that grid and makes one rollout; the first cycle, and one after an
    # accepted average, make two. A moving flow makes two in every cycle and
    # passes no grid and no lookahead. Every cycle, one after a kept best
    # candidate included, plans on an objective whose start state has the
    # bytes of its logged state. The references of each logged state are
    # resolved once, and those of each prediction that was not kept once.
    # At the reference speed from the start, both branches come up within
    # the trial's 40 cycles.
    trial, _ = build_trial_config(load_config(os.path.join(CONFIG_DIR, "racing.yaml")))
    samples = 16
    trial = dataclasses.replace(
        trial, controller=dataclasses.replace(trial.controller, variant=variant),
        duration=40 * trial.env.dt, x0=np.array([-2.5, -2.0, 0.0, 4.5, 0.0]),
        mppi=MppiConfig(samples=samples, temperature=5.0, noise_fraction=0.5),
        svgd=dataclasses.replace(trial.svgd, iterations=iterations))
    fixed = iterations == 0 or variant != "stein_adaptive"
    cycles = []
    solve = harness.mppi_solve

    def marked(*args, **kwargs):
        cycles.append({"rollouts": [], "thetas": [], "references": [], "kwargs": kwargs,
                       "x0": args[2].x0.tobytes()})
        plan, cost, row, ahead = solve(*args, **kwargs)
        cycles[-1]["plan"], cycles[-1]["rescore"] = plan, cycles[-1]["rollouts"][-1]
        return plan, cost, row, ahead

    def recorded(spec, env, x0, plans, thetas, refs=None):
        cycles[-1]["rollouts"].append(np.array(plans))
        cycles[-1]["thetas"].append(np.shape(thetas))
        return rollout_cost_batch(spec, env, x0, plans, thetas, refs=refs)

    horizon_states = CenterlineReference.horizon_states

    def resolved(self, x0, steps, dt):
        cycles[-1]["references"].append(np.array(x0).tobytes())
        return horizon_states(self, x0, steps, dt)

    monkeypatch.setattr(harness, "mppi_solve", marked)
    for module in (controllers, costs, harness):
        monkeypatch.setattr(module, "rollout_cost_batch", recorded)
    monkeypatch.setattr(CenterlineReference, "horizon_states", resolved)
    result = run_trial(trial)
    assert result.terminal_reason == "timeout" and result.steps == len(cycles) == 40

    kept = [c["plan"].tobytes() == c["rescore"][1].tobytes() for c in cycles]
    assert any(kept[:-1]) and not all(kept[:-1])
    if fixed:
        expected = [2] + [1 if k else 2 for k in kept[:-1]]
        fused = [2 + samples] * 39 + [2]
        wasted = kept[:-1].count(False)
    else:
        expected, fused, wasted = [2] * 40, [2] * 40, 0
        assert all(c["kwargs"] == {"grid": None, "lookahead": None} for c in cycles)
    assert all(c["x0"] == state.tobytes() for c, state in zip(cycles, result.states))
    assert [len(c["rollouts"]) for c in cycles] == expected
    assert [len(c["rescore"]) for c in cycles] == fused
    # bench/tracing.py reads P as the thetas' first axis and bench/run.py
    # times a cycle per solver call: every call gets one 2-D (P, p) stack,
    # and each cycle's (C, P) calls are the planner grid, when it runs, and
    # the rescore, with the probe's 2 n p rows when the particles move
    n, p = trial.n_particles, trial.env.param_dim
    objective_p = {"nominal": 1, "dro": n}.get(variant, n + 1)
    probe_p = 0 if fixed else 2 * n * p
    assert all(len(shape) == 2 and shape[1] == p for c in cycles for shape in c["thetas"])
    assert [[(len(plans), shape[0]) for plans, shape in zip(c["rollouts"], c["thetas"])]
            for c in cycles] == [[(samples, objective_p)] * (r - 1) + [(f, objective_p + probe_p)]
                                 for r, f in zip(expected, fused)]
    keys = [key for c in cycles for key in c["references"]]
    assert len(keys) == result.steps + wasted
    assert all(keys.count(state.tobytes()) == 1 for state in result.states)


def _stalling_racecar_derivative(u, theta):
    # the racecar, except that under a mass below 0.12 a speed above 0.5
    # turns the derivative NaN: the plant (mass 0.1) diverges, while the
    # nominal variant's plans (mass 0.175) stay finite
    f = racecar_derivative(u, theta)
    light = theta[0] < 0.12
    return lambda x: np.where(light & (x[3] > 0.5), np.nan, f(x))


def test_a_diverging_racing_plant_ends_in_solver_failure_without_resolving_its_state():
    # The cycle whose best candidate drives the plant to NaN rolls nothing
    # ahead, so no reference is resolved from a NaN state; the trial ends as
    # solver_failure with the rows and final state it had before the
    # lookahead existed (the digest was recorded then).
    trial, _ = build_trial_config(load_config(os.path.join(CONFIG_DIR, "racing.yaml")))
    trial = dataclasses.replace(
        trial, controller=dataclasses.replace(trial.controller, variant="nominal"),
        env=dataclasses.replace(trial.env, derivative=_stalling_racecar_derivative),
        mppi=MppiConfig(samples=16, temperature=0.5, noise_fraction=0.5), duration=1.0)
    result = run_trial(trial)
    assert result.terminal_reason == "solver_failure" and result.steps == 9
    np.testing.assert_array_equal(result.final_state, result.states[-1])
    digest = hashlib.sha256()
    for array in (result.times, result.states, result.controls, result.costs,
                  result.particles, result.progress, result.final_state):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == (
        "682620801804392e5854420af6e00e4f1cfe2465b46c58f54c5e4d83f6a97903")


def test_dro_lambda_calibrates_from_warm_start_cost():
    config = _cartpole_trial(controller=ControllerSpec(variant="dro"))
    warm = np.zeros((4, 1))
    calibrated = _calibrated_controller(config, warm)
    midpoint = 0.5 * (config.env.theta_lower + config.env.theta_upper)
    expected = 10.0 * abs(rollout_cost_batch(
        config.cost, config.env, config.x0, warm[None], midpoint[None])[0, 0])
    assert calibrated.risk_lambda == pytest.approx(expected)
    # explicit values and other variants pass through untouched
    explicit = _cartpole_trial(controller=ControllerSpec(variant="dro", risk_lambda=2.0))
    assert _calibrated_controller(explicit, warm) is explicit.controller
    stein = _cartpole_trial(controller=ControllerSpec(variant="stein_adaptive"))
    assert _calibrated_controller(stein, warm) is stein.controller


def test_dro_calibration_on_a_nonfinite_warm_cost_ends_in_solver_failure():
    # At the nominal theta of 1.4 the fragile gain is nan, so the warm start's
    # cost gives no scale for the risk temperature: the trial fails before
    # its first step instead of raising.
    config = TrialConfig(
        env=_fragile_env(theta_true=[1.0]),
        cost=CostSpec(Q=np.eye(2), R=[[0.1]], Q_f=np.eye(2), x_des=[1.0, 0.0]),
        controller=ControllerSpec(variant="dro", nominal_theta=[1.4]),
        svgd=SvgdConfig(step_size=0.001, kernel=RbfKernel()),
        mppi=MppiConfig(samples=4, temperature=1.0, noise_fraction=0.5),
        success=RaceSuccess(),
        x0=np.zeros(2),
        duration=1.0,
    )
    with pytest.raises(SolverFailureError):
        _calibrated_controller(config, np.zeros((2, 1)))
    result = run_trial(config)
    assert not result.success
    assert result.terminal_reason == "solver_failure"
    assert result.steps == 0
    np.testing.assert_array_equal(result.final_state, config.x0)
    # A finite warm cost of about 4.9e307 whose tenfold, the risk
    # temperature, overflows gives no scale either.
    config = build_trial_config(_overflowing_dro_doc())[0]
    warm = np.zeros((20, 1))
    midpoint = 0.5 * (config.env.theta_lower + config.env.theta_upper)
    scale = rollout_cost_batch(config.cost, config.env, config.x0, warm[None], midpoint[None])
    assert np.isfinite(scale[0, 0]) and not np.isfinite(10.0 * float(scale[0, 0]))
    with pytest.raises(SolverFailureError):
        _calibrated_controller(config, warm)
    result = run_trial(dataclasses.replace(config, duration=0.03))
    assert result.terminal_reason == "solver_failure"
    assert result.steps == 0
    np.testing.assert_array_equal(result.final_state, config.x0)


def _overflowing_dro_doc():
    """The shipped cartpole document on the dro variant with a pole-angle
    weight whose warm-start cost is finite but whose tenfold is not."""
    doc = load_config(os.path.join(CONFIG_DIR, "cartpole.yaml"))
    doc["controller"] = {"variant": "dro"}
    doc["cost"]["q"] = [8.0, 2.5e305, 4.0, 0.5]
    return doc


def test_cli_dro_with_a_nonfinite_warm_cost_exits_3_and_batches_write_records(
        tmp_path, capsys):
    # A goal 1e200 m to the side at a tilt of 1e200 rad: the squared errors
    # overflow to inf and q's x-tilt coupling to -inf, so the warm start's
    # cost under the nominal parameters is nan.
    rocket = load_config(os.path.join(CONFIG_DIR, "rocket.yaml"))
    rocket["controller"] = {"variant": "dro"}
    rocket["cost"]["x_des"] = [1e200, 0.5, 1e200, 0.0, 0.0, 0.0]
    # A pole-angle weight of 1e306 overflows the warm start's cost itself.
    overflow = _overflowing_dro_doc()
    overflow["cost"]["q"] = [8.0, 1e306, 4.0, 0.5]
    docs = [("rocket", rocket), ("cartpole", _overflowing_dro_doc()), ("overflow", overflow)]
    for name, doc in docs:
        doc["harness"]["duration"] = 0.03
        doc["batch"] = {"seeds": [0, 1]}
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = cli.main(["run", str(path), "--out", str(tmp_path / name / "run"),
                         "--seed", "0"])
        assert code == 3
        # The labelled failure is the whole report: no numpy warning precedes it.
        assert capsys.readouterr().err == "solver failure in trial seed=0\n"
        assert cli.main(["batch", str(path), "--out", str(tmp_path / name / "batch")]) == 0
        assert capsys.readouterr().err == ""
        for out, seed in [("run", 0), ("batch", 0), ("batch", 1)]:
            record = json.loads((tmp_path / name / out / f"trial_{seed}.json").read_text())
            assert record["terminal_reason"] == "solver_failure"
            assert record["steps"] == 0
            assert record["final_state"] == doc["harness"]["x0"]


def test_dro_trial_runs_without_explicit_lambda():
    result = run_trial(_cartpole_trial(controller=ControllerSpec(variant="dro")))
    assert result.terminal_reason == "timeout"


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_batch_is_ordered_and_parallel_invariant():
    config = _cartpole_trial(controller=ControllerSpec(variant="stein_adaptive"))
    serial = run_batch(config, [3, 1, 4], jobs=1)
    parallel = run_batch(config, [3, 1, 4], jobs=2)
    _assert_no_child_left()
    assert [r.seed for r in serial] == [r.seed for r in parallel] == [3, 1, 4]
    for a, b in zip(serial, parallel):
        assert (a.seed, a.success, a.terminal_reason, a.completion_time) == (
            b.seed, b.success, b.terminal_reason, b.completion_time)
        for name in ("times", "states", "controls", "costs", "particles", "final_state", "ksd"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        for name in ("particles", "lower", "upper"):
            assert np.array_equal(getattr(a.final_particles, name),
                                  getattr(b.final_particles, name)), name


def test_run_batch_starts_at_most_one_worker_per_seed(monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    config = _cartpole_trial(duration=0.0)
    started = []
    for seeds, jobs in [([3, 1], 64), ([3, 1, 4], 2), ([5], 8)]:
        forks.clear()
        assert [r.seed for r in run_batch(config, seeds, jobs=jobs)] == seeds
        started.append(len(forks))
    assert started == [2, 2, 0]


@contextlib.contextmanager
def _deadline(seconds):
    """Raise ``TimeoutError`` in this process if the block runs ``seconds`` long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _fail_seed(monkeypatch, seed, fail):
    """Make ``harness.run_trial`` call ``fail()`` for ``seed``; forked
    workers inherit the patch."""
    run = harness.run_trial

    def run_or_fail(config):
        if config.seed == seed:
            fail()
        return run(config)

    monkeypatch.setattr(harness, "run_trial", run_or_fail)


def test_a_worker_trial_error_is_reraised_in_the_caller(monkeypatch):
    def fail():
        raise SolverFailureError("no finite plan for seed 1")

    _fail_seed(monkeypatch, 1, fail)
    with _deadline(60), pytest.raises(SolverFailureError, match="no finite plan for seed 1"):
        run_batch(_cartpole_trial(duration=0.0), [0, 1, 2], jobs=2)
    _assert_no_child_left()


def test_a_worker_that_exits_without_reporting_raises(monkeypatch):
    _fail_seed(monkeypatch, 1, lambda: os._exit(1))
    with _deadline(60), pytest.raises(RuntimeError, match="without a result"):
        run_batch(_cartpole_trial(duration=0.0), [0, 1, 2], jobs=2)
    _assert_no_child_left()


def test_an_in_process_trial_loads_no_process_pool():
    # fresh interpreters, so no other test's imports count; a forked batch
    # loads no pool either
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for run in ["assert steinmpc.run_trial(trial).steps == 1",
                "assert [r.steps for r in steinmpc.run_batch(trial, [0, 1], jobs=2)]"
                " == [1, 1]"]:
        script = (
            "import sys\n"
            "import steinmpc, steinmpc.cli\n"
            "from steinmpc.configfile import build_trial_config, load_config\n"
            f"doc = load_config({os.path.join(CONFIG_DIR, 'racing.yaml')!r})\n"
            "doc['harness']['duration'] = doc['env']['dt']\n"
            "trial, _ = build_trial_config(doc)\n"
            f"{run}\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
        )
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.splitlines()[-1] == "[]", run


def test_run_batch_validation():
    config = _cartpole_trial()
    with pytest.raises(ValueError):
        run_batch(config, [])
    with pytest.raises(ValueError):
        run_batch(config, [0], jobs=0)


def _fake_result(seed, success, completion_time):
    result = run_trial(_cartpole_trial(duration=0.0, seed=seed))
    result.terminal_reason = "success" if success else "timeout"
    result.completion_time = completion_time
    return result


def test_batch_aggregates():
    results = [
        _fake_result(0, True, 4.0),
        _fake_result(1, False, 30.0),
        _fake_result(2, True, 6.0),
    ]
    success_pct, mean_time, std_time = batch_summary(results)
    assert success_pct == pytest.approx(200.0 / 3.0)
    assert mean_time == 5.0
    assert std_time == pytest.approx(math.sqrt(2.0))

    success_pct, mean_time, std_time = batch_summary([_fake_result(0, False, 30.0)])
    assert success_pct == 0.0
    assert math.isnan(mean_time) and math.isnan(std_time)

    assert batch_summary([_fake_result(0, True, 4.0)])[2] == 0.0


def test_posterior_contraction_on_cartpole():
    # Measured distributional property: the particle mean should end a
    # successful swing-up no farther from the true parameters than it began,
    # for at least 75% of seeds. The gap posterior scores parameters by how
    # much they change the predicted cost of the current plan, not by how
    # well they explain observed motion, so nothing in the update pulls the
    # ensemble toward the truth; this is expected to fail and documents the
    # distance between the adaptive scheme's story and its mechanics.
    doc = load_config(os.path.join(CONFIG_DIR, "cartpole.yaml"))
    trial, _ = build_trial_config(doc)
    batch = run_batch(trial, range(16), jobs=4)
    theta_true = trial.env.theta_true
    contracted = 0
    for result in batch:
        if not result.success:
            continue
        d_start = np.linalg.norm(result.particle_means[0] - theta_true)
        d_end = np.linalg.norm(
            np.mean(result.final_particles.particles, axis=0) - theta_true)
        if d_end <= d_start:
            contracted += 1
    assert contracted >= 12, (
        f"particle mean moved toward the true parameters in only "
        f"{contracted}/16 seeds"
    )
