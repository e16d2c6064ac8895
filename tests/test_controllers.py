"""The path-integral solver and the four plan objectives."""
import contextlib
import dataclasses
import functools
import io
import itertools
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steinmpc import controllers
from steinmpc.configfile import build_trial_config, load_config
from steinmpc.controllers import (
    ControllerSpec,
    MppiConfig,
    SolverFailureError,
    VARIANTS,
    build_objective,
    mppi_solve,
    nominal_parameters,
    shift_warm_start,
)
from steinmpc.costs import CostSpec, rollout_cost_batch
from steinmpc.dynamics import EnvModel, horizon_steps, rk4_step
from steinmpc.harness import run_trial
from steinmpc.inference import ParticleSet, draw_particles, probe_thetas

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def integrator_derivative(u, theta):
    # [position, velocity], accelerated directly by the control
    def f(x):
        out = np.empty((2,) + np.broadcast(x[0], u[0], theta[0]).shape)
        out[0] = x[1]
        out[1] = u[0] * theta[0]
        return out
    return f


ENV = EnvModel(
    name="integrator", state_dim=2, control_dim=1, param_dim=1, dt=0.1,
    control_lower=[-1.0], control_upper=[1.0],
    theta_true=[1.0], theta_lower=[0.5], theta_upper=[1.5],
    derivative=integrator_derivative,
)
SPEC = CostSpec(Q=np.eye(2), R=[[0.1]], Q_f=10.0 * np.eye(2), x_des=[1.0, 0.0])
X0 = np.array([0.0, 0.0])
PARTICLES = ParticleSet([[0.7], [1.0], [1.4]], ENV.theta_lower, ENV.theta_upper)


def nominal_objective():
    return build_objective(
        ControllerSpec(variant="nominal"), SPEC, ENV, X0, PARTICLES.particles
    )


def scored(objective, plan):
    """One plan's objective value: its one-row cost grid, reduced."""
    return objective.reduce(objective.cost_matrix(plan[None]))[0]


def per_particle_costs(plan_arr, thetas):
    return np.array([rollout_cost_batch(SPEC, ENV, X0, plan_arr[None], th[None])[0, 0]
                     for th in thetas])


def robust_oracle(plan_arr, gamma):
    # anchor at the particle mean, plus gamma times the mean gap to it
    mean = PARTICLES.particles.mean(axis=0)
    anchor = rollout_cost_batch(SPEC, ENV, X0, plan_arr[None], mean[None])[0, 0]
    gaps = per_particle_costs(plan_arr, PARTICLES.particles) - anchor
    return anchor + gamma * gaps.mean()


def risk_oracle(plan_arr, lam, epsilon):
    # lambda * epsilon + lambda * log mean exp(cost / lambda)
    costs = per_particle_costs(plan_arr, PARTICLES.particles)
    return lam * epsilon + lam * np.log(np.mean(np.exp(costs / lam)))


def one_cycle(controller, mppi, particles, warm, rng):
    objective = build_objective(controller, SPEC, ENV, X0, particles)
    plan, _, _, _ = mppi_solve(ENV, warm, objective, mppi, rng)
    return plan


def test_mppi_config_validation():
    with pytest.raises(ValueError):
        MppiConfig(samples=0)
    with pytest.raises(ValueError):
        MppiConfig(temperature=0.0)
    with pytest.raises(ValueError):
        MppiConfig(temperature=np.inf)
    with pytest.raises(ValueError):
        MppiConfig(noise_fraction=-0.1)
    # a NaN scale makes every sampled candidate NaN, leaving the warm plan alone
    for bad in (np.nan, np.inf, (0.3, np.nan)):
        with pytest.raises(ValueError, match="noise_fraction"):
            MppiConfig(noise_fraction=bad)
    MppiConfig(noise_fraction=(0.3, 0.04))


@pytest.mark.parametrize(
    "weights", [dict(gamma=-1), dict(risk_lambda=0), dict(risk_epsilon=-0.1)],
    ids=["gamma", "risk_lambda", "risk_epsilon"])
def test_controller_spec_validation(weights):
    with pytest.raises(ValueError):
        ControllerSpec(**weights)


def test_mppi_never_loses_to_the_warm_start():
    objective = nominal_objective()
    warm = np.zeros((8, 1))
    warm_cost = scored(objective, warm)
    for seed in range(5):
        improved, _, _, _ = mppi_solve(ENV, warm, objective,
                              MppiConfig(samples=64, temperature=1.0, noise_fraction=0.3),
                              np.random.default_rng(seed))
        assert scored(objective, improved) <= warm_cost + 1e-12


@given(
    variant=st.sampled_from(VARIANTS),
    warm=arrays(float, st.tuples(st.integers(1, 6), st.just(1)),
                elements=st.floats(-1.5, 1.5)),
    thetas=arrays(float, st.tuples(st.integers(1, 4), st.just(1)),
                  elements=st.floats(0.5, 1.5)),
    samples=st.integers(1, 48),
    temperature=st.floats(0.01, 10.0),
    noise=st.floats(0.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_mppi_solve_returns_the_chosen_plans_own_costs(
        variant, warm, thetas, samples, temperature, noise, seed):
    # The returned cost and per-theta row are what scoring the returned plan
    # again gives, bit for bit, and the cost never exceeds the warm plan's.
    controller = ControllerSpec(variant=variant, risk_lambda=5.0)
    objective = build_objective(controller, SPEC, ENV, X0, thetas)
    plan, cost, theta_costs, _ = mppi_solve(
        ENV, warm, objective,
        MppiConfig(samples=samples, temperature=temperature, noise_fraction=noise),
        np.random.default_rng(seed))
    row = objective.cost_matrix(plan[None])
    assert cost <= scored(objective, warm)
    assert cost == objective.reduce(row)[0]
    assert theta_costs.tobytes() == row[0].tobytes()


def test_mppi_solve_rolls_the_probe_out_in_the_rescore(monkeypatch):
    # A probe only adds columns to the rescore: plan and cost are the no-probe
    # call's bytes, the row starts with the no-probe row, and its tail is the
    # chosen plan's own costs under the probe. Both branches are covered: the
    # averaged plan accepted, and the best candidate kept.
    objective = build_objective(ControllerSpec(), SPEC, ENV, X0, PARTICLES.particles)
    probe = probe_thetas(PARTICLES, 1e-2)
    n_thetas = len(objective.thetas)
    rescored = []

    def recording(spec, env, x0, plans, thetas, refs=None):
        rescored.append(np.array(plans))
        return rollout_cost_batch(spec, env, x0, plans, thetas, refs=refs)

    monkeypatch.setattr(controllers, "rollout_cost_batch", recording)
    branches = set()
    for temperature, noise in [(0.01, 0.2), (100.0, 2.0)]:
        cfg = MppiConfig(samples=32, temperature=temperature, noise_fraction=noise)
        for seed in range(4):
            warm = np.random.default_rng(seed).uniform(-1, 1, size=(6, 1))
            plan, cost, row, _ = mppi_solve(ENV, warm, objective, cfg,
                                            np.random.default_rng(seed))
            p_plan, p_cost, p_row, _ = mppi_solve(ENV, warm, objective, cfg,
                                                  np.random.default_rng(seed), probe)
            averaged, best = rescored[-1]
            assert p_plan.tobytes() == plan.tobytes()
            assert np.float64(p_cost).tobytes() == np.float64(cost).tobytes()
            assert p_row.shape == (n_thetas + len(probe),)
            assert p_row[:n_thetas].tobytes() == row.tobytes()
            tail = rollout_cost_batch(SPEC, ENV, X0, p_plan[None], probe)[0]
            assert p_row[n_thetas:].tobytes() == tail.tobytes()
            assert plan.tobytes() in (averaged.tobytes(), best.tobytes())
            if averaged.tobytes() != best.tobytes():
                branches.add("averaged" if plan.tobytes() == averaged.tobytes() else "best")
    assert branches == {"averaged", "best"}


@functools.cache
def shipped_trial(name):
    trial, _ = build_trial_config(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))
    return trial


def shipped_objective(name, variant, seed, x0=None):
    """A ``variant`` objective on a shipped config's env and cost, over three
    particles drawn from ``seed``, from ``x0`` (the config's by default)."""
    trial = shipped_trial(name)
    env = trial.env
    particles = draw_particles(env.theta_lower, env.theta_upper, 3, np.random.default_rng(seed))
    controller = ControllerSpec(variant=variant, risk_lambda=50.0)
    x0 = trial.x0 if x0 is None else x0
    return build_objective(controller, trial.cost, env, x0, particles.particles)


def check_lookahead(name, variant, seed, temperature):
    """Solve one cycle of a fixed-theta objective with and without a
    lookahead, assert what the lookahead may and must change, and return
    whether the kept plan was the best candidate."""
    trial = shipped_trial(name)
    env, x0 = trial.env, trial.x0
    objective = shipped_objective(name, variant, seed)
    cfg = MppiConfig(samples=16, temperature=temperature, noise_fraction=0.3)
    steps = horizon_steps(trial.horizon_seconds, env.dt)
    warm = np.random.default_rng(seed).uniform(env.control_lower, env.control_upper,
                                               size=(steps, env.control_dim))

    def reach(plan):
        return rk4_step(env, x0, plan[0], env.theta_true)

    *alone, none = mppi_solve(env, warm, objective, cfg, np.random.default_rng(seed))
    *ahead_of, ahead = mppi_solve(env, warm, objective, cfg, np.random.default_rng(seed),
                                  lookahead=(reach, np.random.default_rng(seed + 1)))
    assert none is None
    assert [np.float64(v).tobytes() for v in ahead_of] == [np.float64(v).tobytes() for v in alone]

    candidates = controllers._candidates(env, warm, cfg, np.random.default_rng(seed))
    costs = objective.reduce(objective.cost_matrix(candidates))
    best = candidates[np.argmin(np.where(np.isfinite(costs), costs, np.inf))]
    plan = alone[0]
    if plan.tobytes() != best.tobytes():
        assert ahead is None
        return False
    following, (drawn, matrix) = ahead
    assert following.x0.tobytes() == reach(plan).tobytes()
    expected = controllers._candidates(env, shift_warm_start(plan), cfg,
                                       np.random.default_rng(seed + 1))
    assert drawn.tobytes() == expected.tobytes()
    assert matrix.tobytes() == following.cost_matrix(drawn).tobytes()
    return True


FIXED_THETAS = ("nominal", "emppi", "dro")


@pytest.mark.parametrize("variant", FIXED_THETAS)
@pytest.mark.parametrize("name", ["racing", "rocket"])
@given(seed=st.integers(0, 2**32 - 2), temperature=st.floats(0.01, 100.0))
def test_the_lookahead_changes_no_float_and_carries_the_next_cycles_own_grid(
        name, variant, seed, temperature):
    # A lookahead adds the next cycle's grid to the rescore and changes none
    # of the cycle's own floats. The grid it returns is the one that cycle
    # would draw and roll out itself, from the state the best candidate
    # reaches; after an accepted average it returns none.
    check_lookahead(name, variant, seed, temperature)


@pytest.mark.parametrize("variant", FIXED_THETAS)
@pytest.mark.parametrize("name", ["racing", "rocket"])
def test_the_lookahead_check_sees_both_plans_kept(name, variant):
    # The property above checks each branch only where it comes up; on 20
    # seeds at three temperatures, both do.
    kept = {check_lookahead(name, variant, seed, temperature)
            for seed in range(20) for temperature in (0.01, 0.1, 5.0)}
    assert kept == {True, False}


def test_a_lookahead_to_a_nonfinite_state_rolls_nothing_ahead(monkeypatch):
    trial = shipped_trial("racing")
    env = trial.env
    objective = shipped_objective("racing", "nominal", 0)
    steps = horizon_steps(trial.horizon_seconds, env.dt)
    rescored = []

    def recording(spec, env, x0, plans, thetas, refs=None):
        rescored.append(len(plans))
        return rollout_cost_batch(spec, env, x0, plans, thetas, refs=refs)

    monkeypatch.setattr(controllers, "rollout_cost_batch", recording)
    for temperature in (0.01, 100.0):
        _, _, _, ahead = mppi_solve(
            env, np.zeros((steps, env.control_dim)), objective,
            MppiConfig(samples=16, temperature=temperature, noise_fraction=0.3),
            np.random.default_rng(0),
            lookahead=(lambda plan: np.full(env.state_dim, np.nan), np.random.default_rng(1)))
        assert ahead is None
        assert rescored[-2:] == [16, 2]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["racing", "rocket"])
def test_an_objective_at_another_state_resolves_its_references_again(name, variant):
    # .at(x1) scores as the objective built at x1 does, bit for bit, though
    # the objective at x0 has already resolved and kept its references.
    trial = shipped_trial(name)
    env = trial.env
    steps = horizon_steps(trial.horizon_seconds, env.dt)
    plans = np.random.default_rng(5).uniform(env.control_lower, env.control_upper,
                                             size=(8, steps, env.control_dim))
    objective = shipped_objective(name, variant, 3)
    objective.cost_matrix(plans)
    x1 = rk4_step(env, trial.x0, plans[0, 0], env.theta_true)
    moved = objective.at(x1)
    assert moved.x0.tobytes() == x1.tobytes()
    built = shipped_objective(name, variant, 3, x0=x1)
    assert moved.cost_matrix(plans).tobytes() == built.cost_matrix(plans).tobytes()


def recorded_blocks(monkeypatch, raise_best=0.0):
    """Wrap ``rollout_blocks``: record each call's (blocks, grids) and, when
    ``raise_best`` is set, return the two-row rescore block with its second
    row, the best candidate's, that much higher in every column."""
    calls = []
    rollout_blocks = controllers.rollout_blocks

    def recording(blocks):
        grids = rollout_blocks(blocks)
        calls.append((blocks, [g.copy() for g in grids]))
        if raise_best and len(blocks[0][1]) == 2:
            grids[0] = grids[0] + [[0.0], [raise_best]]
        return grids

    monkeypatch.setattr(controllers, "rollout_blocks", recording)
    return calls


@pytest.mark.parametrize("lookahead", [False, True])
def test_the_rescore_decides_between_the_two_plans(monkeypatch, lookahead):
    # Find a cycle whose averaged plan rescores worse than the best
    # candidate, then raise the best candidate's rescored row past it: the
    # solve returns the averaged plan with its own rescored cost and row.
    # The averaged cost still exceeds the planner grid's cost of the best
    # candidate, so a solve that decided on that grid cost keeps the best
    # candidate. With a lookahead the rescore is the fused call's first block.
    objective = nominal_objective()
    cfg = MppiConfig(samples=16, temperature=100.0, noise_fraction=2.0)

    def solve(seed):
        ahead = ((lambda plan: rk4_step(ENV, X0, plan[0], ENV.theta_true),
                  np.random.default_rng(seed + 1)) if lookahead else None)
        return mppi_solve(ENV, np.zeros((6, 1)), objective, cfg, np.random.default_rng(seed),
                          lookahead=ahead)

    calls = recorded_blocks(monkeypatch)
    for seed in range(20):
        plan, _, _, _ = solve(seed)
        blocks, grids = calls[-1]
        (_, (averaged, best), _), rows = blocks[0], grids[0]
        rescored = objective.reduce(rows)
        if rescored[0] > rescored[1]:
            break
    else:
        pytest.fail("no cycle kept the best candidate")
    assert len(blocks) == (2 if lookahead else 1)
    assert plan.tobytes() == best.tobytes()

    recorded_blocks(monkeypatch, raise_best=2.0 * (rescored[0] - rescored[1]))
    plan, cost, row, ahead = solve(seed)
    assert plan.tobytes() == averaged.tobytes()
    assert np.float64(cost).tobytes() == rescored[0].tobytes()
    assert row.tobytes() == rows[0].tobytes()
    assert ahead is None


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", ["cartpole", "racing", "rocket"])
def test_the_rescored_best_row_is_the_planner_grids_row(monkeypatch, name, variant):
    # Deciding on the two rescored rows decides as the planner grid's
    # costs[best] would: the best candidate's rescored row starts with the
    # grid's row best, bit for bit, and reduces to costs[best]. A cheaper
    # planner grid (float32, or another integrator) gives this up on purpose.
    # Fixed-theta variants run two cycles with and without a lookahead, so
    # a second cycle may plan on the grid the fused call rolled ahead;
    # stein_adaptive runs with the probe of its particles.
    trial = shipped_trial(name)
    env = trial.env
    steps = horizon_steps(trial.horizon_seconds, env.dt)
    calls = recorded_blocks(monkeypatch)
    adaptive = variant == "stein_adaptive"
    carried = 0
    for seed in range(3):
        particles = draw_particles(env.theta_lower, env.theta_upper, 3,
                                   np.random.default_rng(seed))
        probe = probe_thetas(particles, trial.svgd.fd_epsilon) if adaptive else ()
        for lookahead, temperature in itertools.product((False,) if adaptive else (False, True),
                                                        (0.01, 5.0)):
            objective, grid = shipped_objective(name, variant, seed), None
            warm = np.random.default_rng(seed).uniform(
                env.control_lower, env.control_upper, size=(steps, env.control_dim))
            cfg = MppiConfig(samples=16, temperature=temperature, noise_fraction=0.3)
            for k in range(2):
                def reach(plan, x0=objective.x0):
                    return rk4_step(env, x0, plan[0], env.theta_true)

                first = len(calls)
                plan, _, _, ahead = mppi_solve(
                    env, warm, objective, cfg, np.random.default_rng(seed + k), probe,
                    grid=grid, lookahead=(reach, np.random.default_rng(seed + k + 1))
                    if lookahead else None)
                matrix = calls[first][1][0] if grid is None else grid[1]
                rows = calls[-1][1][0][:, :matrix.shape[1]]
                costs = objective.reduce(matrix)
                best = int(np.argmin(np.where(np.isfinite(costs), costs, np.inf)))
                assert rows[1].tobytes() == matrix[best].tobytes()
                assert objective.reduce(rows)[1].tobytes() == costs[best].tobytes()
                carried += grid is not None
                objective, grid = ahead if ahead is not None else (objective.at(reach(plan)), None)
                warm = shift_warm_start(plan)
    assert carried > 0 or adaptive


def test_mppi_single_sample_returns_clamped_warm_plan():
    objective = nominal_objective()
    warm = np.full((4, 1), 3.0)
    out, _, _, _ = mppi_solve(ENV, warm, objective, MppiConfig(samples=1),
                     np.random.default_rng(0))
    np.testing.assert_array_equal(out, np.full((4, 1), 1.0))


def test_mppi_is_deterministic_given_the_generator_state():
    objective = nominal_objective()
    warm = np.zeros((6, 1))
    cfg = MppiConfig(samples=32, temperature=0.5, noise_fraction=0.2)
    a, _, _, _ = mppi_solve(ENV, warm, objective, cfg, np.random.default_rng(123))
    b, _, _, _ = mppi_solve(ENV, warm, objective, cfg, np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)


def test_mppi_output_respects_actuator_bounds():
    objective = nominal_objective()
    warm = np.full((5, 1), 0.9)
    out, _, _, _ = mppi_solve(ENV, warm, objective,
                              MppiConfig(samples=128, temperature=1.0, noise_fraction=2.0),
                              np.random.default_rng(7))
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_mppi_ignores_nonfinite_candidates():
    class SpikyObjective:
        def cost_matrix(self, plans, probe=()):
            vals = np.abs(plans).sum(axis=(1, 2))
            vals[vals > 1.5] = np.nan  # poison most perturbed candidates
            return vals[:, None]

        def reduce(self, matrix):
            return matrix[:, 0]

    warm = np.zeros((3, 1))
    out, _, _, _ = mppi_solve(ENV, warm, SpikyObjective(),
                              MppiConfig(samples=256, temperature=1.0, noise_fraction=0.5),
                              np.random.default_rng(2))
    assert np.isfinite(np.abs(out).sum())


def test_mppi_raises_when_every_candidate_is_nonfinite():
    class HopelessObjective:
        def cost_matrix(self, plans, probe=()):
            return np.full((len(plans), 1), np.nan)

        def reduce(self, matrix):
            return matrix[:, 0]

    with pytest.raises(SolverFailureError):
        mppi_solve(ENV, np.zeros((3, 1)), HopelessObjective(),
                   MppiConfig(samples=16), np.random.default_rng(0))


def _per_call_candidates(env, warm, config, rng):
    """``_candidates`` as it was with its rows tiled again on every call."""
    warm = np.asarray(warm, dtype=float)
    lo, hi = env.control_lower, env.control_upper
    horizon = warm.shape[0]
    std = np.tile(np.asarray(config.noise_fraction, dtype=float) * (hi - lo), horizon)
    noise = rng.normal(size=(config.samples - 1, warm.size))
    noise *= std
    candidates = np.empty((config.samples,) + warm.shape)
    flat = candidates.reshape(config.samples, -1)
    flat[0] = warm.reshape(-1)
    np.add(warm.reshape(-1), noise, out=flat[1:])
    np.clip(flat, np.tile(lo, horizon), np.tile(hi, horizon), out=flat)
    return candidates


SHIPPED = {name: build_trial_config(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))[0]
           for name in ("cartpole", "racing", "rocket")}


def _widened(env):
    """``env`` with its upper control bounds one span higher."""
    return dataclasses.replace(
        env, control_upper=2.0 * env.control_upper - env.control_lower)


def _solve_bytes(name, wide, per_channel, samples, steps, lookahead, seed):
    """One call's bytes: ``mppi_solve``'s, with or without a lookahead, or
    ``_candidates``' alone when ``lookahead`` is None."""
    trial = SHIPPED[name]
    env = _widened(trial.env) if wide else trial.env
    noise = tuple(np.linspace(0.05, 0.5, env.control_dim)) if per_channel else 0.3
    config = MppiConfig(samples=samples, temperature=1.0, noise_fraction=noise)
    rng = np.random.default_rng(seed)
    warm = rng.uniform(env.control_lower, env.control_upper, size=(steps, env.control_dim))
    if lookahead is None:
        return controllers._candidates(env, warm, config, rng).tobytes()
    objective = build_objective(ControllerSpec("nominal"), trial.cost, env, trial.x0,
                                env.theta_true[None])
    reach = (lambda plan: rk4_step(env, trial.x0, plan[0], env.theta_true),
             np.random.default_rng(seed + 1)) if lookahead else None
    plan, cost, row, ahead = mppi_solve(env, warm, objective, config, rng, lookahead=reach)
    tail = () if ahead is None else (ahead[0].x0, *ahead[1])
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in (plan, cost, row, *tail))


@given(calls=st.lists(st.tuples(
    st.sampled_from(sorted(SHIPPED)), st.booleans(), st.booleans(), st.sampled_from([1, 2, 256]),
    st.sampled_from([1, 3, 10]), st.sampled_from([None, False, True]), st.integers(0, 2**32 - 2)),
    min_size=2, max_size=5))
def test_the_draw_rows_kept_per_trial_give_the_per_call_tiling(calls):
    # interleaved calls over envs, bounds, noise, sample counts and horizons:
    # rows kept from one call never stand in for another's
    got = [_solve_bytes(*call) for call in calls]
    with mock.patch.object(controllers, "_candidates", _per_call_candidates):
        assert got == [_solve_bytes(*call) for call in calls]


def test_two_trials_in_one_process_keep_their_own_draw_rows():
    racing = dataclasses.replace(SHIPPED["racing"], duration=0.15)
    other = dataclasses.replace(racing, env=_widened(racing.env), mppi=MppiConfig(
        samples=racing.mppi.samples, temperature=racing.mppi.temperature,
        noise_fraction=(0.4, 0.2)))
    trials = (racing, other, racing)

    def logs():
        return [(r.states.tobytes(), r.controls.tobytes(), r.costs.tobytes())
                for r in map(run_trial, trials)]
    got = logs()
    assert got[0] == got[2] != got[1]
    with mock.patch.object(controllers, "_candidates", _per_call_candidates):
        assert got == logs()


def test_shift_warm_start_drops_head_repeats_tail():
    plan_arr = np.array([[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(shift_warm_start(plan_arr),
                                  np.array([[2.0], [3.0], [3.0]]))
    with pytest.raises(ValueError):
        shift_warm_start(np.array([1.0, 2.0]))


def test_controller_spec_rejects_unknown_variant():
    with pytest.raises(ValueError):
        ControllerSpec(variant="bold_guess")
    assert set(VARIANTS) == {"stein_adaptive", "emppi", "dro", "nominal"}


def test_nominal_parameters_midpoint_and_override():
    spec = ControllerSpec(variant="nominal")
    np.testing.assert_allclose(nominal_parameters(spec, ENV), [1.0])
    spec = ControllerSpec(variant="nominal", nominal_theta=[1.2])
    np.testing.assert_allclose(nominal_parameters(spec, ENV), [1.2])


def test_objectives_match_their_scalar_cost_functions():
    rng = np.random.default_rng(4)
    plans = rng.uniform(-1, 1, size=(3, 5, 1))
    weights = dict(gamma=0.5, risk_lambda=7.0, risk_epsilon=0.1)

    stein, emppi, dro, nominal = (
        build_objective(ControllerSpec(variant=variant, **weights),
                        SPEC, ENV, X0, PARTICLES.particles)
        for variant in ("stein_adaptive", "emppi", "dro", "nominal"))

    for p in plans:
        assert scored(stein, p) == pytest.approx(robust_oracle(p, 0.5), rel=1e-12)
        assert scored(emppi, p) == pytest.approx(robust_oracle(p, 1.0), rel=1e-12)
        assert scored(dro, p) == pytest.approx(risk_oracle(p, 7.0, 0.1), rel=1e-12)
        assert scored(nominal, p) == pytest.approx(
            rollout_cost_batch(SPEC, ENV, X0, p[None], [[1.0]])[0, 0], rel=1e-12)


def variant_formula(controller, particles, plans):
    # Each variant's theta stack and reduction, written out against a plain
    # rollout of the stack.
    variant = controller.variant
    if variant == "nominal":
        return rollout_cost_batch(SPEC, ENV, X0, plans, np.array([[1.0]]))[:, 0]
    if variant == "dro":
        lam, grid = controller.risk_lambda, rollout_cost_batch(SPEC, ENV, X0, plans, particles)
        lse = np.logaddexp.reduce(grid / lam, axis=1) - np.log(grid.shape[1])
        return lam * controller.risk_epsilon + lam * lse
    thetas = np.vstack([particles.mean(axis=0)[None], particles])
    grid = rollout_cost_batch(SPEC, ENV, X0, plans, thetas)
    gamma = controller.gamma if variant == "stein_adaptive" else 1.0
    return grid[:, 0] + gamma * (grid[:, 1:] - grid[:, :1]).mean(axis=1)


@given(
    variant=st.sampled_from(VARIANTS),
    plans=arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 6), st.just(1)),
                 elements=st.floats(-1.0, 1.0)),
    particles=arrays(float, st.tuples(st.integers(1, 5), st.just(1)),
                     elements=st.floats(0.5, 1.5)),
    gamma=st.floats(0.0, 5.0),
    lam=st.floats(0.01, 100.0),
    epsilon=st.floats(0.0, 1.0),
)
def test_objective_values_are_the_variant_formula_bit_for_bit(
        variant, plans, particles, gamma, lam, epsilon):
    # reduce(cost_matrix(plans)), and the same on a one-plan grid, give
    # exactly the floats of the variant's formula, P = 1 included.
    controller = ControllerSpec(variant=variant, gamma=gamma, risk_lambda=lam,
                                risk_epsilon=epsilon)
    objective = build_objective(controller, SPEC, ENV, X0, particles)
    expected = variant_formula(controller, particles, plans)
    assert np.array_equal(objective.reduce(objective.cost_matrix(plans)), expected)
    assert np.array_equal(objective.reduce(objective.cost_matrix(plans[:1]))[0], expected[0])


def run_child(code, *args, **env):
    """Run ``code`` in a fresh interpreter that imports this package and
    return what it prints; ``env`` adds to the environment of that child
    alone."""
    src = os.path.dirname(os.path.dirname(controllers.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=path, **env), check=True)
    return child.stdout.strip()


@given(
    grid=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 8)),
                elements=st.floats(-700.0, 700.0)),
    lam=st.floats(0.01, 100.0),
    epsilon=st.floats(0.0, 1.0),
    special=st.lists(st.tuples(st.integers(0, 63), st.sampled_from([np.inf, -np.inf, np.nan])),
                     max_size=3),
)
def test_risk_averse_matches_scipy_logsumexp(grid, lam, epsilon, special):
    # |cost / lambda| reaches 700, where exp overflows in the naive
    # log mean exp of ``risk_oracle``. scipy serves as an independent oracle
    # to 1e-12 of each row's log-sum-exp, the scale before log P and the
    # epsilon term cancel against it. A row with an inf or NaN entry that
    # scipy reduces to inf, -inf or NaN reduces to exactly that.
    from scipy.special import logsumexp

    matrix = grid * lam
    for index, value in special:
        matrix.flat[index % matrix.size] = value
    with np.errstate(invalid="ignore"):
        lse = logsumexp(matrix / lam, axis=1)
        ours = controllers._risk_averse(matrix, lam, epsilon)
    expected = lam * epsilon + lam * (lse - np.log(matrix.shape[1]))
    finite = np.isfinite(expected)
    scale = lam * np.maximum(np.abs(lse), 1.0)
    assert np.all(np.abs(ours[finite] - expected[finite]) <= 1e-12 * scale[finite])
    np.testing.assert_array_equal(ours[~finite], expected[~finite])


def test_risk_averse_bits_do_not_depend_on_numpy_simd_dispatch():
    # A child process with numpy's AVX-512 kernels switched off (as on a CPU
    # without them) reduces a fixed grid to the same bytes as this process.
    # The variable acts on the child alone.
    from numpy._core._multiarray_umath import __cpu_features__

    disabled = [name for name in ("X86_V4", "AVX512_SPR", "AVX512_ICL")
                if __cpu_features__.get(name)]
    if not disabled:
        pytest.skip("this CPU dispatches none of numpy's AVX-512 kernels")
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from steinmpc.controllers import _risk_averse\n"
        "grid = np.random.default_rng(2604).normal(scale=40.0, size=(4000, 6))\n"
        "grid[7] = np.inf\n"
        "print(hashlib.sha256(_risk_averse(grid, 3.0, 0.1).tobytes()).hexdigest())\n"
    )
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(code, {})
    assert run_child(code, NPY_DISABLE_CPU_FEATURES=" ".join(disabled)) == here.getvalue().strip()


def test_every_shipped_trial_loads_only_numpy_yaml_and_the_standard_library():
    # The package runs on numpy and PyYAML alone; scipy is only a test oracle.
    # One fresh interpreter runs two cycles of every variant on every shipped
    # config and lists what it loaded beyond ``import numpy, yaml`` (which
    # may load more, as a site hook may) that is neither this package nor
    # the standard library. numpy.random, which numpy imports lazily, is
    # built with Cython and registers Cython's shared ``_cython_<version>``
    # module, which holds no code of its own.
    code = (
        "import dataclasses, sys\n"
        "import numpy, yaml\n"
        "before = set(sys.modules)\n"
        "from steinmpc.configfile import build_trial_config, load_config\n"
        "from steinmpc.controllers import VARIANTS\n"
        "from steinmpc.harness import run_trial\n"
        "for path in sys.argv[1:]:\n"
        "    trial, _ = build_trial_config(load_config(path), seed=0)\n"
        "    for variant in VARIANTS:\n"
        "        controller = dataclasses.replace(trial.controller, variant=variant)\n"
        "        two = dataclasses.replace(trial, controller=controller, duration=2 * trial.env.dt)\n"
        "        assert run_trial(two).steps == 2, (path, variant)\n"
        "allowed = {'numpy', 'yaml', 'steinmpc'} | sys.stdlib_module_names\n"
        "print(sorted(name for name in set(sys.modules) - before\n"
        "             if name.split('.')[0] not in allowed and not name.startswith('_cython_')))\n"
    )
    configs = [os.path.join(os.path.dirname(__file__), os.pardir, "configs", f"{name}.yaml")
               for name in ("cartpole", "rocket", "racing")]
    assert run_child(code, *configs) == "[]"


def test_emppi_weighting_ignores_configured_gamma():
    # the ensemble variant always averages, whatever gamma says
    emppi = build_objective(ControllerSpec(variant="emppi", gamma=0.0),
                            SPEC, ENV, X0, PARTICLES.particles)
    p = np.full((4, 1), 0.3)
    assert scored(emppi, p) == pytest.approx(robust_oracle(p, 1.0))


def test_dro_objective_requires_calibrated_lambda():
    with pytest.raises(ValueError):
        build_objective(
            ControllerSpec(variant="dro", risk_lambda=None), SPEC, ENV, X0, PARTICLES.particles)


def test_plan_runs_one_cycle_for_every_variant():
    warm = np.zeros((5, 1))
    for variant in VARIANTS:
        controller = ControllerSpec(variant=variant, risk_lambda=5.0)
        out = one_cycle(controller, MppiConfig(samples=32, noise_fraction=0.3),
                        PARTICLES.particles, warm, np.random.default_rng(11))
        assert out.shape == (5, 1)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_plan_accepts_raw_particle_matrices():
    warm = np.zeros((4, 1))
    out = one_cycle(ControllerSpec(variant="emppi"),
                    MppiConfig(samples=16, noise_fraction=0.2),
                    np.array([[0.8], [1.2]]), warm, np.random.default_rng(3))
    assert out.shape == (4, 1)
