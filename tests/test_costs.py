"""Quadratic trajectory costs and the ensemble/risk plan objectives."""
import math

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steinmpc.configfile import build_trial_config, load_config
from steinmpc.controllers import ControllerSpec, build_objective
from steinmpc.costs import (
    CostSpec,
    InverseDisplacementReward,
    RobustObjectiveConfig,
    UprightEnergyPenalty,
    rollout_cost_batch,
    trajectory_cost,
)
from steinmpc.dynamics import EnvModel, rk4_step
from steinmpc.harness import _gap_model
from steinmpc.inference import ParticleSet
from steinmpc.track import CenterlineReference, StadiumTrack


def drift_derivative(x, u, theta):
    # xdot = theta: after one unit step the state equals theta exactly
    shape = np.broadcast(x[..., 0], u[..., 0], theta[..., 0]).shape
    return np.broadcast_to(theta[..., :1], shape + (1,)).copy()


DRIFT = EnvModel(
    name="drift", state_dim=1, control_dim=1, param_dim=1, dt=1.0,
    control_lower=[-1.0], control_upper=[1.0],
    theta_true=[1.5], theta_lower=[0.0], theta_upper=[3.0],
    derivative=drift_derivative,
)
# terminal-only cost, so the one-step drift rollout costs exactly theta^2
DRIFT_SPEC = CostSpec(Q=[[0.0]], R=[[0.0]], Q_f=[[1.0]], x_des=[0.0])
ONE_STEP = np.zeros((1, 1))


def decay_derivative(x, u, theta):
    return -x + 0.0 * u[..., :1] + 0.0 * theta[..., :1]


DECAY = EnvModel(
    name="decay", state_dim=1, control_dim=1, param_dim=1, dt=0.1,
    control_lower=[-1.0], control_upper=[1.0],
    theta_true=[1.0], theta_lower=[0.5], theta_upper=[1.5],
    derivative=decay_derivative,
)


def still_derivative(x, u, theta):
    return np.zeros(np.broadcast(x[..., 0], u[..., 0], theta[..., 0]).shape + (2,))


# a 2-state plant that never moves, so a rollout's costs are read off x0
STILL = EnvModel(
    name="still", state_dim=2, control_dim=1, param_dim=1, dt=1.0,
    control_lower=[-1.0], control_upper=[1.0],
    theta_true=[1.0], theta_lower=[0.0], theta_upper=[2.0],
    derivative=still_derivative,
)


def particles(*rows):
    return ParticleSet(np.array(rows, dtype=float),
                       DRIFT.theta_lower, DRIFT.theta_upper)


def objective(variant, plan, ps, cfg, spec=DRIFT_SPEC):
    controller = ControllerSpec(variant=variant, robust=cfg)
    return build_objective(controller, spec, DRIFT, [0.0], ps)(plan)


def test_stage_cost_quadratic_form():
    # Q_f = 0 leaves the one stage term of a one-step rollout
    spec = CostSpec(Q=np.diag([2.0, 3.0]), R=[[4.0]], Q_f=np.zeros((2, 2)), x_des=np.zeros(2))
    cost = rollout_cost_batch(spec, STILL, [1.0, 2.0], [[0.5]], [1.0])[0, 0]
    assert cost == pytest.approx(15.0)


def test_stage_cost_zero_at_goal_with_zero_control():
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_f=np.eye(2), x_des=[1.0, -1.0])
    assert rollout_cost_batch(spec, STILL, [1.0, -1.0], [[0.0]], [1.0])[0, 0] == 0.0


class SevenBonus:
    def batch(self, x_terminal, u_terminal, theta, x0):
        return np.full(x_terminal.shape[:-1], 7.0)


def test_terminal_cost_adds_extra_term():
    # a zero-step plan leaves the terminal cost at x0 alone
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_f=2.0 * np.eye(2), x_des=np.zeros(2),
                    extra_terminal=SevenBonus())
    cost = rollout_cost_batch(spec, STILL, [1.0, 0.0], np.zeros((0, 1)), [1.0])[0, 0]
    assert cost == pytest.approx(9.0)


def test_trajectory_cost_matches_independent_rk4_on_scalar_decay():
    spec = CostSpec(Q=[[1.0]], R=[[0.0]], Q_f=[[3.0]], x_des=[0.0])
    h = DECAY.dt
    factor = 1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
    expect = 1.0 + factor**2 + 3.0 * factor**4
    got = trajectory_cost(spec, DECAY, [1.0], np.zeros((2, 1)), [1.0])
    assert got == pytest.approx(expect, abs=1e-14)
    assert got == pytest.approx(3.8296917681587215)


def test_trajectory_cost_ignores_dead_parameters():
    spec = CostSpec(Q=[[1.0]], R=[[0.1]], Q_f=[[1.0]], x_des=[0.0])
    plan = np.full((3, 1), 0.4)
    a = trajectory_cost(spec, DECAY, [1.0], plan, [0.6])
    b = trajectory_cost(spec, DECAY, [1.0], plan, [1.4])
    assert a == b


def test_rollout_batch_grid_matches_scalar_entry_point():
    rng = np.random.default_rng(3)
    spec = CostSpec(Q=[[1.0]], R=[[0.2]], Q_f=[[2.0]], x_des=[0.0])
    plans = rng.uniform(-1, 1, size=(4, 3, 1))
    thetas = rng.uniform(0.0, 3.0, size=(5, 1))
    grid = rollout_cost_batch(DRIFT_SPEC, DRIFT, [0.0], plans, thetas)
    assert grid.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            direct = trajectory_cost(DRIFT_SPEC, DRIFT, [0.0], plans[i], thetas[j])
            assert grid[i, j] == pytest.approx(direct, rel=1e-12)
    # a lone plan is promoted to a 1-row grid
    single = rollout_cost_batch(spec, DECAY, [1.0], plans[0], thetas[:2])
    assert single.shape == (1, 2)


def test_rollout_clamps_plans_to_actuator_limits():
    spec = CostSpec(Q=[[1.0]], R=[[0.0]], Q_f=[[1.0]], x_des=[0.0])
    wild = np.full((3, 1), 50.0)
    tame = np.full((3, 1), 1.0)  # the upper control bound
    a = rollout_cost_batch(spec, DECAY, [1.0], wild[None], np.array([[1.0]]))
    b = rollout_cost_batch(spec, DECAY, [1.0], tame[None], np.array([[1.0]]))
    np.testing.assert_allclose(a, b)


def optimality_gap(theta, theta_ref):
    """The gap inference scores: ONE_STEP's cost under theta less its cost under theta_ref."""
    x0 = np.array([0.0])
    ref_cost = trajectory_cost(DRIFT_SPEC, DRIFT, x0, ONE_STEP, theta_ref)
    refs = DRIFT_SPEC.references(DRIFT, x0, len(ONE_STEP))
    model = _gap_model(DRIFT_SPEC, DRIFT, x0, ONE_STEP, ref_cost, refs)
    return model.gap(np.array([theta], dtype=float))[0]


def test_optimality_gap_is_cost_difference_and_zero_at_reference():
    assert optimality_gap([2.0], [1.0]) == pytest.approx(3.0)
    assert optimality_gap([1.3], [1.3]) == 0.0


def test_optimality_gap_can_be_negative():
    assert optimality_gap([1.0], [2.0]) == pytest.approx(-3.0)


def test_robust_cost_anchors_at_mean_and_blends_gaps():
    # costs are theta^2: particles {1, 2} have mean cost anchor 1.5^2 = 2.25
    ps = particles([1.0], [2.0])
    cfg = lambda g: RobustObjectiveConfig(gamma=g)
    assert objective("stein_adaptive", ONE_STEP, ps, cfg(0.0)) == pytest.approx(2.25)
    assert objective("stein_adaptive", ONE_STEP, ps, cfg(0.5)) == pytest.approx(2.375)
    assert objective("stein_adaptive", ONE_STEP, ps, cfg(1.0)) == pytest.approx(2.5)


def test_robust_cost_gamma_one_is_exact_ensemble_mean():
    rng = np.random.default_rng(11)
    spec = CostSpec(Q=np.eye(1), R=[[0.05]], Q_f=2 * np.eye(1), x_des=[0.0])
    worst = 0.0
    for _ in range(50):
        pts = rng.uniform(0.0, 3.0, size=(rng.integers(1, 7), 1))
        ps = ParticleSet(pts, DRIFT.theta_lower, DRIFT.theta_upper)
        plan = rng.uniform(-1, 1, size=(3, 1))
        robust = build_objective(
            ControllerSpec(variant="stein_adaptive", robust=RobustObjectiveConfig(gamma=1.0)),
            spec, DRIFT, [0.2], ps)
        r = robust(plan)
        direct = rollout_cost_batch(spec, DRIFT, [0.2], plan[None], pts)[0].mean()
        worst = max(worst, abs(r - direct))
    assert worst <= 1e-12


def test_dro_risk_cost_closed_form_small_stack():
    ps = particles([1.0], [2.0])  # costs 1 and 4
    cfg = RobustObjectiveConfig(risk_lambda=2.0, risk_epsilon=0.1)
    got = objective("dro", ONE_STEP, ps, cfg)
    expect = 0.2 + 2.0 * math.log((math.exp(0.5) + math.exp(2.0)) / 2.0)
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(3.2165321948456143)


def test_dro_risk_cost_high_temperature_is_mean_plus_variance_correction():
    ps = particles([1.0], [2.0])
    cfg = RobustObjectiveConfig(risk_lambda=1000.0, risk_epsilon=0.0)
    got = objective("dro", ONE_STEP, ps, cfg)
    assert got == pytest.approx(2.5 + 2.25 / 2000.0, abs=1e-6)


def test_dro_risk_cost_low_temperature_tracks_worst_particle():
    ps = particles([1.0], [2.0])
    cfg = RobustObjectiveConfig(risk_lambda=0.01, risk_epsilon=0.0)
    got = objective("dro", ONE_STEP, ps, cfg)
    assert got == pytest.approx(4.0, abs=0.01)


def test_dro_risk_cost_survives_huge_costs():
    # shifted log-sum-exp: 1e6-scale costs with a small temperature
    spec = CostSpec(Q=[[0.0]], R=[[0.0]], Q_f=[[1e6]], x_des=[0.0])
    cfg = RobustObjectiveConfig(risk_lambda=0.5, risk_epsilon=0.0)
    got = objective("dro", ONE_STEP, particles([1.0], [2.0]), cfg, spec=spec)
    assert np.isfinite(got)
    assert got == pytest.approx(4e6, rel=1e-6)


def test_upright_energy_penalty_zero_on_swingup_manifold():
    pen = UprightEnergyPenalty(70.0)
    theta = np.array([0.5, 0.75])
    upright_rest = np.array([0.3, math.pi, -0.1, 0.0])
    assert pen.batch(upright_rest, None, theta, np.zeros(4)) == pytest.approx(0.0, abs=1e-20)


def test_upright_energy_penalty_hanging_value():
    pen = UprightEnergyPenalty(70.0)
    theta = np.array([0.5, 0.75])
    # hanging rest sits 2 m g l below the upright energy level
    assert pen.batch(np.zeros(4), None, theta, np.zeros(4)) == pytest.approx(3789.2964375)


def test_upright_energy_penalty_batch_matches_scalar():
    pen = UprightEnergyPenalty(3.0)
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 4))
    thetas = rng.uniform(0.3, 1.0, size=(6, 2))
    batch = pen.batch(xs, None, thetas, np.zeros(4))
    # each row of the stack scored on its own
    direct = [pen.batch(x, None, th, np.zeros(4)) for x, th in zip(xs, thetas)]
    np.testing.assert_allclose(batch, direct)


def test_inverse_displacement_reward_values_and_batch():
    inv = InverseDisplacementReward([1.0, 2.0])
    assert inv.batch(np.array([0.5, 0.0]), None, None, np.zeros(2)) == pytest.approx(
        1.0 / 0.501 + 2000.0
    )
    xs = np.array([[0.5, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(
        inv.batch(xs, None, None, np.zeros(2)),
        [inv.batch(x, None, None, np.zeros(2)) for x in xs],
    )


def test_inverse_displacement_rejects_bad_arguments():
    with pytest.raises(ValueError):
        InverseDisplacementReward([-1.0, 0.0])
    with pytest.raises(ValueError):
        InverseDisplacementReward([1.0], epsilon=0.0)


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        CostSpec(Q=[[1.0, 0.5], [0.0, 1.0]], R=[[1.0]], Q_f=np.eye(2), x_des=np.zeros(2))
    with pytest.raises(ValueError):
        CostSpec(Q=[[-1.0]], R=[[1.0]], Q_f=[[1.0]], x_des=[0.0])
    with pytest.raises(ValueError):
        CostSpec(Q=np.eye(2), R=[[1.0]], Q_f=np.eye(2), x_des=np.zeros(3))


def test_reference_tracking_rollout_charges_motion_against_moving_target():
    # a car parked at the start line pays more than one tracking the reference
    track = StadiumTrack()
    spec = CostSpec(Q=np.eye(5), R=0.0 * np.eye(2), Q_f=np.eye(5),
                    x_des=CenterlineReference(track))
    assert spec.tracks_reference
    from steinmpc.dynamics import make_racecar

    env = make_racecar()
    x0 = np.array([-2.5, -2.0, 0.0, 0.0, 0.0])
    parked = np.zeros((10, 2))
    cost = rollout_cost_batch(spec, env, x0, parked[None], env.theta_true[None])[0, 0]
    # references pull ahead at 2 m/s while the car stands still
    assert cost > 1.0


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# cartpole carries the upright-energy term; racing tracks a CenterlineReference
# and carries the inverse-displacement term.
SHIPPED = {
    name: build_trial_config(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))[0]
    for name in ("cartpole", "rocket", "racing")
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SHIPPED)), shape=st.tuples(
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 6)), data=st.data())
def test_batched_rollout_entries_equal_single_pair_costs(name, shape, data):
    # Every grid entry is bit-equal to its pair rolled out alone, so a caller
    # holding the grid never needs to roll a pair out again.
    trial = SHIPPED[name]
    env, spec = trial.env, trial.cost
    n_cand, n_par, steps = shape
    lo, hi = env.control_lower, env.control_upper
    span = hi - lo
    # plans reach a fifth of the range past the actuator box, so clipping shows
    u = data.draw(arrays(float, (n_cand, steps, env.control_dim),
                         elements=st.floats(0.0, 1.0)))
    plans = lo - 0.2 * span + 1.4 * span * u
    w = data.draw(arrays(float, (n_par, env.param_dim), elements=st.floats(0.0, 1.0)))
    thetas = env.theta_lower + (env.theta_upper - env.theta_lower) * w
    x0 = trial.x0 + data.draw(arrays(float, trial.x0.shape, elements=st.floats(-0.3, 0.3)))

    grid = rollout_cost_batch(spec, env, x0, plans, thetas)
    assert grid.shape == (n_cand, n_par)
    refs = spec.references(env, x0, steps)
    assert refs.shape == (steps + 1, env.state_dim)
    assert rollout_cost_batch(spec, env, x0, plans, thetas, refs=refs).tobytes() == grid.tobytes()
    for i in range(n_cand):
        for j in range(n_par):
            assert grid[i, j] == trajectory_cost(spec, env, x0, plans[i], thetas[j])
            alone = rollout_cost_batch(spec, env, x0, plans[i][None], thetas[j][None], refs=refs)
            assert alone[0, 0] == grid[i, j]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SHIPPED)), shape=st.tuples(
    st.integers(1, 40), st.integers(1, 6), st.integers(1, 15)), data=st.data())
def test_planner_and_plant_integrate_identically(name, shape, data):
    # With only a terminal |x_T|^2, a grid entry is a function of the state
    # the planner predicts; it must be the state the plant's rk4_step reaches
    # under the same plan and parameters, to the last bit.
    env, x0 = SHIPPED[name].env, SHIPPED[name].x0
    n = env.state_dim
    spec = CostSpec(Q=np.zeros((n, n)), R=np.zeros((env.control_dim, env.control_dim)),
                    Q_f=np.eye(n), x_des=np.zeros(n))
    n_cand, n_par, steps = shape
    lo, hi = env.control_lower, env.control_upper
    span = hi - lo
    u = data.draw(arrays(float, (n_cand, steps, env.control_dim),
                         elements=st.floats(0.0, 1.0)))
    plans = lo - 0.2 * span + 1.4 * span * u
    w = data.draw(arrays(float, (n_par, env.param_dim), elements=st.floats(0.0, 1.0)))
    thetas = env.theta_lower + (env.theta_upper - env.theta_lower) * w
    x0 = x0 + data.draw(arrays(float, x0.shape, elements=st.floats(-0.3, 0.3)))
    i = data.draw(st.integers(0, n_cand - 1))
    j = data.draw(st.integers(0, n_par - 1))

    grid = rollout_cost_batch(spec, env, x0, plans, thetas)
    x = x0
    for t in range(steps):
        x = rk4_step(env, x, plans[i, t], thetas[j])
    # np.sum adds the squares left to right, as the weight-matrix form does
    assert grid[i, j] == np.sum(x * x)
