"""Quadratic trajectory costs and the ensemble/risk plan objectives."""
import dataclasses
import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steinmpc.configfile import build_trial_config, load_config
from steinmpc.controllers import ControllerSpec, PlanObjective, build_objective, rollout_blocks
from steinmpc.costs import (
    CostSpec,
    _check_weight_matrix,
    _quad,
    _quad_terms,
    InverseDisplacementReward,
    UprightEnergyPenalty,
    rollout_cost_batch,
)
from steinmpc.dynamics import EnvModel, _rk4, horizon_steps, rk4_step
from steinmpc.harness import _gap_model
from steinmpc.track import CenterlineReference, StadiumTrack


def drift_derivative(u, theta):
    # xdot = theta: after one unit step the state equals theta exactly
    def f(x):
        shape = np.broadcast(x[0], u[0], theta[0]).shape
        return np.broadcast_to(theta[:1], (1,) + shape).copy()
    return f


DRIFT = EnvModel(
    name="drift", state_dim=1, control_dim=1, param_dim=1, dt=1.0,
    control_lower=[-1.0], control_upper=[1.0],
    theta_true=[1.5], theta_lower=[0.0], theta_upper=[3.0],
    derivative=drift_derivative,
)
# terminal-only cost, so the one-step drift rollout costs exactly theta^2
DRIFT_SPEC = CostSpec(Q=[[0.0]], R=[[0.0]], Q_f=[[1.0]], x_des=[0.0])
ONE_STEP = np.zeros((1, 1))


def decay_derivative(u, theta):
    return lambda x: -x + 0.0 * u[:1] + 0.0 * theta[:1]


DECAY = EnvModel(
    name="decay", state_dim=1, control_dim=1, param_dim=1, dt=0.1,
    control_lower=[-1.0], control_upper=[1.0],
    theta_true=[1.0], theta_lower=[0.5], theta_upper=[1.5],
    derivative=decay_derivative,
)


def still_derivative(u, theta):
    return lambda x: np.zeros((2,) + np.broadcast(x[0], u[0], theta[0]).shape)


# a 2-state plant that never moves, so a rollout's costs are read off x0
STILL = EnvModel(
    name="still", state_dim=2, control_dim=1, param_dim=1, dt=1.0,
    control_lower=[-1.0], control_upper=[1.0],
    theta_true=[1.0], theta_lower=[0.0], theta_upper=[2.0],
    derivative=still_derivative,
)


def particles(*rows):
    return np.array(rows, dtype=float)


def objective(variant, plan, ps, spec=DRIFT_SPEC, **weights):
    controller = ControllerSpec(variant=variant, **weights)
    built = build_objective(controller, spec, DRIFT, [0.0], ps)
    return built.reduce(built.cost_matrix(plan[None]))[0]


def test_stage_cost_quadratic_form():
    # Q_f = 0 leaves the one stage term of a one-step rollout
    spec = CostSpec(Q=np.diag([2.0, 3.0]), R=[[4.0]], Q_f=np.zeros((2, 2)), x_des=np.zeros(2))
    cost = rollout_cost_batch(spec, STILL, [1.0, 2.0], [[[0.5]]], [1.0])[0, 0]
    assert cost == pytest.approx(15.0)


def test_stage_cost_zero_at_goal_with_zero_control():
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_f=np.eye(2), x_des=[1.0, -1.0])
    assert rollout_cost_batch(spec, STILL, [1.0, -1.0], [[[0.0]]], [1.0])[0, 0] == 0.0


class SevenBonus:
    def batch(self, x_terminal, theta, x0):
        return np.full(x_terminal.shape[1:], 7.0)


def test_terminal_cost_adds_extra_term():
    # a zero-step plan leaves the terminal cost at x0 alone
    spec = CostSpec(Q=np.eye(2), R=[[1.0]], Q_f=2.0 * np.eye(2), x_des=np.zeros(2),
                    extra_terminal=SevenBonus())
    cost = rollout_cost_batch(spec, STILL, [1.0, 0.0], np.zeros((1, 0, 1)), [1.0])[0, 0]
    assert cost == pytest.approx(9.0)


def test_one_by_one_rollout_matches_independent_rk4_on_scalar_decay():
    spec = CostSpec(Q=[[1.0]], R=[[0.0]], Q_f=[[3.0]], x_des=[0.0])
    h = DECAY.dt
    factor = 1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
    expect = 1.0 + factor**2 + 3.0 * factor**4
    got = rollout_cost_batch(spec, DECAY, [1.0], np.zeros((1, 2, 1)), [[1.0]])[0, 0]
    assert got == pytest.approx(expect, abs=1e-14)
    assert got == pytest.approx(3.8296917681587215)


def test_one_by_one_rollout_ignores_dead_parameters():
    spec = CostSpec(Q=[[1.0]], R=[[0.1]], Q_f=[[1.0]], x_des=[0.0])
    plan = np.full((3, 1), 0.4)
    a = rollout_cost_batch(spec, DECAY, [1.0], plan[None], [[0.6]])[0, 0]
    b = rollout_cost_batch(spec, DECAY, [1.0], plan[None], [[1.4]])[0, 0]
    assert a == b


def test_rollout_grid_matches_its_one_by_one_entries():
    rng = np.random.default_rng(3)
    plans = rng.uniform(-1, 1, size=(4, 3, 1))
    thetas = rng.uniform(0.0, 3.0, size=(5, 1))
    grid = rollout_cost_batch(DRIFT_SPEC, DRIFT, [0.0], plans, thetas)
    assert grid.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            direct = rollout_cost_batch(DRIFT_SPEC, DRIFT, [0.0], plans[i][None],
                                        thetas[j][None])[0, 0]
            assert grid[i, j] == pytest.approx(direct, rel=1e-12)


def test_rollout_clamps_plans_to_actuator_limits():
    spec = CostSpec(Q=[[1.0]], R=[[0.0]], Q_f=[[1.0]], x_des=[0.0])
    wild = np.full((3, 1), 50.0)
    tame = np.full((3, 1), 1.0)  # the upper control bound
    a = rollout_cost_batch(spec, DECAY, [1.0], wild[None], np.array([[1.0]]))
    b = rollout_cost_batch(spec, DECAY, [1.0], tame[None], np.array([[1.0]]))
    np.testing.assert_allclose(a, b)


def optimality_gap(theta, theta_ref):
    """The gap inference scores: ONE_STEP's cost under theta less its cost under theta_ref."""
    controller = ControllerSpec(variant="nominal", nominal_theta=theta_ref)
    cycle = build_objective(controller, DRIFT_SPEC, DRIFT, [0.0], particles([1.5]))
    return _gap_model(cycle, ONE_STEP, particles(theta))[0]


def test_optimality_gap_is_cost_difference_and_zero_at_reference():
    assert optimality_gap([2.0], [1.0]) == pytest.approx(3.0)
    assert optimality_gap([1.3], [1.3]) == 0.0


def test_optimality_gap_can_be_negative():
    assert optimality_gap([1.0], [2.0]) == pytest.approx(-3.0)


def test_robust_cost_anchors_at_mean_and_blends_gaps():
    # costs are theta^2: particles {1, 2} have mean cost anchor 1.5^2 = 2.25
    ps = particles([1.0], [2.0])
    assert objective("stein_adaptive", ONE_STEP, ps, gamma=0.0) == pytest.approx(2.25)
    assert objective("stein_adaptive", ONE_STEP, ps, gamma=0.5) == pytest.approx(2.375)
    assert objective("stein_adaptive", ONE_STEP, ps, gamma=1.0) == pytest.approx(2.5)


def test_robust_cost_gamma_one_is_exact_ensemble_mean():
    rng = np.random.default_rng(11)
    spec = CostSpec(Q=np.eye(1), R=[[0.05]], Q_f=2 * np.eye(1), x_des=[0.0])
    worst = 0.0
    for _ in range(50):
        pts = rng.uniform(0.0, 3.0, size=(rng.integers(1, 7), 1))
        plan = rng.uniform(-1, 1, size=(3, 1))
        robust = build_objective(ControllerSpec(variant="stein_adaptive", gamma=1.0),
                                 spec, DRIFT, [0.2], pts)
        r = robust.reduce(robust.cost_matrix(plan[None]))[0]
        direct = rollout_cost_batch(spec, DRIFT, [0.2], plan[None], pts)[0].mean()
        worst = max(worst, abs(r - direct))
    assert worst <= 1e-12


def test_dro_risk_cost_closed_form_small_stack():
    ps = particles([1.0], [2.0])  # costs 1 and 4
    got = objective("dro", ONE_STEP, ps, risk_lambda=2.0, risk_epsilon=0.1)
    expect = 0.2 + 2.0 * math.log((math.exp(0.5) + math.exp(2.0)) / 2.0)
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(3.2165321948456143)


def test_dro_risk_cost_high_temperature_is_mean_plus_variance_correction():
    ps = particles([1.0], [2.0])
    got = objective("dro", ONE_STEP, ps, risk_lambda=1000.0, risk_epsilon=0.0)
    assert got == pytest.approx(2.5 + 2.25 / 2000.0, abs=1e-6)


def test_dro_risk_cost_low_temperature_tracks_worst_particle():
    ps = particles([1.0], [2.0])
    got = objective("dro", ONE_STEP, ps, risk_lambda=0.01, risk_epsilon=0.0)
    assert got == pytest.approx(4.0, abs=0.01)


def test_dro_risk_cost_survives_huge_costs():
    # shifted log-sum-exp: 1e6-scale costs with a small temperature
    spec = CostSpec(Q=[[0.0]], R=[[0.0]], Q_f=[[1e6]], x_des=[0.0])
    got = objective("dro", ONE_STEP, particles([1.0], [2.0]), spec=spec,
                    risk_lambda=0.5, risk_epsilon=0.0)
    assert np.isfinite(got)
    assert got == pytest.approx(4e6, rel=1e-6)


def test_upright_energy_penalty_zero_on_swingup_manifold():
    pen = UprightEnergyPenalty(70.0)
    theta = np.array([0.5, 0.75])
    upright_rest = np.array([0.3, math.pi, -0.1, 0.0])
    assert pen.batch(upright_rest, theta, np.zeros(4)) == pytest.approx(0.0, abs=1e-20)


def test_upright_energy_penalty_hanging_value():
    pen = UprightEnergyPenalty(70.0)
    theta = np.array([0.5, 0.75])
    # hanging rest sits 2 m g l below the upright energy level
    assert pen.batch(np.zeros(4), theta, np.zeros(4)) == pytest.approx(3789.2964375)


def test_upright_energy_penalty_batch_matches_scalar():
    pen = UprightEnergyPenalty(3.0)
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(6, 4))
    thetas = rng.uniform(0.3, 1.0, size=(6, 2))
    batch = pen.batch(xs.T, thetas.T, np.zeros((4, 1)))
    # each row of the stack scored on its own
    direct = [pen.batch(x, th, np.zeros(4)) for x, th in zip(xs, thetas)]
    np.testing.assert_allclose(batch, direct)


def test_inverse_displacement_reward_values_and_batch():
    inv = InverseDisplacementReward([1.0, 2.0])
    assert inv.batch(np.array([0.5, 0.0]), None, np.zeros(2)) == pytest.approx(
        1.0 / 0.501 + 2000.0
    )
    xs = np.array([[0.5, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(
        inv.batch(xs.T, None, np.zeros((2, 1))),
        [inv.batch(x, None, np.zeros(2)) for x in xs],
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
    # a non-finite entry is rejected before symmetry or definiteness is read:
    # NaN meets the symmetry rule, since no comparison with NaN is true, and
    # diag(1, inf) has only positive pivots
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="Q must be finite"):
            CostSpec(Q=np.diag([1.0, bad]), R=[[1.0]], Q_f=np.eye(2), x_des=np.zeros(2))
    # Symmetric to allclose's tolerance either way round, but the cost sums
    # both off-diagonal entries: e^T Q e = -1e-6 at e = (1, -1), so each
    # orientation is rejected, not only the one whose lower triangle is off.
    for q in ([[1.0, 1.0 + 1e-6], [1.0, 1.0]], [[1.0, 1.0], [1.0 + 1e-6, 1.0]]):
        with pytest.raises(ValueError, match="Q must be positive semidefinite"):
            CostSpec(Q=q, R=[[1.0]], Q_f=np.eye(2), x_des=np.zeros(2))


@pytest.mark.parametrize("label,weights", [
    ("Q_f", dict(Q=np.eye(4), R=np.eye(1), Q_f=np.eye(3))),
    ("Q", dict(Q=np.ones((4, 3)), R=np.eye(1), Q_f=np.eye(4))),
    ("R", dict(Q=np.eye(4), R=np.ones((1, 2)), Q_f=np.eye(4))),
], ids=["Q_f-3x3-against-4x4-Q", "Q-4x3", "R-1x2"])
def test_cost_spec_rejects_a_weight_of_the_wrong_shape(label, weights):
    # Q's rows set the state dimension and R's rows the control dimension.
    with pytest.raises(ValueError, match=f"^{label} must have shape"):
        CostSpec(**weights, x_des=np.zeros(4))


BOUNDARY = [0.0, -0.0, 1e-8, -1e-8, -1.0000001e-8, 5e-324, -5e-324,
            2.2250738585072014e-308, -2.2250738585072014e-308, 1e300, 1e-300, -1e-300]


@given(diagonal=st.lists(
    st.sampled_from(BOUNDARY) | st.floats(-2e-8, 2e-8) | st.floats(-1e300, 1e300),
    min_size=1, max_size=6))
@example(diagonal=[1e300, -1e-8, 1e-300])
@example(diagonal=[1e300, -1.0000001e-8])
@example(diagonal=[-0.0, -5e-324])
def test_a_diagonal_weight_matrix_is_checked_from_its_diagonal(diagonal):
    # A diagonal matrix's eigenvalues are its diagonal entries, so it passes
    # exactly when none of them is below the -1e-8 tolerance.
    m = np.diag(diagonal)
    if min(diagonal) >= -1e-8:
        np.testing.assert_array_equal(_check_weight_matrix(m, len(diagonal), "Q"), m)
    else:
        with pytest.raises(ValueError, match="Q must be positive semidefinite"):
            _check_weight_matrix(m, len(diagonal), "Q")


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


@pytest.mark.parametrize("name", ["cartpole", "rocket", "racing", "kernel_ablation"])
def test_building_a_shipped_config_calls_no_lapack(name, monkeypatch):
    # Every weight check, flat or full, runs on Python floats.
    calls = []

    def spy(function):
        def recorded(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)
        return recorded

    for function in ("eigvalsh", "eigh", "eigvals", "cholesky"):
        monkeypatch.setattr(np.linalg, function, spy(getattr(np.linalg, function)))
    build_trial_config(load_config(os.path.join(CONFIG_DIR, f"{name}.yaml")))
    assert calls == []


@st.composite
def weight_matrices(draw):
    n = draw(st.integers(1, 6))
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        # J^T J is PSD, and singular when J has fewer rows than columns; the
        # shift moves it to either side of the tolerance.
        j = draw(arrays(float, (draw(st.integers(1, n)), n), elements=unit))
        shift = draw(st.sampled_from([0.0, 0.0, -1e-3, 1e-3, -0.1, 0.1]))
        base = j.T @ j + shift * np.eye(n)
    else:
        a = draw(arrays(float, (n, n), elements=unit))
        base = a + a.T
    w = 10.0 ** draw(st.floats(-3.0, 4.0)) * base
    # an asymmetry well inside the symmetry tolerance, so S is not W
    w += np.triu(draw(arrays(float, (n, n), elements=st.floats(-1e-7, 1e-7))), 1) * w
    return w


ROCKET_COST = SHIPPED["rocket"].cost


@given(w=weight_matrices())
@example(w=ROCKET_COST.Q)
@example(w=ROCKET_COST.Q_f)
@example(w=ROCKET_COST.R)
@example(w=np.array([[1.0, 1.0 + 1e-6], [1.0, 1.0]]))
@example(w=np.array([[1.0, 1.0], [1.0, 1.0]]))
@example(w=np.array([[-1e-8, 1.0], [1.0, -1e-8]]))  # a zero pivot, nonzero column
def test_weight_check_agrees_with_the_eigenvalues_of_the_summed_matrix(w):
    # The check passes exactly when the smallest eigenvalue of S, the matrix
    # the cost sums, is at least -1e-8; draws too close to that line to tell
    # apart from rounding are skipped. S keeps W's diagonal and averages each
    # off-diagonal pair as the check does.
    s = w / 2 + w.T / 2
    np.fill_diagonal(s, np.diagonal(w))
    smallest = np.linalg.eigvalsh(s)[0]
    assume(abs(smallest + 1e-8) > 1e-9 * max(1.0, np.abs(s).max()))
    if smallest >= -1e-8:
        np.testing.assert_array_equal(_check_weight_matrix(w, len(w), "Q"), w)
    else:
        with pytest.raises(ValueError, match="Q must be positive semidefinite"):
            _check_weight_matrix(w, len(w), "Q")


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
    # A shared start state is one start row: the (n,) state, its (1, n) row
    # and the row repeated for every plan give the same bytes, with their
    # references resolved in the call or given.
    rows = np.repeat(x0[None], n_cand, axis=0)
    for starts, given in ((x0[None], refs[None]), (x0[None], refs),
                          (rows, np.repeat(refs[None], n_cand, axis=0))):
        for stack in (None, given):
            again = rollout_cost_batch(spec, env, starts, plans, thetas, refs=stack)
            assert again.tobytes() == grid.tobytes()
    for i in range(n_cand):
        for j in range(n_par):
            assert grid[i, j] == rollout_cost_batch(spec, env, x0, plans[i][None],
                                                    thetas[j][None])[0, 0]
            alone = rollout_cost_batch(spec, env, x0, plans[i][None], thetas[j][None], refs=refs)
            assert alone[0, 0] == grid[i, j]


def _same_bytes(a, b):
    """Equal bytes, except that a NaN's sign bit may differ between numpy loops."""
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


@given(name=st.sampled_from(sorted(SHIPPED)), shape=st.tuples(
    st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.integers(0, 6)),
    probe=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(name="racing", shape=(2, 3, 2, 10), probe=0, seed=0)
@example(name="rocket", shape=(4, 2, 3, 5), probe=3, seed=1)
def test_each_plan_block_gets_the_bytes_of_its_own_start_state(name, shape, probe, seed):
    # A rescore and the next cycle's planner grid share one call: blocks of
    # plans, each from its own start state against its own reference states,
    # get the bytes of their own single-start calls, and ``rollout_blocks``
    # hands each block what its objective's ``cost_matrix`` gives alone.
    # Theta rows repeat, in the objective and in the shared probe, so the
    # distinct-row path runs. On racing the starts sit apart on the track,
    # so they track different centerline points, and the inverse-displacement
    # terminal reads each block's own start. Blocks whose thetas differ, by
    # one bit or by a probe row, or whose plans have another horizon, do not
    # share a call.
    trial = SHIPPED[name]
    env, spec = trial.env, trial.cost
    n_blocks, most, n_distinct, steps = shape
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, most + 1, size=n_blocks)
    span = env.control_upper - env.control_lower
    plans = env.control_lower - 0.2 * span + 1.4 * span * rng.uniform(
        size=(counts.sum(), steps, env.control_dim))
    pool = env.theta_lower + (env.theta_upper - env.theta_lower) * rng.uniform(
        size=(n_distinct, env.param_dim))
    thetas = pool[np.concatenate([np.arange(n_distinct), rng.integers(n_distinct, size=2)])]
    shared = pool[rng.integers(n_distinct, size=probe)] if probe else ()
    columns = np.concatenate([thetas, np.reshape(shared, (-1, env.param_dim))])
    starts = trial.x0 + rng.uniform(-0.3, 0.3, size=(n_blocks, env.state_dim))
    if name == "racing":
        assert isinstance(spec.extra_terminal, InverseDisplacementReward)
        starts[:, 0] += np.arange(n_blocks) * rng.uniform(0.5, 1.0)
        for a, b in zip(starts, starts[1:]):
            assert not np.array_equal(spec.references(env, a, steps),
                                      spec.references(env, b, steps))
    x0 = np.repeat(starts, counts, axis=0)
    objectives = [PlanObjective(spec, env, start, thetas, None) for start in starts]
    blocks = list(zip(objectives, np.split(plans, np.cumsum(counts)[:-1]), [shared] * n_blocks))

    grid = rollout_cost_batch(spec, env, x0, plans, columns)
    assert grid.shape == (len(plans), len(columns))
    refs = np.stack([spec.references(env, row, steps) for row in x0])
    assert rollout_cost_batch(spec, env, x0, plans, columns, refs=refs).tobytes() == \
        grid.tobytes()
    matrices = rollout_blocks(blocks)
    assert len(matrices) == n_blocks
    for (objective, block, _), start, matrix, rows in zip(
            blocks, starts, matrices, np.split(grid, np.cumsum(counts)[:-1])):
        _same_bytes(rows, rollout_cost_batch(spec, env, start, block, columns))
        _same_bytes(matrix, rows)
        _same_bytes(matrix, objective.cost_matrix(block, shared))

    nudged = thetas.copy()
    nudged[-1, -1] = np.nextafter(nudged[-1, -1], np.inf)
    first = blocks[0]
    for other in ((PlanObjective(spec, env, starts[-1], nudged, None), first[1], shared),
                  (objectives[-1], first[1], np.concatenate([columns[len(thetas):],
                                                             pool[:1]])),
                  (objectives[-1], np.zeros((1, steps + 1, env.control_dim)), shared)):
        with pytest.raises(ValueError, match="theta bytes"):
            rollout_blocks([first, other])


class ParameterSign:
    """A terminal term of +1 or -1 by the sign bit of parameter ``index``."""

    def __init__(self, index):
        self.index = index

    def batch(self, x_terminal, theta, x0):
        return np.copysign(1.0, theta[self.index])


@given(name=st.sampled_from(sorted(SHIPPED)), zero_at=st.integers(0, 2),
       reads_sign=st.booleans(), shape=st.tuples(
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 4)),
       seed=st.integers(0, 2**32 - 1))
@example(name="rocket", zero_at=2, reads_sign=True, shape=(2, 2, 3), seed=0)
@example(name="cartpole", zero_at=0, reads_sign=True, shape=(2, 1, 4), seed=1)
def test_repeated_theta_rows_give_the_one_by_one_bytes(name, zero_at, reads_sign, shape, seed):
    # A rollout integrates each distinct theta row once and gathers the grid
    # back. Rows are the same only when their bytes are: a -0.0/+0.0 pair
    # stays apart, which the sign term shows in the cost, and a NaN row
    # repeats.
    trial = SHIPPED[name]
    env, spec = trial.env, trial.cost
    zero_at %= env.param_dim
    if reads_sign:
        spec = dataclasses.replace(spec, extra_terminal=ParameterSign(zero_at))
    n_cand, n_distinct, steps = shape
    rng = np.random.default_rng(seed)
    span = env.control_upper - env.control_lower
    plans = env.control_lower + span * rng.uniform(size=(n_cand, steps, env.control_dim))
    pool = list(env.theta_lower + (env.theta_upper - env.theta_lower) * rng.uniform(
        size=(n_distinct, env.param_dim)))
    plus, minus, nan = pool[0].copy(), pool[0].copy(), pool[0].copy()
    plus[zero_at], minus[zero_at] = 0.0, -0.0
    nan[rng.integers(env.param_dim)] = np.nan
    pool += [plus, minus, nan]
    picks = list(rng.integers(n_distinct, size=rng.integers(7)))
    picks += [n_distinct, n_distinct + 1, n_distinct + 2, n_distinct + 2]
    thetas = np.array([pool[k] for k in rng.permutation(picks)])

    grid = rollout_cost_batch(spec, env, trial.x0, plans, thetas)
    assert grid.shape == (n_cand, len(picks))
    for i in range(n_cand):
        for j in range(len(picks)):
            alone = rollout_cost_batch(spec, env, trial.x0, plans[i][None], thetas[j][None])
            if np.isnan(alone[0, 0]):
                # a NaN's sign bit depends on the numpy loop that made it
                assert np.isnan(grid[i, j])
            else:
                assert grid[i, j].tobytes() == alone[0, 0].tobytes()


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


def dense_quad(e, w):
    """e^T W e summed over every entry of W, zeros included, row-major from 0.0."""
    acc = np.zeros(e.shape[1:])
    for i, j in np.ndindex(w.shape):
        acc += (e[i] * w[i, j]) * e[j]
    return acc


def einsum_quad(e, w):
    """The dense einsum the nonzero-term sum replaced, over 9 or more entries.

    einsum's summation order depends on the batch: for a 2 x 2 W with nonzero
    off-diagonal entries and at most 2 entries in the batch it adds each
    row's pair first. Over more entries it sums row-major, like
    ``dense_quad``, so the batch is padded before the call.
    """
    flat = e.reshape(w.shape[0], -1).T
    padded = np.concatenate([flat, np.ones((8, w.shape[0]))])
    out = np.einsum("...i,ij,...j->...", padded, w, padded)
    return out[:len(flat)].reshape(e.shape[1:])


@st.composite
def sparse_psd(draw, dims=st.integers(1, 6), max_dead=2):
    """Symmetric, diagonally dominant W (so PSD), with random sparsity and dead rows."""
    n = draw(dims)
    dead = draw(st.sets(st.integers(0, n - 1), max_size=max_dead))
    density = draw(st.floats(0.0, 1.0))
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if not {i, j} & dead and draw(st.floats(0.0, 1.0)) < density:
                w[i, j] = w[j, i] = draw(st.floats(-1.0, 1.0).filter(bool))
    for i in range(n):
        if i not in dead:
            w[i, i] = np.abs(w[i]).sum() + draw(st.floats(1e-3, 10.0))
    return w


SHIPPED_WEIGHTS = [w for trial in SHIPPED.values()
                   for w in (trial.cost.Q, trial.cost.R, trial.cost.Q_f)]
LEADING = st.sampled_from([(), (1,), (1, 1)]) | st.lists(
    st.integers(0, 5), min_size=1, max_size=3).map(tuple)


@given(w=sparse_psd() | st.sampled_from(SHIPPED_WEIGHTS), lead=LEADING,
       seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0))
@example(w=SHIPPED["rocket"].cost.Q, lead=(16,), seed=0, zeros=0.0)
def test_nonzero_term_quad_is_byte_equal_to_the_dense_form(w, lead, seed, zeros):
    rng = np.random.default_rng(seed)
    shape = (w.shape[0],) + lead
    # generic floats over six decades; zeroed entries keep their sign, so
    # exact +0.0 and -0.0 both occur
    e = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    e[rng.uniform(size=shape) < zeros] *= 0.0
    terms = _quad_terms(w)
    got = _quad(e, terms)
    assert got.shape == lead
    assert got.tobytes() == dense_quad(e, w).tobytes()
    assert got.tobytes() == einsum_quad(e, w).tobytes()
    # every entry alone (M = 1): numpy reduces a one-column term array
    # pairwise once it has 8 terms, which a row-by-row sum must not do
    for col in e.reshape(w.shape[0], -1).T:
        assert _quad(col[:, None], terms).tobytes() == dense_quad(col[:, None], w).tobytes()


def test_quad_terms_are_the_nonzero_entries_in_row_major_order():
    w = np.array([[2.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 3.0]])
    terms = _quad_terms(w)
    # the dead row 1 keeps a +0.0 diagonal term
    assert [(i, j) for i, j, _ in terms] == [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]
    assert [weight for _, _, weight in terms] == [2.0, -1.0, 0.0, -1.0, 3.0]
    assert math.copysign(1.0, terms[2][2]) == 1.0
    # the shipped rocket Q has 12 nonzero entries of 36
    assert len(_quad_terms(SHIPPED["rocket"].cost.Q)) == 12


def test_quad_allocates_no_term_arrays():
    # rocket's Q over its planner errors (6, H x C x P = 10 x 256 x 6): the
    # sum and one term buffer, not a (12, 15360) array of gathered terms
    terms = SHIPPED["rocket"].cost._q_terms
    e = np.random.default_rng(0).normal(size=(6, 15360))
    _quad(e, terms)
    tracemalloc.start()
    try:
        _quad(e, terms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 15360 * 8


def per_step_rollout_cost(spec, env, x0, plans, thetas):
    """The rollout with each stage cost added at its own step, quadratic forms dense."""
    n_cand, steps, m = plans.shape
    grid = (n_cand, len(thetas))
    refs = spec.references(env, x0, steps)[:, :, None, None]
    lo, hi = env.control_lower[:, None, None], env.control_upper[:, None, None]
    controls = np.clip(plans.transpose(2, 1, 0), lo, hi)
    theta = np.broadcast_to(thetas.T[:, None, :], thetas.shape[1:] + grid).copy()
    x = np.broadcast_to(x0[:, None, None], x0.shape + grid).copy()
    total = np.zeros(grid)
    for t in range(steps):
        u = np.broadcast_to(controls[:, t, :, None], (m,) + grid).copy()
        total += dense_quad(x - refs[t], spec.Q) + dense_quad(controls[:, t], spec.R)[:, None]
        x = _rk4(env.derivative(u, theta), env.dt, x)
    total += dense_quad(x - refs[steps], spec.Q_f)
    if spec.extra_terminal is not None:
        total += spec.extra_terminal.batch(x, theta, x0[:, None, None])
    return total


def _shipped_case(name):
    # the shipped Q, or a random one with 8 or more terms so that a sum over
    # them by a numpy reduction would not add them in order
    n = SHIPPED[name].env.state_dim
    dense = sparse_psd(st.just(n), max_dead=1).filter(lambda w: len(_quad_terms(w)) >= 8)
    return st.tuples(st.just(name), st.none() | dense)


@given(case=st.sampled_from(sorted(SHIPPED)).flatmap(_shipped_case),
       shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 20)),
       seed=st.integers(0, 2**32 - 1))
@example(case=("rocket", None), shape=(1, 1, 20), seed=0)
@example(case=("racing", None), shape=(1, 1, 12), seed=1)
@example(case=("cartpole", None), shape=(6, 6, 1), seed=2)
@example(case=("rocket", None), shape=(3, 2, 0), seed=3)
def test_rollout_scored_after_the_horizon_equals_per_step_scoring(case, shape, seed):
    # Scoring every stage cost after the state recursion gives the floats of
    # adding each one as its step is reached: the same terms, the horizon
    # summed in step order even for a lone (plan, parameter) pair.
    name, q = case
    trial = SHIPPED[name]
    env, spec = trial.env, trial.cost
    if q is not None:
        spec = CostSpec(Q=q, R=spec.R, Q_f=spec.Q_f, x_des=spec.x_des,
                        extra_terminal=spec.extra_terminal)
    n_cand, n_par, steps = shape
    rng = np.random.default_rng(seed)
    span = env.control_upper - env.control_lower
    plans = env.control_lower - 0.2 * span + 1.4 * span * rng.uniform(
        size=(n_cand, steps, env.control_dim))
    thetas = env.theta_lower + (env.theta_upper - env.theta_lower) * rng.uniform(
        size=(n_par, env.param_dim))
    x0 = trial.x0 + rng.uniform(-0.3, 0.3, size=trial.x0.shape)

    got = rollout_cost_batch(spec, env, x0, plans, thetas)
    want = per_step_rollout_cost(spec, env, x0, plans, thetas)
    assert np.isfinite(want).all()
    assert got.tobytes() == want.tobytes()


def _exploding_first_coordinate(u, theta):
    def f(x):
        out = np.empty((2,) + np.broadcast(x[0], u[0], theta[0]).shape)
        out[0] = 1e308 * (1.0 + x[0])
        out[1] = 0.0
        return out
    return f


def test_unweighted_diverged_coordinate_gives_nonfinite_cost():
    # Q and Q_f leave coordinate 0 unweighted, and only coordinate 0 diverges:
    # a sum over the nonzero weights alone would read a finite 0.0 here
    env = EnvModel(
        name="explode", state_dim=2, control_dim=1, param_dim=1, dt=0.1,
        control_lower=[-1.0], control_upper=[1.0],
        theta_true=[1.0], theta_lower=[0.5], theta_upper=[1.5],
        derivative=_exploding_first_coordinate,
    )
    spec = CostSpec(Q=np.diag([0.0, 1.0]), R=[[0.1]], Q_f=np.diag([0.0, 1.0]),
                    x_des=[0.0, 0.0])
    grid = rollout_cost_batch(spec, env, [0.0, 0.0], np.zeros((3, 4, 1)), [[1.0], [1.2]])
    assert grid.shape == (3, 2)
    assert not np.isfinite(grid).any()


def rk4_expression(f, dt, x):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@given(name=st.sampled_from(sorted(SHIPPED)), shape=st.tuples(
    st.integers(1, 8), st.integers(1, 6)), data=st.data())
def test_rk4_step_in_place_leaves_inputs_and_matches_the_expression(name, shape, data):
    env = SHIPPED[name].env
    n_cand, n_par = shape
    grid = (n_cand, n_par)
    x = data.draw(arrays(float, (env.state_dim,) + grid, elements=st.floats(-3.0, 3.0)))
    # controls vary by plan and parameters by hypothesis, as in a rollout
    w = data.draw(arrays(float, (env.control_dim, n_cand, 1), elements=st.floats(0.0, 1.0)))
    lo, hi = env.control_lower[:, None, None], env.control_upper[:, None, None]
    u = np.broadcast_to(lo + (hi - lo) * w, (env.control_dim,) + grid).copy()
    w = data.draw(arrays(float, (env.param_dim, 1, n_par), elements=st.floats(0.0, 1.0)))
    lo, hi = env.theta_lower[:, None, None], env.theta_upper[:, None, None]
    theta = np.broadcast_to(lo + (hi - lo) * w, (env.param_dim,) + grid).copy()
    before = [a.copy() for a in (x, u, theta)]

    f = env.derivative(u, theta)
    out = _rk4(f, env.dt, x)
    for a, b in zip((x, u, theta), before):
        assert a.tobytes() == b.tobytes()
    assert not np.shares_memory(out, x)
    assert out.tobytes() == rk4_expression(f, env.dt, x).tobytes()


@given(name=st.sampled_from(sorted(SHIPPED)), shape=st.tuples(
    st.integers(1, 8), st.integers(1, 6)), per_plan=st.booleans(), data=st.data())
def test_the_rollout_takes_the_dtype_of_its_start_state_and_thetas(name, shape, per_plan, data):
    # rollout_cost_batch chooses the rollout's one dtype from x0 and thetas;
    # the controls stay float64. On the same float32-representable inputs at
    # the shipped horizon, a float32 grid is within 1e-6 relative (about 8
    # float32 epsilons) of the float64 grid, entry by entry, and every bound
    # derivative returns x's dtype whatever theta's.
    trial = SHIPPED[name]
    env, spec = trial.env, trial.cost
    steps = horizon_steps(trial.horizon_seconds, env.dt)
    n_cand, n_par = shape
    span = env.control_upper - env.control_lower
    plans = env.control_lower - 0.2 * span + 1.4 * span * data.draw(
        arrays(float, (n_cand, steps, env.control_dim), elements=st.floats(0.0, 1.0)))
    w = data.draw(arrays(float, (n_par, env.param_dim), elements=st.floats(0.0, 1.0)))
    thetas = (env.theta_lower + (env.theta_upper - env.theta_lower) * w).astype(np.float32)
    starts = (n_cand,) + trial.x0.shape if per_plan else trial.x0.shape
    x0 = (trial.x0 + data.draw(arrays(float, starts, elements=st.floats(-0.3, 0.3)))
          ).astype(np.float32)

    single = rollout_cost_batch(spec, env, x0, plans, thetas)
    double = rollout_cost_batch(spec, env, x0.astype(float), plans, thetas.astype(float))
    assert single.dtype == np.float32 and double.dtype == np.float64
    assert np.isfinite(double).all()
    np.testing.assert_allclose(single, double, rtol=1e-6, atol=0.0)

    u = np.broadcast_to(plans[:, 0].T[:, :, None], (env.control_dim, n_cand, n_par)).copy()
    x = np.broadcast_to(np.atleast_2d(x0).T[:, :, None], (env.state_dim, n_cand, n_par))
    theta = np.broadcast_to(thetas.T[:, None, :], (env.param_dim, n_cand, n_par))
    for x_dtype in (np.float32, np.float64):
        for theta_dtype in (np.float32, np.float64):
            f = env.derivative(u, theta.astype(theta_dtype))
            assert f(x.astype(x_dtype)).dtype == x_dtype
    # so does the terminal term, whatever the dtype of its own weights
    if spec.extra_terminal is not None:
        for dtype in (np.float32, np.float64):
            term = spec.extra_terminal.batch(x.astype(dtype), theta.astype(dtype),
                                             x[:, :, :1].astype(dtype))
            assert term.dtype == dtype and term.shape == (n_cand, n_par)


# SHA-256 of the float64 grids ``_float64_grids`` yields, recorded while
# every derivative and the rollout still cast their inputs to float64: the
# rollout's dtype decision moves no float64 byte.
FLOAT64_GRID_DIGESTS = {
    "cartpole": "78aa1581763be3797029e6ef28fd8a1b4f2bd1712c41f8a457cef0824e03510b",
    "rocket": "e4788467c87aab3d5b686aa8dd34e406846e2cd78a38d823287d5aecc4feaf80",
    "racing": "cd18c284e8ce1037d044852ea31dc785a37294229349aa4fb84ce59f74a0d146",
}


def _float64_grids(trial):
    """Grids at planner, rescore, 1 x 1 and per-plan-start shapes, each from a
    float start state and from its integer rounding; a theta row repeats."""
    env, spec = trial.env, trial.cost
    steps = horizon_steps(trial.horizon_seconds, env.dt)
    rng = np.random.default_rng(31)
    span = env.control_upper - env.control_lower
    for n_cand, n_par, per_plan in ((64, 6, False), (2, 20, False), (1, 1, False), (8, 3, True)):
        plans = env.control_lower - 0.2 * span + 1.4 * span * rng.uniform(
            size=(n_cand, steps, env.control_dim))
        thetas = env.theta_lower + (env.theta_upper - env.theta_lower) * rng.uniform(
            size=(n_par, env.param_dim))
        thetas[-1] = thetas[0]
        shape = (n_cand, env.state_dim) if per_plan else (env.state_dim,)
        x0 = trial.x0 + rng.uniform(-0.3, 0.3, size=shape)
        yield rollout_cost_batch(spec, env, x0, plans, thetas)
        yield rollout_cost_batch(spec, env, np.round(x0).astype(int), plans, thetas)


@pytest.mark.parametrize("name", sorted(FLOAT64_GRID_DIGESTS))
def test_float64_and_integer_input_keep_the_recorded_float64_bytes(name):
    digest = hashlib.sha256()
    for grid in _float64_grids(SHIPPED[name]):
        assert grid.dtype == np.float64 and np.isfinite(grid).all()
        digest.update(grid.tobytes())
    assert digest.hexdigest() == FLOAT64_GRID_DIGESTS[name]
