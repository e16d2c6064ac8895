"""The path-integral solver and the four plan objectives."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steinmpc import controllers
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
from steinmpc.costs import CostSpec, RobustObjectiveConfig, rollout_cost_batch, trajectory_cost
from steinmpc.dynamics import EnvModel
from steinmpc.inference import ParticleSet, probe_thetas


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
        ControllerSpec(variant="nominal"), SPEC, ENV, X0, PARTICLES
    )


def per_particle_costs(plan_arr, thetas):
    return np.array([trajectory_cost(SPEC, ENV, X0, plan_arr, th) for th in thetas])


def robust_oracle(plan_arr, gamma):
    # anchor at the particle mean, plus gamma times the mean gap to it
    anchor = trajectory_cost(SPEC, ENV, X0, plan_arr, PARTICLES.particles.mean(axis=0))
    gaps = per_particle_costs(plan_arr, PARTICLES.particles) - anchor
    return anchor + gamma * gaps.mean()


def risk_oracle(plan_arr, lam, epsilon):
    # lambda * epsilon + lambda * log mean exp(cost / lambda)
    costs = per_particle_costs(plan_arr, PARTICLES.particles)
    return lam * epsilon + lam * np.log(np.mean(np.exp(costs / lam)))


def one_cycle(controller, mppi, particles, warm, rng):
    objective = build_objective(controller, SPEC, ENV, X0, particles)
    plan, _, _ = mppi_solve(ENV, X0, warm, objective, mppi, rng)
    return plan


def test_mppi_config_validation():
    with pytest.raises(ValueError):
        MppiConfig(samples=0)
    with pytest.raises(ValueError):
        MppiConfig(temperature=0.0)
    with pytest.raises(ValueError):
        MppiConfig(noise_fraction=-0.1)
    MppiConfig(noise_fraction=(0.3, 0.04))


def test_mppi_never_loses_to_the_warm_start():
    objective = nominal_objective()
    warm = np.zeros((8, 1))
    warm_cost = objective(warm)
    for seed in range(5):
        improved, _, _ = mppi_solve(ENV, X0, warm, objective,
                              MppiConfig(samples=64, temperature=1.0, noise_fraction=0.3),
                              np.random.default_rng(seed))
        assert objective(improved) <= warm_cost + 1e-12


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
    controller = ControllerSpec(variant=variant,
                                robust=RobustObjectiveConfig(risk_lambda=5.0))
    objective = build_objective(controller, SPEC, ENV, X0, thetas)
    plan, cost, theta_costs = mppi_solve(
        ENV, X0, warm, objective,
        MppiConfig(samples=samples, temperature=temperature, noise_fraction=noise),
        np.random.default_rng(seed))
    row = objective.cost_matrix(plan[None])
    assert cost <= objective(warm)
    assert cost == objective.reduce(row)[0]
    assert theta_costs.tobytes() == row[0].tobytes()


def test_mppi_solve_rolls_the_probe_out_in_the_rescore(monkeypatch):
    # A probe only adds columns to the rescore: plan and cost are the no-probe
    # call's bytes, the row starts with the no-probe row, and its tail is the
    # chosen plan's own costs under the probe. Both branches are covered: the
    # averaged plan accepted, and the best candidate kept.
    objective = build_objective(ControllerSpec(), SPEC, ENV, X0, PARTICLES)
    probe = probe_thetas(PARTICLES.particles, ENV.theta_lower, ENV.theta_upper, 1e-2)
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
            plan, cost, row = mppi_solve(ENV, X0, warm, objective, cfg,
                                         np.random.default_rng(seed))
            p_plan, p_cost, p_row = mppi_solve(ENV, X0, warm, objective, cfg,
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


def test_mppi_single_sample_returns_clamped_warm_plan():
    objective = nominal_objective()
    warm = np.full((4, 1), 3.0)
    out, _, _ = mppi_solve(ENV, X0, warm, objective, MppiConfig(samples=1),
                     np.random.default_rng(0))
    np.testing.assert_array_equal(out, np.full((4, 1), 1.0))


def test_mppi_is_deterministic_given_the_generator_state():
    objective = nominal_objective()
    warm = np.zeros((6, 1))
    cfg = MppiConfig(samples=32, temperature=0.5, noise_fraction=0.2)
    a, _, _ = mppi_solve(ENV, X0, warm, objective, cfg, np.random.default_rng(123))
    b, _, _ = mppi_solve(ENV, X0, warm, objective, cfg, np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)


def test_mppi_output_respects_actuator_bounds():
    objective = nominal_objective()
    warm = np.full((5, 1), 0.9)
    out, _, _ = mppi_solve(ENV, X0, warm, objective,
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
    out, _, _ = mppi_solve(ENV, X0, warm, SpikyObjective(),
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
        mppi_solve(ENV, X0, np.zeros((3, 1)), HopelessObjective(),
                   MppiConfig(samples=16), np.random.default_rng(0))


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
    cfg = RobustObjectiveConfig(gamma=0.5, risk_lambda=7.0, risk_epsilon=0.1)

    stein = build_objective(ControllerSpec(variant="stein_adaptive", robust=cfg),
                            SPEC, ENV, X0, PARTICLES)
    emppi = build_objective(ControllerSpec(variant="emppi", robust=cfg),
                            SPEC, ENV, X0, PARTICLES)
    dro = build_objective(ControllerSpec(variant="dro", robust=cfg),
                          SPEC, ENV, X0, PARTICLES)
    nominal = build_objective(ControllerSpec(variant="nominal", robust=cfg),
                              SPEC, ENV, X0, PARTICLES)

    for p in plans:
        assert stein(p) == pytest.approx(robust_oracle(p, 0.5), rel=1e-12)
        assert emppi(p) == pytest.approx(robust_oracle(p, 1.0), rel=1e-12)
        assert dro(p) == pytest.approx(risk_oracle(p, 7.0, 0.1), rel=1e-12)
        assert nominal(p) == pytest.approx(
            trajectory_cost(SPEC, ENV, X0, p, [1.0]), rel=1e-12)


def test_emppi_weighting_ignores_configured_gamma():
    # the ensemble variant always averages, whatever gamma says
    cfg = RobustObjectiveConfig(gamma=0.0)
    emppi = build_objective(ControllerSpec(variant="emppi", robust=cfg),
                            SPEC, ENV, X0, PARTICLES)
    p = np.full((4, 1), 0.3)
    assert emppi(p) == pytest.approx(robust_oracle(p, 1.0))


def test_dro_objective_requires_calibrated_lambda():
    with pytest.raises(ValueError):
        build_objective(
            ControllerSpec(variant="dro", robust=RobustObjectiveConfig(risk_lambda=None)),
            SPEC, ENV, X0, PARTICLES)


def test_plan_runs_one_cycle_for_every_variant():
    warm = np.zeros((5, 1))
    for variant in VARIANTS:
        robust = RobustObjectiveConfig(risk_lambda=5.0)
        controller = ControllerSpec(variant=variant, robust=robust)
        out = one_cycle(controller, MppiConfig(samples=32, noise_fraction=0.3),
                        PARTICLES, warm, np.random.default_rng(11))
        assert out.shape == (5, 1)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_plan_accepts_raw_particle_matrices():
    warm = np.zeros((4, 1))
    out = one_cycle(ControllerSpec(variant="emppi"),
                    MppiConfig(samples=16, noise_fraction=0.2),
                    np.array([[0.8], [1.2]]), warm, np.random.default_rng(3))
    assert out.shape == (4, 1)
