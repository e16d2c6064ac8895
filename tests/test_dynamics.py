"""Dynamics models, the RK4 integrator, and the environment factories."""

import dataclasses

import numpy as np
import pytest

from steinmpc.dynamics import (
    GRAVITY,
    cartpole_derivative,
    horizon_steps,
    make_cartpole,
    make_racecar,
    make_rocket,
    racecar_derivative,
    rk4_step,
    rocket_derivative,
)


def test_cartpole_horizontal_pole_accelerations():
    # pole horizontal, everything at rest: cart stays put for that instant,
    # angular acceleration is -g/l for a point-mass pole
    d = cartpole_derivative(np.array([0.0, np.pi / 2, 0.0, 0.0]), np.array([0.0]),
                            np.array([0.5, 0.75]))
    assert d[0] == 0.0 and d[1] == 0.0
    assert d[2] == pytest.approx(0.0, abs=1e-12)
    assert d[3] == pytest.approx(-GRAVITY / 0.75, abs=1e-10)


def test_cartpole_generic_state_accelerations():
    # frozen from an independent Euler-Lagrange derivation
    d = cartpole_derivative(np.array([0.3, 1.1, -0.4, 2.2]), np.array([3.0]),
                            np.array([0.62, 0.48]))
    assert d[2] == pytest.approx(4.51771613, abs=1e-7)
    assert d[3] == pytest.approx(-22.48325566, abs=1e-7)


def test_cartpole_hanging_rest_is_fixed_point():
    d = cartpole_derivative(np.zeros(4), np.zeros(1), np.array([0.5, 0.75]))
    assert np.all(d == 0.0)


def test_rocket_hover_is_fixed_point():
    theta = np.array([0.1, 0.01, 0.7])
    d = rocket_derivative(np.zeros(6), np.array([0.1 * GRAVITY, 0.0]), theta)
    assert np.abs(d).max() < 1e-12


def test_rocket_gimbal_torque():
    theta = np.array([0.1, 0.01, 0.7])
    d = rocket_derivative(np.zeros(6), np.array([1.0, np.pi / 6]), theta)
    assert d[5] == pytest.approx(35.0, abs=1e-9)


def test_rocket_generic_state_derivative():
    # thrust acts along the gimbal axis measured in the body frame
    d = rocket_derivative(np.array([0.1, 0.4, 0.05, -0.2, 0.1, 0.3]),
                          np.array([1.2, 0.2]), np.array([0.1, 0.01, 0.7]))
    assert np.allclose(d[:3], [-0.2, 0.1, 0.3])
    assert d[3] == pytest.approx(1.2 * np.sin(0.15) / 0.1, abs=1e-9)
    assert d[4] == pytest.approx(1.2 * np.cos(0.15) / 0.1 - GRAVITY, abs=1e-9)
    assert d[5] == pytest.approx(1.2 * np.sin(0.2) * 0.7 / 0.01, abs=1e-9)


def test_racecar_generic_state_derivative():
    d = racecar_derivative(np.array([0.5, -1.0, 0.7, 1.5, 0.4]),
                           np.array([0.3, 0.02]), np.array([0.1, 0.01]))
    assert d[0] == pytest.approx(1.5 * np.cos(0.7), abs=1e-12)
    assert d[1] == pytest.approx(1.5 * np.sin(0.7), abs=1e-12)
    assert d[2] == 0.4
    assert d[3] == pytest.approx(0.3 / 0.1 - 0.1 * 1.5, abs=1e-12)
    assert d[4] == pytest.approx(0.02 / 0.01 - 0.1 * 0.4, abs=1e-12)


def test_racecar_steady_speed():
    # throttle balancing drag: throttle/m = drag * v
    d = racecar_derivative(np.array([0.0, 0.0, 0.0, 2.0, 0.0]),
                           np.array([0.02, 0.0]), np.array([0.1, 0.01]))
    assert abs(d[3]) < 1e-12


@pytest.mark.parametrize("deriv,n,m,p", [
    (cartpole_derivative, 4, 1, 2),
    (rocket_derivative, 6, 2, 3),
    (racecar_derivative, 5, 2, 2),
])
def test_derivatives_broadcast_over_batches(deriv, n, m, p):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, 7, 3))
    u = rng.uniform(0.1, 0.5, size=(m, 7, 3))
    theta = rng.uniform(0.2, 0.8, size=(p, 7, 3))
    out = deriv(x, u, theta)
    assert out.shape == (n, 7, 3)
    for i in range(7):
        for j in range(3):
            alone = deriv(x[:, i, j], u[:, i, j], theta[:, i, j])
            assert out[:, i, j].tobytes() == alone.tobytes()


def test_rk4_matches_quartic_taylor_on_linear_decay():
    def decay(x, u, theta):
        return -x + 0.0 * u[:1] + 0.0 * theta[:1]

    env = dataclasses.replace(make_cartpole(), dt=0.1, state_dim=1, control_dim=1,
                              param_dim=1, control_lower=np.array([-1.0]),
                              control_upper=np.array([1.0]), theta_true=np.array([1.0]),
                              theta_lower=np.array([0.5]), theta_upper=np.array([1.5]),
                              derivative=decay)
    h = 0.1
    want = 1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
    got = rk4_step(env, np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert got[0] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("env,x0,u_fn", [
    (make_cartpole(), [0, 0.3, 0, 0], lambda t: np.array([4 * np.sin(3 * t)])),
    (make_rocket(), [0, 0.5, 0.05, 0, 0, 0],
     lambda t: np.array([1.2 + 0.5 * np.sin(2 * t), 0.2 * np.cos(3 * t)])),
    (make_racecar(), [-2.5, -2, 0, 0.5, 0],
     lambda t: np.array([0.3 * np.sin(t) + 0.1, 0.02 * np.cos(2 * t)])),
])
def test_rk4_fourth_order_convergence(env, x0, u_fn):
    # the control signal is frozen on the coarsest grid and each hold
    # interval is subdivided on refinement, so the three runs integrate the
    # same piecewise-constant signal and the difference is integrator error
    t_final, base = 0.5, 8
    controls = [u_fn(k * t_final / base) for k in range(base)]
    sols = []
    for refine in (1, 2, 4):
        n = base * refine
        e = dataclasses.replace(env, dt=t_final / n)
        x = np.asarray(x0, float)
        for k in range(n):
            x = rk4_step(e, x, controls[k // refine], env.theta_true)
        sols.append(x)
    e1 = np.linalg.norm(sols[0] - sols[1])
    e2 = np.linalg.norm(sols[1] - sols[2])
    order = np.log2(e1 / e2)
    assert 3.5 <= order <= 4.5


def test_cartpole_energy_conservation_unforced():
    env = dataclasses.replace(make_cartpole(), dt=0.01)
    mp, l = 0.5, 0.75

    def energy(s):
        xd, om = s[2], s[3]
        kinetic = 0.5 * 1.0 * xd**2 + 0.5 * mp * (
            xd**2 + 2 * l * xd * om * np.cos(s[1]) + l**2 * om**2
        )
        potential = -mp * GRAVITY * l * np.cos(s[1])
        return kinetic + potential

    s = np.array([0.0, 2.0, 0.0, 0.0])
    e0 = energy(s)
    for _ in range(1000):
        s = rk4_step(env, s, np.array([0.0]), env.theta_true)
    scale = abs(e0) + 0.5 * GRAVITY * l
    assert abs(energy(s) - e0) / scale < 1e-3


def test_rk4_clamps_controls_to_actuator_limits():
    env = make_cartpole()
    a = rk4_step(env, np.zeros(4), np.array([1e9]), env.theta_true)
    b = rk4_step(env, np.zeros(4), env.control_upper, env.theta_true)
    assert np.allclose(a, b)


def test_factory_dimensions_and_bounds():
    cp = make_cartpole()
    assert (cp.state_dim, cp.control_dim, cp.param_dim) == (4, 1, 2)
    assert cp.dt == 0.02
    assert np.allclose(cp.theta_true, [0.5, 0.75])
    assert np.allclose(cp.theta_lower, [0.3, 0.3])
    assert np.allclose(cp.theta_upper, [1.0, 1.0])

    rk = make_rocket()
    assert (rk.state_dim, rk.control_dim, rk.param_dim) == (6, 2, 3)
    assert rk.dt == 0.015
    assert np.allclose(rk.theta_true, [0.1, 0.01, 0.7])
    assert np.allclose(rk.theta_lower, [0.05, 0.005, 0.05])
    assert np.allclose(rk.theta_upper, [5.0, 2.0, 1.0])

    rc = make_racecar()
    assert (rc.state_dim, rc.control_dim, rc.param_dim) == (5, 2, 2)
    assert rc.dt == 0.02
    assert np.allclose(rc.theta_true, [0.1, 0.01])
    assert np.allclose(rc.theta_lower, [0.05, 1e-5])
    assert np.allclose(rc.theta_upper, [0.3, 0.5])


def test_true_theta_inside_prior_box():
    for env in (make_cartpole(), make_rocket(), make_racecar()):
        assert np.all(env.theta_true >= env.theta_lower)
        assert np.all(env.theta_true <= env.theta_upper)


def test_horizon_steps_exact_multiples_only():
    assert horizon_steps(0.4, 0.02) == 20
    assert horizon_steps(0.15, 0.015) == 10
    with pytest.raises(ValueError):
        horizon_steps(0.15, 0.02)
    with pytest.raises(ValueError):
        horizon_steps(0.0, 0.02)
