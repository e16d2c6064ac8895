"""Dynamics models, the RK4 integrator, and the environment factories."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steinmpc.dynamics import (
    ANGULAR_DRAG,
    CART_MASS,
    GRAVITY,
    LINEAR_DRAG,
    EnvModel,
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
    d = cartpole_derivative(np.array([0.0]), np.array([0.5, 0.75]))(
        np.array([0.0, np.pi / 2, 0.0, 0.0]))
    assert d[0] == 0.0 and d[1] == 0.0
    assert d[2] == pytest.approx(0.0, abs=1e-12)
    assert d[3] == pytest.approx(-GRAVITY / 0.75, abs=1e-10)


def test_cartpole_generic_state_accelerations():
    # frozen from an independent Euler-Lagrange derivation
    d = cartpole_derivative(np.array([3.0]), np.array([0.62, 0.48]))(
        np.array([0.3, 1.1, -0.4, 2.2]))
    assert d[2] == pytest.approx(4.51771613, abs=1e-7)
    assert d[3] == pytest.approx(-22.48325566, abs=1e-7)


def test_cartpole_hanging_rest_is_fixed_point():
    d = cartpole_derivative(np.zeros(1), np.array([0.5, 0.75]))(np.zeros(4))
    assert np.all(d == 0.0)


def test_rocket_hover_is_fixed_point():
    theta = np.array([0.1, 0.01, 0.7])
    d = rocket_derivative(np.array([0.1 * GRAVITY, 0.0]), theta)(np.zeros(6))
    assert np.abs(d).max() < 1e-12


def test_rocket_gimbal_torque():
    theta = np.array([0.1, 0.01, 0.7])
    d = rocket_derivative(np.array([1.0, np.pi / 6]), theta)(np.zeros(6))
    assert d[5] == pytest.approx(35.0, abs=1e-9)


def test_rocket_generic_state_derivative():
    # thrust acts along the gimbal axis measured in the body frame
    d = rocket_derivative(np.array([1.2, 0.2]), np.array([0.1, 0.01, 0.7]))(
        np.array([0.1, 0.4, 0.05, -0.2, 0.1, 0.3]))
    assert np.allclose(d[:3], [-0.2, 0.1, 0.3])
    assert d[3] == pytest.approx(1.2 * np.sin(0.15) / 0.1, abs=1e-9)
    assert d[4] == pytest.approx(1.2 * np.cos(0.15) / 0.1 - GRAVITY, abs=1e-9)
    assert d[5] == pytest.approx(1.2 * np.sin(0.2) * 0.7 / 0.01, abs=1e-9)


def test_racecar_generic_state_derivative():
    d = racecar_derivative(np.array([0.3, 0.02]), np.array([0.1, 0.01]))(
        np.array([0.5, -1.0, 0.7, 1.5, 0.4]))
    assert d[0] == pytest.approx(1.5 * np.cos(0.7), abs=1e-12)
    assert d[1] == pytest.approx(1.5 * np.sin(0.7), abs=1e-12)
    assert d[2] == 0.4
    assert d[3] == pytest.approx(0.3 / 0.1 - 0.1 * 1.5, abs=1e-12)
    assert d[4] == pytest.approx(0.02 / 0.01 - 0.1 * 0.4, abs=1e-12)


def test_racecar_steady_speed():
    # throttle balancing drag: throttle/m = drag * v
    d = racecar_derivative(np.array([0.02, 0.0]), np.array([0.1, 0.01]))(
        np.array([0.0, 0.0, 0.0, 2.0, 0.0]))
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
    out = deriv(u, theta)(x)
    assert out.shape == (n, 7, 3)
    for i in range(7):
        for j in range(3):
            alone = deriv(u[:, i, j], theta[:, i, j])(x[:, i, j])
            assert out[:, i, j].tobytes() == alone.tobytes()


# The three derivatives as one unbound function of (x, u, theta), each
# computing every term in every call: the reference the bound forms must
# match byte for byte.
def reference_cartpole(x, u, theta):
    angle, vel, rate = x[1], x[2], x[3]
    force, m_p, length = u[0], theta[0], theta[1]
    sin = np.sin(angle)
    cos = np.cos(angle)
    denom = CART_MASS + m_p * sin * sin
    acc = (force + m_p * sin * (length * rate * rate + GRAVITY * cos)) / denom
    ang_acc = -(acc * cos + GRAVITY * sin) / length
    out = np.empty(x.shape)
    out[0] = vel
    out[1] = rate
    out[2] = acc
    out[3] = ang_acc
    return out


def reference_rocket(x, u, theta):
    tilt, thrust, gimbal = x[2], u[0], u[1]
    mass, inertia, com = theta[0], theta[1], theta[2]
    thrust_angle = gimbal - tilt
    world_x = thrust * np.sin(thrust_angle)
    world_y = thrust * np.cos(thrust_angle)
    out = np.empty(x.shape)
    out[0] = x[3]
    out[1] = x[4]
    out[2] = x[5]
    out[3] = world_x / mass
    out[4] = world_y / mass - GRAVITY
    out[5] = thrust * np.sin(gimbal) * com / inertia
    return out


def reference_racecar(x, u, theta):
    heading, speed, yaw = x[2], x[3], x[4]
    throttle, steer, mass, inertia = u[0], u[1], theta[0], theta[1]
    out = np.empty(x.shape)
    out[0] = speed * np.cos(heading)
    out[1] = speed * np.sin(heading)
    out[2] = yaw
    out[3] = throttle / mass - LINEAR_DRAG * speed
    out[4] = steer / inertia - ANGULAR_DRAG * yaw
    return out


REFERENCES = {
    "cartpole": (make_cartpole(), reference_cartpole),
    "rocket": (make_rocket(), reference_rocket),
    "racecar": (make_racecar(), reference_racecar),
}


def _draw_in_box(data, lower, upper, batch):
    w = data.draw(arrays(float, lower.shape + batch, elements=st.floats(0.0, 1.0)))
    shape = lower.shape + (1,) * len(batch)
    return lower.reshape(shape) + (upper - lower).reshape(shape) * w


@given(name=st.sampled_from(sorted(REFERENCES)),
       batch=st.one_of(st.just(()), st.tuples(st.integers(1, 6), st.integers(1, 6))),
       data=st.data())
def test_bound_derivative_is_byte_equal_to_the_unbound_reference(name, batch, data):
    # batch () is the plant's (n,) vectors; (C, P) a rollout's grid
    env, reference = REFERENCES[name]
    x = data.draw(arrays(float, (env.state_dim,) + batch, elements=st.floats(-4.0, 4.0)))
    u = _draw_in_box(data, env.control_lower, env.control_upper, batch)
    theta = _draw_in_box(data, env.theta_lower, env.theta_upper, batch)
    before = [a.copy() for a in (x, u, theta)]

    f = env.derivative(u, theta)
    out = f(x)
    again = f(x)
    for a, b in zip((x, u, theta), before):
        assert a.tobytes() == b.tobytes()
    assert out.shape == x.shape and out.flags.writeable
    assert out.tobytes() == reference(x, u, theta).tobytes()
    assert again.tobytes() == out.tobytes()
    for a in (x, u, theta, again):
        assert not np.shares_memory(out, a)


def test_rk4_matches_quartic_taylor_on_linear_decay():
    def decay(u, theta):
        return lambda x: -x + 0.0 * u[:1] + 0.0 * theta[:1]

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


def test_env_model_validation():
    base = dict(name="env", state_dim=4, control_dim=1, param_dim=2, dt=0.02,
                control_lower=[-1.0], control_upper=[1.0], theta_true=[0.5, 0.5],
                theta_lower=[0.0, 0.0], theta_upper=[1.0, 1.0],
                derivative=cartpole_derivative)
    EnvModel(**base)
    rules = [
        ({"dt": 0.0}, "dt must be positive"),
        ({"control_upper": [1.0, 1.0]}, r"control_upper must have shape \(1,\), got \(2,\)"),
        ({"control_lower": [1.0]}, "control_lower must be strictly below"),
        ({"theta_true": [0.5]}, r"theta_true must have shape \(2,\), got \(1,\)"),
        ({"theta_upper": [1.0, 0.0]}, "theta_lower must be strictly below"),
        ({"theta_true": [0.5, 2.0]}, "theta_true must lie inside the box"),
    ]
    # NaN passes every box comparison, so each array is checked finite first
    for name, row in (("control_lower", [-1.0]), ("control_upper", [1.0]),
                      ("theta_true", [0.5, 0.5]), ("theta_lower", [0.0, 0.0]),
                      ("theta_upper", [1.0, 1.0])):
        for bad in (np.nan, np.inf, -np.inf):
            rules.append(({name: [bad] + row[1:]}, f"{name} must be real and finite"))
    for change, message in rules:
        with pytest.raises(ValueError, match=message):
            EnvModel(**{**base, **change})


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
