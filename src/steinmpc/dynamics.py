"""Simulated benchmark environments and the fixed-step integrator.

A derivative is bound to a control and parameters before it sees a state:
``f = derivative(u, theta)`` takes control (m, ...) and parameters (p, ...)
arrays as given, computes every term that depends on them alone, and returns
``f(x)``, the time-derivative of a state (n, ...) with the same batch shape
``...`` and x's dtype (``costs.rollout_cost_batch`` alone picks a rollout's
dtype). RK4 holds u and theta fixed over a step: one binding, four stages.
All arrays are component-first: each coordinate ``x[k]`` is one contiguous
row over the batch, so every elementwise operation runs as a single
contiguous loop. That single convention is what lets the planner evaluate
hundreds of candidate plans against several parameter hypotheses in one
vectorized rollout; the plant's own (n,) state is the case with an empty
batch shape.

``f`` may hold views of u and theta, so a caller must not overwrite them
while it still calls ``f``.

The ``make_*`` factories take no arguments; a config sets ``dt`` and the
bounds with ``dataclasses.replace``, which runs ``EnvModel``'s checks again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

# np.clip's own ufunc, which np.clip reaches for float arrays and two bounds
# after two Python layers; the floats are the same, signed zeros included.
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

__all__ = [
    "EnvModel",
    "GRAVITY",
    "cartpole_derivative",
    "rocket_derivative",
    "racecar_derivative",
    "rk4_step",
    "make_cartpole",
    "make_rocket",
    "make_racecar",
    "horizon_steps",
]

GRAVITY = 9.81
CART_MASS = 1.0
LINEAR_DRAG = 0.1
ANGULAR_DRAG = 0.1


@dataclass(frozen=True)
class EnvModel:
    """A dynamics model plus everything a benchmark needs to know about it.

    Attributes:
        name: environment identifier.
        state_dim / control_dim / param_dim: vector dimensions.
        dt: integrator step, also the control period.
        control_lower / control_upper: per-channel actuator limits.
        theta_true: ground-truth latent parameters driving the plant.
        theta_lower / theta_upper: admissible parameter box (the prior).
        derivative: ``derivative(u, theta) -> f`` binds a control array u
            (m, ...) and a parameter array theta (p, ...), used as given, and
            returns the component-first time-derivative ``f(x)`` of a state
            x (n, ...) with the same batch shape. It reads u and theta without
            changing them, but ``f`` may hold views of them, so they must not
            be overwritten while ``f`` is in use. ``f`` returns a new writable
            (n, ...) array of x's dtype on every call, never one of its inputs
            or a view of them, because the integrator writes into it in place.
    """

    name: str
    state_dim: int
    control_dim: int
    param_dim: int
    dt: float
    control_lower: np.ndarray
    control_upper: np.ndarray
    theta_true: np.ndarray
    theta_lower: np.ndarray
    theta_upper: np.ndarray
    derivative: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]]

    def __post_init__(self):
        arrays = ("control_lower", "control_upper", "theta_true", "theta_lower", "theta_upper")
        for name in arrays:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        # NaN passes every comparison, so each array is real before any order or box
        _check_ranges(self, **dict.fromkeys(arrays, "real"), dt="positive")
        _check_ranges(self, **dict.fromkeys(arrays[:2], ("shape", (self.control_dim,))))
        _check_ranges(self, control_lower=("below", self.control_upper),
                      **dict.fromkeys(arrays[2:], ("shape", (self.param_dim,))))
        _check_ranges(self, theta_lower=("below", self.theta_upper),
                      theta_true=("inside", self.theta_lower, self.theta_upper))

    def clamp_control(self, u: np.ndarray) -> np.ndarray:
        return _clip(u, self.control_lower, self.control_upper)


def cartpole_derivative(u, theta):
    """Cart with a point-mass pole on a massless rod.

    State [cart position, pole angle, cart velocity, pole rate]; the angle is
    measured from the downward vertical, so hanging rest is all zeros and the
    upright goal sits at pi. Control is a horizontal force on the cart.
    Parameters are [pole mass, pole length]. No term depends on u and theta
    alone, so binding only reads their rows.
    """
    force = u[0]
    m_p = theta[0]
    length = theta[1]

    def f(x):
        angle = x[1]
        rate = x[3]
        sin = np.sin(angle)
        cos = np.cos(angle)
        out = np.empty(x.shape, x.dtype)
        out[0:2] = x[2:4]
        # acc = (force + m_p sin (length rate^2 + g cos)) / (M + m_p sin^2)
        acc = out[2, ...]
        np.multiply(length, rate, out=acc)
        acc *= rate
        acc += GRAVITY * cos
        lever = m_p * sin
        acc *= lever
        acc += force
        lever *= sin
        lever += CART_MASS
        acc /= lever
        # ang_acc = -(acc cos + g sin) / length
        ang_acc = out[3, ...]
        np.multiply(acc, cos, out=ang_acc)
        ang_acc += GRAVITY * sin
        np.negative(ang_acc, out=ang_acc)
        ang_acc /= length
        return out

    return f


def rocket_derivative(u, theta):
    """Planar rocket with gimbaled thrust applied at the base.

    State [x, y, tilt, vx, vy, tilt rate]; positive tilt is a counterclockwise
    lean away from the world vertical. Controls are [thrust magnitude, gimbal
    angle], the gimbal measured from the body axis. Parameters are
    [mass, rotational inertia, base-to-center-of-mass distance]. The thrust
    line misses the center of mass whenever the gimbal is deflected, producing
    the torque thrust * sin(gimbal) * com_offset, which binding computes once.
    """
    thrust = u[0]
    gimbal = u[1]
    mass = theta[0]
    torque = thrust * np.sin(gimbal) * theta[2] / theta[1]

    def f(x):
        out = np.empty(x.shape, x.dtype)
        out[0:3] = x[3:6]
        # Thrust in body frame is (sin g, cos g); rotate by the tilt to world
        # frame. The thrust angle is held in the torque row until last.
        thrust_angle = out[5, ...]
        np.subtract(gimbal, x[2], out=thrust_angle)
        world_x = out[3, ...]
        np.sin(thrust_angle, out=world_x)
        world_x *= thrust
        world_x /= mass
        world_y = out[4, ...]
        np.cos(thrust_angle, out=world_y)
        world_y *= thrust
        world_y /= mass
        world_y -= GRAVITY
        out[5] = torque
        return out

    return f


def racecar_derivative(u, theta):
    """Dynamic unicycle with linear drag.

    State [x, y, heading, speed, yaw rate]; controls [throttle force,
    steering torque]; parameters [mass, yaw inertia]. Drag coefficients are
    fixed properties of the car, not latent parameters. Binding computes the
    two accelerations the controls impart, throttle / mass and
    steer / inertia.
    """
    # [throttle / mass, steer / inertia] as one (2, ...) array
    accel = u[0:2] / theta[0:2]

    def f(x):
        heading = x[2]
        speed = x[3]
        yaw = x[4]
        out = np.empty(x.shape, x.dtype)
        vx = out[0, ...]
        np.cos(heading, out=vx)
        vx *= speed
        vy = out[1, ...]
        np.sin(heading, out=vy)
        vy *= speed
        out[2] = yaw
        # speed and yaw-rate derivatives: control accelerations less drag
        rates = out[3:5]
        np.multiply(LINEAR_DRAG, speed, out=out[3, ...])
        np.multiply(ANGULAR_DRAG, yaw, out=out[4, ...])
        np.subtract(accel, rates, out=rates)
        return out

    return f


def rk4_step(env: EnvModel, x, u, theta) -> np.ndarray:
    """Advance the state one control period with classical Runge-Kutta.

    The control is clamped to the actuator limits and held constant over the
    step, so the derivative is bound to it and theta once. Advances one
    state: x (n,), u (m,) and theta (p,), the plant's vectors. The planner's
    rollouts integrate their component-first (n, C, P) grids through
    ``_rk4`` directly, after clamping the plans and binding each step.
    """
    x = np.asarray(x, dtype=float)
    u = env.clamp_control(np.asarray(u, dtype=float))
    return _rk4(env.derivative(u, theta), env.dt, x)


def _rk4(f, dt: float, x) -> np.ndarray:
    """One classical Runge-Kutta step of x' = f(x), f bound to a held u and theta.

    The one integrator step: the plant (``rk4_step``) and the planner's
    rollouts (``costs.rollout_cost_batch``) both advance through it, each
    clamping the controls and binding ``f = env.derivative(u, theta)``
    first, so a prediction and the motion it predicts are the same floats.

    Each stage input is built in one reused buffer and the weighted sum in
    the second stage's derivative, which ``f`` returned as a new array. The
    ufuncs, operands and their order are those of
    ``x + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4)`` with stages
    ``x + (0.5 * dt) * k``; IEEE addition and multiplication commute exactly,
    so the result is bit-equal to that expression. ``x`` is left unchanged.
    """
    half = 0.5 * dt
    k1 = f(x)
    stage = np.multiply(k1, half)
    stage += x
    k2 = f(stage)
    np.multiply(k2, half, out=stage)
    stage += x
    k3 = f(stage)
    np.multiply(k3, dt, out=stage)
    stage += x
    k4 = f(stage)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += x
    return k2


def _rows(a, dtype) -> np.ndarray:
    """``a`` as a ``dtype`` array of rows, as ``np.atleast_2d`` gives it."""
    a = np.asarray(a, dtype)
    return a if a.ndim >= 2 else a.reshape(1, -1)


def _each(test):
    """``test`` of a number, or of each entry of a tuple or array read as floats."""
    arrays = (tuple, np.ndarray)
    return lambda v: test(np.asarray(v, float)).all() if isinstance(v, arrays) else test(v)


def _is_integer(n):
    try:
        return operator.index(n) is not None
    except TypeError:
        return False


def _has_shape(v, shape):
    return v.shape == shape or len(v.shape) == len(shape) and all(
        n >= 1 if isinstance(axis, str) else n == axis for n, axis in zip(v.shape, shape))


# kind: its checks in order, each (test of the value and arguments, message)
_INTEGER = (_is_integer, "be an integer, got {value}")
_RULES = {
    "real": [(_each(np.isfinite), "be real and finite, got {value}")],
    "nonnegative": [(_each(lambda v: (0 <= v) & (v < math.inf)),
                     "be nonnegative and finite, got {value}")],
    "positive": [(_each(lambda v: (0 < v) & (v < math.inf)),
                  "be positive and finite, got {value}")],
    "positive count": [_INTEGER, (lambda n: n >= 1, "be at least 1, got {value}")],
    "nonnegative count": [_INTEGER, (lambda n: n >= 0, "be nonnegative, got {value}")],
    "shape": [(_has_shape, "have shape {0}, got {value.shape}")],
    "below": [(lambda v, upper: (v < upper).all(), "be strictly below {0}, got {value}")],
    "inside": [(lambda v, lower, upper: not ((v < lower) | (v > upper)).any(),
                "lie inside the box from {0} to {1}, got {value}")],
    "one of": [(lambda v, choices: v in choices, "be one of {0}, got {value!r}")],
}


def _check_ranges(obj, **rules):
    """The value rule of every settings class: each named attribute of ``obj``
    keeps its rule, a ``_RULES`` kind or a (kind, *arguments) tuple, and the
    first that fails, in argument order, raises a ValueError that starts with
    its name, ``{name} must ...``. "real", "nonnegative" and "positive" ask a
    number, or each entry of a tuple or array, to be finite too; a count is an
    integer, as ``operator.index`` takes one; ("shape", shape) reads a tuple
    as its array and lets a named axis take any length of at least 1;
    ("below", upper) is strict; ("inside", lower, upper) is closed and NaN
    passes it, so "real" comes first; and ("one of", choices) asks for a
    member of the tuple ``choices``."""
    for name, rule in rules.items():
        value = getattr(obj, name)
        kind, args = (rule, ()) if isinstance(rule, str) else (rule[0], rule[1:])
        if kind == "shape":
            value = np.asarray(value)
        for test, message in _RULES[kind]:
            if not test(value, *args):
                raise ValueError(f"{name} must " + message.format(*args, value=value))


def horizon_steps(horizon_seconds: float, dt: float) -> int:
    """Number of integrator steps spanned by a planning horizon.

    The horizon must be a whole number of control periods, at least one;
    anything else silently changes the optimization problem, so it is rejected.
    """
    steps = horizon_seconds / dt
    if not np.isfinite(steps):
        raise ValueError(f"horizon_seconds {horizon_seconds} is too many steps of dt={dt} s "
                         "to count")
    if steps < 1 - 1e-9:
        raise ValueError(f"horizon_seconds must span at least one step of dt={dt} s, "
                         f"got {horizon_seconds}")
    rounded = round(steps)
    if abs(steps - rounded) > 1e-9:
        raise ValueError(f"horizon_seconds {horizon_seconds} is not an integer multiple "
                         f"of dt={dt} s")
    return int(rounded)


def make_cartpole() -> EnvModel:
    """Swing-up benchmark: true pole mass 0.5 kg, length 0.75 m.

    The default control period is 0.02 s; ``configs/cartpole.yaml`` keeps it,
    so its 0.4 s horizon is 20 planning steps.
    """
    return EnvModel(
        name="cartpole",
        state_dim=4,
        control_dim=1,
        param_dim=2,
        dt=0.02,
        control_lower=[-10.0],
        control_upper=[10.0],
        theta_true=[0.5, 0.75],
        theta_lower=[0.3, 0.3],
        theta_upper=[1.0, 1.0],
        derivative=cartpole_derivative,
    )


def make_rocket() -> EnvModel:
    """Landing benchmark: true mass 0.1, inertia 0.01, COM offset 0.7."""
    return EnvModel(
        name="rocket2d",
        state_dim=6,
        control_dim=2,
        param_dim=3,
        dt=0.015,
        control_lower=[0.0, -0.5],
        control_upper=[5.0, 0.5],
        theta_true=[0.1, 0.01, 0.7],
        theta_lower=[0.05, 0.005, 0.05],
        theta_upper=[5.0, 2.0, 1.0],
        derivative=rocket_derivative,
    )


def make_racecar() -> EnvModel:
    """Lap benchmark: true mass 0.1, yaw inertia 0.01.

    The default control period is 0.02 s. ``configs/racing.yaml`` overrides
    it to 0.015 s so that its 0.15 s horizon is 10 planning steps; a 0.15 s
    horizon at the default period is rejected by ``horizon_steps``.
    """
    return EnvModel(
        name="racecar",
        state_dim=5,
        control_dim=2,
        param_dim=2,
        dt=0.02,
        control_lower=[-0.2, -0.05],
        control_upper=[0.5, 0.05],
        theta_true=[0.1, 0.01],
        theta_lower=[0.05, 1e-5],
        theta_upper=[0.3, 0.5],
        derivative=racecar_derivative,
    )
