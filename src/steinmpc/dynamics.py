"""Simulated benchmark environments and the fixed-step integrator.

All derivative functions broadcast over arbitrary leading batch dimensions:
state (..., n), control (..., m), and parameters (..., p) produce (..., n).
That single convention is what lets the planner evaluate hundreds of candidate
plans against several parameter hypotheses in one vectorized rollout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
        derivative: broadcasting time-derivative f(x, u, theta).
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
    derivative: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        for name in (
            "control_lower",
            "control_upper",
            "theta_true",
            "theta_lower",
            "theta_upper",
        ):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.control_lower.shape != (self.control_dim,) or self.control_upper.shape != (
            self.control_dim,
        ):
            raise ValueError("control bounds must match control_dim")
        if np.any(self.control_lower >= self.control_upper):
            raise ValueError("control lower bounds must be strictly below upper bounds")
        for name in ("theta_true", "theta_lower", "theta_upper"):
            if getattr(self, name).shape != (self.param_dim,):
                raise ValueError(f"{name} must match param_dim")
        if np.any(self.theta_lower >= self.theta_upper):
            raise ValueError("parameter box must have positive volume")
        if np.any(self.theta_true < self.theta_lower) or np.any(
            self.theta_true > self.theta_upper
        ):
            raise ValueError("theta_true must lie inside the parameter box")

    def clamp_control(self, u: np.ndarray) -> np.ndarray:
        return np.clip(u, self.control_lower, self.control_upper)


def cartpole_derivative(x, u, theta):
    """Cart with a point-mass pole on a massless rod.

    State [cart position, pole angle, cart velocity, pole rate]; the angle is
    measured from the downward vertical, so hanging rest is all zeros and the
    upright goal sits at pi. Control is a horizontal force on the cart.
    Parameters are [pole mass, pole length].
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    angle = x[..., 1]
    vel = x[..., 2]
    rate = x[..., 3]
    force = u[..., 0]
    m_p = theta[..., 0]
    length = theta[..., 1]

    sin = np.sin(angle)
    cos = np.cos(angle)
    denom = CART_MASS + m_p * sin * sin
    acc = (force + m_p * sin * (length * rate * rate + GRAVITY * cos)) / denom
    ang_acc = -(acc * cos + GRAVITY * sin) / length

    out = np.empty(np.broadcast(angle, force, m_p).shape + (4,))
    out[..., 0] = vel
    out[..., 1] = rate
    out[..., 2] = acc
    out[..., 3] = ang_acc
    return out


def rocket_derivative(x, u, theta):
    """Planar rocket with gimbaled thrust applied at the base.

    State [x, y, tilt, vx, vy, tilt rate]; positive tilt is a counterclockwise
    lean away from the world vertical. Controls are [thrust magnitude, gimbal
    angle], the gimbal measured from the body axis. Parameters are
    [mass, rotational inertia, base-to-center-of-mass distance]. The thrust
    line misses the center of mass whenever the gimbal is deflected, producing
    the torque thrust * sin(gimbal) * com_offset.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    tilt = x[..., 2]
    thrust = u[..., 0]
    gimbal = u[..., 1]
    mass = theta[..., 0]
    inertia = theta[..., 1]
    com = theta[..., 2]

    # Thrust in body frame is (sin g, cos g); rotate by the tilt to world frame.
    world_x = thrust * np.sin(gimbal - tilt)
    world_y = thrust * np.cos(gimbal - tilt)

    out = np.empty(np.broadcast(tilt, thrust, mass).shape + (6,))
    out[..., 0] = x[..., 3]
    out[..., 1] = x[..., 4]
    out[..., 2] = x[..., 5]
    out[..., 3] = world_x / mass
    out[..., 4] = world_y / mass - GRAVITY
    out[..., 5] = thrust * np.sin(gimbal) * com / inertia
    return out


def racecar_derivative(x, u, theta):
    """Dynamic unicycle with linear drag.

    State [x, y, heading, speed, yaw rate]; controls [throttle force,
    steering torque]; parameters [mass, yaw inertia]. Drag coefficients are
    fixed properties of the car, not latent parameters.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    heading = x[..., 2]
    speed = x[..., 3]
    yaw = x[..., 4]
    throttle = u[..., 0]
    steer = u[..., 1]
    mass = theta[..., 0]
    inertia = theta[..., 1]

    out = np.empty(np.broadcast(heading, throttle, mass).shape + (5,))
    out[..., 0] = speed * np.cos(heading)
    out[..., 1] = speed * np.sin(heading)
    out[..., 2] = yaw
    out[..., 3] = throttle / mass - LINEAR_DRAG * speed
    out[..., 4] = steer / inertia - ANGULAR_DRAG * yaw
    return out


def rk4_step(env: EnvModel, x, u, theta) -> np.ndarray:
    """Advance the state one control period with classical Runge-Kutta.

    The control is clamped to the actuator limits and held constant over the
    step. Broadcasts over leading batch dimensions exactly like the
    derivative functions.
    """
    x = np.asarray(x, dtype=float)
    u = env.clamp_control(np.asarray(u, dtype=float))
    theta = np.asarray(theta, dtype=float)
    return _rk4(env.derivative, env.dt, x, u, theta)


def _rk4(f, dt: float, x, u, theta) -> np.ndarray:
    """One classical Runge-Kutta step of x' = f(x, u, theta), u held constant.

    The one integrator step: the plant (``rk4_step``) and the planner's
    rollouts (``costs.rollout_cost_batch``) both advance through it, each
    clamping the controls first, so a prediction and the motion it predicts
    are the same floats.
    """
    k1 = f(x, u, theta)
    k2 = f(x + 0.5 * dt * k1, u, theta)
    k3 = f(x + 0.5 * dt * k2, u, theta)
    k4 = f(x + dt * k3, u, theta)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def horizon_steps(horizon_seconds: float, dt: float) -> int:
    """Number of integrator steps spanned by a planning horizon.

    The horizon must be an exact multiple of the control period; anything
    else silently changes the optimization problem, so it is rejected.
    """
    steps = horizon_seconds / dt
    rounded = round(steps)
    if rounded < 1 or abs(steps - rounded) > 1e-9:
        raise ValueError(
            f"horizon {horizon_seconds} s is not an integer multiple of dt={dt} s"
        )
    return int(rounded)


def make_cartpole(dt: float = 0.02) -> EnvModel:
    """Swing-up benchmark: true pole mass 0.5 kg, length 0.75 m.

    The default control period is 0.02 s; ``configs/cartpole.yaml`` keeps it,
    so its 0.4 s horizon is 20 planning steps.
    """
    return EnvModel(
        name="cartpole",
        state_dim=4,
        control_dim=1,
        param_dim=2,
        dt=dt,
        control_lower=[-10.0],
        control_upper=[10.0],
        theta_true=[0.5, 0.75],
        theta_lower=[0.3, 0.3],
        theta_upper=[1.0, 1.0],
        derivative=cartpole_derivative,
    )


def make_rocket(dt: float = 0.015) -> EnvModel:
    """Landing benchmark: true mass 0.1, inertia 0.01, COM offset 0.7."""
    return EnvModel(
        name="rocket2d",
        state_dim=6,
        control_dim=2,
        param_dim=3,
        dt=dt,
        control_lower=[0.0, -0.5],
        control_upper=[5.0, 0.5],
        theta_true=[0.1, 0.01, 0.7],
        theta_lower=[0.05, 0.005, 0.05],
        theta_upper=[5.0, 2.0, 1.0],
        derivative=rocket_derivative,
    )


def make_racecar(dt: float = 0.02) -> EnvModel:
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
        dt=dt,
        control_lower=[-0.2, -0.05],
        control_upper=[0.5, 0.05],
        theta_true=[0.1, 0.01],
        theta_lower=[0.05, 1e-5],
        theta_upper=[0.3, 0.5],
        derivative=racecar_derivative,
    )
