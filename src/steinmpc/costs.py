"""Quadratic trajectory costs, terminal terms, and the objective weights.

The one definition of a trajectory's cost is ``rollout_cost_batch``, which
integrates a grid of candidate plans against a stack of parameter hypotheses
in one vectorized pass, with the same RK4 step the plant advances by.
``trajectory_cost`` reads a single entry of that grid, so a cost computed on
its own is the same float the planner saw inside a batch. The gap that
inference scores (``harness._gap_model``) is the chosen plan's cost under each
probe theta less its cost under the particle mean; the planner's rescore rolls
the probe out with the objective's thetas (``controllers.mppi_solve``), so
both are entries of the chosen plan's rescore row, the gap its tail.

Every entry of the (C, P) grid depends only on its own (plan, parameter) pair,
so a caller that has the grid never needs to roll a pair out again: the plan
objectives keep it as their ``cost_matrix`` and reduce it to one value per
plan. The reference states a cycle tracks depend only on the start state and
the horizon; ``CostSpec.references`` resolves them, and a caller that scores
several grids from one start state passes them as ``refs`` instead of having
each call resolve them again.

Inside a rollout every array is component-first, as the derivatives take
them (see ``dynamics``): the state is one (n, C, P) array, the parameters are
broadcast once per call to (p, C, P), and each step's controls are copied
into one reused (m, C, P) buffer, so every elementwise operation runs as one
contiguous loop with no broadcasting. Each step binds the derivative to that
buffer and theta once, ``f = env.derivative(u, theta)``, so the terms of
u and theta alone are computed once for RK4's four stages; ``f`` may hold
views of the buffer, which is refilled only after the step. The quadratic
forms and terminal terms read the same (k, ...) arrays.

A quadratic form e^T W e is a sum over W's nonzero entries only, listed once
per ``CostSpec`` in row-major order (``_quad_terms``); rocket's 6 x 6 ``Q``
has 12. Term (i, j) is (e_i * W_ij) * e_j, and the sum starts from the first
term and adds the rest one at a time, in order. That is the dense
``einsum("...i,ij,...j->...")`` bit for bit: in a PSD matrix the first
nonzero entry of the first nonzero row is on the diagonal, so the first term
is +0.0 or positive, as einsum's 0 + t_0 is, and the zero terms einsum also
adds change nothing after it. The terms are never summed by a numpy
reduction: over a single entry it adds 8 or more terms pairwise, not in
order, and moves the last bit. Where a coordinate diverges, einsum's 0 * inf
terms made the cost nan; the sum keeps one zero-weight term for each all-zero
row of W, so such a cost is still non-finite, though it may read inf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import EnvModel, _rk4

__all__ = [
    "CostSpec",
    "RobustObjectiveConfig",
    "InverseDisplacementReward",
    "UprightEnergyPenalty",
    "trajectory_cost",
    "rollout_cost_batch",
]


def _check_weight_matrix(m, dim: int, label: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{label} must have shape ({dim}, {dim}), got {m.shape}")
    if not np.allclose(m, m.T, atol=1e-10):
        raise ValueError(f"{label} must be symmetric")
    if np.min(np.linalg.eigvalsh(m)) < -1e-8:
        raise ValueError(f"{label} must be positive semidefinite")
    return m


class InverseDisplacementReward:
    """Terminal penalty that explodes when the system fails to move.

    Value is sum_i weights[i] / (|x_T[i] - x0[i]| + epsilon): a weighted
    elementwise inverse of the displacement accumulated over the horizon.
    Zero-weight coordinates are ignored. Used by the racing task to make
    parking on the centerline expensive.
    """

    def __init__(self, weights, epsilon: float = 1e-3):
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = epsilon

    def batch(self, x_terminal, theta, x0) -> np.ndarray:
        disp = np.abs(x_terminal - x0)
        weights = self.weights.reshape(self.weights.shape + (1,) * (disp.ndim - 1))
        return np.sum(weights / (disp + self.epsilon), axis=0)


class UprightEnergyPenalty:
    """Terminal penalty on the pendulum's distance from the upright energy level.

    For a point-mass pole (theta = [m_pole, l_pole]) with angle measured from
    the downward vertical, total energy about the pivot is
    E = 0.5 m l^2 w^2 - m g l cos(phi) and the upright rest level is
    E* = m g l. The penalty weight * (E - E*)^2 vanishes on the swing-up
    manifold, which removes the hanging local minimum that a short planning
    horizon cannot otherwise escape. Quadratic state costs take over near the
    top, where this term is flat.
    """

    def __init__(self, weight: float, gravity: float = 9.81):
        if not weight >= 0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        self.weight = float(weight)
        self.gravity = float(gravity)

    def batch(self, x_terminal, theta, x0) -> np.ndarray:
        phi = x_terminal[1]
        omega = x_terminal[3]
        m = theta[0]
        length = theta[1]
        kinetic = 0.5 * m * (length * omega) ** 2
        potential = -m * self.gravity * length * np.cos(phi)
        err = kinetic + potential - m * self.gravity * length
        return self.weight * err ** 2


@dataclass
class CostSpec:
    """Quadratic tracking costs plus an optional terminal reward term.

    Args:
        Q: stage state weight (n, n), symmetric PSD.
        R: stage control weight (m, m), symmetric PSD.
        Q_f: terminal state weight (n, n), symmetric PSD.
        x_des: goal state vector, or a reference generator exposing
            ``horizon_states(x0, steps, dt) -> (steps + 1, n)`` for tasks
            tracked against a path rather than a point.
        extra_terminal: optional terminal term whose
            ``batch(x_T, theta, x0)`` is added to the terminal cost. Its
            arguments are component-first: x_T (n, C, P) and theta (p, C, P)
            over the (plan, parameter) grid, and x0 (n, 1, 1); it returns the
            (C, P) grid of values.
    """

    Q: np.ndarray
    R: np.ndarray
    Q_f: np.ndarray
    x_des: object
    extra_terminal: object | None = None
    _q_terms: tuple = field(init=False, repr=False, compare=False)
    _r_terms: tuple = field(init=False, repr=False, compare=False)
    _q_f_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = np.asarray(self.Q, dtype=float).shape[0]
        m = np.asarray(self.R, dtype=float).shape[0]
        self.Q = _check_weight_matrix(self.Q, n, "Q")
        self.R = _check_weight_matrix(self.R, m, "R")
        self.Q_f = _check_weight_matrix(self.Q_f, n, "Q_f")
        self._q_terms = _quad_terms(self.Q)
        self._r_terms = _quad_terms(self.R)
        self._q_f_terms = _quad_terms(self.Q_f)
        if not hasattr(self.x_des, "horizon_states"):
            self.x_des = np.asarray(self.x_des, dtype=float)
            if self.x_des.shape != (n,):
                raise ValueError(
                    f"x_des must have shape ({n},), got {self.x_des.shape}"
                )

    @property
    def tracks_reference(self) -> bool:
        return hasattr(self.x_des, "horizon_states")

    def references(self, env: EnvModel, x0, steps: int) -> np.ndarray:
        """(steps + 1, n) reference states for one planning cycle from x0."""
        if self.tracks_reference:
            return np.asarray(self.x_des.horizon_states(np.asarray(x0, float), steps, env.dt))
        return np.broadcast_to(self.x_des, (steps + 1, self.x_des.size))


def _quad_terms(w: np.ndarray):
    """(rows, cols, weights) of the terms ``_quad`` sums, in row-major order.

    The terms are W's nonzero entries. An all-zero row i keeps one (i, i)
    term of weight +0.0, which adds exactly +0.0 while e_i is finite and nan
    once it is not: a diverged coordinate that no weight touches still makes
    the cost non-finite. Weights are a column, to broadcast over the batch.
    """
    keep = w != 0
    dead = np.flatnonzero(~keep.any(axis=1))
    keep[dead, dead] = True
    rows, cols = np.nonzero(keep)
    weights = w[rows, cols]
    weights[weights == 0] = 0.0
    return rows, cols, weights[:, None]


def _quad(e: np.ndarray, terms) -> np.ndarray:
    """e^T W e over the first axis of a (k, ...) e, from W's ``_quad_terms``.

    The terms (e_i * W_ij) * e_j are the rows of one (terms, entries) array;
    each row after the first is added to the first in turn (see the module
    docstring for why not with a reduction). Returns the (...) batch.
    """
    rows, cols, weights = terms
    flat = e.reshape(len(e), -1)
    t = flat[rows]
    t *= weights
    t *= flat[cols]
    acc = t[0]
    for row in t[1:]:
        acc += row
    return acc.reshape(e.shape[1:])


def rollout_cost_batch(spec: CostSpec, env: EnvModel, x0, plans, thetas, refs=None) -> np.ndarray:
    """Costs of every (plan, parameter) pair on a shared start state.

    Args:
        spec: cost specification.
        env: dynamics model; supplies the integrator step and bounds.
        x0: (n,) start state shared by all rollouts.
        plans: (C, H, m) stack of candidate plans (a single (H, m) plan is
            promoted to C = 1).
        thetas: (P, p) stack of parameter vectors (a single vector is
            promoted to P = 1).
        refs: (H + 1, n) reference states, as ``spec.references(env, x0, H)``
            returns them; resolved here when None.

    Returns:
        (C, P) array of total trajectory costs.
    """
    x0 = np.asarray(x0, dtype=float)
    plans = np.asarray(plans, dtype=float)
    if plans.ndim == 2:
        plans = plans[None]
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n_cand, steps, m = plans.shape
    grid = (n_cand, thetas.shape[0])

    if refs is None:
        refs = spec.references(env, x0, steps)
    refs = np.asarray(refs)[:, :, None, None]
    # Controls and their cost do not depend on the state: one pass for all
    # steps, over one contiguous component-first (m, H, C) copy of the plans,
    # clipped in place.
    controls = plans.transpose(2, 1, 0).copy()
    np.clip(controls, env.control_lower[:, None, None], env.control_upper[:, None, None],
            out=controls)
    control_cost = _quad(controls, spec._r_terms)
    theta = np.broadcast_to(thetas.T[:, None, :], thetas.shape[1:] + grid).copy()
    x = np.broadcast_to(x0[:, None, None], x0.shape + grid).copy()
    u = np.empty((m,) + grid)
    total = np.zeros(grid)
    dt = env.dt
    for t in range(steps):
        # The bound derivative may hold views of u, so u is refilled only
        # after the step that uses it.
        u[...] = controls[:, t, :, None]
        e = x - refs[t]
        total += _quad(e, spec._q_terms) + control_cost[t, :, None]
        x = _rk4(env.derivative(u, theta), dt, x)

    e = x - refs[steps]
    total += _quad(e, spec._q_f_terms)
    if spec.extra_terminal is not None:
        total += spec.extra_terminal.batch(x, theta, x0[:, None, None])
    return total


def trajectory_cost(spec: CostSpec, env: EnvModel, x0, plan, theta) -> float:
    """Total cost of rolling one plan out under one parameter hypothesis."""
    plan = np.asarray(plan, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return float(rollout_cost_batch(spec, env, x0, plan[None], theta[None])[0, 0])


@dataclass(frozen=True)
class RobustObjectiveConfig:
    """Weights for the ensemble and risk-averse plan objectives.

    Attributes:
        gamma: weight on the mean optimality gap in the robust objective.
        risk_lambda: temperature of the risk-averse objective; None defers
            to the harness, which calibrates it from the warm-start cost.
        risk_epsilon: ambiguity radius added by the risk-averse objective.
    """

    gamma: float = 0.5
    risk_lambda: float | None = None
    risk_epsilon: float = 0.1

    def __post_init__(self):
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.risk_lambda is not None and not self.risk_lambda > 0:
            raise ValueError(f"risk_lambda must be positive, got {self.risk_lambda}")
        if not self.risk_epsilon >= 0:
            raise ValueError(f"risk_epsilon must be nonnegative, got {self.risk_epsilon}")
