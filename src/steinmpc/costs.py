"""Quadratic trajectory costs and terminal terms.

The one definition of a trajectory's cost is ``rollout_cost_batch``, which
integrates a grid of candidate plans against a stack of parameter hypotheses
in one vectorized pass, with the same RK4 step the plant advances by; one
plan's cost under one theta is the grid's 1 x 1 entry. The gap that inference
scores is the chosen plan's cost under each probe theta less its cost under
the particle mean. The planner's rescore rolls the first SVGD step's probe
out with the objective's thetas (``controllers.mppi_solve``), so both are
entries of the chosen plan's rescore row, and the harness hands the row's
tail less its first entry to the Stein step as its gaps; a later step's probe
is rolled out by ``harness._gap_model`` as one row of the cycle's objective,
to the same floats.

Every entry of the (C, P) grid depends only on its own (plan, parameter) pair
and that plan's start state and reference states, so a caller that has the
grid never needs to roll a pair out again: the plan objectives keep it as
their ``cost_matrix`` and reduce it to one value per plan. A call's start
states are rows, each with its reference states: one row that every plan
shares, or one row per plan. Each entry is the bytes of its pair's rollout
from its plan's row in a call of that row alone; that is how a cycle's
rescore and the next cycle's planner grid share one call, two blocks of
``controllers.rollout_blocks``. For the same reason a rollout integrates each
distinct theta row once, rows compared by their bytes, and gathers the (C, P)
grid back through the inverse index: a collapsed particle set, whose rows
repeat, costs the rollout of its distinct rows only, with the same floats.
This holds bit for bit for every entry that is not NaN. A NaN entry is NaN
wherever its pair sits, but its sign bit depends on the numpy loop that made
it, so it can differ between the grid and the pair's 1 x 1 rollout; result
files print ``nan`` for either. The reference states a cycle tracks depend
only on the start state and the horizon; ``CostSpec.references`` resolves
them, and a caller that scores several grids from one start state passes
them as ``refs`` instead of having each call resolve them again.

Inside a rollout every array is component-first, as the derivatives take
them (see ``dynamics``): the R start rows are one (n, R, 1) array and their
references one contiguous (H + 1, n, R, 1) array, R = 1 broadcasting over
the C plans, the state is one (n, C, P) array, the parameters are
broadcast once per call to (p, C, P), and each step's controls are copied
into one reused (m, C, P) buffer, so every elementwise operation runs as one
contiguous loop with no broadcasting. Each step binds the derivative to that
buffer and theta once, ``f = env.derivative(u, theta)``, so the terms of
u and theta alone are computed once for RK4's four stages; ``f`` may hold
views of the buffer, which is refilled only after the step. The horizon
loop only integrates: each step writes its tracking error x - refs[t] into
slot t of one (n, H, C, P) ``errors`` array. No stage cost feeds back into
the dynamics, so after the loop one quadratic form scores every step at once,
the controls' costs are added in one op, and the H stage costs are added to
the total one step at a time, in step order, as a per-step sum would. The
terminal terms read the final (n, C, P) state. The rollout's one dtype is the
result type of x0 and thetas (float64 for integers), picked at the top of the
rollout: the states, parameters, reference states, errors and costs take it,
the controls stay float64, and every caller in this package passes float64.

A quadratic form e^T W e is a sum over W's nonzero entries only, listed once
per ``CostSpec`` in row-major order (``_quad_terms``); rocket's 6 x 6 ``Q``
has 12. Term (i, j) is (e_i * W_ij) * e_j, formed over the whole batch in one
reused buffer, and the sum starts from the first term and adds the rest one
at a time, in order, so no (terms x entries) array is ever built. Each entry
sees the same products and adds whatever the batch's shape. That is the dense
``einsum("...i,ij,...j->...")`` bit for bit: in a PSD matrix the first
nonzero entry of the first nonzero row is on the diagonal, so the first term
is +0.0 or positive, as einsum's 0 + t_0 is, and the zero terms einsum also
adds change nothing after it. The terms are never summed by a numpy
reduction: over a single entry it adds 8 or more terms pairwise, not in
order, and moves the last bit. Where a coordinate diverges, einsum's 0 * inf
terms made the cost nan; the sum keeps one zero-weight term for each all-zero
row of W, so such a cost is still non-finite, though it may read inf.

The package's one floating-point policy: an overflowing cost is data, not an
error. Some parameter hypotheses make a rollout blow up, so
``rollout_cost_batch``, ``inference.svgd_step`` and ``harness.run_trial``
(the whole of a trial: plant steps, planner weights and objective reductions
included) each run under ``np.errstate(all="ignore")``. Numpy's overflow,
invalid and divide events then reach a caller only as the inf and NaN values
they make, and each has one reader: ``controllers.mppi_solve`` drops a
candidate whose cost is not finite, ``inference.ScoreEvaluationError`` names a
non-finite gap or drift, and the harness ends the trial as "solver_failure"
or "inference_failure". The policy changes what numpy reports, never a float.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import GRAVITY, EnvModel, _check_ranges, _clip, _rk4, _rows

__all__ = [
    "CostSpec",
    "InverseDisplacementReward",
    "UprightEnergyPenalty",
    "rollout_cost_batch",
]


def _check_weight_matrix(m, dim: int, label: str) -> np.ndarray:
    """The weight ``m`` as a float array, once it is a finite symmetric PSD matrix.

    Symmetry is ``np.allclose(m, m.T, atol=1e-10)``'s rule: every entry has
    |w_ij - w_ji| <= 1e-10 + 1e-5 |w_ji|. Definiteness is decided on S, the
    matrix ``_quad`` actually sums: W's diagonal as given and w_ij/2 + w_ji/2
    off it. S passes when its smallest eigenvalue is at least -1e-8, that is
    when S + 1e-8 I is PSD, which a pivoted LDL^T of S + 1e-8 I decides. Each
    step takes the largest remaining diagonal entry as the pivot: a negative
    or NaN pivot rejects, and a zero pivot passes only if the rest of its
    column is zero. For a diagonal W this reads d_i + 1e-8 >= 0, which is
    d_i >= -1e-8 exactly. The test runs on Python floats, so no weight check
    calls LAPACK.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{label} must have shape ({dim}, {dim}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{label} must be finite")
    w = m.tolist()
    if any(abs(w[i][j] - w[j][i]) > 1e-10 + 1e-5 * abs(w[j][i])
           for i in range(dim) for j in range(dim)):
        raise ValueError(f"{label} must be symmetric")
    s = [[w[i][i] + 1e-8 if i == j else w[i][j] / 2 + w[j][i] / 2 for j in range(dim)]
         for i in range(dim)]
    rest = list(range(dim))
    while rest:
        k = max(rest, key=lambda i: s[i][i])
        rest.remove(k)
        pivot, column = s[k][k], [s[i][k] for i in rest]
        if pivot > 0:
            for a, i in enumerate(rest):
                ratio = column[a] / pivot
                for j, s_jk in zip(rest[a:], column[a:]):
                    s[i][j] = s[j][i] = s[i][j] - ratio * s_jk
        elif pivot != 0 or any(column):
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
        self.epsilon = epsilon
        _check_ranges(self, weights="nonnegative", epsilon="positive")

    def batch(self, x_terminal, theta, x0) -> np.ndarray:
        disp = np.abs(x_terminal - x0)
        weights = self.weights.astype(disp.dtype, copy=False).reshape(
            self.weights.shape + (1,) * (disp.ndim - 1))
        return np.add.reduce(weights / (disp + self.epsilon), axis=0)


class UprightEnergyPenalty:
    """Terminal penalty on the pendulum's distance from the upright energy level.

    For a point-mass pole (theta = [m_pole, l_pole]) with angle measured from
    the downward vertical, total energy about the pivot is
    E = 0.5 m l^2 w^2 - m g l cos(phi), g = ``dynamics.GRAVITY``, and the
    upright rest level is E* = m g l. The penalty weight * (E - E*)^2
    vanishes on the swing-up manifold, which removes the hanging local
    minimum that a short planning horizon cannot otherwise escape. Quadratic
    state costs take over near the top, where this term is flat.
    """

    def __init__(self, weight: float):
        self.weight = weight
        _check_ranges(self, weight="nonnegative")
        self.weight = float(weight)

    def batch(self, x_terminal, theta, x0) -> np.ndarray:
        phi = x_terminal[1]
        omega = x_terminal[3]
        m = theta[0]
        length = theta[1]
        kinetic = 0.5 * m * (length * omega) ** 2
        potential = -m * GRAVITY * length * np.cos(phi)
        err = kinetic + potential - m * GRAVITY * length
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
            over the (plan, parameter) grid, and x0 the (n, R, 1) start rows,
            R = 1 for a start state every plan shares and R = C for one per
            plan; it returns the (C, P) grid of values.
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
            _check_ranges(self, x_des=("shape", (n,)))
        # one weight per state coordinate: any other count broadcasts or fails mid-rollout
        if isinstance(self.extra_terminal, InverseDisplacementReward):
            _check_ranges(self.extra_terminal, weights=("shape", (n,)))

    @property
    def tracks_reference(self) -> bool:
        return hasattr(self.x_des, "horizon_states")

    def references(self, env: EnvModel, x0, steps: int) -> np.ndarray:
        """(steps + 1, n) reference states for one planning cycle from x0."""
        if self.tracks_reference:
            return np.asarray(self.x_des.horizon_states(np.asarray(x0, float), steps, env.dt))
        return np.broadcast_to(self.x_des, (steps + 1, self.x_des.size))


def _quad_terms(w: np.ndarray) -> tuple:
    """The (i, j, W_ij) terms ``_quad`` sums, in row-major order.

    The terms are W's nonzero entries. An all-zero row i keeps one (i, i)
    term of weight +0.0, which adds exactly +0.0 while e_i is finite and nan
    once it is not: a diverged coordinate that no weight touches still makes
    the cost non-finite.
    """
    keep = w != 0
    dead = np.flatnonzero(~keep.any(axis=1))
    keep[dead, dead] = True
    rows, cols = np.nonzero(keep)
    weights = w[rows, cols]
    weights[weights == 0] = 0.0
    return tuple(zip(rows.tolist(), cols.tolist(), weights.tolist()))


def _quad(e: np.ndarray, terms) -> np.ndarray:
    """e^T W e over the first axis of a (k, ...) e, from W's ``_quad_terms``.

    Each term (e_i * W_ij) * e_j is formed over the whole batch in one
    reused buffer and added to the running sum in order (see the module
    docstring for why not with a reduction). Returns the (...) batch.
    """
    (i, j, w), rest = terms[0], terms[1:]
    acc = e[i] * w
    acc *= e[j]
    term = np.empty_like(acc)
    for i, j, w in rest:
        np.multiply(e[i], w, out=term)
        term *= e[j]
        acc += term
    return acc


@np.errstate(all="ignore")
def rollout_cost_batch(spec: CostSpec, env: EnvModel, x0, plans, thetas, refs=None) -> np.ndarray:
    """Costs of every (plan, parameter) pair, from start rows: one shared or one per plan.

    Args:
        spec: cost specification.
        env: dynamics model; supplies the integrator step and bounds.
        x0: (R, n) start rows, R = 1 for a start state every plan shares
            (an (n,) state is that one row) or R = C for plan i's in row i.
        plans: (C, H, m) stack of candidate plans.
        thetas: (P, p) stack of parameter vectors (a single vector is
            promoted to P = 1).
        refs: each start row's (H + 1, n) reference states, as
            ``spec.references(env, row, H)`` returns them, stacked to
            (R, H + 1, n) (one row's may be given unstacked); resolved here
            when None.

    Returns:
        (C, P) array of total trajectory costs, in the rollout's dtype: the
        stage costs of steps 0..H-1, each its state's ``Q`` form plus its
        control's ``R`` form, added in step order, then the terminal ``Q_f``
        form and the extra terminal term. An entry that overflows reads inf
        or NaN, with no numpy warning (the floating-point policy above).
    """
    plans = np.asarray(plans, dtype=float)
    dtype = np.result_type(np.asarray(x0), np.asarray(thetas), 1.0)  # float64 for integers
    x0, thetas = _rows(x0, dtype), _rows(thetas, dtype)
    n_cand, steps, m = plans.shape
    inverse = None
    if thetas.shape[0] > 1:
        # Each row's bytes as one key: -0.0 and +0.0 stay apart, and NaN rows
        # compare by their bytes. A set tells whether any row repeats for less
        # time and memory than np.unique, which runs only when one does.
        keys = np.ascontiguousarray(thetas).view(np.dtype((np.void, thetas[0].nbytes)))[:, 0]
        if len(set(keys.tolist())) < keys.size:
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            thetas = thetas[first]
    grid = (n_cand, thetas.shape[0])

    # Component-first: the R start rows and their references as (n, R, 1) and
    # (H + 1, n, R, 1), R = 1 broadcasting over the grid's plans, the
    # references made contiguous once so that no step reads them strided
    # (no copy when they come as a transposed view of that layout, as
    # ``controllers.rollout_blocks`` passes them).
    if refs is None:
        refs = [spec.references(env, row, steps) for row in x0]
    start = x0.T[:, :, None]
    refs = np.asarray(refs, dtype).reshape(len(x0), steps + 1, x0.shape[1])
    refs = np.ascontiguousarray(refs.transpose(1, 2, 0))[..., None]
    # Controls and their cost do not depend on the state: one pass for all
    # steps, over one contiguous component-first (m, H, C) copy of the plans,
    # clipped in place.
    controls = plans.transpose(2, 1, 0).copy()
    _clip(controls, env.control_lower[:, None, None], env.control_upper[:, None, None],
          out=controls)
    control_cost = _quad(controls, spec._r_terms)
    theta = np.empty(thetas.shape[1:] + grid, dtype)
    theta[...] = thetas.T[:, None, :]
    x = np.empty(start.shape[:1] + grid, dtype)
    x[...] = start
    u = np.empty((m,) + grid)
    errors = np.empty((x.shape[0], steps) + grid, dtype)
    dt = env.dt
    for t in range(steps):
        # The bound derivative may hold views of u, so u is refilled only
        # after the step that uses it.
        u[...] = controls[:, t, :, None]
        np.subtract(x, refs[t], out=errors[:, t])
        x = _rk4(env.derivative(u, theta), dt, x)

    stage = _quad(errors, spec._q_terms)
    stage += control_cost[:, :, None]
    # Summed one step at a time: a reduction over a lone (plan, parameter)
    # pair adds 8 or more steps pairwise, not in step order.
    total = np.zeros(grid, dtype)
    for cost in stage:
        total += cost
    e = x - refs[steps]
    total += _quad(e, spec._q_f_terms)
    if spec.extra_terminal is not None:
        total += spec.extra_terminal.batch(x, theta, start)
    return total if inverse is None else total[:, inverse]

