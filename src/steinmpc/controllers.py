"""Sampling-based planner and the four controller variants built on it.

One inner solver serves every variant; variants differ only in the scalar
objective a candidate plan is scored with:

* stein_adaptive: gap-weighted robust objective around the live particle mean.
* emppi: ensemble average over particles frozen at the initial draw.
* dro: soft worst case over frozen particles, lambda * log mean exp(cost / lambda)
  plus lambda * epsilon, the dual of a KL-ball worst case.
* nominal: plain cost under one fixed parameter vector.

Each cycle's planner grid only ranks and weights candidates; the rescore of
the two plans that can be chosen decides, reports the cost and carries the probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .costs import CostSpec, rollout_cost_batch
from .dynamics import EnvModel, _check_ranges, _clip
from .inference import particle_mean

__all__ = [
    "MppiConfig",
    "ControllerSpec",
    "SolverFailureError",
    "VARIANTS",
    "mppi_solve",
    "rollout_blocks",
    "shift_warm_start",
    "build_objective",
    "nominal_parameters",
]

VARIANTS = ("stein_adaptive", "emppi", "dro", "nominal")


class SolverFailureError(RuntimeError):
    """Raised when no candidate plan has a finite objective value."""


@dataclass(frozen=True)
class MppiConfig:
    """Settings for the path-integral inner solver.

    Attributes:
        samples: number of evaluated candidates, including the warm start
            injected at index 0. samples = 1 evaluates the warm plan alone.
        temperature: softness of the exponential weighting over costs,
            positive and finite.
        noise_fraction: per-channel Gaussian perturbation scale expressed as
            a fraction of the control range (scalar or one value per channel),
            each nonnegative and finite; a number is kept as a float and a
            list as a tuple.
    """

    samples: int = 512
    temperature: float = 1.0
    noise_fraction: float | tuple = 0.1

    def __post_init__(self):
        noise = self.noise_fraction
        if not isinstance(noise, (tuple, np.ndarray)):
            noise = tuple(noise) if isinstance(noise, list) else float(noise)
            object.__setattr__(self, "noise_fraction", noise)
        _check_ranges(self, samples="positive count", temperature="positive",
                      noise_fraction="nonnegative")


@lru_cache(maxsize=16)
def _draw_rows(lower: bytes, upper: bytes, fraction: bytes, fraction_shape: tuple, horizon: int):
    """The (H * m,) noise-scale, lower and upper rows ``_candidates`` scales and
    clips its draws with, each per-channel vector tiled over the horizon.

    A trial's rows are the same from cycle to cycle, so they are built once
    and kept by the bytes they are made of, read-only, a few at a time.
    """
    lo, hi = np.frombuffer(lower), np.frombuffer(upper)
    scale = np.frombuffer(fraction).reshape(fraction_shape)
    rows = np.tile(scale * (hi - lo), horizon), np.tile(lo, horizon), np.tile(hi, horizon)
    for row in rows:
        row.setflags(write=False)
    return rows


def _candidates(env: EnvModel, warm: np.ndarray, config: MppiConfig,
                rng: np.random.Generator) -> np.ndarray:
    """A cycle's (samples, H, m) candidates: the clamped warm plan, then
    samples - 1 Gaussian perturbations of it drawn from ``rng``, all clamped
    to the actuator box."""
    warm = np.asarray(warm, dtype=float)
    # Scale and clip on (samples, H * m) rows with each per-channel vector
    # tiled over the horizon, so no inner loop runs over the m channels alone.
    fraction = np.asarray(config.noise_fraction, dtype=float)
    std, lo, hi = _draw_rows(env.control_lower.tobytes(), env.control_upper.tobytes(),
                             fraction.tobytes(), fraction.shape, warm.shape[0])
    noise = rng.normal(size=(config.samples - 1, warm.size))
    noise *= std
    candidates = np.empty((config.samples,) + warm.shape)
    flat = candidates.reshape(config.samples, -1)
    flat[0] = warm.reshape(-1)
    np.add(warm.reshape(-1), noise, out=flat[1:])
    _clip(flat, lo, hi, out=flat)
    return candidates


def mppi_solve(
    env: EnvModel,
    warm: np.ndarray,
    objective,
    config: MppiConfig,
    rng: np.random.Generator,
    probe=(),
    grid: tuple | None = None,
    lookahead: tuple | None = None,
) -> tuple[np.ndarray, float, np.ndarray, tuple | None]:
    """Improve a warm-start plan by weighted averaging of sampled candidates.

    Candidates are the clamped warm plan plus samples - 1 Gaussian
    perturbations of it, all clamped to the actuator box. Their planner grid
    only ranks and weights them: it names the best candidate, and weights are
    exp(-(cost - best cost) / temperature), non-finite costs dropped. A
    ``grid``, the (candidates, cost matrix) pair a previous call returned as
    ``ahead``, takes the place of drawing and rolling out the candidates;
    ``warm`` and ``rng`` are then not read.

    The rescore decides: it rolls out the averaged plan and the best
    candidate in one grid against the objective's P thetas, then the (B, p)
    ``probe`` thetas (B = 0 by default), and reduces both rows' first P
    columns. The average is only returned if it scores at least as well as
    the best candidate's rescore; otherwise the best candidate is, which
    makes the solver monotone against the warm plan by construction. A
    non-finite probe cost never fails the solve or changes the plan.

    A ``lookahead`` ``(reach, next_rng)`` also rolls out the next cycle's
    planner grid in the rescore, for objectives whose thetas stay put from
    cycle to cycle. ``reach(best)`` is the state the plant reaches under the
    best candidate; the next cycle's objective is ``objective.at`` that
    state, and its candidates are drawn from ``shift_warm_start(best)`` with
    ``next_rng``, the next cycle's own generator, exactly as that cycle
    would draw them. The rescore is then the first of two ``rollout_blocks``
    blocks and the next cycle's grid the second. A reached state that is not
    finite rolls nothing ahead.

    Returns:
        ``(plan, cost, theta_costs, ahead)``: the chosen (H, m) plan, its
        objective value and its (P + B,) row of costs, the objective's P
        thetas first and then the probe's B. All come from the rescored row
        that chose the plan, so scoring the plan again gives the same floats.
        ``ahead`` is the next cycle's ``(objective, (candidates, matrix))``
        when the chosen plan has the best candidate's bytes and a lookahead
        rolled it out, else None.

    Raises:
        SolverFailureError: if every candidate cost is non-finite.
    """
    if grid is None:
        candidates = _candidates(env, warm, config, rng)
        matrix = objective.cost_matrix(candidates)
    else:
        candidates, matrix = grid
    costs = np.asarray(objective.reduce(matrix), dtype=float)
    finite = np.isfinite(costs)
    if not finite.all():
        if not finite.any():
            raise SolverFailureError("no candidate plan produced a finite objective value")
        costs = np.where(finite, costs, np.inf)
    best = int(costs.argmin())

    # A non-finite cost is inf by now, so its weight is exactly exp(-inf) = 0.
    weights = np.exp(-(costs - costs[best]) / config.temperature)
    weights /= weights.sum()
    averaged = np.einsum("k,k...->...", weights, candidates)
    _clip(averaged, env.control_lower, env.control_upper, out=averaged)

    plans = np.array([averaged, candidates[best]])
    following = None
    if lookahead is not None:
        reach, next_rng = lookahead
        reached = reach(plans[1])
        if np.isfinite(reached).all():
            following = objective.at(reached)
    if following is None:
        rows = objective.cost_matrix(plans, probe)
    else:
        drawn = _candidates(env, shift_warm_start(plans[1]), config, next_rng)
        rows, next_rows = rollout_blocks([(objective, plans, probe), (following, drawn, probe)])
    rescored = objective.reduce(rows[:, :matrix.shape[1]])
    i = 0 if np.isfinite(rescored[0]) and rescored[0] <= rescored[1] else 1
    ahead = None
    if following is not None and plans[i].tobytes() == plans[1].tobytes():
        ahead = following, (drawn, next_rows[:, :matrix.shape[1]])
    return plans[i], float(rescored[i]), rows[i], ahead


def shift_warm_start(plan: np.ndarray) -> np.ndarray:
    """Receding-horizon shift: drop the executed first control, repeat the last."""
    plan = np.asarray(plan, dtype=float)
    if plan.ndim != 2 or plan.shape[0] < 1:
        raise ValueError(f"plan must be a (H, m) array with H >= 1, got shape {plan.shape}")
    return np.concatenate([plan[1:], plan[-1:]], axis=0)


@dataclass(frozen=True)
class ControllerSpec:
    """Which variant plans, and with what objective weights.

    Attributes:
        variant: one of ``VARIANTS``.
        gamma: weight on the mean optimality gap in the stein_adaptive
            objective (emppi weights it 1).
        risk_lambda: temperature of the dro objective; None defers to the
            harness, which calibrates it from the warm-start cost.
        risk_epsilon: ambiguity radius the dro objective adds; with λ fixed it
            adds λε to every row alike: the logged cost moves, the plan only by rounding.
        nominal_theta: the parameters the nominal variant plans under, and
            under which the harness rolls out the dro variant's warm start
            to calibrate an unset risk_lambda (``nominal_parameters``); None
            means the midpoint of the parameter box.
    """

    variant: str = "stein_adaptive"
    gamma: float = 0.5
    risk_lambda: float | None = None
    risk_epsilon: float = 0.1
    nominal_theta: np.ndarray | None = None

    def __post_init__(self):
        _check_ranges(self, variant=("one of", VARIANTS))
        # an unset risk_lambda is the harness's to calibrate
        lam = {} if self.risk_lambda is None else {"risk_lambda": "positive"}
        theta = {}
        if self.nominal_theta is not None:
            object.__setattr__(self, "nominal_theta", np.asarray(self.nominal_theta, dtype=float))
            theta = {"nominal_theta": "real"}
        _check_ranges(self, gamma="nonnegative", **lam, risk_epsilon="nonnegative", **theta)


def nominal_parameters(controller: ControllerSpec, env: EnvModel) -> np.ndarray:
    if controller.nominal_theta is not None:
        return controller.nominal_theta
    return 0.5 * (env.theta_lower + env.theta_upper)


class PlanObjective:
    """A plan objective: a per-parameter cost grid and its reduction.

    ``cost_matrix`` rolls a (C, H, m) plan stack out against the objective's
    (P, p) parameter stack ``thetas``, followed by an optional (B, p)
    ``probe`` stack, and returns the (C, P + B) cost grid, the one-block case
    of ``rollout_blocks``; ``reduce`` turns a (C, P) grid into the (C,)
    objective values. The (H + 1, n) reference states are resolved once, on
    the first call that needs them, and kept in ``refs`` for later calls with
    the same horizon; ``at`` gives the same objective from another start
    state, whose references are resolved again.

    The variants differ only in ``thetas`` and ``reduce``, and
    ``build_objective`` is the one place that chooses them.
    """

    def __init__(self, spec: CostSpec, env: EnvModel, x0, thetas: np.ndarray, reduce):
        self.spec = spec
        self.env = env
        self.x0 = np.asarray(x0, dtype=float)
        self.thetas = thetas
        self.reduce = reduce
        self.refs = None

    def at(self, x0) -> PlanObjective:
        return PlanObjective(self.spec, self.env, x0, self.thetas, self.reduce)

    def references(self, steps: int) -> np.ndarray:
        if self.refs is None or len(self.refs) != steps + 1:
            self.refs = self.spec.references(self.env, self.x0, steps)
        return self.refs

    def cost_matrix(self, plans, probe=()) -> np.ndarray:
        return rollout_blocks([(self, plans, probe)])[0]


def rollout_blocks(blocks) -> list:
    """Each ``(objective, plans, probe)`` block's ``cost_matrix``, from one
    ``rollout_cost_batch`` call: each block's start state and references are
    one row, repeated per plan when there are two or more blocks, and the
    blocks must share a spec, env, horizon and theta bytes (thetas, then
    probe), else ``ValueError``."""
    objectives, plans, probes = zip(*blocks)
    first, steps = objectives[0], np.shape(plans[0])[-2]
    probe = np.asarray(probes[0], dtype=float).reshape(-1, first.thetas.shape[1])
    thetas = np.concatenate([first.thetas, probe])
    if any(o.spec is not first.spec or o.env is not first.env or np.shape(p)[-2] != steps
           or o.thetas.tobytes() + np.asarray(b, float).tobytes() != thetas.tobytes()
           for o, p, b in zip(objectives, plans, probes)):
        raise ValueError("blocks must share a spec, env, horizon and theta bytes")
    counts = [len(p) for p in plans]
    x0 = np.array([o.x0 for o in objectives])
    refs = np.array([o.references(steps) for o in objectives])
    if len(blocks) > 1:
        # repeated in the component-first (H + 1, n, rows) order the rollout
        # reads them in, so that it makes no copy of its own
        x0 = x0.repeat(counts, axis=0)
        refs = refs.transpose(1, 2, 0).repeat(counts, axis=2).transpose(2, 0, 1)
    grid = rollout_cost_batch(first.spec, first.env, x0, np.concatenate(plans), thetas, refs=refs)
    return [grid[sum(counts[:i]):sum(counts[:i + 1])] for i in range(len(counts))]


def _robust(matrix: np.ndarray, gamma: float) -> np.ndarray:
    """cost(theta_bar) + gamma * mean gap, with theta_bar in column 0."""
    return matrix[:, 0] + gamma * (matrix[:, 1:] - matrix[:, :1]).mean(axis=1)


def _risk_averse(matrix: np.ndarray, lam: float, epsilon: float) -> np.ndarray:
    """lambda * epsilon + lambda * log mean exp(cost_i / lambda).

    The log-sum-exp is numpy's ``logaddexp`` reduction along each row, which
    stays finite where exp(cost / lambda) overflows and whose bits do not
    depend on the SIMD kernels numpy dispatches.
    """
    lse = np.logaddexp.reduce(matrix / lam, axis=1) - np.log(matrix.shape[1])
    return lam * epsilon + lam * lse


def _nominal(matrix: np.ndarray) -> np.ndarray:
    """Plain trajectory cost under the one parameter vector."""
    return matrix[:, 0]


def build_objective(
    controller: ControllerSpec, spec: CostSpec, env: EnvModel, x0, particles: np.ndarray
) -> PlanObjective:
    """Construct the plan objective a variant scores candidates with.

    ``particles`` is the (n, p) particle array. stein_adaptive and emppi
    score against the particle mean (``inference.particle_mean``) followed by
    the particles, so a plan's row starts with its cost under the current
    point estimate. dro scores against the particles and nominal against
    ``nominal_parameters`` alone.
    """
    mat = np.atleast_2d(np.asarray(particles, dtype=float))
    if controller.variant in ("stein_adaptive", "emppi"):
        gamma = controller.gamma if controller.variant == "stein_adaptive" else 1.0
        thetas, reduce = np.vstack([particle_mean(mat)[None], mat]), partial(_robust, gamma=gamma)
    elif controller.variant == "dro":
        if controller.risk_lambda is None:
            raise ValueError("risk_lambda must be calibrated before building the dro objective")
        thetas = mat
        reduce = partial(_risk_averse, lam=controller.risk_lambda,
                         epsilon=controller.risk_epsilon)
    else:
        thetas, reduce = nominal_parameters(controller, env)[None], _nominal
    return PlanObjective(spec, env, x0, thetas, reduce)
