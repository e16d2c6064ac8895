"""Sampling-based planner and the four controller variants built on it.

One inner solver serves every variant; variants differ only in the scalar
objective a candidate plan is scored with:

* stein_adaptive: gap-weighted robust objective around the live particle mean.
* emppi: ensemble average over particles frozen at the initial draw.
* dro: soft worst case over frozen particles.
* nominal: plain cost under one fixed parameter vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostSpec, RobustObjectiveConfig, rollout_cost_batch
from .dynamics import EnvModel
from .inference import ParticleSet

__all__ = [
    "MppiConfig",
    "ControllerSpec",
    "SolverFailureError",
    "VARIANTS",
    "mppi_solve",
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
        temperature: softness of the exponential weighting over costs.
        noise_fraction: per-channel Gaussian perturbation scale expressed as
            a fraction of the control range (scalar or one value per channel).
    """

    samples: int = 512
    temperature: float = 1.0
    noise_fraction: float | tuple = 0.1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if np.any(np.asarray(self.noise_fraction, dtype=float) < 0):
            raise ValueError("noise_fraction must be nonnegative")


def mppi_solve(
    env: EnvModel,
    x0,
    warm: np.ndarray,
    objective,
    config: MppiConfig,
    rng: np.random.Generator,
    probe=(),
) -> tuple[np.ndarray, float, np.ndarray]:
    """Improve a warm-start plan by weighted averaging of sampled candidates.

    Candidates are the clamped warm plan plus samples - 1 Gaussian
    perturbations of it, all clamped to the actuator box. Weights are
    exp(-(cost - best cost) / temperature), with non-finite costs dropped.
    The weighted average is only returned if it scores at least as well as
    the best candidate; otherwise the best candidate is, which makes the
    solver monotone against the warm plan by construction.

    The rescore rolls out both plans that can be chosen, the averaged plan
    and the best candidate, in one grid against the objective's P thetas
    followed by the (B, p) ``probe`` thetas (B = 0 by default).
    Only the first P columns decide which plan is chosen, so a non-finite
    probe cost never fails the solve or changes the plan.

    Returns:
        ``(plan, cost, theta_costs)``: the chosen (H, m) plan, its objective
        value and its (P + B,) row of costs, the objective's P thetas first
        and then the probe's B. All come from the rollouts that chose the
        plan, so scoring the plan again would give the same floats.

    Raises:
        SolverFailureError: if every candidate cost is non-finite.
    """
    warm = np.asarray(warm, dtype=float)
    lo, hi = env.control_lower, env.control_upper
    # Scale and clip on (samples, H * m) rows with each per-channel vector
    # tiled over the horizon, so no inner loop runs over the m channels alone.
    horizon = warm.shape[0]
    std = np.tile(np.asarray(config.noise_fraction, dtype=float) * (hi - lo), horizon)
    noise = rng.normal(size=(config.samples - 1, warm.size))
    noise *= std
    candidates = np.empty((config.samples,) + warm.shape)
    flat = candidates.reshape(config.samples, -1)
    flat[0] = warm.reshape(-1)
    np.add(warm.reshape(-1), noise, out=flat[1:])
    np.clip(flat, np.tile(lo, horizon), np.tile(hi, horizon), out=flat)

    matrix = objective.cost_matrix(candidates)
    costs = np.asarray(objective.reduce(matrix), dtype=float)
    finite = np.isfinite(costs)
    if not finite.any():
        raise SolverFailureError("no candidate plan produced a finite objective value")
    costs = np.where(finite, costs, np.inf)
    best = int(np.argmin(costs))

    weights = np.exp(-(costs - costs[best]) / config.temperature)
    weights[~finite] = 0.0
    weights /= weights.sum()
    averaged = np.einsum("k,k...->...", weights, candidates)
    np.clip(averaged, lo, hi, out=averaged)

    rows = objective.cost_matrix(np.stack([averaged, candidates[best]]), probe)
    averaged_cost = float(objective.reduce(rows[:1, :matrix.shape[1]])[0])
    if not np.isfinite(averaged_cost) or averaged_cost > costs[best]:
        return candidates[best].copy(), float(costs[best]), rows[1]
    return averaged, averaged_cost, rows[0]


def shift_warm_start(plan: np.ndarray) -> np.ndarray:
    """Receding-horizon shift: drop the executed first control, repeat the last."""
    plan = np.asarray(plan, dtype=float)
    if plan.ndim != 2 or plan.shape[0] < 1:
        raise ValueError(f"plan must be a (H, m) array with H >= 1, got shape {plan.shape}")
    return np.concatenate([plan[1:], plan[-1:]], axis=0)


@dataclass(frozen=True)
class ControllerSpec:
    """Which variant plans, and with what objective weights.

    ``nominal_theta`` overrides the default nominal parameters (the midpoint
    of the parameter box) for the nominal variant.
    """

    variant: str = "stein_adaptive"
    robust: RobustObjectiveConfig = RobustObjectiveConfig()
    nominal_theta: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.nominal_theta is not None:
            object.__setattr__(
                self, "nominal_theta", np.asarray(self.nominal_theta, dtype=float)
            )


def nominal_parameters(controller: ControllerSpec, env: EnvModel) -> np.ndarray:
    if controller.nominal_theta is not None:
        return controller.nominal_theta
    return 0.5 * (env.theta_lower + env.theta_upper)


class _BatchObjective:
    """Base of the plan objectives: a per-parameter cost grid and its reduction.

    ``cost_matrix`` rolls a (C, H, m) plan stack out against the objective's
    (P, p) parameter stack ``thetas``, followed by an optional (B, p)
    ``probe`` stack, and returns the (C, P + B) cost grid; ``reduce`` turns
    a (C, P) grid into the (C,) objective values. Calling the
    objective scores one plan. The (H + 1, n) reference states are resolved
    on the first call and kept in ``refs`` for later calls with the same
    horizon, so one cycle resolves them once.
    """

    thetas: np.ndarray

    def __init__(self, spec: CostSpec, env: EnvModel, x0):
        self.spec = spec
        self.env = env
        self.x0 = np.asarray(x0, dtype=float)
        self.refs = None

    def cost_matrix(self, plans, probe=()) -> np.ndarray:
        plans = np.asarray(plans, dtype=float)
        steps = plans.shape[-2]
        if self.refs is None or len(self.refs) != steps + 1:
            self.refs = self.spec.references(self.env, self.x0, steps)
        thetas = np.concatenate([self.thetas, np.reshape(probe, (-1, self.thetas.shape[1]))])
        return rollout_cost_batch(self.spec, self.env, self.x0, plans, thetas,
                                  refs=self.refs)

    def __call__(self, plan) -> float:
        return float(self.reduce(self.cost_matrix(np.asarray(plan, float)[None]))[0])


class RobustPlanObjective(_BatchObjective):
    """cost(theta_bar) + gamma * mean gap over the particle stack.

    Column 0 of the cost matrix is the particle mean ``particles.mean(axis=0)``,
    the same array ``inference.particle_mean`` returns, so a plan's row starts
    with its cost under the current point estimate.
    """

    def __init__(self, spec, env, x0, particles: np.ndarray, gamma: float):
        super().__init__(spec, env, x0)
        particles = np.atleast_2d(np.asarray(particles, dtype=float))
        self.gamma = gamma
        self.thetas = np.vstack([particles.mean(axis=0)[None], particles])

    def reduce(self, matrix: np.ndarray) -> np.ndarray:
        gaps = matrix[:, 1:] - matrix[:, :1]
        return matrix[:, 0] + self.gamma * gaps.mean(axis=1)


class RiskAversePlanObjective(_BatchObjective):
    """lambda * epsilon + lambda * log mean exp(cost_i / lambda)."""

    def __init__(self, spec, env, x0, particles: np.ndarray, lam: float, epsilon: float):
        super().__init__(spec, env, x0)
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        self.lam = lam
        self.epsilon = epsilon
        self.thetas = np.atleast_2d(np.asarray(particles, dtype=float))

    def reduce(self, matrix: np.ndarray) -> np.ndarray:
        from scipy.special import logsumexp

        lse = logsumexp(matrix / self.lam, axis=1) - np.log(matrix.shape[1])
        return self.lam * self.epsilon + self.lam * lse


class NominalPlanObjective(_BatchObjective):
    """Plain trajectory cost under one parameter vector."""

    def __init__(self, spec, env, x0, theta: np.ndarray):
        super().__init__(spec, env, x0)
        self.thetas = np.asarray(theta, dtype=float)[None]

    def reduce(self, matrix: np.ndarray) -> np.ndarray:
        return matrix[:, 0]


def build_objective(
    controller: ControllerSpec,
    spec: CostSpec,
    env: EnvModel,
    x0,
    particles: ParticleSet | np.ndarray,
):
    """Construct the plan objective a variant scores candidates with."""
    mat = particles.particles if isinstance(particles, ParticleSet) else np.atleast_2d(particles)
    cfg = controller.robust
    if controller.variant == "stein_adaptive":
        return RobustPlanObjective(spec, env, x0, mat, cfg.gamma)
    if controller.variant == "emppi":
        return RobustPlanObjective(spec, env, x0, mat, 1.0)
    if controller.variant == "dro":
        if cfg.risk_lambda is None:
            raise ValueError("risk_lambda must be calibrated before building the dro objective")
        return RiskAversePlanObjective(spec, env, x0, mat, cfg.risk_lambda, cfg.risk_epsilon)
    return NominalPlanObjective(spec, env, x0, nominal_parameters(controller, env))
