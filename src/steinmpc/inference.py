"""Particle inference over latent dynamics parameters.

A particle set lives inside a box of admissible parameters. The update rule
transports the whole set along a kernelized gradient flow whose target density
is proportional to exp(sign * gap(theta)) times a uniform prior over the box:
parameters that change the cost of the current plan the most accumulate
probability mass. A kernelized Stein discrepancy estimator is included as a
convergence diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import ConstantKernel, RbfKernel

__all__ = [
    "ParticleSet",
    "SvgdConfig",
    "PosteriorModel",
    "ScoreEvaluationError",
    "draw_particles",
    "particle_mean",
    "probe_thetas",
    "posterior_score_batch",
    "svgd_step",
    "ksd_estimate",
]


class ScoreEvaluationError(RuntimeError):
    """Raised when the gap function returns a non-finite value.

    Carries the offending parameter vector as ``theta``.
    """

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=float)
        super().__init__(
            f"gap evaluation returned a non-finite value at theta={self.theta}"
        )


@dataclass
class ParticleSet:
    """A stack of parameter vectors constrained to a box.

    Args:
        particles: (n, dim) array, one parameter vector per row.
        lower: (dim,) lower box bounds.
        upper: (dim,) upper box bounds.
    """

    particles: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.particles = np.array(self.particles, dtype=float, copy=True)
        if self.particles.ndim == 1:
            self.particles = self.particles[None, :]
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n, dim = self.particles.shape
        if n < 1 or dim < 1:
            raise ValueError(f"particle stack must be non-empty, got shape {(n, dim)}")
        if self.lower.shape != (dim,) or self.upper.shape != (dim,):
            raise ValueError(
                f"bounds must have shape ({dim},), got {self.lower.shape} and {self.upper.shape}"
            )
        if not np.all(self.lower < self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if not np.all(np.isfinite(self.particles)):
            raise ValueError("particles must be finite")
        if np.any(self.particles < self.lower) or np.any(self.particles > self.upper):
            raise ValueError("particles must lie inside the bounding box")

    @property
    def count(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]


def draw_particles(lower, upper, count: int, rng: np.random.Generator) -> ParticleSet:
    """Draw ``count`` particles uniformly inside the box."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    pts = rng.uniform(lower, upper, size=(count, lower.size))
    return ParticleSet(pts, lower, upper)


def particle_mean(particles: ParticleSet) -> np.ndarray:
    """Arithmetic mean of the particle stack, the point estimate of theta."""
    return particles.particles.mean(axis=0)


@dataclass(frozen=True)
class SvgdConfig:
    """Settings for the particle transport step.

    Attributes:
        step_size: learning rate alpha applied to the update direction.
        iterations: number of transport steps per control cycle.
        kernel: interaction kernel instance.
        fd_epsilon: central-difference step per normalized coordinate used
            to differentiate the gap function.
        sign_mode: "adversarial" climbs the gap (mass moves to parameters
            that most degrade the plan), "favoring" descends it.
    """

    step_size: float = 0.001
    iterations: int = 1
    kernel: object = field(default_factory=RbfKernel)
    fd_epsilon: float = 1e-4
    sign_mode: str = "adversarial"

    def __post_init__(self):
        if not self.step_size >= 0:
            raise ValueError(f"step_size must be nonnegative, got {self.step_size}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {self.iterations}")
        if not self.fd_epsilon > 0:
            raise ValueError(f"fd_epsilon must be positive, got {self.fd_epsilon}")
        if self.sign_mode not in ("adversarial", "favoring"):
            raise ValueError(
                f"sign_mode must be 'adversarial' or 'favoring', got {self.sign_mode!r}"
            )

    @property
    def sign(self) -> float:
        return 1.0 if self.sign_mode == "adversarial" else -1.0


@dataclass
class PosteriorModel:
    """Unnormalized log-density over parameters induced by a plan.

    log p'(theta) = sign * gap(theta) + log prior(theta), with a uniform
    prior over [lower, upper]. The prior contributes zero gradient inside
    the box, so the score is just the (signed) gap gradient.

    Args:
        gap: gap of every row of a (B, dim) parameter stack, as a (B,) array.
        lower: (dim,) box lower bounds.
        upper: (dim,) box upper bounds.
    """

    gap: Callable[[np.ndarray], np.ndarray]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal shape")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")


def _fd_steps(lower, upper, fd_epsilon: float) -> np.ndarray:
    # Step sizes are expressed per normalized coordinate: a unit of fd_epsilon
    # spans the same fraction of every box side regardless of raw scale.
    span = upper - lower
    span = np.where(np.isfinite(span) & (span > 0), span, 1.0)
    return fd_epsilon * span


def probe_thetas(thetas: np.ndarray, lower, upper, fd_epsilon: float) -> np.ndarray:
    """The parameters the score of ``thetas`` evaluates the gap at.

    Each row of ``thetas`` is clamped to the box [lower, upper] and moved by
    +- fd_epsilon times the box side along each coordinate in turn. Returns
    the (2 * n * dim, dim) stack: per row, the dim plus steps, then the dim
    minus steps. A caller that knows the particles before the gap can
    evaluate these thetas early and hand their gaps to the model.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n, dim = thetas.shape
    clamped = np.clip(thetas, lower, upper)
    offsets = np.eye(dim) * _fd_steps(lower, upper, fd_epsilon)  # (dim, dim)
    plus = clamped[:, None, :] + offsets[None, :, :]
    minus = clamped[:, None, :] - offsets[None, :, :]
    return np.concatenate([plus, minus], axis=1).reshape(2 * n * dim, dim)


def posterior_score_batch(
    thetas: np.ndarray, model: PosteriorModel, config: SvgdConfig
) -> np.ndarray:
    """Score of the plan-induced posterior at each row of ``thetas``.

    Central finite differences through the gap function, batched over all
    particles and coordinates in a single evaluation of ``gap`` at the
    ``probe_thetas`` of ``thetas``.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n, dim = thetas.shape
    probe = probe_thetas(thetas, model.lower, model.upper, config.fd_epsilon)
    vals = np.asarray(model.gap(probe), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = probe[~np.isfinite(vals)][0]
        raise ScoreEvaluationError(bad)
    vals = vals.reshape(n, 2, dim)
    steps = _fd_steps(model.lower, model.upper, config.fd_epsilon)
    grad = (vals[:, 0, :] - vals[:, 1, :]) / (2.0 * steps)
    return config.sign * grad


def svgd_step(
    particles: ParticleSet, model: PosteriorModel, config: SvgdConfig
) -> ParticleSet:
    """One kernelized transport step of the whole particle set.

    Each particle moves along the kernel-weighted average of all particle
    scores plus the kernel repulsion term, then is projected back onto the
    box. The input set is never mutated; score failures propagate before
    any new set is built.

    The constant kernel is special: with no interaction structure the flow
    reduces to independent gradient ascent per particle, and that reduction
    is implemented literally so the ablation is exact.
    """
    x = particles.particles
    n = particles.count
    scores = posterior_score_batch(x, model, config)

    if isinstance(config.kernel, ConstantKernel):
        drift = scores
    else:
        k = config.kernel.matrix(x, x)  # k[j, i] = k(x_j, x_i)
        g = config.kernel.grad_first_tensor(x, x)  # g[j, i] = d k(x_j, x_i) / d x_j
        drift = (k.T @ scores + g.sum(axis=0)) / n

    moved = np.clip(x + config.step_size * drift, particles.lower, particles.upper)
    return ParticleSet(moved, particles.lower, particles.upper)


def ksd_estimate(
    particles: ParticleSet,
    model: PosteriorModel,
    kernel,
    config: SvgdConfig | None = None,
) -> float:
    """V-statistic estimate of the kernelized Stein discrepancy.

    Measures how far the particle set is from the posterior induced by the
    model; zero means indistinguishable under the kernel's Stein operator.
    Diagnostic only, never fed back into control.

    Raises:
        ValueError: for kernels with a degenerate Stein operator.
    """
    if not getattr(kernel, "stein_compatible", False):
        raise ValueError(
            f"{type(kernel).__name__} has a degenerate Stein operator; "
            "the discrepancy is undefined"
        )
    if config is None:
        config = SvgdConfig()
    x = particles.particles
    s = posterior_score_batch(x, model, config)

    k = kernel.matrix(x, x)
    g = kernel.grad_first_tensor(x, x)  # g[i, j] = d k(x_i, x_j) / d x_i
    trace = kernel.mixed_trace_matrix(x, x)

    ss = s @ s.T  # ss[i, j] = s_i . s_j
    # d k(x_i, x_j) / d x_j = -g[i, j] for the radial kernels used here.
    si_gj = -np.einsum("id,ijd->ij", s, g)
    sj_gi = np.einsum("jd,ijd->ij", s, g)
    u = ss * k + si_gj + sj_gi + trace
    return float(u.mean())
