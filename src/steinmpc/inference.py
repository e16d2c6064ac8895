"""Particle inference over latent dynamics parameters.

A particle set lives inside a box of admissible parameters. The update rule
transports the whole set along a kernelized gradient flow whose target density
is proportional to exp(sign * gap(theta)) times a uniform prior over the box,
where gap(theta) is the current plan's cost under theta less its cost under a
reference: parameters that change the cost of the plan the most accumulate
probability mass. The prior adds no gradient inside the box, so the score is
the signed gap gradient by central finite differences. The caller evaluates
the gap at ``probe_thetas(particles, fd_epsilon)`` and hands the values, in
that stack's order, to ``svgd_step`` as ``gaps``. A kernelized Stein
discrepancy estimator on the same gaps is included as a convergence
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import _check_ranges
from .kernels import ConstantKernel, RbfKernel

__all__ = [
    "ParticleSet",
    "SvgdConfig",
    "ScoreEvaluationError",
    "draw_particles",
    "particle_mean",
    "probe_thetas",
    "posterior_score_batch",
    "svgd_step",
    "ksd_estimate",
]


class ScoreEvaluationError(RuntimeError):
    """Raised when a probe gap, or a particle's Stein drift, is not finite.

    Carries that probe row's, or that particle's, parameter vector as
    ``theta``. Finite gaps can still overflow the score to +-inf, and a
    kernel's sum can turn that into a NaN drift, so ``svgd_step`` checks
    both.
    """

    def __init__(self, theta):
        self.theta = np.asarray(theta, dtype=float)
        super().__init__(f"non-finite gap or Stein drift at theta={self.theta}")


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
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("bounds must be finite")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if not np.all(np.isfinite(self.particles)):
            raise ValueError("particles must be finite")
        if np.any(self.particles < self.lower) or np.any(self.particles > self.upper):
            raise ValueError("particles must lie inside the bounding box")


def draw_particles(lower, upper, count: int, rng: np.random.Generator) -> ParticleSet:
    """Draw ``count`` particles uniformly inside the box."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    pts = rng.uniform(lower, upper, size=(count, lower.size))
    return ParticleSet(pts, lower, upper)


def particle_mean(stack: np.ndarray) -> np.ndarray:
    """Arithmetic mean of a particle stack, the point estimate of theta.

    ``stack`` is any (..., n, p) array of n particles of dimension p, such as
    one set's (n, p) ``ParticleSet.particles`` or a trial's (steps, n, p)
    log; the mean is over the particle axis, so the result is (..., p). This
    is the one place a particle mean is taken.
    """
    return stack.mean(axis=-2)


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
        _check_ranges(self, step_size="nonnegative")
        if self.iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {self.iterations}")
        _check_ranges(self, fd_epsilon="positive")
        if self.sign_mode not in ("adversarial", "favoring"):
            raise ValueError(
                f"sign_mode must be 'adversarial' or 'favoring', got {self.sign_mode!r}"
            )

    @property
    def sign(self) -> float:
        return 1.0 if self.sign_mode == "adversarial" else -1.0


def _fd_steps(particles: ParticleSet, fd_epsilon: float) -> np.ndarray:
    # Step sizes are expressed per normalized coordinate: a unit of fd_epsilon
    # spans the same fraction of every box side regardless of raw scale.
    return fd_epsilon * (particles.upper - particles.lower)


def probe_thetas(particles: ParticleSet, fd_epsilon: float) -> np.ndarray:
    """The parameters the score of ``particles`` evaluates the gap at.

    Each particle is moved by +- fd_epsilon times the box side along each
    coordinate in turn. Returns the (2 * n * dim, dim) stack: per particle,
    the dim plus steps, then the dim minus steps.
    """
    x = particles.particles
    n, dim = x.shape
    offsets = np.eye(dim) * _fd_steps(particles, fd_epsilon)  # (dim, dim)
    plus = x[:, None, :] + offsets[None, :, :]
    minus = x[:, None, :] - offsets[None, :, :]
    return np.concatenate([plus, minus], axis=1).reshape(2 * n * dim, dim)


def posterior_score_batch(
    particles: ParticleSet, gaps: np.ndarray, config: SvgdConfig
) -> np.ndarray:
    """Score of the plan-induced posterior at each particle, as (n, dim).

    Central finite differences of ``gaps``, the (2 * n * dim,) gap values at
    ``probe_thetas(particles, config.fd_epsilon)`` in that stack's order.

    Raises:
        ValueError: if ``gaps`` does not have one value per probe row.
        ScoreEvaluationError: if a gap is not finite.
    """
    n, dim = particles.particles.shape
    gaps = np.asarray(gaps, dtype=float)
    if gaps.shape != (2 * n * dim,):
        raise ValueError(f"expected {2 * n * dim} probe gaps, got shape {gaps.shape}")
    if not np.all(np.isfinite(gaps)):
        bad = probe_thetas(particles, config.fd_epsilon)[~np.isfinite(gaps)][0]
        raise ScoreEvaluationError(bad)
    vals = gaps.reshape(n, 2, dim)
    grad = (vals[:, 0, :] - vals[:, 1, :]) / (2.0 * _fd_steps(particles, config.fd_epsilon))
    return config.sign * grad


@np.errstate(all="ignore")
def svgd_step(particles: ParticleSet, gaps: np.ndarray, config: SvgdConfig) -> ParticleSet:
    """One kernelized transport step of the whole particle set.

    Each particle moves along the kernel-weighted average of all particle
    scores plus the kernel repulsion term, then is projected back onto the
    box. ``gaps`` are the probe gaps ``posterior_score_batch`` takes. The
    input set is never mutated; score failures propagate before any new set
    is built.

    The constant kernel is special. The update above with k = 1 would move
    every particle by the mean score; the ablation means independent
    gradient ascent instead, so each particle moves by its own score, and
    its kernel methods are never called.

    Overflow in the score or the drift is data: it reads as a non-finite
    value and raises below, with no numpy warning (the floating-point policy
    in ``costs``).

    Raises:
        ScoreEvaluationError: at the first non-finite probe gap, or else at
            the first particle whose drift is not finite, for every kernel.
    """
    x = particles.particles
    n = x.shape[0]
    scores = posterior_score_batch(particles, gaps, config)

    if isinstance(config.kernel, ConstantKernel):
        drift = scores
    else:
        k = config.kernel.matrix(x, x)  # k[j, i] = k(x_j, x_i)
        g = config.kernel.grad_first_tensor(x, x)  # g[j, i] = d k(x_j, x_i) / d x_j
        drift = (k.T @ scores + g.sum(axis=0)) / n
    finite = np.isfinite(drift).all(axis=1)
    if not finite.all():
        raise ScoreEvaluationError(x[~finite][0])

    moved = np.clip(x + config.step_size * drift, particles.lower, particles.upper)
    return ParticleSet(moved, particles.lower, particles.upper)


def ksd_estimate(particles: ParticleSet, gaps: np.ndarray, config: SvgdConfig) -> float:
    """V-statistic estimate of the kernelized Stein discrepancy.

    Measures how far the particle set is from the posterior whose probe gaps
    are ``gaps`` (as ``posterior_score_batch`` takes them), under
    ``config.kernel``; zero means indistinguishable under the kernel's Stein
    operator. Diagnostic only, never fed back into control.

    Raises:
        ValueError: for kernels with a degenerate Stein operator.
    """
    kernel = config.kernel
    if not getattr(kernel, "stein_compatible", False):
        raise ValueError(
            f"{type(kernel).__name__} has a degenerate Stein operator; "
            "the discrepancy is undefined"
        )
    x = particles.particles
    s = posterior_score_batch(particles, gaps, config)

    k = kernel.matrix(x, x)
    g = kernel.grad_first_tensor(x, x)  # g[i, j] = d k(x_i, x_j) / d x_i
    trace = kernel.mixed_trace_matrix(x, x)

    ss = s @ s.T  # ss[i, j] = s_i . s_j
    # d k(x_i, x_j) / d x_j = -g[i, j] for the radial kernels used here.
    si_gj = -np.einsum("id,ijd->ij", s, g)
    sj_gi = np.einsum("jd,ijd->ij", s, g)
    u = ss * k + si_gj + sj_gi + trace
    return float(u.mean())
