"""Interaction kernels for particle inference.

Every kernel is a small frozen dataclass evaluated on whole particle stacks:
``matrix`` gives the kernel value at every pair, ``grad_first_tensor`` its
gradient with respect to the first argument, and ``mixed_trace_matrix`` the
trace of the mixed second derivative (needed by the Stein discrepancy
estimator). Gradients are closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _check_ranges, _rows

__all__ = [
    "RbfKernel",
    "ImqKernel",
    "ConstantKernel",
]


def _pairs(x, y):
    """(diff, sq) over every pair of two particle stacks (N, d) and (M, d):
    diff[i, j] = x[i] - y[j], (N, M, d), and sq its squared norm, (N, M)."""
    x, y = _rows(x, float), _rows(y, float)
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"particle stacks must share the vector dimension, "
            f"got shapes {x.shape} and {y.shape}"
        )
    diff = x[:, None, :] - y[None, :, :]
    return diff, np.sum(diff * diff, axis=-1)


@dataclass(frozen=True)
class RbfKernel:
    """Squared-exponential kernel k(a, b) = exp(-||a - b||^2 / bandwidth)."""

    bandwidth: float = 1.0

    def __post_init__(self):
        _check_ranges(self, bandwidth="positive")

    # Differentiable, so the Stein operator is well defined.
    stein_compatible = True

    def _value(self, sq):
        return np.exp(-sq / self.bandwidth)

    def matrix(self, x, y) -> np.ndarray:
        return self._value(_pairs(x, y)[1])

    def grad_first_tensor(self, x, y) -> np.ndarray:
        """(N, M, d) tensor of gradients w.r.t. the first argument."""
        diff, sq = _pairs(x, y)
        return -(2.0 / self.bandwidth) * diff * self._value(sq)[..., None]

    def mixed_trace_matrix(self, x, y) -> np.ndarray:
        """(N, M) matrix of trace(d^2 k / da db) at every pair."""
        diff, sq = _pairs(x, y)
        k, h = self._value(sq), self.bandwidth
        return (2.0 * diff.shape[-1] / h) * k - (4.0 / h**2) * sq * k


@dataclass(frozen=True)
class ImqKernel:
    """Inverse multiquadric kernel k(a, b) = (offset^2 + ||a - b||^2)^(-decay).

    Heavier tails than the squared exponential keep distant particles
    interacting, which matters when the parameter box is wide.
    """

    offset: float = 1.0
    decay: float = 0.5

    def __post_init__(self):
        _check_ranges(self, offset="positive", decay="positive")

    stein_compatible = True

    def _base(self, sq):
        return self.offset**2 + sq

    def matrix(self, x, y) -> np.ndarray:
        return self._base(_pairs(x, y)[1]) ** (-self.decay)

    def grad_first_tensor(self, x, y) -> np.ndarray:
        diff, sq = _pairs(x, y)
        return -2.0 * self.decay * diff * (self._base(sq) ** (-self.decay - 1.0))[..., None]

    def mixed_trace_matrix(self, x, y) -> np.ndarray:
        diff, sq = _pairs(x, y)
        base, z = self._base(sq), self.decay
        return (2.0 * z * diff.shape[-1] * base ** (-z - 1.0)
                - 4.0 * z * (z + 1.0) * sq * base ** (-z - 2.0))


@dataclass(frozen=True)
class ConstantKernel:
    """k(a, b) = 1 everywhere, the no-interaction ablation.

    Plugged into the SVGD update, k = 1 would move every particle by the same
    drift, the mean of all particle scores, since the repulsion term is zero.
    The ablation means independent gradient ascent instead, each particle
    along its own score, and ``inference.svgd_step`` special-cases this
    kernel to do exactly that. So no trial calls ``matrix`` or
    ``grad_first_tensor``; only ``bench/`` wraps them. The Stein operator is
    degenerate, so discrepancy estimation is unsupported.
    """

    stein_compatible = False

    def matrix(self, x, y) -> np.ndarray:
        return np.ones(_pairs(x, y)[1].shape)

    def grad_first_tensor(self, x, y) -> np.ndarray:
        return np.zeros(_pairs(x, y)[0].shape)
