"""Kernel values, gradients, and the mixed-derivative trace."""

import numpy as np
import pytest

from steinmpc.kernels import ConstantKernel, ImqKernel, RbfKernel

KERNELS = [RbfKernel(), RbfKernel(2.5), ImqKernel(), ImqKernel(0.7, 1.2), ConstantKernel()]


def value(kernel, a, b) -> float:
    """k(a, b) for one pair, read off the kernel matrix."""
    return float(kernel.matrix(a[None], b[None])[0, 0])


def grad(kernel, a, b) -> np.ndarray:
    """Gradient of k(a, b) in a for one pair, read off the gradient tensor."""
    return kernel.grad_first_tensor(a[None], b[None])[0, 0]


def finite_diff_grad(kernel, a, b, eps=1e-6):
    g = np.zeros_like(a)
    for i in range(a.size):
        hi = a.copy()
        lo = a.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (value(kernel, hi, b) - value(kernel, lo, b)) / (2 * eps)
    return g


def test_rbf_zero_distance_is_one():
    a = np.array([0.3, -1.2])
    assert value(RbfKernel(1.0), a, a) == 1.0


def test_rbf_unit_distance_value():
    k = RbfKernel(1.0)
    assert value(k, np.array([1.0]), np.array([0.0])) == pytest.approx(
        np.exp(-1.0), abs=1e-12
    )


def test_imq_known_value():
    # offset 1, decay 0.5, squared distance 3 gives (1+3)^(-1/2) = 0.5
    k = ImqKernel(1.0, 0.5)
    a = np.array([np.sqrt(3.0), 0.0])
    b = np.zeros(2)
    assert value(k, a, b) == pytest.approx(0.5, abs=1e-12)


def test_rbf_gradient_known_value():
    k = RbfKernel(1.0)
    g = grad(k, np.array([1.0]), np.array([0.0]))
    assert g[0] == pytest.approx(-2.0 * np.exp(-1.0), abs=1e-12)


def test_constant_kernel_is_flat():
    k = ConstantKernel()
    a = np.array([0.5, 2.0])
    b = np.array([-3.0, 1.0])
    assert value(k, a, b) == 1.0
    assert np.all(grad(k, a, b) == 0.0)


@pytest.mark.parametrize("kernel", KERNELS)
def test_gradient_matches_finite_differences(kernel):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        got = grad(kernel, a, b)
        want = finite_diff_grad(kernel, a, b)
        assert np.allclose(got, want, atol=1e-7)


@pytest.mark.parametrize("kernel", KERNELS)
def test_batched_forms_match_scalar_forms(kernel):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 2))
    y = rng.normal(size=(3, 2))
    mat = kernel.matrix(x, y)
    grads = kernel.grad_first_tensor(x, y)
    assert mat.shape == (4, 3)
    assert grads.shape == (4, 3, 2)
    # every entry of a stacked call equals its pair evaluated alone
    for i in range(4):
        for j in range(3):
            assert mat[i, j] == pytest.approx(value(kernel, x[i], y[j]), abs=1e-12)
            assert np.allclose(grads[i, j], grad(kernel, x[i], y[j]), atol=1e-12)


@pytest.mark.parametrize("kernel", [RbfKernel(), RbfKernel(3.0), ImqKernel(), ImqKernel(0.7, 1.2)])
def test_mixed_trace_matches_finite_differences(kernel):
    # trace of d^2 k / da db equals -laplacian of k in the difference variable
    rng = np.random.default_rng(5)
    eps = 1e-5
    for _ in range(10):
        a = rng.normal(size=2)
        b = rng.normal(size=2)
        got = kernel.mixed_trace_matrix(a[None], b[None])[0, 0]
        want = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            gp = grad(kernel, a, b + e)[i]
            gm = grad(kernel, a, b - e)[i]
            want += (gp - gm) / (2 * eps)
        assert got == pytest.approx(want, abs=1e-5)


def test_imq_tails_are_heavier_than_rbf():
    a = np.array([4.0, 0.0])
    b = np.zeros(2)
    assert value(ImqKernel(), a, b) > value(RbfKernel(), a, b)


def test_rbf_symmetric_in_arguments():
    k = RbfKernel(1.7)
    a = np.array([0.2, 1.4])
    b = np.array([-0.9, 0.3])
    assert value(k, a, b) == pytest.approx(value(k, b, a), abs=1e-15)
    assert np.allclose(grad(k, a, b), -grad(k, b, a))


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        RbfKernel(0.0)
    with pytest.raises(ValueError):
        ImqKernel(offset=-1.0)
    with pytest.raises(ValueError):
        ImqKernel(decay=0.0)


def test_mismatched_shapes_rejected():
    with pytest.raises(ValueError):
        RbfKernel().matrix(np.zeros(2), np.zeros(3))


def closed_forms(kernel, x, y):
    """(matrix, grad_first_tensor, mixed_trace_matrix) written out in full."""
    diff = x[:, None, :] - y[None, :, :]
    sq = np.sum(diff * diff, axis=-1)
    dim = x.shape[1]
    if isinstance(kernel, RbfKernel):
        h = kernel.bandwidth
        k = np.exp(-sq / h)
        return k, -(2.0 / h) * diff * k[..., None], (2.0 * dim / h) * k - (4.0 / h**2) * sq * k
    if isinstance(kernel, ImqKernel):
        c, z = kernel.offset, kernel.decay
        base = c**2 + sq
        return (base ** (-z), -2.0 * z * diff * (base ** (-z - 1.0))[..., None],
                2.0 * z * dim * base ** (-z - 1.0) - 4.0 * z * (z + 1.0) * sq * base ** (-z - 2.0))
    return np.ones(sq.shape), np.zeros(diff.shape), None


@pytest.mark.parametrize("family", ["rbf", "imq", "constant"])
def test_every_method_is_its_closed_form_bit_for_bit(family):
    # byte-equal, not approx: a rewrite of the kernels must keep every float
    rng = np.random.default_rng({"rbf": 21, "imq": 22, "constant": 23}[family])
    for _ in range(300):
        kernel = {"rbf": lambda: RbfKernel(10 ** rng.uniform(-2, 2)),
                  "imq": lambda: ImqKernel(10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-1, 0.5)),
                  "constant": ConstantKernel}[family]()
        dim = int(rng.integers(1, 4))
        scale = 10 ** rng.uniform(-3, 2)
        x = scale * rng.normal(size=(int(rng.integers(1, 8)), dim))
        y = scale * rng.normal(size=(int(rng.integers(1, 8)), dim))
        want = closed_forms(kernel, x, y)
        got = (kernel.matrix(x, y), kernel.grad_first_tensor(x, y),
               kernel.mixed_trace_matrix(x, y) if kernel.stein_compatible else None)
        for g, w in zip(got, want):
            if w is not None:
                assert g.shape == w.shape and np.array_equal(g, w)


def test_stein_compatibility_flags():
    assert RbfKernel().stein_compatible
    assert ImqKernel().stein_compatible
    assert not ConstantKernel().stein_compatible
