"""Particle transport, posterior scores, and the Stein discrepancy diagnostic."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steinmpc.inference import (
    ParticleSet,
    ScoreEvaluationError,
    SvgdConfig,
    draw_particles,
    ksd_estimate,
    particle_mean,
    posterior_score_batch,
    probe_thetas,
    svgd_step,
)
from steinmpc.kernels import ConstantKernel, ImqKernel, RbfKernel

WIDE = np.array([-8.0]), np.array([8.0])


def normal_gap(ths):
    # gap = -theta^2/2, so the adversarial score is -theta: standard normal
    return -0.5 * ths[:, 0] ** 2


def flat_gap(ths):
    return np.zeros(len(ths))


def flat_box(dim=2, half_width=8.0):
    return -half_width * np.ones(dim), half_width * np.ones(dim)


def gaps_at(gap, ps, cfg):
    """``gap`` at the probe of ``ps``, the values the score differentiates."""
    return gap(probe_thetas(ps, cfg.fd_epsilon))


def score(gap, ps, cfg):
    return posterior_score_batch(ps, gaps_at(gap, ps, cfg), cfg)


def step(gap, ps, cfg):
    return svgd_step(ps, gaps_at(gap, ps, cfg), cfg)


def ksd(gap, ps, cfg):
    return ksd_estimate(ps, gaps_at(gap, ps, cfg), cfg)


# ---------------------------------------------------------------- ParticleSet


def test_particle_set_promotes_single_vector():
    ps = ParticleSet(np.array([1.0, 2.0]), [0.0, 0.0], [3.0, 3.0])
    assert ps.particles.shape == (1, 2)


def test_particle_set_copies_its_input():
    raw = np.array([[1.0, 2.0]])
    ps = ParticleSet(raw, [0.0, 0.0], [3.0, 3.0])
    raw[0, 0] = 99.0
    assert ps.particles[0, 0] == 1.0


def test_particle_set_validation():
    with pytest.raises(ValueError):
        ParticleSet(np.empty((0, 2)), [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ParticleSet([[0.5]], [0.0, 0.0], [1.0, 1.0])  # bounds shape mismatch
    with pytest.raises(ValueError):
        ParticleSet([[2.0]], [0.0], [1.0])  # outside the box
    with pytest.raises(ValueError):
        ParticleSet([[0.5]], [1.0], [1.0])  # degenerate box
    with pytest.raises(ValueError):
        ParticleSet([[np.nan]], [0.0], [1.0])
    # every bound is finite, so every finite-difference step is a box fraction
    for lower, upper in (([np.nan], [1.0]), ([0.0], [np.nan]), ([-np.inf], [1.0]),
                         ([0.0], [np.inf]), ([0.0, -np.inf], [1.0, 1.0])):
        with pytest.raises(ValueError, match="(lower|upper) must be real and finite"):
            ParticleSet(np.full((1, len(lower)), 0.5), lower, upper)


def test_draw_particles_stay_inside_and_are_reproducible():
    lo, hi = np.array([0.3, 1.0]), np.array([1.0, 2.0])
    a = draw_particles(lo, hi, 64, np.random.default_rng(42))
    b = draw_particles(lo, hi, 64, np.random.default_rng(42))
    assert np.all(a.particles >= lo) and np.all(a.particles <= hi)
    np.testing.assert_array_equal(a.particles, b.particles)


def test_particle_mean():
    ps = ParticleSet([[0.0, 2.0], [1.0, 4.0]], [0.0, 0.0], [2.0, 5.0])
    np.testing.assert_allclose(particle_mean(ps.particles), [0.5, 3.0])
    # a stack of sets, as a trial logs them, gives one mean per set
    log = np.stack([ps.particles, ps.particles + 1.0])
    np.testing.assert_allclose(particle_mean(log), [[0.5, 3.0], [1.5, 4.0]])


# ------------------------------------------------------------------- scoring


def test_score_zero_for_flat_gap():
    got = score(flat_gap, ParticleSet([[0.3, -0.4]], *flat_box()), SvgdConfig())[0]
    np.testing.assert_allclose(got, [0.0, 0.0])


def test_score_of_quadratic_gap_both_signs():
    def gap(ths):
        return (ths[:, 0] - 1.0) ** 2

    ps = ParticleSet([[2.0]], [-8.0], [8.0])
    up = score(gap, ps, SvgdConfig(sign_mode="adversarial"))[0]
    down = score(gap, ps, SvgdConfig(sign_mode="favoring"))[0]
    assert up[0] == pytest.approx(2.0, abs=1e-6)
    assert down[0] == pytest.approx(-2.0, abs=1e-6)


def test_score_matches_analytic_gradient_random_quadratics():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=3)
        h = rng.uniform(0.5, 2.0, size=3)
        def gap(ths, a=a, h=h):
            return np.sum(h * (ths - a) ** 2, axis=1)

        theta = rng.uniform(-2, 2, size=3)
        got = score(gap, ParticleSet(theta, *flat_box(3, 5.0)), SvgdConfig())[0]
        np.testing.assert_allclose(got, 2.0 * h * (theta - a), atol=1e-4)


def test_score_error_carries_the_offending_theta():
    with pytest.raises(ScoreEvaluationError) as info:
        score(lambda ths: np.full(len(ths), np.nan), ParticleSet([[0.5]], [0.0], [1.0]),
              SvgdConfig())
    assert info.value.theta.shape == (1,)


@pytest.mark.parametrize("kernel", [RbfKernel(), ImqKernel(), ConstantKernel()],
                         ids=["rbf", "imq", "constant"])
def test_a_nonfinite_drift_raises_a_score_error(kernel):
    # Finite gaps whose central differences overflow: the score is +inf at
    # 0.2 and -inf at 0.8. A radial kernel sums the two into a NaN drift at
    # both particles; the constant kernel's drift is the infinite score.
    ps = ParticleSet([[0.2], [0.8]], [0.0], [1.0])
    gaps = np.array([1e308, -1e308, -1e308, 1e308])
    with pytest.raises(ScoreEvaluationError) as info:
        svgd_step(ps, gaps, SvgdConfig(kernel=kernel, fd_epsilon=1e-4))
    assert info.value.theta.tobytes() == ps.particles[0].tobytes()


def test_score_needs_one_gap_per_probe_row():
    ps = ParticleSet([[0.1, 0.2], [0.3, 0.4]], [0.0, 0.0], [1.0, 1.0])
    cfg = SvgdConfig(kernel=RbfKernel(1.0))
    gaps = gaps_at(flat_gap, ps, cfg)
    assert gaps.shape == (8,)
    posterior_score_batch(ps, gaps, cfg)
    for wrong in (gaps[:-1], np.append(gaps, 0.0), gaps[:4], gaps.reshape(2, 4)):
        for call in (posterior_score_batch, svgd_step, ksd_estimate):
            with pytest.raises(ValueError, match="expected 8 probe gaps"):
                call(ps, wrong, cfg)


def test_score_steps_normalize_to_box_width():
    # same quadratic expressed on a box 1e6 wider: accuracy must not degrade
    for width in (1.0, 1e6):
        def gap(ths, width=width):
            return (ths[:, 0] / width) ** 2

        got = score(gap, ParticleSet([[0.3 * width]], [-width], [width]), SvgdConfig())[0]
        assert got[0] * width == pytest.approx(0.6, abs=1e-6)


def test_score_batch_matches_stacked_single_calls():
    thetas = np.linspace(-2, 2, 7)[:, None]
    batch = score(normal_gap, ParticleSet(thetas, *WIDE), SvgdConfig())
    singles = np.stack([score(normal_gap, ParticleSet(t, *WIDE), SvgdConfig())[0]
                        for t in thetas])
    np.testing.assert_allclose(batch, singles, atol=1e-12)


# ----------------------------------------------------------------- svgd_step


def test_single_particle_update_is_plain_ascent():
    cfg = SvgdConfig(step_size=0.1, kernel=RbfKernel(1.0))
    ps = ParticleSet([[1.5]], *WIDE)
    out = step(normal_gap, ps, cfg)
    # self-kernel is 1 and self-repulsion 0, so the move is alpha * score
    assert out.particles[0, 0] == pytest.approx(1.5 - 0.1 * 1.5, abs=1e-5)


def test_constant_kernel_is_parallel_gradient_ascent_bitwise():
    cfg = SvgdConfig(step_size=0.05, kernel=ConstantKernel())
    pts = np.linspace(-2, 2, 9)[:, None]
    ps = ParticleSet(pts, *WIDE)
    stepped = step(normal_gap, ps, cfg)
    scores = score(normal_gap, ps, cfg)
    expect = np.clip(pts + 0.05 * scores, -8.0, 8.0)
    np.testing.assert_array_equal(stepped.particles, expect)


def test_svgd_step_is_permutation_equivariant():
    cfg = SvgdConfig(step_size=0.05, kernel=RbfKernel(1.0))
    pts = np.array([[-1.0], [0.3], [2.2], [0.9]])
    perm = [2, 0, 3, 1]
    a = step(normal_gap, ParticleSet(pts, *WIDE), cfg).particles
    b = step(normal_gap, ParticleSet(pts[perm], *WIDE), cfg).particles
    np.testing.assert_allclose(a[perm], b, atol=1e-14)


def test_coincident_particles_move_identically():
    cfg = SvgdConfig(step_size=0.05, kernel=RbfKernel(1.0))
    out = step(normal_gap, ParticleSet([[1.0], [1.0], [-0.5]], *WIDE), cfg)
    assert out.particles[0, 0] == out.particles[1, 0]


def test_pure_repulsion_leaves_ensemble_mean_fixed():
    rng = np.random.default_rng(5)
    cfg = SvgdConfig(step_size=0.1, kernel=RbfKernel(1.0))
    ps = ParticleSet(rng.normal(size=(7, 2)), *flat_box())
    m0 = ps.particles.mean(axis=0)
    for _ in range(50):
        ps = step(flat_gap, ps, cfg)
    np.testing.assert_allclose(ps.particles.mean(axis=0), m0, atol=1e-12)
    # and the particles themselves spread out
    assert ps.particles.std(axis=0).min() > 0.1


@given(dim=st.integers(1, 4),
       kernel=st.sampled_from([RbfKernel(1.0), ImqKernel(), ConstantKernel()]),
       step_size=st.floats(0.0, 10.0), data=st.data())
def test_update_respects_the_box(dim, kernel, step_size, data):
    def vector(low, high):
        return np.array(data.draw(st.lists(st.floats(low, high), min_size=dim, max_size=dim)))

    lower = vector(-10.0, 10.0)
    upper = lower + vector(0.01, 10.0)
    pull = vector(-100.0, 100.0)  # up to a huge outward pull
    count = data.draw(st.integers(1, 6))
    fractions = data.draw(arrays(float, (count, dim), elements=st.floats(0.0, 1.0)))
    start = lower + fractions * (upper - lower)
    ps = ParticleSet(np.clip(start, lower, upper), lower, upper)
    for _ in range(5):
        ps = step(lambda ths: ths @ pull, ps, SvgdConfig(step_size=step_size, kernel=kernel))
        assert np.all(ps.particles <= upper) and np.all(ps.particles >= lower)


def test_svgd_step_does_not_mutate_its_input():
    ps = ParticleSet([[1.0], [2.0]], *WIDE)
    before = ps.particles.copy()
    step(normal_gap, ps, SvgdConfig(step_size=0.5, kernel=RbfKernel(1.0)))
    np.testing.assert_array_equal(ps.particles, before)


def test_imq_kernel_also_transports_toward_the_target():
    cfg = SvgdConfig(step_size=0.05, kernel=ImqKernel())
    ps = ParticleSet(np.linspace(2.0, 4.0, 10)[:, None], *WIDE)
    for _ in range(300):
        ps = step(normal_gap, ps, cfg)
    assert abs(ps.particles.mean()) < 0.5


# ------------------------------------------------------------------- ksd


def test_ksd_single_particle_at_mode_is_two_over_bandwidth():
    one = ParticleSet([[0.0]], *WIDE)
    for bandwidth, expected in [(1.0, 2.0), (2.0, 1.0)]:
        cfg = SvgdConfig(kernel=RbfKernel(bandwidth))
        assert ksd(normal_gap, one, cfg) == pytest.approx(expected, abs=1e-9)


def test_ksd_small_for_iid_target_draws():
    rng = np.random.default_rng(7)
    draws = np.clip(rng.standard_normal((500, 1)), -8, 8)
    value = ksd(normal_gap, ParticleSet(draws, *WIDE), SvgdConfig(kernel=RbfKernel(1.0)))
    assert -1e-10 < value < 0.1


def test_ksd_decreases_under_transport():
    cfg = SvgdConfig(step_size=0.05, kernel=RbfKernel(1.0))
    ps = ParticleSet(np.linspace(2.0, 4.0, 20)[:, None], *WIDE)
    k0 = ksd(normal_gap, ps, cfg)
    for _ in range(200):
        ps = step(normal_gap, ps, cfg)
    assert ksd(normal_gap, ps, cfg) < k0


def test_ksd_rejects_degenerate_kernels():
    with pytest.raises(ValueError):
        ksd(normal_gap, ParticleSet([[0.0]], *WIDE), SvgdConfig(kernel=ConstantKernel()))


# ------------------------------------------------------------------- config


def test_svgd_config_validation():
    with pytest.raises(ValueError):
        SvgdConfig(step_size=-0.1)
    with pytest.raises(ValueError):
        SvgdConfig(iterations=-1)
    with pytest.raises(ValueError):
        SvgdConfig(fd_epsilon=0.0)
    with pytest.raises(ValueError):
        SvgdConfig(sign_mode="sideways")
    assert SvgdConfig(sign_mode="adversarial").sign == 1.0
    assert SvgdConfig(sign_mode="favoring").sign == -1.0
