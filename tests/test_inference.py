"""Particle transport, posterior scores, and the Stein discrepancy diagnostic."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steinmpc.inference import (
    ParticleSet,
    PosteriorModel,
    ScoreEvaluationError,
    SvgdConfig,
    draw_particles,
    ksd_estimate,
    particle_mean,
    posterior_score_batch,
    svgd_step,
)
from steinmpc.kernels import ConstantKernel, ImqKernel, RbfKernel

WIDE = np.array([-8.0]), np.array([8.0])


def normal_model():
    # gap = -theta^2/2, so the adversarial score is -theta: standard normal
    return PosteriorModel(
        gap=lambda ths: -0.5 * ths[:, 0] ** 2,
        lower=WIDE[0],
        upper=WIDE[1],
    )


def flat_model(dim=2, half_width=8.0):
    return PosteriorModel(
        gap=lambda ths: np.zeros(len(ths)),
        lower=-half_width * np.ones(dim),
        upper=half_width * np.ones(dim),
    )


# ---------------------------------------------------------------- ParticleSet


def test_particle_set_promotes_single_vector():
    ps = ParticleSet(np.array([1.0, 2.0]), [0.0, 0.0], [3.0, 3.0])
    assert ps.particles.shape == (1, 2)
    assert ps.count == 1 and ps.dim == 2


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


def test_draw_particles_stay_inside_and_are_reproducible():
    lo, hi = np.array([0.3, 1.0]), np.array([1.0, 2.0])
    a = draw_particles(lo, hi, 64, np.random.default_rng(42))
    b = draw_particles(lo, hi, 64, np.random.default_rng(42))
    assert np.all(a.particles >= lo) and np.all(a.particles <= hi)
    np.testing.assert_array_equal(a.particles, b.particles)


def test_particle_mean():
    ps = ParticleSet([[0.0, 2.0], [1.0, 4.0]], [0.0, 0.0], [2.0, 5.0])
    np.testing.assert_allclose(particle_mean(ps), [0.5, 3.0])


# ------------------------------------------------------------------- scoring


def test_score_zero_for_flat_gap():
    score = posterior_score_batch(np.array([0.3, -0.4])[None], flat_model(), SvgdConfig())[0]
    np.testing.assert_allclose(score, [0.0, 0.0])


def test_score_of_quadratic_gap_both_signs():
    model = PosteriorModel(
        gap=lambda ths: (ths[:, 0] - 1.0) ** 2,
        lower=np.array([-8.0]),
        upper=np.array([8.0]),
    )
    theta = np.array([2.0])
    up = posterior_score_batch(theta[None], model, SvgdConfig(sign_mode="adversarial"))[0]
    down = posterior_score_batch(theta[None], model, SvgdConfig(sign_mode="favoring"))[0]
    assert up[0] == pytest.approx(2.0, abs=1e-6)
    assert down[0] == pytest.approx(-2.0, abs=1e-6)


def test_score_matches_analytic_gradient_random_quadratics():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=3)
        h = rng.uniform(0.5, 2.0, size=3)
        model = PosteriorModel(
            gap=lambda ths, a=a, h=h: np.sum(h * (ths - a) ** 2, axis=1),
            lower=-5.0 * np.ones(3),
            upper=5.0 * np.ones(3),
        )
        theta = rng.uniform(-2, 2, size=3)
        got = posterior_score_batch(theta[None], model, SvgdConfig())[0]
        np.testing.assert_allclose(got, 2.0 * h * (theta - a), atol=1e-4)


def test_score_clamps_theta_into_the_box():
    model = PosteriorModel(
        gap=lambda ths: (ths[:, 0] - 1.0) ** 2,
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )
    # clamped to the boundary 1.0, where the quadratic gradient vanishes
    score = posterior_score_batch(np.array([5.0])[None], model, SvgdConfig())[0]
    assert abs(score[0]) < 1e-6


def test_score_error_carries_the_offending_theta():
    model = PosteriorModel(
        gap=lambda ths: np.full(len(ths), np.nan),
        lower=np.array([0.0]),
        upper=np.array([1.0]),
    )
    with pytest.raises(ScoreEvaluationError) as info:
        posterior_score_batch(np.array([0.5])[None], model, SvgdConfig())
    assert info.value.theta.shape == (1,)


def test_score_steps_normalize_to_box_width():
    # same quadratic expressed on a box 1e6 wider: accuracy must not degrade
    for width in (1.0, 1e6):
        model = PosteriorModel(
            gap=lambda ths: (ths[:, 0] / width) ** 2,
            lower=np.array([-width]),
            upper=np.array([width]),
        )
        got = posterior_score_batch(np.array([0.3 * width])[None], model, SvgdConfig())[0]
        assert got[0] * width == pytest.approx(0.6, abs=1e-6)


def test_score_batch_matches_stacked_single_calls():
    model = normal_model()
    thetas = np.linspace(-2, 2, 7)[:, None]
    batch = posterior_score_batch(thetas, model, SvgdConfig())
    singles = np.stack([posterior_score_batch(t[None], model, SvgdConfig())[0] for t in thetas])
    np.testing.assert_allclose(batch, singles, atol=1e-12)


# ----------------------------------------------------------------- svgd_step


def test_single_particle_update_is_plain_ascent():
    model = normal_model()
    cfg = SvgdConfig(step_size=0.1, kernel=RbfKernel(1.0))
    ps = ParticleSet([[1.5]], *WIDE)
    out = svgd_step(ps, model, cfg)
    # self-kernel is 1 and self-repulsion 0, so the move is alpha * score
    assert out.particles[0, 0] == pytest.approx(1.5 - 0.1 * 1.5, abs=1e-5)


def test_constant_kernel_is_parallel_gradient_ascent_bitwise():
    model = normal_model()
    cfg = SvgdConfig(step_size=0.05, kernel=ConstantKernel())
    pts = np.linspace(-2, 2, 9)[:, None]
    stepped = svgd_step(ParticleSet(pts, *WIDE), model, cfg)
    scores = posterior_score_batch(pts, model, cfg)
    expect = np.clip(pts + 0.05 * scores, -8.0, 8.0)
    np.testing.assert_array_equal(stepped.particles, expect)


def test_svgd_step_is_permutation_equivariant():
    model = normal_model()
    cfg = SvgdConfig(step_size=0.05, kernel=RbfKernel(1.0))
    pts = np.array([[-1.0], [0.3], [2.2], [0.9]])
    perm = [2, 0, 3, 1]
    a = svgd_step(ParticleSet(pts, *WIDE), model, cfg).particles
    b = svgd_step(ParticleSet(pts[perm], *WIDE), model, cfg).particles
    np.testing.assert_allclose(a[perm], b, atol=1e-14)


def test_coincident_particles_move_identically():
    model = normal_model()
    cfg = SvgdConfig(step_size=0.05, kernel=RbfKernel(1.0))
    out = svgd_step(ParticleSet([[1.0], [1.0], [-0.5]], *WIDE), model, cfg)
    assert out.particles[0, 0] == out.particles[1, 0]


def test_pure_repulsion_leaves_ensemble_mean_fixed():
    rng = np.random.default_rng(5)
    model = flat_model()
    cfg = SvgdConfig(step_size=0.1, kernel=RbfKernel(1.0))
    ps = ParticleSet(rng.normal(size=(7, 2)), model.lower, model.upper)
    m0 = ps.particles.mean(axis=0)
    for _ in range(50):
        ps = svgd_step(ps, model, cfg)
    np.testing.assert_allclose(ps.particles.mean(axis=0), m0, atol=1e-12)
    # and the particles themselves spread out
    assert ps.particles.std(axis=0).min() > 0.1


@settings(max_examples=60, deadline=None)
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
    model = PosteriorModel(gap=lambda ths: ths @ pull, lower=lower, upper=upper)
    ps = ParticleSet(np.clip(start, lower, upper), lower, upper)
    for _ in range(5):
        ps = svgd_step(ps, model, SvgdConfig(step_size=step_size, kernel=kernel))
        assert np.all(ps.particles <= upper) and np.all(ps.particles >= lower)


def test_svgd_step_does_not_mutate_its_input():
    model = normal_model()
    ps = ParticleSet([[1.0], [2.0]], *WIDE)
    before = ps.particles.copy()
    svgd_step(ps, model, SvgdConfig(step_size=0.5, kernel=RbfKernel(1.0)))
    np.testing.assert_array_equal(ps.particles, before)


def test_imq_kernel_also_transports_toward_the_target():
    model = normal_model()
    cfg = SvgdConfig(step_size=0.05, kernel=ImqKernel())
    ps = ParticleSet(np.linspace(2.0, 4.0, 10)[:, None], *WIDE)
    for _ in range(300):
        ps = svgd_step(ps, model, cfg)
    assert abs(ps.particles.mean()) < 0.5


# ------------------------------------------------------------------- ksd


def test_ksd_single_particle_at_mode_is_two_over_bandwidth():
    model = normal_model()
    one = ParticleSet([[0.0]], *WIDE)
    cfg = SvgdConfig()
    assert ksd_estimate(one, model, RbfKernel(1.0), cfg) == pytest.approx(2.0, abs=1e-9)
    assert ksd_estimate(one, model, RbfKernel(2.0), cfg) == pytest.approx(1.0, abs=1e-9)


def test_ksd_small_for_iid_target_draws():
    model = normal_model()
    rng = np.random.default_rng(7)
    draws = np.clip(rng.standard_normal((500, 1)), -8, 8)
    ksd = ksd_estimate(ParticleSet(draws, *WIDE), model, RbfKernel(1.0), SvgdConfig())
    assert -1e-10 < ksd < 0.1


def test_ksd_decreases_under_transport():
    model = normal_model()
    cfg = SvgdConfig(step_size=0.05, kernel=RbfKernel(1.0))
    ps = ParticleSet(np.linspace(2.0, 4.0, 20)[:, None], *WIDE)
    k0 = ksd_estimate(ps, model, cfg.kernel, cfg)
    for _ in range(200):
        ps = svgd_step(ps, model, cfg)
    assert ksd_estimate(ps, model, cfg.kernel, cfg) < k0


def test_ksd_rejects_degenerate_kernels():
    with pytest.raises(ValueError):
        ksd_estimate(ParticleSet([[0.0]], *WIDE), normal_model(), ConstantKernel())


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


def test_posterior_model_validation():
    flat = lambda ths: np.zeros(len(ths))
    with pytest.raises(ValueError):
        PosteriorModel(gap=flat, lower=np.zeros(2), upper=np.ones(3))
    with pytest.raises(ValueError):
        PosteriorModel(gap=flat, lower=np.ones(2), upper=np.ones(2))
