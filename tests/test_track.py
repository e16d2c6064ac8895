"""Stadium geometry, lap progress accounting, and the moving reference."""
import math

import numpy as np
import pytest

from steinmpc.track import (
    CenterlineReference,
    LapProgress,
    StadiumTrack,
)

TRACK = StadiumTrack()  # straights 5, radius 2, speed 2


def test_total_length():
    assert TRACK.total_length == pytest.approx(10.0 + 4.0 * math.pi)


def test_point_walks_the_four_segments():
    np.testing.assert_allclose(TRACK.point(0.0), [-2.5, -2.0])
    np.testing.assert_allclose(TRACK.point(2.5), [0.0, -2.0])
    np.testing.assert_allclose(TRACK.point(5.0), [2.5, -2.0])
    # halfway around the right arc is the rightmost point of the stadium
    np.testing.assert_allclose(TRACK.point(5.0 + math.pi), [4.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(TRACK.point(5.0 + 2.0 * math.pi), [2.5, 2.0], atol=1e-12)
    np.testing.assert_allclose(TRACK.point(7.5 + 2.0 * math.pi), [0.0, 2.0], atol=1e-12)


def test_point_wraps_past_one_lap():
    np.testing.assert_allclose(
        TRACK.point(TRACK.total_length + 2.5), TRACK.point(2.5), atol=1e-12
    )


def test_heading_piecewise_values():
    assert TRACK.heading(2.0) == 0.0
    assert TRACK.heading(5.0 + math.pi) == pytest.approx(math.pi / 2.0)
    assert TRACK.heading(8.0 + 2.0 * math.pi) == pytest.approx(math.pi)


def test_heading_unwraps_across_laps():
    # one full lap adds a full turn instead of snapping back to zero
    assert TRACK.heading(TRACK.total_length + 1.0) == pytest.approx(2.0 * math.pi)
    assert TRACK.heading(3.0 * TRACK.total_length) == pytest.approx(6.0 * math.pi)


def test_yaw_rate_reference_zero_on_straights_vr_on_arcs():
    assert TRACK.yaw_rate_reference(1.0) == 0.0
    assert TRACK.yaw_rate_reference(6.0) == pytest.approx(2.0 / 2.0)
    assert TRACK.yaw_rate_reference(7.5 + 2.0 * math.pi) == 0.0


def test_nearest_arclength_recovers_centerline_points():
    for s in (0.0, 1.3, 5.0 + 0.4 * math.pi, 9.0, 12.0 + 2.0 * math.pi):
        assert TRACK.nearest_arclength(TRACK.point(s)) == pytest.approx(
            s % TRACK.total_length, abs=1e-9
        )


def test_nearest_arclength_projects_interior_and_exterior_points():
    assert TRACK.nearest_arclength([1.0, -1.5]) == pytest.approx(3.5)
    assert TRACK.nearest_arclength([6.0, 0.0]) == pytest.approx(5.0 + math.pi)
    assert TRACK.nearest_arclength([0.0, 2.7]) == pytest.approx(7.5 + 2.0 * math.pi)


def test_nearest_arclength_start_reads_zero_not_full_lap():
    assert TRACK.nearest_arclength([-2.5, -2.0]) == pytest.approx(0.0, abs=1e-12)


def _on_track(fraction):
    """A state on the centerline ``fraction`` of a lap from the start."""
    return np.append(TRACK.point(fraction * TRACK.total_length), [0, 0, 0])


def test_track_reference_stacks_pose_speed_yaw():
    # a car on the right arc's midpoint, heading along it, gets that point's state
    x0 = np.array([4.5, 0.0, math.pi / 2.0, 0.0, 0.0])
    refs = CenterlineReference(TRACK).horizon_states(x0, steps=0, dt=0.1)
    np.testing.assert_allclose(refs, [[4.5, 0.0, math.pi / 2.0, 2.0, 1.0]], atol=1e-12)


def test_track_progress_first_call_is_raw_fraction():
    assert LapProgress(TRACK).update([0.0, -2.0, 0, 0, 0]) == pytest.approx(
        2.5 / TRACK.total_length
    )


def test_track_progress_unwraps_forward_across_finish():
    lp = LapProgress(TRACK)
    lp.update(_on_track(0.97))
    assert lp.update([-2.45, -2.0, 0, 0, 0]) == pytest.approx(1.0022156863792793)


def test_track_progress_small_reverse_goes_negative():
    lp = LapProgress(TRACK)
    lp.update(_on_track(0.02))
    assert lp.update(_on_track(0.95)) == pytest.approx(-0.05)


def test_lap_progress_accumulates_beyond_one():
    lp = LapProgress(TRACK)
    values = [lp.update(_on_track(f)) for f in (0.0, 0.3, 0.6, 0.9, 1.1)]
    np.testing.assert_allclose(values, [0.0, 0.3, 0.6, 0.9, 1.1], atol=1e-9)


def test_centerline_reference_marches_at_reference_speed():
    refs = CenterlineReference(TRACK).horizon_states(
        np.array([-2.5, -2.0, 0.0, 0.0, 0.0]), steps=2, dt=0.1
    )
    assert refs.shape == (3, 5)
    np.testing.assert_allclose(refs[:, 0], [-2.5, -2.3, -2.1], atol=1e-12)
    np.testing.assert_allclose(refs[:, 1], -2.0)
    np.testing.assert_allclose(refs[:, 3], 2.0)


def test_centerline_reference_matches_heading_branch_of_the_car():
    # a car that has already turned twice sees references four pi up
    x0 = np.array([-2.5, -2.0, 4.0 * math.pi + 0.1, 0.0, 0.0])
    refs = CenterlineReference(TRACK).horizon_states(x0, steps=1, dt=0.1)
    np.testing.assert_allclose(refs[:, 2], 4.0 * math.pi, atol=1e-12)


def test_validation_rejects_bad_geometry():
    with pytest.raises(ValueError):
        StadiumTrack(straight_length=0.0)
    with pytest.raises(ValueError):
        StadiumTrack(radius=-1.0)
    with pytest.raises(ValueError):
        StadiumTrack(reference_speed=0.0)
