"""Stadium geometry, lap progress accounting, and the moving reference."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinmpc.track import (
    CenterlineReference,
    LapProgress,
    StadiumTrack,
)

TRACK = StadiumTrack()  # straights 5, radius 2, speed 2


def test_total_length():
    assert TRACK.total_length == pytest.approx(10.0 + 4.0 * math.pi)


@given(straight=st.floats(0.1, 20.0), radius=st.floats(0.1, 20.0), speed=st.floats(0.1, 10.0))
def test_the_length_computed_once_follows_replace_and_stays_out_of_eq_hash_repr(
        straight, radius, speed):
    track = dataclasses.replace(TRACK, straight_length=straight, radius=radius,
                                reference_speed=speed)
    assert track.total_length == 2.0 * straight + 2.0 * math.pi * radius
    fields = (straight, radius, speed)
    assert hash(track) == hash(fields)
    assert repr(track) == (f"StadiumTrack(straight_length={straight!r}, radius={radius!r}, "
                           f"reference_speed={speed!r})")
    assert track == StadiumTrack(*fields) and (track == TRACK) == (fields == (5.0, 2.0, 2.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        track.total_length = 1.0


def test_point_walks_the_four_segments():
    np.testing.assert_allclose(TRACK.pose(0.0)[:2], [-2.5, -2.0])
    np.testing.assert_allclose(TRACK.pose(2.5)[:2], [0.0, -2.0])
    np.testing.assert_allclose(TRACK.pose(5.0)[:2], [2.5, -2.0])
    # halfway around the right arc is the rightmost point of the stadium
    np.testing.assert_allclose(TRACK.pose(5.0 + math.pi)[:2], [4.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(TRACK.pose(5.0 + 2.0 * math.pi)[:2], [2.5, 2.0], atol=1e-12)
    np.testing.assert_allclose(TRACK.pose(7.5 + 2.0 * math.pi)[:2], [0.0, 2.0], atol=1e-12)


def test_point_wraps_past_one_lap():
    np.testing.assert_allclose(
        TRACK.pose(TRACK.total_length + 2.5)[:2], TRACK.pose(2.5)[:2], atol=1e-12
    )


def test_heading_piecewise_values():
    assert TRACK.pose(2.0)[2] == 0.0
    assert TRACK.pose(5.0 + math.pi)[2] == pytest.approx(math.pi / 2.0)
    assert TRACK.pose(8.0 + 2.0 * math.pi)[2] == pytest.approx(math.pi)


def test_heading_unwraps_across_laps():
    # one full lap adds a full turn instead of snapping back to zero
    assert TRACK.pose(TRACK.total_length + 1.0)[2] == pytest.approx(2.0 * math.pi)
    assert TRACK.pose(3.0 * TRACK.total_length)[2] == pytest.approx(6.0 * math.pi)


def test_yaw_rate_reference_zero_on_straights_vr_on_arcs():
    assert TRACK.pose(1.0)[3] == 0.0
    assert TRACK.pose(6.0)[3] == pytest.approx(2.0 / 2.0)
    assert TRACK.pose(7.5 + 2.0 * math.pi)[3] == 0.0


def test_nearest_arclength_recovers_centerline_points():
    for s in (0.0, 1.3, 5.0 + 0.4 * math.pi, 9.0, 12.0 + 2.0 * math.pi):
        assert TRACK.nearest_arclength(TRACK.pose(s)[:2]) == pytest.approx(
            s % TRACK.total_length, abs=1e-9
        )


def test_nearest_arclength_projects_interior_and_exterior_points():
    assert TRACK.nearest_arclength([1.0, -1.5]) == pytest.approx(3.5)
    assert TRACK.nearest_arclength([6.0, 0.0]) == pytest.approx(5.0 + math.pi)
    assert TRACK.nearest_arclength([0.0, 2.7]) == pytest.approx(7.5 + 2.0 * math.pi)


def test_nearest_arclength_start_reads_zero_not_full_lap():
    assert TRACK.nearest_arclength([-2.5, -2.0]) == pytest.approx(0.0, abs=1e-12)


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _joins(track, laps=range(-2, 4)):
    """Arc lengths where a segment starts, over the given laps."""
    L, arc = track.straight_length, math.pi * track.radius
    return np.array([lap * track.total_length + start for lap in laps
                     for start in (0.0, L, L + arc, 2.0 * L + arc)])


# The shipped (5, 2, 4.5) track, pinned bit for bit before its four segments
# became one table: ``pose`` over 5001 arc lengths from -2 to +3 laps plus every
# segment join of those laps and the floats either side of it, and
# ``nearest_arclength`` over a 0.1 grid of points on [-7, 7] x [-5, 5]. The
# table walks the left arc's arc length as ((w - L) - arc) - L for the heading
# as well as the position, where the heading once read (w - 2L) - arc. On this
# track both are exact, so they agree: the left arc's w lies in [16.28, 22.57),
# where floats are multiples of 2^-48, and 2*pi's significand ends at 2^-47, so
# each partial difference is a multiple of 2^-48 below 32. For the same reason
# the left arc's running start (L + arc) + L equals 2L + arc.
SHIPPED = StadiumTrack(5.0, 2.0, 4.5)


def test_shipped_track_pose_is_pinned():
    joins = _joins(SHIPPED)
    s = np.concatenate([np.arange(-2000, 3001) / 1000 * SHIPPED.total_length, joins,
                        np.nextafter(joins, -np.inf), np.nextafter(joins, np.inf)])
    assert _digest([SHIPPED.pose(float(v)) for v in s]) == (
        "b7003f8a9bd70d8e2f1a50fa5af4be940edcab40e51479b3507a0da6c10ec5d3")


def test_shipped_track_nearest_arclength_is_pinned():
    x, y = np.meshgrid(np.arange(-70, 71) / 10, np.arange(-50, 51) / 10)
    points = np.stack([x.ravel(), y.ravel()], axis=1)
    assert _digest([SHIPPED.nearest_arclength(p) for p in points]) == (
        "6721187f66672a0d6db90f455407c531932ebe9f7fdc335df7071caf9ad041f9")


@given(straight=st.floats(0.1, 10.0), radius=st.floats(0.1, 10.0),
       fraction=st.floats(-2.0, 3.0))
def test_pose_and_nearest_arclength_invert_each_other_on_any_track(straight, radius, fraction):
    track = StadiumTrack(straight, radius)
    total = track.total_length
    s = fraction * total
    # projecting the centerline point recovers s modulo the lap
    gap = (track.nearest_arclength(track.pose(s)[:2]) - s % total) % total
    assert min(gap, total - gap) <= 1e-9 * total
    # one lap later: the same point, the heading a full turn up
    here, lap = np.array(track.pose(s)), np.array(track.pose(s + total))
    np.testing.assert_allclose(lap[:2], here[:2], rtol=0, atol=1e-9 * total)
    assert lap[2] - here[2] == pytest.approx(2.0 * math.pi, abs=1e-9 * total / radius)
    # x, y and heading are continuous across each join: a step of 2 eps
    # moves them by at most 2 eps, and the heading by at most 2 eps / radius
    eps = 1e-9 * total
    for join in _joins(track, laps=[math.floor(fraction)]):
        before, after = np.array(track.pose(join - eps)), np.array(track.pose(join + eps))
        assert np.hypot(*(after[:2] - before[:2])) <= 2.5 * eps
        assert abs(after[2] - before[2]) <= 2.5 * eps / radius


def _on_track(fraction):
    """A state on the centerline ``fraction`` of a lap from the start."""
    return np.append(TRACK.pose(fraction * TRACK.total_length)[:2], [0, 0, 0])


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


# The racing config's reference rows, pinned bit for bit: (car state, SHA-256 of
# the little-endian float64 bytes of the (11, 5) rows at speed 4.5, 10 steps of
# 0.015 s). The cars sit off the centerline, one on each segment, one on each
# straight whose horizon runs into the next arc, one whose horizon crosses the
# finish line, and one two turns up the heading branch.
REFERENCE_ROWS = {
    "bottom_straight": ([-1.2, -1.9, 0.05, 4.0, 0.0],
                        "0cea2fde568bc8561659458c6d28d46880575a394dcaec6c5cc4475aa86533bc"),
    "into_right_arc": ([2.1, -2.05, 0.0, 4.5, 0.0],
                       "f63c2ba73e9c5d5f465ada59cf4019fae9cff199405506c0d7d3509cb98c93ac"),
    "right_arc": ([3.9, -1.1, 0.9, 4.2, 2.0],
                  "debcbb985da15c7ff1a458780d5591c06ae7f46c43c0d505dc6b58a4beb7c08c"),
    "top_straight": ([0.4, 2.15, 3.1, 4.4, 0.1],
                     "8f33e054682de5a02a82b61964429113f219eabf84afe9edffebb8edf177be4e"),
    "into_left_arc": ([-2.2, 1.95, math.pi, 4.5, 0.0],
                      "0856848c79cb73b0c4bee5a8dbee1e59c48202e22e3f9f54029c18827e60a7da"),
    "left_arc": ([-4.1, 0.6, 4.2, 4.5, 2.2],
                 "2cd5d88eeb47d1ab36009ab63a320df4585d26e1f7e6e3289272b388caba9ce9"),
    "across_finish": ([-2.7, -1.95, 2.0 * math.pi - 0.1, 4.5, 2.0],
                      "aabbc961c1fb063b51fd4602d60b9a28861f124284c52d33bd3fb56e5672519a"),
    "two_turns_up": ([3.9, -1.1, 4.0 * math.pi + 0.9, 4.2, 2.0],
                     "c3b1a75d3a9bf20e552d1faa37542fed2756de40bd0494ab52413b8520d1d250"),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_ROWS))
def test_racing_reference_rows_are_pinned(case):
    x0, digest = REFERENCE_ROWS[case]
    refs = CenterlineReference(StadiumTrack(reference_speed=4.5)).horizon_states(
        np.array(x0), steps=10, dt=0.015
    )
    assert refs.shape == (11, 5)
    assert hashlib.sha256(np.ascontiguousarray(refs, dtype="<f8").tobytes()).hexdigest() == digest


def test_validation_rejects_bad_geometry():
    with pytest.raises(ValueError):
        StadiumTrack(straight_length=0.0)
    with pytest.raises(ValueError):
        StadiumTrack(radius=-1.0)
    with pytest.raises(ValueError):
        StadiumTrack(reference_speed=0.0)
