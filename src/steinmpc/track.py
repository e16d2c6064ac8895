"""Stadium track geometry and lap bookkeeping for the race car benchmark.

The centerline is two parallel straights joined by two semicircles, traversed
counterclockwise, parameterized by arc length starting at the left end of the
bottom straight heading along +x. All geometry is closed form; no splines.
One table describes the four segments in lap order, and both directions
between arc length and the plane, ``pose`` and ``nearest_arclength``, read it.

A racing trial reads the track through two objects. ``LapProgress`` is the
trial's lap count: the plant's state after each step, projected onto the
centerline, as an unwrapped fraction of a lap. ``CenterlineReference`` is
the cost's moving target: in each planning cycle, the centerline states
that a plan starting from the car's state tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_ranges

__all__ = [
    "StadiumTrack",
    "LapProgress",
    "CenterlineReference",
]


@dataclass(frozen=True)
class StadiumTrack:
    """Stadium centerline centered at the origin.

    Attributes:
        straight_length: length of each of the two straights.
        radius: radius of the two semicircular ends.
        reference_speed: target speed along the centerline.

    ``total_length``, the lap length 2 * straight_length + 2 * pi * radius,
    is computed once, with the segment table; neither is a field, so
    ``==``, ``hash`` and ``repr`` read the three attributes alone.
    """

    straight_length: float = 5.0
    radius: float = 2.0
    reference_speed: float = 2.0

    def __post_init__(self):
        _check_ranges(self, straight_length="positive", radius="positive",
                      reference_speed="positive")
        # The segments in lap order: (length, arc, anchor x, anchor y, direction,
        # heading at the start). A straight runs from its anchor along x in direction
        # +1 or -1; an arc turns counterclockwise about its anchor from angle direction.
        length, r = self.straight_length, self.radius
        half, arc = length / 2.0, math.pi * r
        object.__setattr__(self, "_segments", (
            (length, False, -half, -r, 1.0, 0.0),
            (arc, True, half, 0.0, -0.5 * math.pi, 0.0),
            (length, False, half, r, -1.0, math.pi),
            (arc, True, -half, 0.0, 0.5 * math.pi, math.pi),
        ))
        object.__setattr__(self, "total_length", 2.0 * length + 2.0 * math.pi * r)

    def pose(self, s: float) -> tuple[float, float, float, float]:
        """Centerline (x, y, heading, yaw rate) at arc length s.

        s wraps around the lap and walks down the segment table one length
        at a time; the distance left into its segment gives the position and
        the heading. The heading is unwrapped, growing by 2*pi per completed
        lap so costs built from it never see a jump at the finish line. The
        yaw rate is v/R on the arcs and zero on the straights.
        """
        total = self.total_length
        laps = math.floor(float(s) / total)
        a = float(s) - laps * total
        turns = 2.0 * math.pi * laps
        segments, i = self._segments, 0
        while i < len(segments) - 1 and a >= segments[i][0]:
            a -= segments[i][0]
            i += 1
        _, arc, x0, y0, direction, heading = segments[i]
        if not arc:
            return x0 + direction * a, y0, heading + turns, 0.0
        r = self.radius
        ang = direction + a / r
        return (x0 + r * math.cos(ang), y0 + r * math.sin(ang), heading + a / r + turns,
                self.reference_speed / r)

    def nearest_arclength(self, xy) -> float:
        """Arc length of the centerline point nearest to xy (in [0, total)).

        Exact projection onto each segment of the table (an arc's angle is
        taken within pi of its midpoint), plus the lengths of the segments
        before it; ties resolve to the earliest segment so the start point
        reads 0, not one full lap.
        """
        x, y = float(xy[0]), float(xy[1])
        half, r = self.straight_length / 2.0, self.radius
        best, start = None, 0.0
        for length, arc, x0, y0, direction, _ in self._segments:
            if arc:
                ang = math.atan2(y - y0, x - x0)
                if ang < direction - 0.5 * math.pi:
                    ang += 2.0 * math.pi
                ang = min(max(ang, direction), direction + math.pi)
                px, py = x0 + r * math.cos(ang), y0 + r * math.sin(ang)
                along = (ang - direction) * r
            else:
                px, py = min(max(x, -half), half), y0
                along = direction * (px - x0)
            d = (px - x) ** 2 + (py - y) ** 2
            if best is None or d < best[0] - 1e-15:
                best = d, start + along
            start += length
        return best[1] % self.total_length


class LapProgress:
    """Unwrapped lap fraction of one trial, one state after another.

    ``update`` returns the fraction of the lap at the centerline point
    nearest to the state. The first call of a trial gets the raw fraction;
    each later one moves it by whole laps to within half a lap of the value
    before, so the fraction stays continuous across the finish line and a
    completed lap reads >= 1.0.
    """

    def __init__(self, track: StadiumTrack):
        self._track = track
        self._value: float | None = None

    def update(self, state) -> float:
        track = self._track
        frac = track.nearest_arclength(np.asarray(state, dtype=float)[:2]) / track.total_length
        if self._value is not None:
            delta = (frac - self._value) % 1.0
            if delta >= 0.5:
                delta -= 1.0
            frac = self._value + delta
        self._value = frac
        return frac


class CenterlineReference:
    """Moving-target reference states for receding-horizon tracking.

    For a plan starting at state x0, step t of the horizon tracks the
    centerline point a further t * dt * reference_speed ahead of x0's
    projection. Reference headings are shifted by whole turns onto the car's
    own heading branch, keeping the quadratic angle error meaningful for a
    car that has already accumulated full laps of heading.
    """

    def __init__(self, track: StadiumTrack):
        self.track = track

    def horizon_states(self, x0: np.ndarray, steps: int, dt: float) -> np.ndarray:
        """(steps + 1, 5) reference states [x, y, heading, speed, yaw rate]."""
        x0 = np.asarray(x0, dtype=float)
        track = self.track
        s0 = track.nearest_arclength(x0[:2])
        refs = np.empty((steps + 1, 5))
        for t in range(steps + 1):
            x, y, heading, yaw_rate = track.pose(s0 + track.reference_speed * t * dt)
            refs[t] = (x, y, heading, track.reference_speed, yaw_rate)
        base = refs[0, 2]
        turns = round((x0[2] - base) / (2.0 * math.pi))
        refs[:, 2] += 2.0 * math.pi * turns
        return refs
