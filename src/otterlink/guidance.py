"""Reference paths, cross-track geometry, and line-of-sight guidance.

Paths are polylines of (north, east) points, optionally closed. The
figure-eight benchmark path is a Gerono lemniscate
(north, east) = (A sin t, A sin t cos t) sampled densely.

Cross-track error is the signed perpendicular distance to the nearest
segment, positive to port (left) of the path direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LosConfig:
    lookahead: float = 8.0      # m
    accept_radius: float = 2.0  # m
    speed: float = 1.0          # m/s

    def __post_init__(self):
        if self.lookahead <= 0 or self.accept_radius <= 0:
            raise ValueError("lookahead and accept_radius must be positive")


@dataclass(frozen=True)
class Projection:
    seg_index: int
    s_along: float        # arc length of the foot point from path start
    cross_track: float    # signed, positive to port of path direction
    path_heading: float   # rad, tangent bearing of the nearest segment


class PolylinePath:
    def __init__(self, points, closed: bool = False):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("path needs at least 2 (north, east) points")
        if closed and np.allclose(pts[0], pts[-1]):
            pts = pts[:-1]
        self.points = pts
        self.closed = closed
        ends = np.vstack([pts[1:], pts[:1]]) if closed else pts[1:]
        starts = pts if closed else pts[:-1]
        vecs = ends - starts
        lengths = np.hypot(vecs[:, 0], vecs[:, 1])
        keep = lengths > 1e-12  # degenerate zero-length segments skipped
        self._starts = starts[keep]
        self._vecs = vecs[keep]
        self._lengths = lengths[keep]
        if len(self._lengths) == 0:
            raise ValueError("path has no non-degenerate segment")
        self._cum = np.concatenate([[0.0], np.cumsum(self._lengths)])
        self._mids = 0.5 * (self._cum[:-1] + self._cum[1:])
        self._tangents = self._vecs / self._lengths[:, None]
        # port normal of direction (cos X, sin X) is (sin X, -cos X)
        self._port = np.column_stack([self._tangents[:, 1],
                                      -self._tangents[:, 0]])
        self._headings = np.arctan2(self._vecs[:, 1], self._vecs[:, 0])
        # per-component copies for the foot-point kernel: numpy reductions
        # over a length-2 axis cost more than the arithmetic they sum
        self._sn, self._se = np.ascontiguousarray(self._starts.T)
        self._vn, self._ve = np.ascontiguousarray(self._vecs.T)
        self._tn, self._te = np.ascontiguousarray(self._tangents.T)

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    @property
    def end_point(self) -> np.ndarray:
        return self._starts[-1] + self._vecs[-1]

    def _foot(self, pn, pe):
        """Clamped foot-point parameter t and squared distance d2 of
        (pn, pe) to every segment: scalars give (segments,) arrays,
        (K, 1) columns give (K, segments)."""
        t = np.clip(((pn - self._sn) * self._tn + (pe - self._se) * self._te)
                    / self._lengths, 0.0, 1.0)
        d2 = ((pn - (self._sn + t * self._vn)) ** 2
              + (pe - (self._se + t * self._ve)) ** 2)
        return t, d2

    def _nearest(self, north: float, east: float, t, d2) -> Projection:
        i = int(np.argmin(d2))  # ties go to the lowest segment index
        e_ct = float((np.array([north, east]) - self._starts[i])
                     @ self._port[i])
        s = float(self._cum[i] + t[i] * self._lengths[i])
        return Projection(i, s, e_ct, float(self._headings[i]))

    def project(self, north: float, east: float) -> Projection:
        """Nearest-segment projection of a point onto the path."""
        return self._nearest(north, east, *self._foot(north, east))

    def project_near(self, north: float, east: float,
                     s_hint: float | None = None,
                     window: float = 10.0) -> Projection:
        """Projection restricted to segments whose arc midpoint lies
        within `window` meters (plus half the segment) of arc position
        s_hint.

        Keeps the foot point on the expected branch of a
        self-intersecting path. The window is a mask over the segment
        midpoints precomputed in __init__: the other segments' d2 is set
        to inf, so argmin ties resolve to the lowest index as in a
        global projection. With s_hint None, or no segment in range,
        this is the global projection.
        """
        t, d2 = self._foot(north, east)
        if s_hint is not None:
            if self.closed:
                s_hint = s_hint % self.length
            d = self._mids - s_hint
            if self.closed:
                half = 0.5 * self.length
                d = (d + half) % self.length - half
            outside = np.abs(d) > window + 0.5 * self._lengths
            if not outside.all():
                d2[outside] = np.inf
        return self._nearest(north, east, t, d2)

    def project_many(self, points: np.ndarray):
        """Vectorized nearest-segment projection of (K, 2) points.

        Returns (cross_track (K,), path_heading (K,), port_normal (K, 2)).
        """
        p = np.asarray(points, dtype=float)
        _, d2 = self._foot(p[:, 0:1], p[:, 1:2])
        idx = np.argmin(d2, axis=1)
        port = self._port[idx]
        e_ct = ((p - self._starts[idx]) * port).sum(axis=1)
        return e_ct, self._headings[idx], port

    def point_at(self, s: float) -> np.ndarray:
        """Point at arc length s (wrapping if closed, clamped if open)."""
        if self.closed:
            s = s % self.length
        else:
            s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self._cum, s, side="right")) - 1
        i = min(max(i, 0), len(self._lengths) - 1)
        frac = (s - self._cum[i]) / self._lengths[i]
        return self._starts[i] + frac * self._vecs[i]


def figure_eight(amplitude: float, center=(0.0, 0.0),
                 samples: int = 256) -> PolylinePath:
    """Gerono lemniscate sampled into a closed polyline."""
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    t = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    north = center[0] + amplitude * np.sin(t)
    east = center[1] + amplitude * np.sin(t) * np.cos(t)
    return PolylinePath(np.column_stack([north, east]), closed=True)


def bearing_deg(d_north: float, d_east: float) -> float:
    return math.degrees(math.atan2(d_east, d_north)) % 360.0


def los_guidance(north: float, east: float, path: PolylinePath,
                 los: LosConfig,
                 s_hint: float | None = None
                 ) -> tuple[float, float, float]:
    """Line-of-sight guidance: course toward the point `lookahead`
    meters ahead of the nearest-point projection.

    Returns (course_deg in [0, 360), speed m/s, s_along of the
    projection). On an open path the speed drops to zero inside
    accept_radius of the final waypoint. An s_hint pins the projection
    to the expected branch of a self-intersecting path; the returned
    s_along is the hint for the next call.
    """
    proj = path.project_near(north, east, s_hint)
    target = path.point_at(proj.s_along + los.lookahead)
    if not path.closed:
        end = path.end_point
        dist_end = math.hypot(end[0] - north, end[1] - east)
        if dist_end <= los.accept_radius:
            return (bearing_deg(end[0] - north, end[1] - east), 0.0,
                    proj.s_along)
    dn, de = target[0] - north, target[1] - east
    if math.hypot(dn, de) < 1e-9:
        tangent_heading = math.degrees(proj.path_heading) % 360.0
        return tangent_heading, los.speed, proj.s_along
    return bearing_deg(dn, de), los.speed, proj.s_along


class LapTracker:
    """Unwrapped arc-length progress along a closed path."""

    def __init__(self, path: PolylinePath):
        self.path = path
        self._last_s: float | None = None
        self.total = 0.0

    def update(self, north: float, east: float) -> float:
        s = self.path.project_near(north, east, self._last_s).s_along
        if self._last_s is not None:
            delta = s - self._last_s
            if self.path.closed:
                half = 0.5 * self.path.length
                if delta < -half:
                    delta += self.path.length
                elif delta > half:
                    delta -= self.path.length
            self.total += delta
        self._last_s = s
        return self.total

    @property
    def laps(self) -> float:
        return self.total / self.path.length
