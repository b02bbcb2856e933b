"""Reference paths, cross-track geometry, and line-of-sight guidance.

Paths are polylines of (north, east) points, optionally closed. The
figure-eight benchmark path is a Gerono lemniscate
(north, east) = (A sin t, A sin t cos t) sampled densely.

Cross-track error is the signed distance to the line of the nearest
segment, positive to port (left) of the path direction. Where the foot
point is clamped to a vertex (past an open path's end, or outside a
corner) that understates the distance to the segment itself, down to 0
along the line's extension (ROADMAP item 17(a)).

Nearest-segment search, of one point or of a batch, first looks in an
exact uniform grid built with the path: each cell lists every segment
that can be nearest to any point in it, ties included, nearest-first by
distance from the cell's centre, with a bound beyond which every
unlisted segment lies. The scan stops once no later candidate can be as
near (the bounds test of Friedman, Bentley & Finkel, ACM TOMS 3(3),
1977) and returns the same segment, bit for bit, as the full kernel. A
window that excludes the cell's nearest is answered by the cell's
in-window candidates when the bound certifies that no unlisted segment
is as near as theirs. Points off the grid, non-finite points, windows
the bound does not certify (an empty window among them) and paths too
large for the grid use the full foot-point kernel over every segment.

Every cross-track error, of `project`, `project_near` and
`project_many` alike, is one expression, `_cross_track`'s, in Python
floats, so no BLAS kernel enters the errors or the metrics logged from
them. `project_many` is `project` point by point, returned as arrays.

`arc_near` is `project_near` without the cross-track error: the arc
position and segment that lap counting and LOS guidance need.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .vessel import DEFAULT_V_MAX


@dataclass(frozen=True)
class LosConfig:
    lookahead: float = 8.0      # m
    accept_radius: float = 2.0  # m
    speed: float = 1.0          # m/s, at most the wire's DEFAULT_V_MAX

    def __post_init__(self):
        # comparisons that NaN fails, so NaN is rejected too
        for name in ("lookahead", "accept_radius"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.speed <= DEFAULT_V_MAX:
            raise ValueError(f"speed must be in [0, {DEFAULT_V_MAX:g}] m/s")


@dataclass(frozen=True)
class Projection:
    seg_index: int
    s_along: float        # arc length of the foot point from path start
    cross_track: float    # signed distance to the nearest segment's line,
                          # positive to port of path direction
    path_heading: float   # rad, tangent bearing of the nearest segment


# Candidate-segment grid of PolylinePath (see _build_grid)
_CELL_SEGMENTS = 4.0          # cell side in median segment lengths
_GRID_MARGIN = 2              # cells around the path's bounding box
_MAX_CELLS = 4096             # the cell side grows to stay under this
_MAX_CELL_SEGMENTS = 1 << 20  # cells x segments; above it, no grid
_BUILD_PAIRS = 8192           # (cell, segment) pairs per kernel call of
                              # the build
_MAX_COORD = 1e150            # beyond it squared distances may overflow
_SLACK = 1e-9                 # relative rounding allowance of the bounds


class PolylinePath:
    def __init__(self, points, closed: bool = False):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("path needs at least 2 (north, east) points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("path points must be finite")
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
        self._length = float(self._cum[-1])
        self._mids = 0.5 * (self._cum[:-1] + self._cum[1:])
        self._tangents = self._vecs / self._lengths[:, None]
        # port normal of direction (cos X, sin X) is (sin X, -cos X)
        self._port = np.column_stack([self._tangents[:, 1],
                                      -self._tangents[:, 0]])
        self._headings = np.arctan2(self._vecs[:, 1], self._vecs[:, 0])
        # per-component rows for the foot-point kernel, (start n, start
        # e, tangent n, tangent e, length, vector n, vector e): numpy
        # reductions over a length-2 axis cost more than the arithmetic
        # they sum
        self._kernel = np.vstack([self._starts.T, self._tangents.T,
                                  self._lengths, self._vecs.T])
        # Python floats for the scalar queries; a row per segment (index,
        # start n, start e, tangent n, tangent e, length, vector n, vector e)
        self._cum_f = self._cum.tolist()
        self._mids_f = self._mids.tolist()
        self._lengths_f = self._lengths.tolist()
        self._headings_f = self._headings.tolist()
        self._rows = list(zip(range(len(self._lengths_f)),
                              *self._kernel.tolist()))
        self._grid = self._build_grid()

    def _build_grid(self):
        """Uniform grid over the bounding box plus a margin, with per cell
        the candidates of a nearest-first search.

        A point p of a cell lies within half the cell diagonal D of its
        centre c, and each segment's distance moves by at most |p - c|,
        so a segment nearest to p (ties included) is within min + D of
        c. Every segment with dist(c) <= bound = min + D + slack is
        listed, the slack covering rounding in the computed distances,
        so every segment off the list lies farther than the bound from
        c. A cell is (centre n, centre e, bound, rows, distances): the
        rows (index, start, tangent, length, vector) of its segments in
        nearest-first order of dist(c), equal distances in index order,
        and those distances in an array('d'). Returns None (full kernel
        only) when cells x segments exceeds its cap or the path's
        coordinates are not moderate.
        """
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        if not np.abs([lo, hi]).max() < _MAX_COORD:
            return None
        n_seg = len(self._lengths)
        # upper median by sort: np.median imports numpy.ma, ~10 ms cold
        side = _CELL_SEGMENTS * float(np.sort(self._lengths)[n_seg // 2])
        while True:
            nx, ny = (int((hi[k] - lo[k]) // side) + 1 + 2 * _GRID_MARGIN
                      for k in (0, 1))
            if nx * ny <= _MAX_CELLS:
                break
            side *= max(1.01, math.sqrt(nx * ny / _MAX_CELLS))
        if nx * ny * n_seg > _MAX_CELL_SEGMENTS:
            return None
        x0 = float(lo[0]) - _GRID_MARGIN * side
        y0 = float(lo[1]) - _GRID_MARGIN * side
        x1, y1 = x0 + nx * side, y0 + ny * side
        diag = math.hypot(side, side)
        slack = _SLACK * (diag + max(abs(x0), abs(x1), abs(y0), abs(y1)))
        rows = self._rows
        centre_n = np.repeat(x0 + (np.arange(nx) + 0.5) * side, ny)
        centre_e = np.tile(y0 + (np.arange(ny) + 0.5) * side, nx)
        chunk = max(1, _BUILD_PAIRS // n_seg)
        cells = []
        for k in range(0, nx * ny, chunk):
            cn, ce = centre_n[k:k + chunk], centre_e[k:k + chunk]
            _, d2 = self._foot(cn[:, None], ce[:, None])
            dist = np.sqrt(d2)
            bound = dist.min(axis=1) + (diag + slack)
            keep = dist <= bound[:, None]
            # the listed segments sort first, and stably: ties by index
            order = np.argsort(dist, axis=1, kind="stable")
            near = np.take_along_axis(dist, order, axis=1)
            for c_n, c_e, b, n, o, d in zip(
                    cn.tolist(), ce.tolist(), bound.tolist(),
                    np.count_nonzero(keep, axis=1).tolist(), order, near):
                cells.append((c_n, c_e, b,
                              tuple(rows[j] for j in o[:n].tolist()),
                              array("d", d[:n].tobytes())))
        return x0, y0, x1, y1, side, nx, ny, slack, cells

    @property
    def length(self) -> float:
        return self._length

    @property
    def end_point(self) -> np.ndarray:
        return self._starts[-1] + self._vecs[-1]

    def _foot(self, pn, pe):
        """Clamped foot-point parameter t and squared distance d2 of
        (pn, pe) to every segment: scalars give (segments,) arrays, (K, 1)
        columns give (K, segments)."""
        sn, se, tn, te, length, vn, ve = self._kernel
        # np.clip keeps a -0.0 that np.maximum(-0.0, 0.0) would make +0.0
        t = np.clip(((pn - sn) * tn + (pe - se) * te) / length, 0.0, 1.0)
        d2 = (pn - (sn + t * vn)) ** 2 + (pe - (se + t * ve)) ** 2
        return t, d2

    def _grid_nearest(self, north, east, s_hint=None, window=10.0):
        """(segment, t) of `_kernel_nearest`, bit for bit, from the query
        cell's candidates; None without a grid, off it, for a non-finite
        point, or when the window's nearest is not certified.

        The cell lists the global nearest, so the scan of its candidates
        finds it. When the window excludes that nearest, the cell's
        in-window candidates are scanned: their nearest, at distance d,
        is the window's whenever d < bound - |p - c| (less the slack),
        for every segment off the list lies farther than that from p.
        """
        if self._grid is None:
            return None
        x0, y0, x1, y1, side, nx, ny, slack, cells = self._grid
        if not (x0 <= north < x1 and y0 <= east < y1):
            return None
        cn, ce, bound, rows, dists = cells[
            min(int((north - x0) / side), nx - 1) * ny
            + min(int((east - y0) / side), ny - 1)]
        pn, pe = float(north), float(east)
        pad = math.hypot(pn - cn, pe - ce) + slack
        hit = self._scan(pn, pe, pad, rows, dists)[1]
        if s_hint is None or not self._outside(
                self._mids_f[hit[0]], self._lengths_f[hit[0]], s_hint,
                window):
            return hit
        limit, hit = self._scan(pn, pe, pad, rows, dists, s_hint, window)
        return hit if limit < bound else None

    def _scan(self, pn, pe, pad, rows, dists, s_hint=None, window=10.0):
        """(limit, hit): the (segment, t) nearest to (pn, pe) among the
        candidate `rows` in the window (all with s_hint None), or None,
        and the centre distance beyond which no segment can be as near.

        The rows run nearest-first by their centre distances `dists`; a
        segment at centre distance dc lies at least dc - pad from the
        point, pad being |p - c| plus the rounding slack, so the scan
        stops at the first dc above the best distance + pad. Each d2 is
        `_foot`'s arithmetic in the same order, and the lowest index
        among equal d2 is kept, as np.argmin keeps it.
        """
        best, hit, limit = math.inf, None, math.inf
        for (i, sn, se, tn, te, length, vn, ve), dc in zip(rows, dists):
            if dc > limit:
                break
            if s_hint is not None and self._outside(
                    self._mids_f[i], self._lengths_f[i], s_hint, window):
                continue
            t = ((pn - sn) * tn + (pe - se) * te) / length
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            dn = pn - (sn + t * vn)
            de = pe - (se + t * ve)
            d2 = dn * dn + de * de
            if d2 < best or d2 == best and i < hit[0]:
                best, hit = d2, (i, t)
                limit = math.sqrt(d2) + pad
        return limit, hit

    def _outside(self, mids, lengths, s_hint: float, window: float):
        """True where a segment's arc midpoint lies farther than `window`
        (plus half the segment) from s_hint; arrays or one segment's
        floats, by the same arithmetic."""
        length = self._length
        if self.closed:
            s_hint = s_hint % length
        d = mids - s_hint
        if self.closed:
            half = 0.5 * length
            d = (d + half) % length - half
        return abs(d) > window + 0.5 * lengths

    def _kernel_nearest(self, north, east, s_hint=None, window=10.0):
        """(segment, t) by the full kernel, outside segments masked."""
        t, d2 = self._foot(north, east)
        if s_hint is not None:
            outside = self._outside(self._mids, self._lengths, s_hint, window)
            if not np.logical_and.reduce(outside, axis=None):
                d2[outside] = np.inf
        i = int(d2.argmin())  # ties go to the lowest segment index
        return i, float(t[i])

    def arc_near(self, north: float, east: float,
                 s_hint: float | None = None,
                 window: float = 10.0) -> tuple[float, int]:
        """(s_along, seg_index) of the nearest segment whose arc midpoint
        lies within `window` meters (plus half the segment) of arc
        position s_hint, in Python numbers: `project_near` without its
        cross-track error, bit for bit.

        The grid's nearest-first search answers (see `_grid_nearest`).
        The masked full kernel runs only off the grid, for a non-finite
        point, without a grid, or when the window's nearest among the
        cell's candidates is not certified: the window holds none of
        them, or their nearest is not nearer than the cell's bound
        allows (an empty window is one such case).
        """
        hit = self._grid_nearest(north, east, s_hint, window)
        if hit is None:
            hit = self._kernel_nearest(north, east, s_hint, window)
        i, t = hit
        return self._cum_f[i] + t * self._lengths_f[i], i

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
        this is the global projection. The search is `arc_near`'s: the
        grid's nearest-first scan, with the full kernel only where the
        grid cannot certify its answer.
        """
        s_along, i = self.arc_near(north, east, s_hint, window)
        return Projection(i, s_along, self._cross_track(north, east, i),
                          self._headings_f[i])

    project = project_near  # project(n, e): the global projection

    def _cross_track(self, north, east, i: int) -> float:
        """Signed distance of (north, east) to segment i's line, positive
        to port: the sum over the port normal (te, -tn), each product
        rounded on its own; the leading 0.0 makes two zero products +0.0."""
        _, sn, se, tn, te, _, _, _ = self._rows[i]
        return float(0.0 + (north - sn) * te + (east - se) * -tn)

    def project_many(self, points):
        """Nearest-segment projection of a (K, 2) batch of (north, east)
        points; an empty sequence is a batch of none.

        Returns (cross_track (K,), path_heading (K,), port_normal (K, 2)),
        for the NMPC's horizon and the mission metrics: each point's
        `project`, by the same search and the same `_cross_track`.
        """
        p = np.asarray(points, dtype=float)
        if p.shape == (0,):
            p = p.reshape(0, 2)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError("points must be a (K, 2) array of (north, "
                             f"east) rows, not shape {p.shape}")
        grid_nearest, kernel_nearest = self._grid_nearest, self._kernel_nearest
        cross_track = self._cross_track
        idx, e_ct = [], []
        for north, east in p.tolist():
            i = (grid_nearest(north, east) or kernel_nearest(north, east))[0]
            idx.append(i)
            e_ct.append(cross_track(north, east, i))
        idx = np.array(idx, dtype=np.intp)
        return np.array(e_ct), self._headings[idx], self._port[idx]

    def _point_at(self, s) -> tuple[float, float]:
        """`point_at` as a (north, east) pair, without the array."""
        if self.closed:
            s = s % self._length
        else:
            s = min(max(s, 0.0), self._length)
        # np.searchsorted(side="right") by the same comparisons
        i = min(max(bisect.bisect_right(self._cum_f, s) - 1, 0),
                len(self._rows) - 1)
        _, sn, se, _, _, length, vn, ve = self._rows[i]
        frac = (s - self._cum_f[i]) / length
        return sn + frac * vn, se + frac * ve

    def point_at(self, s: float) -> np.ndarray:
        """Point at arc length s (wrapping if closed, clamped if open)."""
        return np.array(self._point_at(s))


def figure_eight(amplitude: float) -> PolylinePath:
    """Gerono lemniscate about the origin, sampled into a closed
    polyline of 256 vertices."""
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    t = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    north = amplitude * np.sin(t)
    east = amplitude * np.sin(t) * np.cos(t)
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
    s_along, seg = path.arc_near(north, east, s_hint)
    target_n, target_e = path._point_at(s_along + los.lookahead)
    if not path.closed:
        end = path.end_point
        dist_end = math.hypot(end[0] - north, end[1] - east)
        if dist_end <= los.accept_radius:
            return (bearing_deg(end[0] - north, end[1] - east), 0.0, s_along)
    dn, de = target_n - north, target_e - east
    if math.hypot(dn, de) < 1e-9:
        tangent_heading = math.degrees(path._headings_f[seg]) % 360.0
        return tangent_heading, los.speed, s_along
    return bearing_deg(dn, de), los.speed, s_along


class LapTracker:
    """Unwrapped arc-length progress along a closed path."""

    def __init__(self, path: PolylinePath):
        self.path = path
        self._last_s: float | None = None
        self.total = 0.0

    def update(self, north: float, east: float) -> float:
        if not (math.isfinite(north) and math.isfinite(east)):
            return self.total  # a non-finite fix has no arc position
        s = self.path.arc_near(north, east, self._last_s)[0]
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
