"""Reference paths, cross-track geometry, and line-of-sight guidance.

Paths are polylines of (north, east) points, optionally closed. The
figure-eight benchmark path is a Gerono lemniscate
(north, east) = (A sin t, A sin t cos t) sampled densely.

Cross-track error is the signed perpendicular distance to the nearest
segment, positive to port (left) of the path direction.

Nearest-segment search runs one foot-point kernel over every segment.
The scalar search first looks in an exact uniform grid built with the
path: each cell lists every segment that can be nearest to any point in
it, ties included, so the scan over that short list returns the same
segment, bit for bit, as the full kernel. Points off the grid,
non-finite points, windows that exclude the candidate nearest and paths
too large for the grid use the full kernel.

Three queries answer the cross-track error, each with its own formula:

- `project` and `project_near` return a `Projection`; e_ct is the dot
  of (p - start) with the port normal, a scalar numpy `@`.
- `cross_track_many` serves the mission metrics; its e_ct is a stack of
  (1, 2) @ (2, 1) products, which numpy computes with the same BLAS dot
  as the scalar `@`, so it equals `project(n, e).cross_track` bit for
  bit.
- `project_many` serves the NMPC; its e_ct is the plain sum of the two
  products.

The two batch queries share one search: in chunks of the batch, the
kernel runs over the union of the lists of the cells the chunk's points
fall in (over every segment when a point is off the grid or not
finite), which holds every point's own list, so its argmin is also the
full kernel's.

The BLAS dot of two 2-vectors may fuse a multiply into the add: with
numpy 2.4's OpenBLAS 0.3.31 on an AVX-512 Xeon, it equalled
fma(a1, b1, a0 b0) in 20,000 of 20,000 random draws, where the plain
sum differed in a quarter of them. So the last bit of the `Projection`
and `cross_track_many` errors, and of the logged `rms_cross_track_m`,
depends on the machine's BLAS; `project_many`'s sum does not.

`arc_near` is `project_near` without the cross-track error: the arc
position and segment that lap counting and LOS guidance need.
"""

from __future__ import annotations

import bisect
import math
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
    cross_track: float    # signed, positive to port of path direction
    path_heading: float   # rad, tangent bearing of the nearest segment


# Candidate-segment grid of PolylinePath (see _build_grid)
_CELL_SEGMENTS = 4.0          # cell side in median segment lengths
_GRID_MARGIN = 2              # cells around the path's bounding box
_MAX_CELLS = 4096             # the cell side grows to stay under this
_MAX_CELL_SEGMENTS = 1 << 20  # cells x segments; above it, no grid
_BUILD_PAIRS = 8192           # (cell or point, segment) pairs per kernel
                              # call of the build and of the batch queries
_MAX_COORD = 1e150            # beyond it squared distances may overflow
_SLACK = 1e-9                 # relative rounding allowance of the lists


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
        # they sum, and one gather takes a subset of segments
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
        self._grid, self._batch_grid = self._build_grid()

    def _build_grid(self):
        """Uniform grid over the bounding box plus a margin; per cell the
        ascending tuple of segment rows (index, start, tangent, length,
        vector) that can be nearest to a point of the cell; and, for
        the batch queries, the grid as arrays: lower and upper bounds, cell
        side, last cell, cell strides and the lists as a (cells,
        segments) boolean mask.

        A point p of a cell lies within half the cell diagonal D of its
        centre c, and each segment's distance moves by at most |p - c|,
        so a segment nearest to p (ties included) is within min + D of
        c. Every segment with dist(c) <= min + D + slack is kept, the
        slack covering rounding in the computed distances. Returns None,
        None (full kernel only) when cells x segments exceeds its cap or
        the path's coordinates are not moderate.
        """
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        if not np.abs([lo, hi]).max() < _MAX_COORD:
            return None, None
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
            return None, None
        x0 = float(lo[0]) - _GRID_MARGIN * side
        y0 = float(lo[1]) - _GRID_MARGIN * side
        x1, y1 = x0 + nx * side, y0 + ny * side
        diag = math.hypot(side, side)
        reach = diag + _SLACK * (diag + max(abs(x0), abs(x1),
                                            abs(y0), abs(y1)))
        rows = self._rows
        centre_n = np.repeat(x0 + (np.arange(nx) + 0.5) * side, ny)
        centre_e = np.tile(y0 + (np.arange(ny) + 0.5) * side, nx)
        chunk = max(1, _BUILD_PAIRS // n_seg)
        cells, masks = [], []
        for k in range(0, nx * ny, chunk):
            _, d2 = self._foot(centre_n[k:k + chunk, None],
                               centre_e[k:k + chunk, None])
            dist = np.sqrt(d2)
            keep = dist <= dist.min(axis=1, keepdims=True) + reach
            cells.extend(tuple(rows[j] for j in np.flatnonzero(m).tolist())
                         for m in keep)
            masks.append(keep)
        return ((x0, y0, x1, y1, side, nx, ny, cells),
                (np.array([x0, y0]), np.array([x1, y1]), side,
                 np.array([nx - 1, ny - 1]), np.array([ny, 1]),
                 np.concatenate(masks)))

    @property
    def length(self) -> float:
        return self._length

    @property
    def end_point(self) -> np.ndarray:
        return self._starts[-1] + self._vecs[-1]

    def _foot(self, pn, pe, segments=None):
        """Clamped foot-point parameter t and squared distance d2 of
        (pn, pe) to every segment, or to those the index array `segments`
        picks: scalars give (segments,) arrays, (K, 1) columns give (K,
        segments)."""
        sn, se, tn, te, length, vn, ve = (
            self._kernel if segments is None
            else self._kernel[:, segments])
        t = np.clip(((pn - sn) * tn + (pe - se) * te) / length, 0.0, 1.0)
        d2 = (pn - (sn + t * vn)) ** 2 + (pe - (se + t * ve)) ** 2
        return t, d2

    def _grid_nearest(self, north, east):
        """(segment, t) of the nearest segment from the query cell's
        candidates, or None without a grid, off it or for a non-finite
        point. The scan is `_foot`'s arithmetic in the same order; a
        strict < keeps the lowest index among equal d2, as np.argmin."""
        if self._grid is None:
            return None
        x0, y0, x1, y1, side, nx, ny, cells = self._grid
        if not (x0 <= north < x1 and y0 <= east < y1):
            return None
        cell = cells[min(int((north - x0) / side), nx - 1) * ny
                     + min(int((east - y0) / side), ny - 1)]
        pn, pe = float(north), float(east)
        best, hit = math.inf, None
        for i, sn, se, tn, te, length, vn, ve in cell:
            t = ((pn - sn) * tn + (pe - se) * te) / length
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            dn = pn - (sn + t * vn)
            de = pe - (se + t * ve)
            d2 = dn * dn + de * de
            if d2 < best:
                best, hit = d2, (i, t)
        return hit

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
            if not outside.all():
                d2[outside] = np.inf
        i = int(np.argmin(d2))  # ties go to the lowest segment index
        return i, float(t[i])

    def arc_near(self, north: float, east: float,
                 s_hint: float | None = None,
                 window: float = 10.0) -> tuple[float, int]:
        """(s_along, seg_index) of the nearest segment whose arc midpoint
        lies within `window` meters (plus half the segment) of arc
        position s_hint, in Python numbers: `project_near` without its
        cross-track error, bit for bit.

        The grid's candidate nearest is the lowest-index global argmin;
        when it lies in the window it is also the windowed argmin, and
        is returned as is. Otherwise (or off the grid) the masked full
        kernel runs.
        """
        hit = self._grid_nearest(north, east)
        if hit is None or (s_hint is not None and self._outside(
                self._mids_f[hit[0]], self._lengths_f[hit[0]], s_hint,
                window)):
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
        this is the global projection.
        """
        s_along, i = self.arc_near(north, east, s_hint, window)
        e_ct = float((np.array([north, east]) - self._starts[i])
                     @ self._port[i])
        return Projection(i, s_along, e_ct, self._headings_f[i])

    project = project_near  # project(n, e): the global projection

    def _batch_candidates(self, p: np.ndarray):
        """Ascending indices of the segments listed by any grid cell that
        holds a point of the (K, 2) batch `p`, or None (every segment)
        without a grid, for an empty batch, or when a point is off the
        grid or not finite."""
        if self._batch_grid is None or not len(p):
            return None
        lo, hi, side, last, strides, masks = self._batch_grid
        if not ((lo <= p) & (p < hi)).all():
            return None
        # `_grid_nearest`'s cell of each point
        cell = ((p - lo) / side).astype(np.intp)
        np.minimum(cell, last, out=cell)
        return np.flatnonzero(masks[cell @ strides].any(axis=0))

    def _nearest_many(self, p: np.ndarray) -> np.ndarray:
        """Index of the nearest segment to each point of the (K, 2) batch
        `p`: the full kernel's argmin, bit for bit.

        The batch runs in chunks of `_BUILD_PAIRS` // segments points, so
        no kernel call holds more than `_BUILD_PAIRS` pairs. Each chunk's
        kernel runs over the union of the candidate lists of the grid
        cells its points fall in. Each point's own cell lists every
        segment that can be nearest to it, ties included, so the argmin
        over that ascending union is the full kernel's. A chunk with a
        point off the grid or not finite scans every segment.
        """
        idx = np.empty(len(p), dtype=np.intp)
        chunk = max(1, _BUILD_PAIRS // len(self._lengths))
        for k in range(0, len(p), chunk):
            q = p[k:k + chunk]
            segments = self._batch_candidates(q)
            _, d2 = self._foot(q[:, 0:1], q[:, 1:2], segments)
            i = np.argmin(d2, axis=1)
            idx[k:k + chunk] = i if segments is None else segments[i]
        return idx

    def project_many(self, points: np.ndarray):
        """Vectorized nearest-segment projection of (K, 2) points.

        Returns (cross_track (K,), path_heading (K,), port_normal (K, 2)).
        e_ct is the plain sum of the two products, for the NMPC.
        """
        p = np.asarray(points, dtype=float)
        idx = self._nearest_many(p)
        port = self._port[idx]
        e_ct = ((p - self._starts[idx]) * port).sum(axis=1)
        return e_ct, self._headings[idx], port

    def cross_track_many(self, points) -> np.ndarray:
        """Cross-track error of each of the (K, 2) points, equal bit for
        bit to `project(north, east).cross_track`: e_ct is a stack of
        (1, 2) @ (2, 1) products, and numpy runs the same BLAS dot for
        each as for `project_near`'s scalar `@`.
        """
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        idx = self._nearest_many(p)
        rel = p - self._starts[idx]
        return np.matmul(rel[:, None, :],
                         self._port[idx][:, :, None]).reshape(len(p))

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
