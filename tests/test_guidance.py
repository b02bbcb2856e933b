import inspect
import math
import os
import subprocess
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otterlink import guidance
from otterlink.guidance import (LapTracker, LosConfig, PolylinePath,
                                Projection, bearing_deg, figure_eight,
                                los_guidance)


class TestCrossTrack:
    def test_east_going_segment_port_is_north(self):
        # path due east; a vessel north of the line is to port
        path = PolylinePath([(0.0, 0.0), (0.0, 100.0)])
        assert path.project(3.0, 10.0).cross_track == pytest.approx(3.0)
        assert path.project(-3.0, 10.0).cross_track == pytest.approx(-3.0)

    def test_north_going_segment_port_is_west(self):
        path = PolylinePath([(0.0, 0.0), (100.0, 0.0)])
        assert path.project(10.0, -4.0).cross_track == pytest.approx(4.0)
        assert path.project(10.0, 4.0).cross_track == pytest.approx(-4.0)

    def test_diagonal_segment_magnitude(self):
        path = PolylinePath([(0.0, 0.0), (10.0, 10.0)])
        err = path.project(10.0, 0.0).cross_track
        assert abs(err) == pytest.approx(10.0 / math.sqrt(2.0))
        assert err > 0  # north-heavy point is to port of a NE run

    def test_point_on_path_is_zero(self):
        path = PolylinePath([(0.0, 0.0), (0.0, 50.0), (50.0, 50.0)])
        assert path.project(0.0, 25.0).cross_track == pytest.approx(0.0)

    def test_beyond_endpoint_uses_clamped_foot(self):
        path = PolylinePath([(0.0, 0.0), (0.0, 10.0)])
        proj = path.project(0.0, 15.0)
        assert proj.s_along == pytest.approx(10.0)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 17(a): at a clamped foot the error is the distance "
        "to the segment's line, 0 along its extension"))
    def test_past_an_open_end_is_the_distance_to_the_end(self):
        path = PolylinePath([(0, 0), (10, 0)])
        assert abs(path.project(20.0, 0.0).cross_track) == 10.0


class TestPolyline:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            PolylinePath([(0.0, 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_points_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PolylinePath([(0.0, 0.0), (bad, 5.0), (0.0, 30.0)])
        with pytest.raises(ValueError, match="finite"):
            PolylinePath([(0.0, 0.0), (5.0, bad)], closed=True)

    def test_closed_length_includes_return_leg(self):
        square = PolylinePath([(0, 0), (10, 0), (10, 10), (0, 10)],
                              closed=True)
        assert square.length == pytest.approx(40.0)

    def test_point_at_wraps_on_closed_path(self):
        square = PolylinePath([(0, 0), (10, 0), (10, 10), (0, 10)],
                              closed=True)
        assert square.point_at(45.0) == pytest.approx([5.0, 0.0])
        assert square.point_at(-5.0) == pytest.approx([0.0, 5.0])

    def test_project_many_matches_scalar_project(self):
        path = figure_eight(20.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-25, 25, size=(40, 2))
        e_ct, headings, _ = path.project_many(pts)
        for i, (n, e) in enumerate(pts):
            proj = path.project(n, e)
            assert e_ct[i] == pytest.approx(proj.cross_track)
            assert headings[i] == pytest.approx(proj.path_heading)

    def test_project_many_is_bitwise_the_axis_sum_form(self):
        for path, batches, on_grid, off_grid in self.special_battery():
            # the grid's scan answers every point of these, and the full
            # kernel at least one point of each of those
            assert all(path._grid_nearest(north, east) is not None
                       for batch in on_grid for north, east in batch)
            assert all(any(path._grid_nearest(north, east) is None
                           for north, east in batch)
                       for batch in off_grid)
            with np.errstate(invalid="ignore"):  # the infinite points
                for batch in batches + on_grid + off_grid:
                    for got, want in zip(path.project_many(batch),
                                         reference_project_many(path, batch)):
                        assert np.array_equal(got, want, equal_nan=True)

    def test_scalar_and_batch_errors_are_the_same_bits(self):
        # one formula: `project`'s error of each point is `project_many`'s,
        # signed zeros, NaN and infinities included, and a Python float
        # for NumPy scalar inputs
        zeros = np.array([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
        rng = np.random.default_rng(37)
        for path, batches, on_grid, off_grid in self.special_battery():
            lines = TestProjectionMatchesReference.grid_lines(path, rng)
            edges = np.array(TestCandidateGrid().edge_points(path))
            with np.errstate(invalid="ignore", over="ignore"):
                for batch in (batches + on_grid + off_grid
                              + [zeros, path.points, lines, edges]):
                    want = [path.project(north, east).cross_track
                            for north, east in batch]
                    assert all(type(e_ct) is float for e_ct in want)
                    assert same_bits(path.project_many(batch)[0], want)

    @classmethod
    def special_battery(cls):
        """(path, batches, on_grid, off_grid) for the figure-eight and a
        square: batches of special and random points, and the grid edge
        batches of `grid_batches`."""
        eight = figure_eight(20.0)
        square = PolylinePath([(0, 0), (10, 0), (10, 10), (0, 10)],
                              closed=True)
        special = {
            # the self-intersection, the mirror axis east = 0 (mirrored
            # segments equidistant), every vertex and segment midpoint
            eight: np.vstack([[[0.0, 0.0], [1e-300, -1e-300]],
                              np.column_stack([np.linspace(-21, 21, 43),
                                               np.zeros(43)]),
                              eight.points,
                              0.5 * (eight.points
                                     + np.roll(eight.points, -1, axis=0))]),
            # the centre and the diagonals are equidistant from 2 or 4 sides
            square: np.array([[5.0, 5.0], [2.0, 2.0], [8.0, 2.0], [0.0, 0.0],
                              [10.0, 10.0], [5.0, 0.0], [-1.0, -1.0]]),
        }
        rng = np.random.default_rng(31)
        for path, points in special.items():
            batches = [points[i:i + 20] for i in range(0, len(points), 20)]
            batches += [rng.uniform(-25, 25, size=(20, 2)) for _ in range(300)]
            yield (path, batches) + cls.grid_batches(path, rng)

    @staticmethod
    def grid_batches(path, rng):
        """Batches at the edges of the candidate grid of `path`, as (on
        the grid, not on it): on it, at and next to its bounds, and inside
        a single cell; not on it, straddling each bound, mixing on- and
        off-grid points, and holding a NaN or an infinity among on-grid
        points."""
        x0, y0, x1, y1, side = path._grid[:5]
        inf = math.inf
        inside = rng.uniform([x0, y0], [x1, y1], size=(20, 2))
        edges = np.array([
            (x0, y0), (np.nextafter(x0, inf), y0), (x0 + side, y0 + side),
            (np.nextafter(x1, -inf), np.nextafter(y1, -inf)),
            (np.nextafter(x1, -inf), y0), (x0, np.nextafter(y1, -inf))])
        outside = np.array([
            (np.nextafter(x0, -inf), y0), (x0, np.nextafter(y0, -inf)),
            (x1, y0), (x0, y1), (x1 + side, 0.5 * (y0 + y1)),
            (0.5 * (x0 + x1), y0 - 3.0 * side)])
        on_grid = [edges, np.vstack([edges, inside])]
        for corner in inside[:5]:
            # every point in the one cell that holds `corner`
            cell = np.floor((corner - (x0, y0)) / side) * side + (x0, y0)
            on_grid.append(cell + rng.uniform(0.0, side, size=(20, 2)))
        off_grid = [np.vstack([edges, outside])]
        for off in outside:
            off_grid.append(np.vstack([inside[:10], [off], inside[10:]]))
        for bad in ((math.nan, 0.0), (0.0, math.nan), (inf, 0.0),
                    (0.0, -inf)):
            off_grid.append(np.vstack([inside[:5], [bad], inside[5:]]))
        return on_grid, off_grid

    def test_project_near_sticks_to_hinted_branch(self):
        # at the lemniscate self-intersection a global projection is
        # ambiguous; the hint must keep the foot near the expected arc
        path = figure_eight(20.0)
        quarter = 0.25 * path.length
        for s_hint in (0.0, quarter, 2 * quarter, 3 * quarter):
            proj = path.project_near(0.2, 0.0, s_hint)
            wrapped = (proj.s_along - s_hint) % path.length
            dist = min(wrapped, path.length - wrapped)
            assert dist < 12.0

    def test_project_near_without_hint_is_global(self):
        path = figure_eight(20.0)
        for north, east in [(0.0, 0.0), (0.2, 0.0), (12.0, -3.0)]:
            assert (path.project_near(north, east, None)
                    == path.project_near(north, east)
                    == path.project(north, east))


def reference_d2(path, north, east):
    """Squared distance of (north, east) to every segment, in
    `reference_project`'s gather form."""
    p = np.array([north, east])
    rel = p - path._starts
    t = np.clip((rel * path._tangents).sum(axis=1) / path._lengths, 0.0, 1.0)
    return ((p - (path._starts + t[:, None] * path._vecs)) ** 2).sum(axis=1)


def grid_paths():
    """A figure-eight, a square and a short open path, each with a grid."""
    return [figure_eight(20.0),
            PolylinePath([(0, 0), (10, 0), (10, 10), (0, 10)], closed=True),
            PolylinePath([(0, 0), (0, 6), (4, 6), (4, 1)])]


def reference_project(path, north, east):
    """The gather form over (segments, 2) arrays that `project` replaced."""
    p = np.array([north, east])
    rel = p - path._starts
    t = np.clip((rel * path._tangents).sum(axis=1) / path._lengths, 0.0, 1.0)
    feet = path._starts + t[:, None] * path._vecs
    d2 = ((p - feet) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    e_ct = reference_cross_track(path, p, i)
    s = float(path._cum[i] + t[i] * path._lengths[i])
    return Projection(i, s, e_ct, float(path._headings[i]))


def reference_project_many(path, p):
    """The axis-sum form over (points, segments, 2) arrays that
    `project_many` replaced."""
    rel = p[:, None, :] - path._starts[None, :, :]
    t = np.clip((rel * path._tangents[None, :, :]).sum(axis=2)
                / path._lengths[None, :], 0.0, 1.0)
    feet = path._starts[None, :, :] + t[:, :, None] * path._vecs[None, :, :]
    d2 = ((p[:, None, :] - feet) ** 2).sum(axis=2)
    idx = np.argmin(d2, axis=1)
    tangents = path._tangents[idx]
    port = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    e_ct = ((p - path._starts[idx]) * port).sum(axis=1)
    return e_ct, path._headings[idx], port


def reference_cross_track(path, p, i):
    """e_ct of point `p` to segment `i` in `reference_project_many`'s
    axis-sum form."""
    tangent = path._tangents[i]
    return float(((p - path._starts[i])
                  * np.array([tangent[1], -tangent[0]])).sum())


def reference_project_near(path, north, east, s_hint, window=10.0):
    """The index-gather form that `project_near` replaced."""
    if path.closed:
        s_hint = s_hint % path.length
    mids = 0.5 * (path._cum[:-1] + path._cum[1:])
    d = mids - s_hint
    if path.closed:
        half = 0.5 * path.length
        d = (d + half) % path.length - half
    mask = np.abs(d) <= window + 0.5 * path._lengths
    if not mask.any():
        return reference_project(path, north, east)
    idx = np.flatnonzero(mask)
    p = np.array([north, east])
    rel = p - path._starts[idx]
    t = np.clip((rel * path._tangents[idx]).sum(axis=1)
                / path._lengths[idx], 0.0, 1.0)
    feet = path._starts[idx] + t[:, None] * path._vecs[idx]
    d2 = ((p - feet) ** 2).sum(axis=1)
    j = int(np.argmin(d2))
    i = int(idx[j])
    e_ct = reference_cross_track(path, p, i)
    s = float(path._cum[i] + t[j] * path._lengths[i])
    return Projection(i, s, e_ct, float(path._headings[i]))


def reference_masked_project_near(path, north, east, s_hint, window=10.0):
    """The gather-form d2 masked to inf outside the window, as
    `project_near` does: for non-finite points, where every d2 is inf or
    NaN, the argmin may then fall outside the window."""
    p = np.array([north, east])
    rel = p - path._starts
    t = np.clip((rel * path._tangents).sum(axis=1) / path._lengths, 0.0, 1.0)
    d2 = ((p - (path._starts + t[:, None] * path._vecs)) ** 2).sum(axis=1)
    if path.closed:
        s_hint = s_hint % path.length
    d = path._mids - s_hint
    if path.closed:
        half = 0.5 * path.length
        d = (d + half) % path.length - half
    outside = np.abs(d) > window + 0.5 * path._lengths
    if not outside.all():
        d2[outside] = np.inf
    i = int(np.argmin(d2))
    e_ct = reference_cross_track(path, p, i)
    s = float(path._cum[i] + t[i] * path._lengths[i])
    return Projection(i, s, e_ct, float(path._headings[i]))


def reference_point_at(path, s):
    """The NumPy form that `point_at` replaced."""
    if path.closed:
        s = s % path.length
    else:
        s = min(max(s, 0.0), path.length)
    i = int(np.searchsorted(path._cum, s, side="right")) - 1
    i = min(max(i, 0), len(path._lengths) - 1)
    frac = (s - path._cum[i]) / path._lengths[i]
    return path._starts[i] + frac * path._vecs[i]


def reference_los(north, east, path, los, s_hint=None):
    """`los_guidance` as written over `project_near` and `point_at`."""
    proj = path.project_near(north, east, s_hint)
    target = path.point_at(proj.s_along + los.lookahead)
    if not path.closed:
        end = path.end_point
        if math.hypot(end[0] - north, end[1] - east) <= los.accept_radius:
            return (bearing_deg(end[0] - north, end[1] - east), 0.0,
                    proj.s_along)
    dn, de = target[0] - north, target[1] - east
    if math.hypot(dn, de) < 1e-9:
        return (math.degrees(proj.path_heading) % 360.0, los.speed,
                proj.s_along)
    return bearing_deg(dn, de), los.speed, proj.s_along


def same_bits(got, want) -> bool:
    """Equal float arrays, bit for bit: -0.0 differs from 0.0."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestProjectionMatchesReference:
    """`project` and `project_near` share one foot-point kernel and mask
    the window instead of gathering it; every Projection field, argmin
    ties included, must equal the gather form's."""

    EIGHT = figure_eight(20.0)
    SQUARE = PolylinePath([(0, 0), (10, 0), (10, 10), (0, 10)], closed=True)
    # short open path: hints beyond its ends leave the window empty
    OPEN = PolylinePath([(0, 0), (0, 6), (4, 6), (4, 1)])

    @staticmethod
    def special_points(path):
        pts = path.points
        return np.vstack([
            pts, 0.5 * (pts + np.roll(pts, -1, axis=0)),  # vertices, midpoints
            [[0.0, 0.0], [1e-300, -1e-300], [0.2, 0.0], [-0.2, 0.0]],
            # the square's centre and diagonals are equidistant from 2 or
            # 4 sides; corners are shared by two segments (exact ties)
            [[5.0, 5.0], [2.0, 2.0], [8.0, 2.0], [10.0, 10.0], [-1.0, -1.0],
             [5.0, 0.0], [11.0, 11.0]]])

    @staticmethod
    def hints(path, window=10.0):
        mids = 0.5 * (path._cum[:-1] + path._cum[1:])
        edges = window + 0.5 * path._lengths
        return np.concatenate([
            [0.0, path.length, -1e-9, -3.0, -path.length - 7.5,
             path.length + 1e-9, path.length + 4.0, 2.5 * path.length],
            mids[::7] + edges[::7], mids[::7] - edges[::7]])  # window edges

    @pytest.mark.parametrize("name", ["EIGHT", "SQUARE", "OPEN"])
    def test_special_points_and_hints(self, name):
        path = getattr(self, name)
        hints = self.hints(path)
        for k, (north, east) in enumerate(self.special_points(path)):
            assert path.project(north, east) \
                == reference_project(path, north, east)
            for s_hint in hints[k % 3::3]:
                assert path.project_near(north, east, s_hint) \
                    == reference_project_near(path, north, east, s_hint)

    def test_open_path_with_empty_window_falls_back(self):
        path = self.OPEN
        for s_hint in (path.length + 40.0, -40.0):
            mids = 0.5 * (path._cum[:-1] + path._cum[1:])
            assert not np.any(np.abs(mids - s_hint)
                              <= 10.0 + 0.5 * path._lengths)
            for north, east in self.special_points(path):
                assert path.project_near(north, east, s_hint) \
                    == path.project(north, east)
                self.check_arc_near(path, north, east, s_hint)

    @pytest.mark.parametrize("name", ["EIGHT", "SQUARE", "OPEN"])
    def test_random_points_and_hints(self, name):
        path = getattr(self, name)
        rng = np.random.default_rng(47)
        for _ in range(600):
            north, east = rng.uniform(-25.0, 25.0, 2)
            s_hint = rng.uniform(-0.5, 1.5) * path.length
            window = rng.choice([10.0, 2.0, 0.5])
            assert path.project(north, east) \
                == reference_project(path, north, east)
            assert path.project_near(north, east, s_hint, window) \
                == reference_project_near(path, north, east, s_hint, window)

    @staticmethod
    def grid_lines(path, rng):
        """Cell edges and corners of the path's candidate grid, the far
        edges included (they lie just off the grid)."""
        x0, y0, _, _, side, nx, ny = path._grid[:7]
        xs = x0 + side * np.arange(nx + 1)
        ys = y0 + side * np.arange(ny + 1)
        corners = np.array([(x, y) for x in xs for y in ys])
        along_x = np.column_stack([x0 + side * rng.uniform(0, nx, len(ys)),
                                   ys])
        along_y = np.column_stack([xs,
                                   y0 + side * rng.uniform(0, ny, len(xs))])
        return np.vstack([corners, along_x, along_y])

    @pytest.mark.parametrize("name", ["EIGHT", "SQUARE", "OPEN"])
    def test_grid_cell_edges_and_corners(self, name):
        path = getattr(self, name)
        assert path._grid is not None
        rng = np.random.default_rng(53)
        hints = self.hints(path)
        for k, (north, east) in enumerate(self.grid_lines(path, rng)):
            assert path.project(north, east) \
                == reference_project(path, north, east)
            for s_hint in hints[k % 5::5]:
                assert path.project_near(north, east, s_hint) \
                    == reference_project_near(path, north, east, s_hint)

    @pytest.mark.parametrize("name", ["EIGHT", "SQUARE", "OPEN"])
    def test_windows_excluding_the_nearest_segment(self, name):
        # the global nearest lies outside these windows: the cell's
        # in-window candidates answer where its bound certifies their
        # nearest, the masked full kernel everywhere else
        path = getattr(self, name)
        rng = np.random.default_rng(59)
        excluded = 0
        for _ in range(300):
            north, east = rng.uniform(-25.0, 25.0, 2)
            i = reference_project(path, north, east).seg_index
            s_hint = path._mids[i] + rng.uniform(0.3, 0.7) * path.length
            window = float(rng.choice([0.5, 2.0, 10.0]))
            excluded += bool(path._outside(path._mids[i], path._lengths[i],
                                           s_hint, window))
            assert path.project_near(north, east, s_hint, window) \
                == reference_project_near(path, north, east, s_hint, window)
        assert excluded > 100

    @staticmethod
    def check_arc_near(path, north, east, s_hint, window=10.0):
        proj = path.project_near(north, east, s_hint, window)
        s_along, seg = path.arc_near(north, east, s_hint, window)
        assert same_bits(s_along, proj.s_along)
        assert type(s_along) is float and type(seg) is int
        assert seg == proj.seg_index

    @pytest.mark.parametrize("name", ["EIGHT", "SQUARE", "OPEN"])
    def test_arc_near_is_project_near_without_the_error(self, name):
        # the hints include empty windows and, on the open path, hints
        # beyond either end
        path = getattr(self, name)
        hints = [None, *self.hints(path), -2.0 * path.length,
                 path.length + 40.0]
        rng = np.random.default_rng(89)
        points = np.vstack([self.special_points(path),
                            self.grid_lines(path, rng),
                            rng.uniform(-25.0, 25.0, size=(300, 2))])
        for k, (north, east) in enumerate(points):
            for s_hint in hints[k % 4::4]:
                self.check_arc_near(path, north, east, s_hint)
            self.check_arc_near(path, north, east,
                                rng.uniform(-0.5, 1.5) * path.length,
                                float(rng.choice([0.5, 2.0, 10.0])))

    @pytest.mark.parametrize("name", ["EIGHT", "SQUARE", "OPEN"])
    def test_point_at_is_bitwise_the_numpy_form(self, name):
        path = getattr(self, name)
        length = path.length
        rng = np.random.default_rng(97)
        special = [0.0, -0.0, -1e-9, -3.0, -length, -length - 7.5, -1e300,
                   length, np.nextafter(length, 0.0), length + 1e-9,
                   2.5 * length, 1e300, math.nan, math.inf, -math.inf,
                   *path._cum.tolist(), *path._mids.tolist()]
        for s in special + (length * rng.uniform(-2.0, 3.0, 300)).tolist():
            for arc in (s, np.float64(s)):
                with np.errstate(invalid="ignore"):  # inf % length
                    got = path.point_at(arc)
                    want = reference_point_at(path, arc)
                assert got.shape == (2,) and got.dtype == float
                assert same_bits(got, want), (arc, got, want)

    @pytest.mark.parametrize("name", ["EIGHT", "SQUARE", "OPEN"])
    def test_los_guidance_is_bitwise_its_projection_form(self, name):
        path = getattr(self, name)
        rng = np.random.default_rng(101)
        # a lookahead of one whole square lap puts the target on the
        # vessel, so the course falls back to the segment's tangent
        configs = [LosConfig(), LosConfig(lookahead=path.length)]
        points = np.vstack([self.special_points(path), path.points,
                            rng.uniform(-25.0, 25.0, size=(200, 2))])
        for k, (north, east) in enumerate(points):
            s_hint = (None, rng.uniform(-0.5, 1.5) * path.length)[k % 2]
            for los in configs:
                got = los_guidance(north, east, path, los, s_hint)
                want = reference_los(north, east, path, los, s_hint)
                assert same_bits(got, want), (north, east, got, want)


def same_projection(a, b):
    """Field-wise equality that also equates NaN with NaN."""
    return a.seg_index == b.seg_index and np.array_equal(
        [a.s_along, a.cross_track, a.path_heading],
        [b.s_along, b.cross_track, b.path_heading], equal_nan=True)


class TestCandidateGrid:
    """The grid only narrows the search: points it does not cover, and
    paths it is not built for, get the full kernel's answer."""

    EIGHT = figure_eight(20.0)

    def edge_points(self, path):
        x0, y0, x1, y1 = path._grid[:4]
        nan, inf = math.nan, math.inf
        below_x, below_y = np.nextafter(x0, -inf), np.nextafter(y0, -inf)
        return [(nan, 0.0), (0.0, nan), (nan, nan), (inf, 0.0),
                (-inf, 0.0), (0.0, inf), (inf, -inf), (1e300, 0.0),
                (0.0, -1e300), (1e300, 1e300), (-3e307, 2e305),
                (x1, 0.0), (0.0, y1), (x1, y1), (below_x, 0.0),
                (0.0, below_y), (below_x, below_y), (x0, y0),
                (np.nextafter(x1, -inf), np.nextafter(y1, -inf)),
                (x1 + 1.0, y0 - 1.0)]

    def test_non_finite_and_off_grid_points(self):
        path = self.EIGHT
        with np.errstate(invalid="ignore", over="ignore"):
            self.check_edge_points(path)

    def check_edge_points(self, path):
        for north, east in self.edge_points(path):
            assert same_projection(path.project(north, east),
                                   reference_project(path, north, east))
            for s_hint in (0.0, 17.0, 0.5 * path.length, math.nan):
                assert same_projection(
                    path.project_near(north, east, s_hint),
                    reference_masked_project_near(path, north, east, s_hint))

    def test_project_many_off_the_grid_and_not_finite(self):
        path = self.EIGHT
        points = np.array(self.edge_points(path))
        rng = np.random.default_rng(103)
        inside = rng.uniform(-25.0, 25.0, size=(40, 2))
        with np.errstate(invalid="ignore", over="ignore"):
            want = [path.project(north, east).cross_track
                    for north, east in points]
            assert same_bits(path.project_many(points)[0], want)
            # one at a time, and mixed among points on the grid
            for k, point in enumerate(points):
                assert same_bits(path.project_many([point])[0], [want[k]])
                batch = np.vstack([inside[:k], [point], inside[k:]])
                assert same_bits(path.project_many(batch)[0],
                                 [path.project(n, e).cross_track
                                  for n, e in batch])

    def test_batch_kernel_calls_hold_one_point_each(self, monkeypatch):
        # a held station: thousands of fixes in one grid cell, then the
        # edge points (off the grid, NaN, infinities) and the station again
        path = self.EIGHT
        x0, y0, _, _, side = path._grid[:5]
        cell = np.floor((path.points[40] - (x0, y0)) / side) * side + (x0, y0)
        held = cell + np.random.default_rng(109).uniform(
            0.0, side, size=(3000, 2))
        edges = self.edge_points(path)
        points = np.vstack([held, edges, held[:100]])
        pairs = []
        foot = PolylinePath._foot

        def counted(self, pn, pe):
            t, d2 = foot(self, pn, pe)
            pairs.append(d2.shape)
            return t, d2

        monkeypatch.setattr(PolylinePath, "_foot", counted)
        with np.errstate(invalid="ignore", over="ignore"):
            # the grid's scan answers the station's fixes, with no kernel
            held_many = path.project_many(held)
            assert pairs == []
            many = path.project_many(points)
            # one full-kernel call per point the grid does not answer
            fallback = sum(path._grid_nearest(n, e) is None for n, e in edges)
            assert 0 < fallback < len(edges)
            assert pairs == [(len(path._lengths),)] * fallback
            assert same_bits(held_many[0], many[0][:len(held)])
            assert same_bits(many[0], [path.project(n, e).cross_track
                                       for n, e in points])
            for out, want in zip(many, reference_project_many(path, points)):
                assert np.array_equal(out, want, equal_nan=True)

    def test_project_many_of_an_empty_batch(self):
        # an empty sequence of any kind is a batch of no points
        for empty in (np.empty((0, 2)), [], (), np.empty(0)):
            e_ct, headings, port = self.EIGHT.project_many(empty)
            assert e_ct.shape == headings.shape == (0,)
            assert port.shape == (0, 2)
            assert e_ct.dtype == headings.dtype == port.dtype == float

    @pytest.mark.parametrize("points", [
        (3.0, 4.0), np.array([3.0, 4.0]), np.zeros((1, 3)),
        np.zeros((4, 1)), np.zeros((2, 2, 2)), 5.0, [[]], np.empty((0, 3))],
        ids=["pair", "pair-array", "1x3", "4x1", "2x2x2", "scalar",
             "empty-row", "0x3"])
    def test_project_many_rejects_a_batch_not_k_by_2(self, points):
        with pytest.raises(ValueError, match=r"\(K, 2\) array"):
            self.EIGHT.project_many(points)

    NO_GRID = PolylinePath(np.column_stack(
        [np.arange(5000.0), 5.0 * (-1.0) ** np.arange(5000)]))

    # open, with a corner: feet clamp past both ends and outside the corner
    L_ROUTE = PolylinePath([(0, 0), (40, 0), (40, 40)])

    @pytest.mark.parametrize("path", [EIGHT, NO_GRID, L_ROUTE],
                             ids=["figure-eight", "no-grid", "l-route"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batch_is_the_per_point_projection(self, path, data):
        batch = data.draw(point_batches(path))
        with np.errstate(invalid="ignore", over="ignore"):
            e_ct, headings, port = path.project_many(batch)
            want = [path.project(north, east) for north, east in batch]
        assert same_bits(e_ct, [proj.cross_track for proj in want])
        assert same_bits(headings, [proj.path_heading for proj in want])
        assert same_bits(port, path._port[
            np.array([proj.seg_index for proj in want], dtype=np.intp)])

    def test_project_many_without_a_grid(self):
        k = np.arange(5000)
        zigzag = PolylinePath(np.column_stack([1.0 * k, 5.0 * (-1.0) ** k]))
        assert zigzag._grid is None
        rng = np.random.default_rng(107)
        points = np.column_stack([rng.uniform(-10.0, 5010.0, 150),
                                  rng.uniform(-8.0, 8.0, 150)])
        points = np.vstack([points, [[math.nan, 0.0], [0.0, math.inf]]])
        with np.errstate(invalid="ignore"):
            want = [zigzag.project(n, e).cross_track for n, e in points]
            assert same_bits(zigzag.project_many(points)[0], want)

    def test_nan_hint_is_the_global_projection(self):
        path = self.EIGHT
        rng = np.random.default_rng(61)
        for north, east in rng.uniform(-25.0, 25.0, size=(200, 2)):
            for window in (10.0, 0.5, math.nan):
                assert path.project_near(north, east, math.nan, window) \
                    == path.project(north, east) \
                    == reference_project(path, north, east)

    def test_non_number_raises_type_error(self):
        for point in [(None, 0.0), (0.0, None)]:
            with pytest.raises(TypeError):
                self.EIGHT.project(*point)
            with pytest.raises(TypeError):
                self.EIGHT.project_near(*point, 10.0)

    @staticmethod
    def check_matches_reference(path, points, seed):
        rng = np.random.default_rng(seed)
        for north, east in points:
            s_hint = rng.uniform(-0.2, 1.2) * path.length
            assert path.project(north, east) \
                == reference_project(path, north, east)
            assert path.project_near(north, east, s_hint, 2.0) \
                == reference_project_near(path, north, east, s_hint, 2.0)

    def test_long_waypoint_path_builds_no_grid(self):
        k = np.arange(5000)
        zigzag = PolylinePath(np.column_stack([1.0 * k, 5.0 * (-1.0) ** k]))
        assert zigzag._grid is None
        rng = np.random.default_rng(67)
        points = np.column_stack([rng.uniform(-10.0, 5010.0, 150),
                                  rng.uniform(-8.0, 8.0, 150)])
        self.check_matches_reference(zigzag, points, 71)

    def test_small_waypoint_path_builds_a_grid(self):
        rng = np.random.default_rng(73)
        walk = PolylinePath(np.cumsum(rng.uniform(-3.0, 3.0, (40, 2)),
                                      axis=0))
        assert walk._grid is not None
        x0, y0, x1, y1 = walk._grid[:4]
        points = np.column_stack([rng.uniform(x0 - 2.0, x1 + 2.0, 1500),
                                  rng.uniform(y0 - 2.0, y1 + 2.0, 1500)])
        points = np.vstack([points, walk.points])
        self.check_matches_reference(walk, points, 79)

    @pytest.mark.parametrize("path", grid_paths())
    def test_cell_lists_hold_every_nearest_segment(self, path):
        # independent of the scan: the exact argmin of the reference d2,
        # with all its ties, is among the candidates of the point's cell
        x0, y0, x1, y1, side, nx, ny, _, cells = path._grid
        rng = np.random.default_rng(83)
        inner = np.column_stack([rng.uniform(x0, x1, 5000),
                                 rng.uniform(y0, y1, 5000)])
        # mirror axis of the figure-eight and diagonals of the square:
        # exactly equidistant segments
        ties = np.array([(v, w) for v in np.linspace(-25.0, 25.0, 101)
                         for w in (0.0, v, 10.0 - v)
                         if x0 <= v < x1 and y0 <= w < y1])
        for north, east in np.vstack([inner, ties, path.points]):
            d2 = reference_d2(path, north, east)
            nearest = set(np.flatnonzero(d2 == d2.min()).tolist())
            cell = cells[min(int((north - x0) / side), nx - 1) * ny
                         + min(int((east - y0) / side), ny - 1)]
            assert nearest <= {row[0] for row in cell[3]}

    @pytest.mark.parametrize("path", grid_paths())
    def test_unlisted_segments_lie_beyond_the_bound(self, path):
        side, cells = path._grid[4], path._grid[8]
        for centre_n, centre_e, bound, rows, _ in cells:
            dist = np.sqrt(reference_d2(path, centre_n, centre_e))
            unlisted = np.setdiff1d(np.arange(len(dist)),
                                    [row[0] for row in rows])
            assert np.all(dist[unlisted] > bound)
            # room for a point anywhere in the cell: half a diagonal away
            # from the centre, each distance moves by half a diagonal
            assert bound >= dist.min() + math.hypot(side, side)

    @pytest.mark.parametrize("path", grid_paths())
    def test_cell_lists_run_nearest_first(self, path):
        ties = 0
        for centre_n, centre_e, _, rows, dists in path._grid[8]:
            index = [row[0] for row in rows]
            assert isinstance(dists, array) and dists.typecode == "d"
            assert same_bits(dists, np.sqrt(
                reference_d2(path, centre_n, centre_e))[index])
            # nearest-first, and equal distances in index order
            keys = list(zip(dists, index))
            assert keys == sorted(keys)
            assert len(set(index)) == len(index)
            ties += len(set(dists)) < len(dists)
        if path.closed and len(path._lengths) == 4:
            assert ties  # the square's centre lines tie its sides

    def test_crossing_windows_need_no_full_kernel(self, monkeypatch):
        # both branches of the figure-eight pass its centre, so near it a
        # window on one branch excludes the other's nearer segments; the
        # cells' bounds certify the window's nearest, and the masked full
        # kernel never runs
        path = self.EIGHT
        calls = []
        kernel = PolylinePath._kernel_nearest

        def counted(self, *args):
            calls.append(args)
            return kernel(self, *args)

        monkeypatch.setattr(PolylinePath, "_kernel_nearest", counted)
        crossing = (0.0, 0.5 * path.length)  # arc positions of (0, 0)
        excluded = 0
        for s_cross in crossing:
            for along in np.linspace(-1.5, 1.5, 31):
                north, east = path._point_at(s_cross + along)
                _, _, _, tn, te, _, _, _ = path._rows[
                    reference_project_near(path, north, east,
                                           s_cross + along).seg_index]
                for across in np.linspace(-1.5, 1.5, 13):
                    pn, pe = north + across * te, east - across * tn
                    i = reference_project(path, pn, pe).seg_index
                    for branch in crossing:
                        s_hint = reference_project_near(path, pn, pe,
                                                        branch).s_along
                        for window in (0.5, 2.0, 10.0):
                            want = reference_project_near(path, pn, pe,
                                                          s_hint, window)
                            assert path.project_near(pn, pe, s_hint,
                                                     window) == want
                            s_along, seg = path.arc_near(pn, pe, s_hint,
                                                         window)
                            assert same_bits(s_along, want.s_along)
                            assert seg == want.seg_index
                            excluded += bool(path._outside(
                                path._mids[i], path._lengths[i], s_hint,
                                window))
        assert excluded > 1000
        assert calls == []


def point_batches(path):
    """Batches of (north, east) points drawn over and beyond the box of
    the grid of `path` (of its points without a grid): coordinates in and
    around it, its bounds, signed zeros, NaN and infinities, each batch
    drawn from a small pool so that points repeat."""
    if path._grid is None:
        (x0, y0), (x1, y1) = path.points.min(axis=0), path.points.max(axis=0)
    else:
        x0, y0, x1, y1 = path._grid[:4]

    def coordinate(lo, hi):
        pad = 0.5 * (hi - lo)
        return st.one_of(
            st.floats(float(lo - pad), float(hi + pad)),
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                             float(lo), float(hi),
                             math.nextafter(float(hi), -math.inf)]))

    point = st.tuples(coordinate(x0, x1), coordinate(y0, y1))
    return st.lists(point, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=25))


def cross_track_digest() -> str:
    """sha256 of the errors of 2000 seeded fixes about the figure-eight,
    from `project` one by one and from one `project_many`."""
    import hashlib

    import numpy as np

    from otterlink.guidance import figure_eight

    path = figure_eight(20.0)
    fixes = np.random.default_rng(113).uniform(-25.0, 25.0, size=(2000, 2))
    digest = hashlib.sha256(np.array(
        [path.project(n, e).cross_track for n, e in fixes]).tobytes())
    digest.update(path.project_many(fixes)[0].tobytes())
    return digest.hexdigest()


def numpy_on_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26: no dict of the build
        return False
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(not numpy_on_openblas(),
                    reason="numpy is not built on OpenBLAS")
def test_errors_do_not_depend_on_the_blas_kernel():
    # OpenBLAS's oldest x86-64 kernel has no fused multiply-add; the
    # default one on a newer CPU may fuse a dot's multiply into its add
    src = os.path.dirname(os.path.dirname(guidance.__file__))
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = inspect.getsource(cross_track_digest) \
        + "print(cross_track_digest())\n"
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == cross_track_digest()


class TestFigureEight:
    def test_passes_through_lobe_extremes(self):
        path = figure_eight(20.0)
        # Gerono lemniscate: (A sin t, A sin t cos t); at t = pi/2 the
        # curve reaches (A, 0)
        assert path.project(20.0, 0.0).cross_track == pytest.approx(
            0.0, abs=0.02)
        assert path.project(-20.0, 0.0).cross_track == pytest.approx(
            0.0, abs=0.02)
        assert path.project(0.0, 0.0).cross_track == pytest.approx(
            0.0, abs=0.02)

    def test_bad_amplitude_rejected(self):
        with pytest.raises(ValueError):
            figure_eight(0.0)

    def test_scales_with_amplitude(self):
        small, large = figure_eight(10.0), figure_eight(20.0)
        assert large.length == pytest.approx(2.0 * small.length, rel=1e-6)


class TestLos:
    def test_bearing_quadrants(self):
        assert bearing_deg(1.0, 0.0) == pytest.approx(0.0)
        assert bearing_deg(0.0, 1.0) == pytest.approx(90.0)
        assert bearing_deg(-1.0, 0.0) == pytest.approx(180.0)
        assert bearing_deg(0.0, -1.0) == pytest.approx(270.0)

    def test_course_toward_lookahead_point(self):
        # vessel 5 m short of the line and abeam of the origin of a due
        # east path with 10 m lookahead: atan2(10, 5) east of the
        # cross-track direction
        path = PolylinePath([(0.0, 0.0), (0.0, 100.0)])
        los = LosConfig(lookahead=10.0, accept_radius=2.0, speed=1.2)
        course, speed, _ = los_guidance(5.0, 0.0, path, los)
        assert course == pytest.approx(math.degrees(math.atan2(10.0, -5.0)))
        assert course == pytest.approx(116.565, abs=0.01)
        assert speed == 1.2

    def test_on_path_course_follows_tangent(self):
        path = PolylinePath([(0.0, 0.0), (0.0, 100.0)])
        course, _, s_along = los_guidance(0.0, 20.0, path, LosConfig())
        assert course == pytest.approx(90.0)
        assert s_along == pytest.approx(20.0)

    def test_open_path_stops_inside_accept_radius(self):
        path = PolylinePath([(0.0, 0.0), (0.0, 100.0)])
        _, speed, _ = los_guidance(0.5, 99.0, path,
                                   LosConfig(accept_radius=2.0))
        assert speed == 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LosConfig(lookahead=0.0)


class TestLapTracker:
    def test_one_ideal_lap_counts_one(self):
        path = figure_eight(20.0)
        tracker = LapTracker(path)
        for s in np.linspace(0.0, path.length, 400):
            pt = path.point_at(float(s))
            tracker.update(pt[0], pt[1])
        assert tracker.laps == pytest.approx(1.0, abs=1e-6)

    def test_backtracking_subtracts(self):
        square = PolylinePath([(0, 0), (100, 0), (100, 100), (0, 100)],
                              closed=True)
        tracker = LapTracker(square)
        tracker.update(0.0, 0.0)
        tracker.update(30.0, 0.0)
        tracker.update(10.0, 0.0)
        assert tracker.total == pytest.approx(10.0)

    def test_noisy_lap_stays_near_one(self):
        # measurement jitter of +/-0.5 m must not teleport the tracker
        # across the figure-eight crossing
        path = figure_eight(20.0)
        rng = np.random.default_rng(11)
        tracker = LapTracker(path)
        for s in np.linspace(0.0, path.length, 800):
            pt = path.point_at(float(s)) + rng.uniform(-0.5, 0.5, 2)
            tracker.update(pt[0], pt[1])
        assert tracker.laps == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (math.inf, 0.0),
                                     (0.0, -math.inf)])
    def test_non_finite_fix_is_skipped(self, bad):
        # two fixes, one non-finite fix, then five more: the bad fix
        # must not poison the unwrapped progress for the rest of the run
        path = figure_eight(20.0)
        clean, tracker = LapTracker(path), LapTracker(path)
        for k, s in enumerate(np.linspace(0.0, 16.0, 7)):
            pt = path.point_at(float(s))
            clean.update(pt[0], pt[1])
            tracker.update(pt[0], pt[1])
            if k == 1:
                assert tracker.update(*bad) == clean.total
        assert tracker.total == clean.total == pytest.approx(16.0)
