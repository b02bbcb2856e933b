import math

import numpy as np
import pytest

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
            # the union scan runs on these, the full kernel on those
            assert all(path._batch_candidates(batch) is not None
                       for batch in on_grid)
            assert all(path._batch_candidates(batch) is None
                       for batch in off_grid)
            with np.errstate(invalid="ignore"):  # the infinite points
                for batch in batches + on_grid + off_grid:
                    for got, want in zip(path.project_many(batch),
                                         reference_project_many(path, batch)):
                        assert np.array_equal(got, want, equal_nan=True)

    def test_cross_track_many_is_bitwise_the_scalar_projection(self):
        for path, batches, on_grid, off_grid in self.special_battery():
            with np.errstate(invalid="ignore"):  # the infinite points
                for batch in batches + on_grid + off_grid:
                    want = [path.project(north, east).cross_track
                            for north, east in batch]
                    assert same_bits(path.cross_track_many(batch), want)

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
        x0, y0, x1, y1, side, _, _, _ = path._grid
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


def reference_project(path, north, east):
    """The gather form over (segments, 2) arrays that `project` replaced."""
    p = np.array([north, east])
    rel = p - path._starts
    t = np.clip((rel * path._tangents).sum(axis=1) / path._lengths, 0.0, 1.0)
    feet = path._starts + t[:, None] * path._vecs
    d2 = ((p - feet) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    tangent = path._tangents[i]
    e_ct = float((p - path._starts[i]) @ np.array([tangent[1], -tangent[0]]))
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
    tangent = path._tangents[i]
    e_ct = float((p - path._starts[i]) @ np.array([tangent[1], -tangent[0]]))
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
    tangent = path._tangents[i]
    e_ct = float((p - path._starts[i]) @ np.array([tangent[1], -tangent[0]]))
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
        x0, y0, _, _, side, nx, ny, _ = path._grid
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
        # the grid's candidate nearest lies outside these windows, so the
        # masked full kernel must answer
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
        x0, y0, x1, y1, _, _, _, _ = path._grid
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

    def test_cross_track_many_off_the_grid_and_not_finite(self):
        path = self.EIGHT
        points = np.array(self.edge_points(path))
        rng = np.random.default_rng(103)
        inside = rng.uniform(-25.0, 25.0, size=(40, 2))
        with np.errstate(invalid="ignore", over="ignore"):
            want = [path.project(north, east).cross_track
                    for north, east in points]
            assert same_bits(path.cross_track_many(points), want)
            # one at a time, and mixed among points on the grid
            for k, point in enumerate(points):
                assert same_bits(path.cross_track_many([point]), [want[k]])
                batch = np.vstack([inside[:k], [point], inside[k:]])
                assert same_bits(path.cross_track_many(batch),
                                 [path.project(n, e).cross_track
                                  for n, e in batch])

    def test_batch_queries_in_chunks_of_bounded_kernel_calls(self,
                                                            monkeypatch):
        # a held station: thousands of fixes in one grid cell, then the
        # edge points (off the grid, NaN, infinities) and the station again
        path = self.EIGHT
        x0, y0, _, _, side, _, _, _ = path._grid
        cell = np.floor((path.points[40] - (x0, y0)) / side) * side + (x0, y0)
        held = cell + np.random.default_rng(109).uniform(
            0.0, side, size=(3000, 2))
        points = np.vstack([held, self.edge_points(path), held[:100]])
        pairs = []
        foot = PolylinePath._foot

        def counted(self, pn, pe, segments=None):
            t, d2 = foot(self, pn, pe, segments)
            pairs.append(d2.size)
            return t, d2

        monkeypatch.setattr(PolylinePath, "_foot", counted)
        with np.errstate(invalid="ignore", over="ignore"):
            got = path.cross_track_many(points)
            many = path.project_many(points)
            chunk = guidance._BUILD_PAIRS // len(path._lengths)
            assert max(pairs) <= guidance._BUILD_PAIRS
            assert len(pairs) >= 2 * (len(points) // chunk)
            assert same_bits(got, [path.project(n, e).cross_track
                                   for n, e in points])
            for out, want in zip(many, reference_project_many(path, points)):
                assert np.array_equal(out, want, equal_nan=True)

    def test_cross_track_many_of_an_empty_batch(self):
        for batch in (np.empty((0, 2)), []):
            got = self.EIGHT.cross_track_many(batch)
            assert got.shape == (0,) and got.dtype == float

    def test_cross_track_many_without_a_grid(self):
        k = np.arange(5000)
        zigzag = PolylinePath(np.column_stack([1.0 * k, 5.0 * (-1.0) ** k]))
        assert zigzag._grid is None and zigzag._batch_grid is None
        rng = np.random.default_rng(107)
        points = np.column_stack([rng.uniform(-10.0, 5010.0, 150),
                                  rng.uniform(-8.0, 8.0, 150)])
        points = np.vstack([points, [[math.nan, 0.0], [0.0, math.inf]]])
        with np.errstate(invalid="ignore"):
            want = [zigzag.project(n, e).cross_track for n, e in points]
            assert same_bits(zigzag.cross_track_many(points), want)

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

    @pytest.mark.parametrize("path", [
        figure_eight(20.0),
        PolylinePath([(0, 0), (10, 0), (10, 10), (0, 10)], closed=True),
        PolylinePath([(0, 0), (0, 6), (4, 6), (4, 1)])])
    def test_cell_lists_hold_every_nearest_segment(self, path):
        # independent of the scan: the exact argmin of the reference d2,
        # with all its ties, is among the candidates of the point's cell
        x0, y0, x1, y1, side, nx, ny, cells = path._grid
        rng = np.random.default_rng(83)
        inner = np.column_stack([rng.uniform(x0, x1, 5000),
                                 rng.uniform(y0, y1, 5000)])
        # mirror axis of the figure-eight and diagonals of the square:
        # exactly equidistant segments
        ties = np.array([(v, w) for v in np.linspace(-25.0, 25.0, 101)
                         for w in (0.0, v, 10.0 - v)
                         if x0 <= v < x1 and y0 <= w < y1])
        for north, east in np.vstack([inner, ties, path.points]):
            p = np.array([north, east])
            rel = p - path._starts
            t = np.clip((rel * path._tangents).sum(axis=1) / path._lengths,
                        0.0, 1.0)
            d2 = ((p - (path._starts + t[:, None] * path._vecs)) ** 2
                  ).sum(axis=1)
            nearest = set(np.flatnonzero(d2 == d2.min()).tolist())
            cell = cells[min(int((north - x0) / side), nx - 1) * ny
                         + min(int((east - y0) / side), ny - 1)]
            assert nearest <= {row[0] for row in cell}


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
