import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (angular_error, density, foreground_count, kth_neighbour_sq_distances,
                     quantity, ransac_viewpoint_oracle, score_grid_per_rung_oracle,
                     spacing_depth_correlation_oracle)
from viewret import select
from viewret.errors import ViewretError
from viewret.geometry import MAX_RESOLUTION, dodecahedron_viewpoints, normalize_pose
from viewret.render import render_point_cloud
from viewret.scansim import ScannerConfig, make_sphere, simulate_scan
from viewret.select import (BLOCK, PLANES, RANSAC_TOLERANCE, SPACING_NEIGHBOR, SPACING_SAMPLE,
                            ScoreGrid, _kth_neighbour_sq_distances, _spacing_depth_correlation,
                            best_resolution_for_viewpoint, multiview_ring, normalize_quantity,
                            orient_axis, propose, ransac_viewpoint, score_grid,
                            select_resolution, select_viewpoint, viewpoint_index)


def grid_from(q, d=None, viewpoints=None, resolutions=None):
    q = np.asarray(q, dtype=np.float64)
    if viewpoints is None:
        # arbitrary unit directions, deliberately not antipodal pairs
        viewpoints = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0]])[:len(q)]
    if resolutions is None:
        resolutions = tuple(32 * 2 ** j for j in range(q.shape[1]))
    return ScoreGrid(viewpoints=np.asarray(viewpoints, dtype=np.float64),
                     resolutions=tuple(resolutions),
                     quantity=q,
                     density=np.zeros_like(q) if d is None else np.asarray(q * 0 + d, dtype=np.float64))


class TestNormalizeQuantity:
    def test_simple_column(self):
        grid = grid_from([[0.2], [0.5], [0.8]])
        np.testing.assert_allclose(normalize_quantity(grid)[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        grid = grid_from([[0.4], [0.4]], viewpoints=np.eye(3)[:2])
        np.testing.assert_allclose(normalize_quantity(grid), 0.0)

    def test_columns_hit_both_extremes(self):
        rng = np.random.default_rng(13)
        q = rng.uniform(0.1, 1.0, size=(6, 4))
        views = rng.normal(size=(6, 3))
        views /= np.linalg.norm(views, axis=1, keepdims=True)
        out = normalize_quantity(grid_from(q, viewpoints=views))
        for j in range(4):
            lo, hi = q[:, j].min(), q[:, j].max()
            assert out[:, j].min() == 0.0
            assert out[:, j].max() == (1.0 if hi > lo else 0.0)
            np.testing.assert_allclose(out[:, j], (q[:, j] - lo) / (hi - lo) if hi > lo else 0.0)


class TestSelectViewpoint:
    def test_row_sums_decide(self):
        grid = grid_from([[0.1, 0.2], [0.9, 0.8]], viewpoints=np.eye(3)[:2])
        assert select_viewpoint(grid) == 1

    def test_tie_breaks_to_lowest_index(self):
        grid = grid_from([[0.5, 0.5], [0.5, 0.5]], viewpoints=np.eye(3)[:2])
        assert select_viewpoint(grid) == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(14)
        views = rng.normal(size=(8, 3))
        views /= np.linalg.norm(views, axis=1, keepdims=True)
        q = rng.uniform(0.05, 1.0, size=(8, 5))
        a = select_viewpoint(grid_from(q, viewpoints=views))
        b = select_viewpoint(grid_from(3.7 * q, viewpoints=views))
        assert a == b

    def test_returns_a_row_of_the_grid(self):
        rng = np.random.default_rng(15)
        views = dodecahedron_viewpoints()
        q = rng.uniform(0.05, 1.0, size=(20, 3))
        grid = grid_from(q, viewpoints=views)
        chosen = select_viewpoint(grid)
        assert type(chosen) is int
        assert chosen == int(np.argmax(normalize_quantity(grid).sum(axis=1)))
        chosen = select_viewpoint(grid, normalize_pose(rng.normal(size=(300, 3)))[0])
        assert type(chosen) is int and 0 <= chosen < 20

    def test_planar_scan_recovers_scanner_axis(self):
        # shallow curved sheet facing roughly +z, scanned along a known axis
        axis = np.array([0.0, 0.30, 0.95])
        axis /= np.linalg.norm(axis)
        dish = make_sphere(radius=4.0, rings=48, segments=72)
        cfg = ScannerConfig(position=axis * 6.0, target=(0.0, 0.0, 0.0),
                            fov_deg=30.0, angular_step_deg=0.25, max_range=10.0)
        scan = simulate_scan(dish, cfg)
        points, _ = normalize_pose(scan.cloud)
        grid = score_grid(points, None, (64, 128, 256))
        chosen = select_viewpoint(grid, points)
        assert angular_error(grid.viewpoints[chosen], axis) <= 0.35


class TestPropose:
    def test_grid_then_oriented_viewpoint_then_its_rung(self):
        views = dodecahedron_viewpoints()
        cfg = ScannerConfig(position=views[5] * 3.0, target=(0.0, 0.0, 0.0), fov_deg=40.0,
                            angular_step_deg=1.0, max_range=10.0)
        points, _ = normalize_pose(simulate_scan(make_sphere(radius=1.0), cfg).cloud)
        ladder = (32, 64, 128)
        viewpoint, resolution, grid = propose(points, ladder)
        want = score_grid(points, None, ladder)
        assert np.array_equal(grid.viewpoints, views) and grid.resolutions == ladder
        assert np.array_equal(grid.quantity, want.quantity)
        assert np.array_equal(grid.density, want.density)
        # the axis alone picks the antipode; the cloud turns it to face the scanner
        assert select_viewpoint(want) == 2
        assert select_viewpoint(want, points) == 5
        assert np.array_equal(viewpoint, views[5])
        assert not np.shares_memory(viewpoint, grid.viewpoints)
        assert resolution == select_resolution(want, 5)

    def test_default_ladder(self):
        points, _ = normalize_pose(np.random.default_rng(9).normal(size=(300, 3)))
        assert propose(points)[2].resolutions == score_grid(points).resolutions


class TestOrientAxis:
    def test_scanned_cap_points_back_at_the_scanner(self):
        axis = np.array([0.2, -0.4, 0.89])
        axis /= np.linalg.norm(axis)
        scan = simulate_scan(make_sphere(radius=1.0, rings=24, segments=36),
                             ScannerConfig(position=axis * 3.0, target=(0.0, 0.0, 0.0),
                                           fov_deg=40.0, angular_step_deg=0.5, max_range=12.0))
        points, _ = normalize_pose(scan.cloud)
        oriented = orient_axis(points, axis)
        assert oriented @ axis > 0
        np.testing.assert_array_equal(orient_axis(points, -axis), oriented)

    def test_uniform_density_dome_orients_correctly(self):
        # uniformly sampled shell: no scanner range gradient, yet the dome's
        # bright middle must still reveal the outside
        rng = np.random.default_rng(26)
        shell = rng.normal(size=(4000, 3))
        shell /= np.linalg.norm(shell, axis=1, keepdims=True)
        dome = shell[shell[:, 2] > 0.1]
        points, _ = normalize_pose(dome)
        oriented = orient_axis(points, np.array([0.0, 0.0, 1.0]))
        assert oriented[2] > 0

    def test_brightness_fallback_decides_when_spacing_cue_is_mute(self, monkeypatch):
        import viewret.select as select_module

        monkeypatch.setattr(select_module, "_spacing_depth_correlation", lambda *a, **k: 0.0)
        rng = np.random.default_rng(27)
        shell = rng.normal(size=(4000, 3))
        shell /= np.linalg.norm(shell, axis=1, keepdims=True)
        dome = shell[shell[:, 2] > 0.1]
        points, _ = normalize_pose(dome)
        assert orient_axis(points, np.array([0.0, 0.0, 1.0]))[2] > 0
        assert orient_axis(points, np.array([0.0, 0.0, -1.0]))[2] > 0


class TestSelectResolution:
    def test_density_argmax(self):
        grid = grid_from([[0.0] * 3], viewpoints=[[0.0, 0.0, 1.0]], resolutions=(64, 128, 256))
        grid.density = np.array([[0.3, 0.9, 0.6]])
        assert select_resolution(grid, 0) == 128

    def test_tie_breaks_to_largest(self):
        grid = grid_from([[0.0] * 2], viewpoints=[[0.0, 0.0, 1.0]], resolutions=(64, 128))
        grid.density = np.array([[0.5, 0.5]])
        assert select_resolution(grid, 0) == 128

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(16)
        views = dodecahedron_viewpoints()
        resolutions = (32, 64, 128, 256, 512)
        grid = grid_from(rng.uniform(0.1, 1, size=(20, 5)), viewpoints=views,
                         resolutions=resolutions)
        grid.density = rng.uniform(0, 1, size=(20, 5))
        for row in (0, 7, 19):
            expect, best = None, -1.0
            for r, d in zip(resolutions, grid.density[row]):
                if d > best or (d == best and r > expect):
                    expect, best = r, d
            assert select_resolution(grid, row) == expect


class TestViewpointIndex:
    def test_every_member_and_its_antipode(self):
        views = dodecahedron_viewpoints()
        for i, v in enumerate(views):
            assert viewpoint_index(views, v) == i
            anti = viewpoint_index(views, -v)
            assert anti >= 0 and np.array_equal(views[anti], -v)

    def test_tolerance_is_l1_within_1e_9(self):
        views = np.eye(3)
        assert viewpoint_index(views, [1.0, 4e-10, 4e-10]) == 0
        assert viewpoint_index(views, [1.0, 6e-10, 6e-10]) == -1

    def test_non_member_is_minus_one(self):
        views = np.eye(3)
        assert viewpoint_index(views, [-1.0, 0.0, 0.0]) == -1
        assert viewpoint_index(views, [np.nan, 0.0, 0.0]) == -1


class TestScoreGrid:
    def test_single_cell_matches_direct_measures(self):
        rng = np.random.default_rng(17)
        points, _ = normalize_pose(rng.normal(size=(400, 3)))
        view = np.array([0.0, 0.0, 1.0])
        grid = score_grid(points, [view], (64,))
        img = render_point_cloud(points, view, 64)
        assert grid.quantity[0, 0] == quantity(img, 400)
        assert grid.density[0, 0] == density(img)

    def test_default_lattice_shape(self):
        rng = np.random.default_rng(18)
        points, _ = normalize_pose(rng.normal(size=(200, 3)))
        grid = score_grid(points, None, (32, 64))
        assert grid.quantity.shape == (20, 2)
        assert np.all(np.isfinite(grid.quantity)) and np.all(np.isfinite(grid.density))
        assert np.all(grid.quantity > 0) and np.all(grid.quantity <= 1)

    def test_full_default_grid_has_160_cells(self):
        rng = np.random.default_rng(20)
        points, _ = normalize_pose(rng.normal(size=(150, 3)))
        grid = score_grid(points)
        assert grid.quantity.shape == (20, 8)
        assert grid.density.shape == (20, 8)
        assert np.all(np.isfinite(grid.quantity)) and np.all(np.isfinite(grid.density))

    def test_propagates_render_errors(self):
        rng = np.random.default_rng(21)
        points, _ = normalize_pose(rng.normal(size=(50, 3)))
        with pytest.raises(ViewretError, match="resolution must be in .*, got 4"):
            score_grid(points, None, (4,))
        with pytest.raises(ViewretError, match=f"resolution must be in .*, got {MAX_RESOLUTION + 1}"):
            score_grid(points, None, (32, MAX_RESOLUTION + 1))

    def test_empty_sets_rejected(self):
        points = np.zeros((3, 3))
        with pytest.raises(ValueError):
            score_grid(points, np.zeros((0, 3)), (32,))
        with pytest.raises(ValueError):
            score_grid(points, None, ())


def cloud_of_shape(rng, n, shape):
    if shape == "normal":
        return rng.normal(size=(n, 3)) * rng.uniform(0.01, 2.0, size=3)
    if shape == "grid":
        # exactly representable coordinates with many equal distances
        return rng.integers(-8, 9, size=(n, 3)) / 8.0
    return rng.normal(size=(max(1, n // 4), 3))[rng.integers(0, max(1, n // 4), size=n)]


@st.composite
def neighbour_clouds(draw):
    """A cloud and a k for the k-th neighbour search, at one of several scales."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["surface", "cap", "collinear", "planar", "repeats", "clusters",
                                 "few", "edges"]))
    n = draw(st.integers(2, 18)) if kind == "few" else draw(st.integers(40, 700))
    if kind == "surface":
        # a height field sampled densely at one corner and sparsely at the other, as a scan is
        xy = rng.random((n, 2)) ** 2
        points = np.column_stack([xy, 0.3 * np.sin(4.0 * xy[:, 0]) * np.cos(3.0 * xy[:, 1])])
    elif kind == "cap":
        # a sphere cap seen at a slant folds onto any two coordinate axes
        d = _unit(rng.normal(size=3)) + 0.8 * rng.normal(size=(n, 3)) / np.sqrt(3.0)
        points = d / np.linalg.norm(d, axis=1)[:, None] + rng.normal(scale=0.003, size=(n, 3))
    elif kind == "collinear":
        points = rng.normal(size=3) + rng.random(n)[:, None] * rng.normal(size=3)
    elif kind == "planar":
        points = rng.normal(size=3) + rng.random((n, 2)) @ rng.normal(size=(2, 3))
    elif kind == "repeats":
        distinct = rng.normal(size=(draw(st.integers(1, 30)), 3))
        points = distinct[rng.integers(0, len(distinct), size=n)]
    elif kind == "clusters":
        points = rng.normal(size=(n, 3)) * 0.05
        points[:rng.integers(1, n)] += 1000.0
    elif kind == "few":
        points = rng.normal(size=(n, 3))
    else:
        # distinct sites of a lattice of step 1/4 in a coordinate plane: with k = 1 or 4 the
        # cell side is often one step, so points sit on cell edges
        sites = rng.choice(24 * 24, size=min(n, 24 * 24), replace=False)
        points = np.column_stack([sites // 24, sites % 24, np.zeros(len(sites))]) / 4.0
        points = np.roll(points, draw(st.integers(0, 2)), axis=1)
    points = points * draw(st.sampled_from([1.0, 1e-150, 1e150, 1e-160, 1e160]))
    k = draw(st.sampled_from([1, 4, SPACING_NEIGHBOR, len(points) - 1]))
    return points, min(k, len(points) - 1)


class TestSpacingDepthCorrelationAgainstOracle:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.sampled_from([1, 2, 3, 17, 200, 1499, 1500, 1501, 2500]),
           st.integers(0, 2 ** 32 - 1), st.sampled_from(["normal", "grid", "repeats"]))
    def test_score_is_exactly_equal(self, n, seed, shape):
        rng = np.random.default_rng(seed)
        points = cloud_of_shape(rng, n, shape)
        axis = _unit(rng.normal(size=3))
        want = spacing_depth_correlation_oracle(points, axis)
        assert _spacing_depth_correlation(points, axis) == want

    def test_scan(self):
        scan = simulate_scan(make_sphere(radius=1.0, rings=24, segments=36),
                             ScannerConfig(position=(1.2, -2.0, 2.0), target=(0.0, 0.0, 0.0),
                                           fov_deg=40.0, angular_step_deg=0.5, max_range=12.0))
        points, _ = normalize_pose(scan.cloud)
        axis = _unit([1.2, -2.0, 2.0])
        score = _spacing_depth_correlation(points, axis)
        assert score == spacing_depth_correlation_oracle(points, axis)
        assert score > 0.05


class TestKthNeighbourSqDistances:
    """The row-block distances against the full n x n matrix, value for value.

    Ranks, all the correlation sees, would hide an error that keeps the order.
    """

    @pytest.mark.parametrize("shape", ["normal", "grid", "repeats"])
    @pytest.mark.parametrize("n", [2, 3, 17, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1,
                                   SPACING_SAMPLE - 1, SPACING_SAMPLE])
    def test_bit_identical_to_full_matrix(self, n, shape):
        points = cloud_of_shape(np.random.default_rng(n), n, shape)
        for k in sorted({1, min(SPACING_NEIGHBOR, n - 1), n - 1}):
            want = kth_neighbour_sq_distances(points, k)
            got = _kth_neighbour_sq_distances(points, k)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(neighbour_clouds())
    def test_cell_search_matches_the_full_matrix(self, case):
        points, k = case
        with np.errstate(over="ignore"):
            want = kth_neighbour_sq_distances(points, k)
            got = _kth_neighbour_sq_distances(points, k)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["scan", "lattice", "blob"])
    def test_cells_prove_most_rows(self, monkeypatch, case):
        # rows the cells cannot prove go to the full-row loop; count them
        if case == "scan":
            points, _ = normalize_pose(simulate_scan(
                make_sphere(radius=1.0, rings=24, segments=36),
                ScannerConfig(position=(1.2, -2.0, 2.0), target=(0.0, 0.0, 0.0), fov_deg=40.0,
                              angular_step_deg=0.5, max_range=12.0)).cloud)
            k = SPACING_NEIGHBOR
        elif case == "lattice":
            # k = 1 makes the cell side the lattice step, so every point lies on a cell edge
            points = np.stack(np.meshgrid(np.arange(30), np.arange(30), [0]), -1).reshape(-1, 3) / 4
            k = 1
        else:
            points = np.random.default_rng(3).normal(size=(SPACING_SAMPLE, 3))
            k = SPACING_NEIGHBOR
        full = []
        full_rows = select._full_rows
        monkeypatch.setattr(select, "_full_rows",
                            lambda pts, rows, k: full.append(len(rows)) or full_rows(pts, rows, k))
        got = _kth_neighbour_sq_distances(points, k)
        assert got.tobytes() == kth_neighbour_sq_distances(points, k).tobytes()
        assert full[0] == BLOCK and sum(full) < BLOCK + len(points) // 10

    def test_memory_stays_below_the_full_matrix(self):
        # the n x n form peaked at 34.5 MB on a 1500-point sample
        points = np.random.default_rng(3).normal(size=(2780, 3))
        tracemalloc.start()
        try:
            _spacing_depth_correlation(points, np.array([0.0, 0.0, 1.0]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def score_grid_dense_oracle(cloud, viewpoints, resolutions):
    """The former per-cell render/measure loop of `score_grid`, kept as the reference."""
    q = np.zeros((len(viewpoints), len(resolutions)))
    d = np.zeros((len(viewpoints), len(resolutions)))
    for i, viewpoint in enumerate(viewpoints):
        for j, r in enumerate(resolutions):
            img = render_point_cloud(cloud, viewpoint, r)
            q[i, j] = quantity(img, len(cloud))
            d[i, j] = density(img) if foreground_count(img) else 0.0
    return q, d


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


@st.composite
def clouds_views_ladders(draw):
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["blob", "sheet", "one_pixel", "border"]))
    if shape == "blob":
        points = rng.normal(size=(n, 3)) * rng.uniform(0.05, 0.6, size=3)
    elif shape == "sheet":
        # a dense patch fills whole 3x3 neighbourhoods, so D is rarely 0
        points = rng.uniform(-1.0, 1.0, size=(n, 3)) * [1.0, 1.0, 0.02]
    elif shape == "one_pixel":
        points = rng.uniform(-0.9, 0.9, size=3) + rng.uniform(-1e-9, 1e-9, size=(n, 3))
    else:
        # exact +-1 coordinates (and beyond) clamp onto the image border
        points = np.where(rng.random((n, 3)) < 0.5, rng.choice([-1.0, 1.0], size=(n, 3)),
                          rng.uniform(-1.2, 1.2, size=(n, 3)))
    edge = draw(st.sampled_from(["none", "origin", "plane"]))
    if edge == "origin":
        # x = 0 from every viewpoint puts the point on a column edge, t = r/2
        points[0] = 0.0
    elif edge == "plane":
        # zero coordinates: x = 0 from the axis viewpoints that see along them
        points[rng.random(n) < 0.5, draw(st.integers(0, 2))] = 0.0
    views = []
    for kind in draw(st.lists(st.sampled_from(["axis", "near_pole", "random"]),
                              min_size=1, max_size=3)):
        if kind == "axis":
            views.append(np.eye(3)[draw(st.integers(0, 2))] * draw(st.sampled_from([-1.0, 1.0])))
        elif kind == "near_pole":
            # straddles the |forward . z| > 0.999 switch of the up hint
            tilt = draw(st.floats(0.0, 0.1))
            views.append(_unit([tilt, draw(st.floats(-0.05, 0.05)),
                                draw(st.sampled_from([-1.0, 1.0]))]))
        else:
            views.append(_unit(rng.normal(size=3)))
    if draw(st.booleans()):
        # an exact antipode: its row is copied where the margin holds, computed where not
        views.append(-views[draw(st.integers(0, len(views) - 1))])
    ladder = draw(st.lists(st.sampled_from([8, 9, 13, 32, 64, 100, 128, 256]),
                           min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        ladder = [8] + [r for r in ladder if r != 8]
    return points, np.asarray(views), tuple(ladder)


class TestScoreGridAgainstDenseOracle:
    @settings(derandomize=True, deadline=None, max_examples=250)
    @given(clouds_views_ladders())
    def test_bit_identical_to_rendered_grid(self, case):
        points, views, ladder = case
        grid = score_grid(points, views, ladder)
        q, d = score_grid_dense_oracle(points, views, ladder)
        assert np.array_equal(grid.quantity, q)
        assert np.array_equal(grid.density, d)

    def test_default_ladder_on_a_scan(self):
        scan = simulate_scan(make_sphere(radius=1.0, rings=24, segments=36),
                             ScannerConfig(position=(1.2, -2.0, 2.0), target=(0.0, 0.0, 0.0),
                                           fov_deg=40.0, angular_step_deg=0.5, max_range=12.0))
        points, _ = normalize_pose(scan.cloud)
        views = dodecahedron_viewpoints()[::7]
        grid = score_grid(points, views)
        q, d = score_grid_dense_oracle(points, views, grid.resolutions)
        assert np.array_equal(grid.quantity, q)
        assert np.array_equal(grid.density, d)
        assert d.max() > 0

    def test_coordinates_near_the_float_limit_score_without_warnings(self):
        # t = u * r overflows in the antipodal margin test, which must fail quietly
        rng = np.random.default_rng(7)
        points = rng.normal(size=(50, 3))
        points[:, 0] = rng.choice([-1e308, 1e308], size=50)
        views = dodecahedron_viewpoints()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = score_grid(points, views, (8, 32, 64))
        q, d = score_grid_dense_oracle(points, views, grid.resolutions)
        assert np.array_equal(grid.quantity, q)
        assert np.array_equal(grid.density, d)


@st.composite
def clouds_on_pixel_edges(draw):
    """Clouds, axis and random viewpoints and ladders with repeated, non-power-of-two rungs."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 400))
    if draw(st.booleans()):
        # dyadic coordinates: from an axis viewpoint, u r and w r are integers at many rungs
        points = rng.integers(0, 129, size=(n, 3)) / 64.0 - 1.0
    else:
        points = rng.normal(size=(n, 3)) * rng.uniform(0.05, 0.6, size=3)
    views = [np.eye(3)[i] * sign for i in range(3) for sign in (1.0, -1.0)]
    views = [views[i] for i in draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))]
    views += [_unit(rng.normal(size=3)) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        views.append(-views[0])
    ladder = draw(st.lists(st.sampled_from([8, 12, 13, 24, 32, 48, 64, 96, 100, 128, 256, 512,
                                            1024, 2048, 4096, MAX_RESOLUTION]),
                           min_size=1, max_size=6))
    return points, np.asarray(views), tuple(ladder)


class TestScoreGridAgainstPerRungLoop:
    """Rungs shifted from their root against every rung floored and clamped itself."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(clouds_on_pixel_edges())
    def test_bit_identical_to_the_per_rung_loop(self, case):
        points, views, ladder = case
        grid = score_grid(points, views, ladder)
        q, d = score_grid_per_rung_oracle(points, views, ladder)
        assert np.array_equal(grid.quantity, q)
        assert np.array_equal(grid.density, d)

    def test_default_ladder_on_a_scan(self):
        points, _ = normalize_pose(simulate_scan(
            make_sphere(radius=1.0, rings=24, segments=36),
            ScannerConfig(position=(1.2, -2.0, 2.0), target=(0.0, 0.0, 0.0), fov_deg=40.0,
                          angular_step_deg=0.5, max_range=12.0)).cloud)
        grid = score_grid(points)
        q, d = score_grid_per_rung_oracle(points, grid.viewpoints, grid.resolutions)
        assert np.array_equal(grid.quantity, q)
        assert np.array_equal(grid.density, d)
        assert d.max() > 0

    def test_roots(self):
        roots = select._ladder_roots((8, 9, 13, 32, 64, 100, 128, 256, 32))
        assert roots == {8: (256, 5), 9: (9, 0), 13: (13, 0), 32: (256, 3), 64: (256, 2),
                         100: (100, 0), 128: (256, 1), 256: (256, 0)}
        assert select._ladder_roots((24, 96, 8192, 48)) == {24: (96, 2), 48: (96, 1), 96: (96, 0),
                                                           8192: (8192, 0)}


class TestAntipodalReuse:
    def scan(self):
        scan = simulate_scan(make_sphere(radius=1.0, rings=24, segments=36),
                             ScannerConfig(position=(1.2, -2.0, 2.0), target=(0.0, 0.0, 0.0),
                                           fov_deg=40.0, angular_step_deg=0.5, max_range=12.0))
        points, _ = normalize_pose(scan.cloud)
        return points

    def counted_grid(self, monkeypatch, points, ladder):
        frames, cells = [], []
        camera_frame, occupied_pixels = select.camera_frame, select._occupied_pixels
        monkeypatch.setattr(select, "camera_frame", lambda v: frames.append(v) or camera_frame(v))
        monkeypatch.setattr(select, "_occupied_pixels",
                            lambda u, w, r: cells.append(r) or occupied_pixels(u, w, r))
        grid = score_grid(points, None, ladder)
        q, d = score_grid_dense_oracle(points, dodecahedron_viewpoints(), ladder)
        assert np.array_equal(grid.quantity, q)
        assert np.array_equal(grid.density, d)
        return len(frames), len(cells)

    def test_dodecahedron_computes_one_viewpoint_per_pair(self, monkeypatch):
        assert self.counted_grid(monkeypatch, self.scan(), (32, 64)) == (10, 20)

    def test_a_point_on_a_column_edge_computes_every_viewpoint(self, monkeypatch):
        # the origin projects to x = 0, t = r/2, from every viewpoint: no rung is proven
        points = np.concatenate([self.scan(), np.zeros((1, 3))])
        assert self.counted_grid(monkeypatch, points, (32, 64)) == (20, 40)

    def test_largest_rung_against_the_oracle_measures(self):
        # a small blob at the +z view's bottom-right corner, partly clamped onto the border,
        # so the keys reach 2**26 - 1; the oracle measures the render's foreground box, which
        # holds every occupied pixel and two empty rings, or the image edge, around it
        points = np.array([1.0, -1.0, 0.0]) + 0.002 * np.random.default_rng(31).normal(size=(2000, 3))
        views = np.concatenate([[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], dodecahedron_viewpoints()[::5]])
        grid = score_grid(points, views, (MAX_RESOLUTION,))
        for i, view in enumerate(views):
            img = render_point_cloud(points, view, MAX_RESOLUTION)
            rows, cols = np.nonzero(img)
            box = img[max(rows.min() - 2, 0):rows.max() + 3, max(cols.min() - 2, 0):cols.max() + 3]
            assert grid.quantity[i, 0] == quantity(box, len(points))
            assert grid.density[i, 0] == density(box)
        assert grid.density.max() > 0
        assert grid.quantity[0, 0] == grid.quantity[1, 0]


class TestRansacViewpoint:
    def plane_cloud(self, rng, n=300, spread=1.0):
        pts = np.zeros((n, 3))
        pts[:, 0] = rng.uniform(-spread, spread, n)
        pts[:, 1] = rng.uniform(-spread, spread, n)
        return pts

    def test_recovers_noiseless_plane(self):
        rng = np.random.default_rng(20)
        pts = self.plane_cloud(rng)
        axis = ransac_viewpoint(pts, iterations=200, seed=0)
        assert min(np.linalg.norm(axis - [0, 0, 1]), np.linalg.norm(axis + [0, 0, 1])) <= 1e-6
        assert np.abs(pts @ axis).max() <= RANSAC_TOLERANCE

    def test_outliers_tolerated(self):
        rng = np.random.default_rng(21)
        inliers = self.plane_cloud(rng, 270)
        outliers = rng.uniform(-1, 1, size=(30, 3))
        pts = np.concatenate([inliers, outliers])
        axis = ransac_viewpoint(pts, iterations=500, seed=1)
        # least-squares normal of the known inlier set as the reference
        centered = inliers - inliers.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        reference = vt[2]
        cos = abs(float(axis @ reference))
        assert np.arccos(min(cos, 1.0)) <= 0.05

    def test_too_few_points(self):
        with pytest.raises(ViewretError, match="plane fitting needs at least 3 points"):
            ransac_viewpoint(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_all_collinear(self):
        t = np.linspace(-1, 1, 30)
        pts = np.stack([t, 2 * t, -t], axis=1)
        with pytest.raises(ViewretError, match="no valid plane found in any iteration"):
            ransac_viewpoint(pts, iterations=50, seed=2)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(200, 3))
        pts, _ = normalize_pose(pts)
        a = ransac_viewpoint(pts, iterations=100, seed=7)
        b = ransac_viewpoint(pts, iterations=100, seed=7)
        assert np.array_equal(a, b)


def same_outcome(cloud, iterations, seed):
    """Assert that the block form and the per-plane loop agree byte for byte, errors included."""
    try:
        want = ransac_viewpoint_oracle(cloud, iterations, RANSAC_TOLERANCE, seed=seed)
    except ViewretError as exc:
        with pytest.raises(ViewretError, match=f"^{re.escape(str(exc))}$"):
            ransac_viewpoint(cloud, iterations, seed=seed)
        return None
    got = ransac_viewpoint(cloud, iterations, seed=seed)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return got


def degenerate_draws(cloud, iterations, seed):
    """Which of the loop's iterations draw a triple spanning no plane, replaying its draws."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(iterations):
        i, j, k = rng.choice(len(cloud), size=3, replace=False)
        out.append(np.linalg.norm(np.cross(cloud[j] - cloud[i], cloud[k] - cloud[i])) < 1e-12)
    return np.array(out)


class TestRansacAgainstLoop:
    """`ransac_viewpoint` scores PLANES planes at a time; the per-plane loop is the oracle."""

    @pytest.fixture
    def recounts(self, monkeypatch):
        """The planes that the block form recounted by the per-plane form, one entry each."""
        calls = []
        inliers = select._inliers

        def spy(*args):
            calls.append(args)
            return inliers(*args)

        monkeypatch.setattr(select, "_inliers", spy)
        return calls

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 3000), seed=st.integers(0, 2 ** 32 - 1),
           iterations=st.sampled_from([1, 31, PLANES, 33, 64, 100, 1000]),
           ratio_exp=st.floats(-4, 0), shift_exp=st.floats(-3, 6), plane_share=st.floats(0, 1),
           snap=st.booleans())
    def test_matches_the_loop(self, n, seed, iterations, ratio_exp, shift_exp, plane_share, snap):
        # the cloud spans tol / 10**ratio_exp (0.01 to 100), so tol over the spread runs from
        # 1e-4 to 1; a shift of up to 1e6 carries the coordinates, and the margin, to 1e6
        rng = np.random.default_rng(seed)
        tol = RANSAC_TOLERANCE
        cloud = rng.uniform(-1, 1, size=(n, 3))
        # a share of the points on a tilted plane through the origin, the rest spread about it
        on_plane = rng.random(n) < plane_share
        normal = rng.normal(size=3)
        cloud[on_plane] -= np.outer(cloud[on_plane] @ normal, normal) / (normal @ normal)
        cloud *= tol / 10.0 ** ratio_exp
        cloud += 10.0 ** shift_exp * rng.uniform(-1, 1, size=3)
        if snap:
            # coordinates on a lattice of step tol: distances to axis-aligned planes land on tol
            cloud = np.round(cloud / tol) * tol
        same_outcome(cloud, iterations, seed)

    def test_parallel_planes_exactly_tol_apart(self, recounts):
        # z = 0 and z = 0.01: planes through either sheet put the other one exactly on tol
        rng = np.random.default_rng(30)
        cloud = rng.uniform(-1, 1, size=(400, 3))
        cloud[:, 2] = np.where(np.arange(400) < 300, 0.0, RANSAC_TOLERANCE)
        for seed in range(3):
            normal = same_outcome(cloud, 200, seed)
            assert abs(normal[2]) == 1.0
        assert recounts

    def test_duplicate_points_and_wholly_degenerate_blocks(self):
        # 60 copies of the origin and four other points: few triples span a plane
        cloud = np.concatenate([np.zeros((60, 3)), np.eye(3), [[1.0, 1.0, 1.0]]])
        for seed in range(4):
            degenerate = degenerate_draws(cloud, 1000, seed)
            whole_blocks = degenerate[:len(degenerate) // PLANES * PLANES].reshape(-1, PLANES)
            assert whole_blocks.all(axis=1).any()
            assert not degenerate.all()
            for iterations in (PLANES, 1000):
                same_outcome(cloud, iterations, seed)

    def test_all_collinear_raises(self):
        t = np.linspace(-1, 1, 50)
        cloud = np.stack([t, 2 * t, -t], axis=1)
        for iterations in (1, PLANES, 100):
            assert same_outcome(cloud, iterations, seed=3) is None

    def test_infinite_margin_recounts_every_plane(self, monkeypatch, recounts):
        monkeypatch.setattr(select, "_MARGIN", np.inf)
        rng = np.random.default_rng(31)
        for seed in range(4):
            cloud, _ = normalize_pose(rng.normal(size=(500, 3)) * [1.0, 0.6, 0.05])
            recounts.clear()
            same_outcome(cloud, 100, seed)
            assert len(recounts) == 100 - degenerate_draws(cloud, 100, seed).sum()

    def test_coordinates_past_the_bound_recount_every_plane(self, recounts):
        # a plane at x + y = 3e308 whose normal is (1, 1, 0) / sqrt(2): p.n overflows while
        # (p - a).n does not; the one point off it spans only NaN normals
        x = 1.5e308
        step = np.spacing(x)
        plane = [[x + k * step, x - k * step, z] for k in range(4) for z in (0.0, 1e-150, 3e-150)]
        cloud = np.array(plane + [[x + step, x + step, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            for seed in range(8):
                recounts.clear()
                normal = same_outcome(cloud, 50, seed)
                assert np.allclose(np.abs(normal), [0.5 ** 0.5, 0.5 ** 0.5, 0.0])
                assert len(recounts) == 50 - degenerate_draws(cloud, 50, seed).sum()

    def test_memory_does_not_grow_with_iterations(self):
        cloud = np.random.default_rng(32).normal(size=(2000, 3))
        ransac_viewpoint(cloud, iterations=40, seed=0)
        tracemalloc.start()
        try:
            ransac_viewpoint(cloud, iterations=20000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block is PLANES x 2000 float64 (0.5 MB); the 20000 x 3 draws alone would be 0.46 MB
        assert peak < 2 ** 20


def best_resolution_loop(cloud, viewpoint, resolutions):
    """The former render/density/argmax loop, kept as the reference."""
    dens = []
    for r in resolutions:
        img = render_point_cloud(cloud, viewpoint, r)
        dens.append(density(img) if foreground_count(img) else 0.0)
    top = max(dens)
    return max(r for r, d in zip(resolutions, dens) if d == top)


class TestBestResolutionForViewpoint:
    def test_matches_reference_loop_off_lattice(self):
        rng = np.random.default_rng(29)
        ladders = ((32, 64, 128), (32, 64, 128, 256), (64, 32), (128,))
        for trial in range(24):
            n = int(rng.choice([4, 30, 300, 2000]))
            points, _ = normalize_pose(rng.normal(size=(n, 3)) * rng.uniform(0.2, 2.0, size=3))
            view = rng.normal(size=3)
            view /= np.linalg.norm(view)
            res = ladders[trial % len(ladders)]
            assert best_resolution_for_viewpoint(points, view, res) == \
                best_resolution_loop(points, view, res)

    def test_prefers_denser_image(self):
        rng = np.random.default_rng(23)
        points, _ = normalize_pose(rng.normal(size=(800, 3)))
        view = np.array([0.0, 0.0, 1.0])
        chosen = best_resolution_for_viewpoint(points, view, (32, 64, 128))
        dens = {r: density(render_point_cloud(points, view, r)) for r in (32, 64, 128)}
        best = max(dens.values())
        assert chosen == max(r for r, d in dens.items() if d == best)


class TestMultiviewRing:
    def test_thirteen_views_first_is_center(self):
        center = np.array([0.0, 0.0, 1.0])
        ring = multiview_ring(center)
        assert ring.shape == (13, 3)
        np.testing.assert_array_equal(ring[0], center)

    def test_ring_members_at_requested_angle(self):
        rng = np.random.default_rng(24)
        center = rng.normal(size=3)
        center /= np.linalg.norm(center)
        ring = multiview_ring(center)
        for v in ring[1:]:
            assert abs(angular_error(v, center) - np.radians(40.0)) <= 1e-6
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [(np.nan, 0.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 2.0)])
    def test_rejects_non_unit_and_nan_center(self, bad):
        with pytest.raises(ValueError, match="unit vector"):
            multiview_ring(np.array(bad))

    def test_polar_center_ring_height(self):
        ring = multiview_ring(np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(ring[1:, 2], np.cos(np.radians(40.0)), atol=1e-12)
