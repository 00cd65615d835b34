import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewret.errors import ViewretError
from viewret.geometry import (MAX_RESOLUTION, MIN_RESOLUTION, TriangleMesh, camera_frame,
                              dodecahedron_viewpoints, normalize_mesh, normalize_pose,
                              project_points)
from viewret.render import render_mesh
from viewret.scansim import ScannerConfig, simulate_scan


def random_ball_points(rng, n):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / 3.0)


class TestNormalizePose:
    def test_two_point_example(self):
        points, transform = normalize_pose([(0, 0, 0), (2, 0, 0)])
        np.testing.assert_allclose(points, [(-1, 0, 0), (1, 0, 0)])
        np.testing.assert_allclose(transform.translation, (-1, 0, 0))
        assert transform.scale == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        once, _ = normalize_pose(rng.normal(size=(50, 3)) * 3.0 + 5.0)
        twice, _ = normalize_pose(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_random_cloud_center_and_radius(self):
        rng = np.random.default_rng(2)
        points, _ = normalize_pose(rng.uniform(-4, 9, size=(100, 3)))
        assert abs(np.linalg.norm(points, axis=1).max() - 1.0) <= 1e-9
        assert np.linalg.norm(points.mean(axis=0)) <= 1e-9

    def test_transform_reproduces_output_bitwise(self):
        rng = np.random.default_rng(3)
        cloud = rng.normal(size=(40, 3))
        points, transform = normalize_pose(cloud)
        assert np.array_equal(transform.apply(cloud), points)

    def test_empty_cloud(self):
        with pytest.raises(ViewretError, match="point cloud is empty"):
            normalize_pose(np.zeros((0, 3)))

    def test_degenerate_cloud(self):
        with pytest.raises(ViewretError, match="all points coincide"):
            normalize_pose([(1.0, 2.0, 3.0)] * 5)

    @pytest.mark.parametrize("huge", [
        [(1e300, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)],
        [(1.7e308, 0.0, 0.0), (1.7e308, 1.0, 0.0)],        # the centroid overflows
        [(1.7e308, 0.0, 0.0), (-1.7e308, 0.0, 0.0)],       # only the radius does
    ])
    def test_overflowing_centroid_or_radius_is_degenerate(self, huge):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ViewretError, match="too large"):
                normalize_pose(huge)

    @pytest.mark.parametrize("cloud", [[[1, 2], [3]], "abc", [[1, 2, object()]], [[1e400, 0, 0]],
                                       [[10 ** 400, 0, 0]]])
    def test_ragged_or_non_numeric_input_is_a_viewret_error(self, cloud):
        with pytest.raises(ViewretError, match="point"):
            normalize_pose(cloud)

    def test_finite_radius_output_is_unchanged(self):
        rng = np.random.default_rng(4)
        for scale in (1e-9, 1.0, 1e150):
            cloud = rng.normal(size=(60, 3)) * scale + 3.0 * scale
            translation = -cloud.mean(axis=0)
            max_radius = np.linalg.norm(cloud + translation, axis=1).max()
            points, transform = normalize_pose(cloud)
            assert np.array_equal(transform.translation, translation)
            assert transform.scale == 1.0 / max_radius
            assert np.array_equal(points, (cloud + translation) * (1.0 / max_radius))


class TestDodecahedronViewpoints:
    def test_count(self):
        assert len(dodecahedron_viewpoints()) == 20

    def test_unit_norms(self):
        norms = np.linalg.norm(dodecahedron_viewpoints(), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_antipodal_closure(self):
        views = dodecahedron_viewpoints()
        for v in views:
            assert np.abs(views + v).sum(axis=1).min() < 1e-12

    def test_nearest_neighbor_angle_identical_everywhere(self):
        views = dodecahedron_viewpoints()
        dots = views @ views.T
        np.fill_diagonal(dots, -np.inf)
        nearest = np.arccos(np.clip(dots.max(axis=1), -1, 1))
        np.testing.assert_allclose(nearest, nearest[0], atol=1e-12)

    def test_constant_across_calls(self):
        first = dodecahedron_viewpoints()
        first[0] = 99.0
        assert np.array_equal(dodecahedron_viewpoints(), dodecahedron_viewpoints())
        assert dodecahedron_viewpoints()[0, 0] != 99.0


class TestCameraFrame:
    def test_x_axis_view(self):
        frame = camera_frame((1.0, 0.0, 0.0))
        np.testing.assert_allclose(frame.forward, (-1, 0, 0))
        np.testing.assert_allclose(frame.right, (0, 1, 0))
        np.testing.assert_allclose(frame.up, (0, 0, 1))

    def test_pole_view_uses_fallback_up(self):
        frame = camera_frame((0.0, 0.0, 1.0))
        np.testing.assert_allclose(frame.right, (1, 0, 0))
        np.testing.assert_allclose(frame.up, (0, 1, 0))

    def test_random_frames_orthonormal(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            frame = camera_frame(v)
            assert abs(frame.right @ frame.forward) <= 1e-9
            assert abs(frame.right @ frame.up) <= 1e-9
            assert abs(frame.up @ frame.forward) <= 1e-9
            # right-handed: right x up points back at the eye
            np.testing.assert_allclose(np.cross(frame.right, frame.up), v, atol=1e-9)

    def test_rejects_non_unit(self):
        for bad in ((1.0, 1.0, 0.0), (np.nan, 0.0, 1.0), (np.inf, 0.0, 0.0), (0.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="unit vector"):
                camera_frame(bad)


class TestProject:
    def test_center_pixel(self):
        frame = camera_frame((0.0, 0.0, 1.0))
        (row,), (col,), (depth,) = project_points([(0.0, 0.0, 0.0)], frame, 8)
        assert (row, col) == (4, 4)
        assert depth == 0.5

    def test_eye_has_zero_depth(self):
        frame = camera_frame((0.0, 0.0, 1.0))
        assert project_points(frame.eye[None, :], frame, 16)[2][0] == 0.0

    def test_random_points_match_direct_arithmetic(self):
        rng = np.random.default_rng(5)
        frame = camera_frame((1.0, 0.0, 0.0))
        r = 32
        for _ in range(50):
            p = rng.normal(size=3)
            p *= rng.uniform(0, 1) / np.linalg.norm(p)
            (row,), (col,), (depth,) = project_points(p[None, :], frame, r)
            want_col = min(max(int(np.floor((p @ frame.right + 1) / 2 * r)), 0), r - 1)
            want_row = min(max(int(np.floor((1 - (p @ frame.up + 1) / 2) * r)), 0), r - 1)
            assert (row, col) == (want_row, want_col)
            assert 0.0 <= depth <= 1.0
            assert depth == pytest.approx(((p - frame.eye) @ frame.forward) / 2, abs=0)

    def test_depth_in_unit_interval_for_any_view(self):
        rng = np.random.default_rng(6)
        points = random_ball_points(rng, 200)
        for _ in range(10):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            _, _, depth = project_points(points, camera_frame(v), 64)
            assert depth.min() >= 0.0 and depth.max() <= 1.0

    def test_coordinates_beyond_int64_clamp_to_their_border(self):
        frame = camera_frame((0.0, 0.0, 1.0))   # right is +x and up is +y
        points = [(1e16, 0.0, 0.0), (-1e16, 0.0, 0.0), (1e308, 0.0, 0.0), (0.0, 1e16, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, cols, _ = project_points(points, frame, 4096)
        assert cols.tolist() == [4095, 0, 4095, 2048]
        assert rows.tolist() == [2048, 2048, 2048, 0]

    def test_bad_resolution(self):
        frame = camera_frame((0.0, 0.0, 1.0))
        for resolution in (MIN_RESOLUTION - 1, MAX_RESOLUTION + 1, 99999999):
            with pytest.raises(ViewretError, match="resolution must be in"):
                project_points([(0, 0, 0)], frame, resolution)
        for resolution in (MIN_RESOLUTION, MAX_RESOLUTION):
            assert project_points([(1, 1, 0)], frame, resolution)[1][0] == resolution - 1


NON_FINITE_OR_HUGE = [np.nan, np.inf, -np.inf, 1e300, -1e300]


@st.composite
def raw_meshes(draw):
    """Vertex and triangle arrays that may break any rule of a mesh, or none."""
    n = draw(st.integers(0, 6))
    vertices = draw(st.lists(st.floats(-2.0, 2.0), min_size=3 * n, max_size=3 * n))
    if vertices and draw(st.integers(0, 3)) == 0:
        vertices[draw(st.integers(0, 3 * n - 1))] = draw(st.sampled_from(NON_FINITE_OR_HUGE))
    if n >= 3 and draw(st.integers(0, 3)):
        triangle = st.permutations(range(n)).map(lambda p: p[:3])
    else:
        triangle = st.tuples(*[st.integers(-1, 7)] * 3)
    triangles = [draw(triangle) for _ in range(draw(st.integers(0, 4)))]
    return np.reshape(vertices, (-1, 3)), np.array(triangles, dtype=np.int64)


class TestTriangleMesh:
    @pytest.mark.filterwarnings("error")
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(raw_meshes())
    def test_a_mesh_built_renders_and_scans_or_raises_a_viewret_error(self, raw):
        """Construction is the one check: what it accepts, normalize_mesh, render_mesh and
        simulate_scan take without checking again."""
        try:
            mesh = TriangleMesh(*raw)
        except ViewretError:
            return
        scanner = ScannerConfig(position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0), fov_deg=40.0,
                                angular_step_deg=2.0, max_range=10.0)
        try:
            mesh, _ = normalize_mesh(mesh)
            render_mesh(mesh, np.array([0.0, 0.0, 1.0]), 32)
            simulate_scan(mesh, scanner)
        except ViewretError:
            pass

    @pytest.mark.parametrize("vertices, triangles, name", [
        (np.zeros(4), [[0, 1, 2]], "vertices"),
        (np.eye(3), [[0, 1]], "triangles"),
        (np.eye(3), [[0, 1], [1, 2], [2, 0]], "triangles"),
        (np.zeros((3, 2)), [[0, 1, 2]], "vertices"),
        ([[0, 0, 0], [1, 0]], [[0, 1, 2]], "vertices"),
        ("abc", [[0, 1, 2]], "vertices"),
        (np.eye(3), [[0, 1, 2.0e30]], "triangles"),
        (np.eye(3), [[0, 1, np.nan]], "triangles"),
        (np.eye(3), [[0, 1, object()]], "triangles")])
    def test_arrays_that_are_not_rows_of_three_are_a_viewret_error(self, vertices, triangles,
                                                                   name):
        with pytest.raises(ViewretError, match=f"mesh {name} must be an \\(N, 3\\) array"):
            TriangleMesh(vertices, triangles)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("triangles", [
        [[0, 1, 2.7]], [[0, 1, 1.5]], np.array([[0.0, 1.0, 2.0 - 1e-15]]),
        np.array([[0.0, 1.0, np.nan]]), np.array([[0.0, 1.0, 1e30]]), [[0, 1, "2"]]])
    def test_an_index_the_int64_cast_changes_is_refused(self, triangles):
        with pytest.raises(ViewretError, match="mesh triangles must be integer vertex indices"):
            TriangleMesh(np.eye(3), triangles)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("triangles", [
        [[0, 1, 2.0]], np.array([[0.0, 1.0, 2.0]]), np.array([[0, 1, 2]], dtype=np.uint8),
        np.array([[0, 1, 2]], dtype=np.int32)])
    def test_integral_indices_of_any_type_are_kept(self, triangles):
        mesh = TriangleMesh(np.eye(3), triangles)
        assert mesh.triangles.dtype == np.int64 and mesh.triangles.tolist() == [[0, 1, 2]]

    def test_an_empty_sequence_is_an_empty_array(self):
        with pytest.raises(ViewretError, match="mesh has no vertices"):
            TriangleMesh([], [[0, 1, 2]])
        with pytest.raises(ViewretError, match="mesh has no triangles"):
            TriangleMesh(np.eye(3), [])
