import numpy as np
import pytest

from oracles import density, eight_connected_count, quantity, to_binary
from viewret.errors import BadResolution, EmptyCloud, EmptyMesh, NoForeground
from viewret.geometry import MAX_RESOLUTION, TriangleMesh, camera_frame
from viewret.render import render_mesh, render_point_cloud

VIEW_Z = np.array([0.0, 0.0, 1.0])


def bucket_oracle(points, viewpoint, resolution):
    """Independent projection: bucket points per pixel, keep the nearest."""
    frame = camera_frame(viewpoint)
    buckets = {}
    for p in points:
        col = min(max(int(np.floor((p @ frame.right + 1) / 2 * resolution)), 0), resolution - 1)
        row = min(max(int(np.floor((1 - (p @ frame.up + 1) / 2) * resolution)), 0), resolution - 1)
        depth = ((p - frame.eye) @ frame.forward) / 2
        key = (row, col)
        if key not in buckets or depth < buckets[key]:
            buckets[key] = depth
    return buckets


class TestRenderPointCloud:
    def test_single_point_center(self):
        img = render_point_cloud([(0.0, 0.0, 0.0)], VIEW_Z, 8)
        assert (img > 0).sum() == 1
        assert img[4, 4] == 128

    def test_zbuffer_keeps_nearer_point(self):
        img = render_point_cloud([(0.0, 0.0, 0.0), (0.0, 0.0, 0.5)], VIEW_Z, 8)
        rows, cols = np.nonzero(img)
        assert len(rows) == 1
        assert img[rows[0], cols[0]] == 192

    def test_matches_bucket_oracle(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(1000, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        points *= rng.uniform(0, 1, size=(1000, 1)) ** (1 / 3)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        img = render_point_cloud(points, v, 32)
        buckets = bucket_oracle(points, v, 32)
        assert (img > 0).sum() == len(buckets)
        for (row, col), depth in buckets.items():
            assert img[row, col] == np.rint(255.0 - 254.0 * depth).astype(np.uint8)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(-0.5, 0.5, size=(300, 3))
        a = render_point_cloud(points, VIEW_Z, 64)
        b = render_point_cloud(points, VIEW_Z, 64)
        assert np.array_equal(a, b)

    def test_errors(self):
        with pytest.raises(EmptyCloud):
            render_point_cloud(np.zeros((0, 3)), VIEW_Z, 16)
        with pytest.raises(BadResolution):
            render_point_cloud([(0, 0, 0)], VIEW_Z, 4)
        with pytest.raises(BadResolution):
            render_point_cloud([(0, 0, 0)], VIEW_Z, MAX_RESOLUTION + 1)


def full_plane_triangle(depth_z):
    # huge triangle parallel to the image plane, covering every pixel center
    return TriangleMesh(
        np.array([[-8.0, -8.0, depth_z], [8.0, -8.0, depth_z], [0.0, 8.0, depth_z]]),
        np.array([[0, 1, 2]]))


class TestRenderMesh:
    def test_constant_depth_plane_fills_image(self):
        img = render_mesh(full_plane_triangle(0.0), VIEW_Z, 16)
        assert np.all(img == 128)

    def test_outside_small_triangle_is_background(self):
        mesh = TriangleMesh(
            np.array([[-0.1, -0.1, 0.0], [0.1, -0.1, 0.0], [0.0, 0.1, 0.0]]),
            np.array([[0, 1, 2]]))
        img = render_mesh(mesh, VIEW_Z, 64)
        assert img[0, 0] == 0
        assert (img > 0).sum() < 64 * 64 / 10
        assert (img > 0).sum() > 0

    def test_triangle_matches_dense_point_sampling(self):
        # gentle tilt: the point renderer keeps the minimum depth per pixel, so
        # the depth spread within one pixel must stay below a quantization step
        verts = np.array([[-0.6, -0.5, -0.01], [0.55, -0.35, 0.015], [0.0, 0.6, 0.005]])
        mesh = TriangleMesh(verts, np.array([[0, 1, 2]]))
        r = 32
        img_mesh = render_mesh(mesh, VIEW_Z, r)
        steps = 10 * r
        u, v = np.meshgrid(np.linspace(0, 1, steps), np.linspace(0, 1, steps))
        keep = (u + v) <= 1.0
        u, v = u[keep], v[keep]
        samples = (verts[0][None, :]
                   + u[:, None] * (verts[1] - verts[0])[None, :]
                   + v[:, None] * (verts[2] - verts[0])[None, :])
        img_pts = render_point_cloud(samples, VIEW_Z, r)
        both = (img_mesh > 0) & (img_pts > 0)
        either = (img_mesh > 0) | (img_pts > 0)
        assert both.sum() >= 0.8 * either.sum()
        diff = np.abs(img_mesh.astype(int) - img_pts.astype(int))
        assert diff[both].max() <= 1

    def test_deterministic(self):
        mesh = TriangleMesh(
            np.array([[-0.4, -0.3, -0.1], [0.5, -0.2, 0.2], [0.0, 0.6, 0.05]]),
            np.array([[0, 1, 2]]))
        assert np.array_equal(render_mesh(mesh, VIEW_Z, 64), render_mesh(mesh, VIEW_Z, 64))

    def test_errors(self):
        with pytest.raises(EmptyMesh):
            render_mesh(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3))), VIEW_Z, 16)
        with pytest.raises(BadResolution):
            render_mesh(full_plane_triangle(0.0), VIEW_Z, 4)
        with pytest.raises(BadResolution):
            render_mesh(full_plane_triangle(0.0), VIEW_Z, MAX_RESOLUTION + 1)


# the dense image measures of tests/oracles.py, the reference for select.score_grid

class TestToBinary:
    def test_all_zero(self):
        assert to_binary(np.zeros((8, 8), dtype=np.uint8)).sum() == 0

    def test_intensity_one_is_foreground(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[3, 5] = 1
        assert to_binary(img)[3, 5] == 1

    def test_foreground_count_preserved(self):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        assert to_binary(img).sum() == int((img > 0).sum())


def neighbor_scan_oracle(binary):
    h, w = binary.shape
    count = 0
    for r in range(h):
        for c in range(w):
            if binary[r, c] != 1:
                continue
            ok = True
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if not (0 <= rr < h and 0 <= cc < w) or binary[rr, cc] != 1:
                        ok = False
            if ok:
                count += 1
    return count


class TestEightConnected:
    def test_all_ones_3x3(self):
        assert eight_connected_count(np.ones((3, 3), dtype=np.uint8)) == 1

    def test_single_pixel(self):
        b = np.zeros((8, 8), dtype=np.uint8)
        b[4, 4] = 1
        assert eight_connected_count(b) == 0

    def test_matches_neighbor_scan(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            b = (rng.random((32, 32)) < 0.6).astype(np.uint8)
            assert eight_connected_count(b) == neighbor_scan_oracle(b)

    def test_too_small(self):
        with pytest.raises(BadResolution):
            eight_connected_count(np.ones((2, 2), dtype=np.uint8))


class TestQuantity:
    def test_four_distinct_pixels(self):
        points = np.array([[-0.5, -0.5, 0.0], [0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        img = render_point_cloud(points, VIEW_Z, 8)
        assert quantity(img, 4) == 1.0

    def test_aliasing_halves_quantity(self):
        img = render_point_cloud([(0.0, 0.0, 0.0), (0.0, 0.0, 0.5)], VIEW_Z, 8)
        assert quantity(img, 2) == 0.5

    def test_quantity_grows_with_resolution(self):
        rng = np.random.default_rng(11)
        wins = 0
        for _ in range(20):
            points = rng.normal(size=(2000, 3))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
            points *= rng.uniform(0, 1, size=(2000, 1)) ** (1 / 3)
            lo = quantity(render_point_cloud(points, VIEW_Z, 32), 2000)
            hi = quantity(render_point_cloud(points, VIEW_Z, 512), 2000)
            wins += lo <= hi
        assert wins >= 18

    def test_zero_cardinality(self):
        with pytest.raises(ValueError, match="cloud size"):
            quantity(np.zeros((8, 8), dtype=np.uint8), 0)


class TestDensity:
    def test_single_foreground_pixel(self):
        img = np.zeros((8, 8), dtype=np.uint8)
        img[2, 2] = 200
        assert density(img) == 0.0

    def test_full_image(self):
        r = 8
        img = np.full((r, r), 77, dtype=np.uint8)
        assert density(img) == (r - 2) ** 2 / r ** 2

    def test_3x3_all_ones(self):
        assert density(np.full((3, 3), 5, dtype=np.uint8)) == pytest.approx(1 / 9)

    def test_below_one_when_foreground_touches_border(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            img = (rng.random((16, 16)) < 0.9).astype(np.uint8) * 100
            img[0, rng.integers(16)] = 100
            assert density(img) < 1.0

    def test_no_foreground(self):
        with pytest.raises(NoForeground):
            density(np.zeros((8, 8), dtype=np.uint8))
