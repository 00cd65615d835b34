import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import density, eight_connected_count, quantity, render_mesh_oracle, to_binary
from viewret.errors import ViewretError
from viewret.evaluate import desk_benchmark_config
from viewret.geometry import (MAX_RESOLUTION, TriangleMesh, camera_frame, dodecahedron_viewpoints,
                              normalize_mesh)
from viewret.render import render_mesh, render_point_cloud
from viewret.scansim import make_box, make_cone, make_cylinder, make_sphere

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
        with pytest.raises(ViewretError, match="point cloud is empty"):
            render_point_cloud(np.zeros((0, 3)), VIEW_Z, 16)
        with pytest.raises(ViewretError, match="resolution must be in .*, got 4"):
            render_point_cloud([(0, 0, 0)], VIEW_Z, 4)
        with pytest.raises(ViewretError, match=f"resolution must be in .*, got {MAX_RESOLUTION + 1}"):
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
        with pytest.raises(ViewretError, match="mesh has no vertices"):
            render_mesh(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3))), VIEW_Z, 16)
        with pytest.raises(ViewretError, match="resolution must be in .*, got 4"):
            render_mesh(full_plane_triangle(0.0), VIEW_Z, 4)
        with pytest.raises(ViewretError, match=f"resolution must be in .*, got {MAX_RESOLUTION + 1}"):
            render_mesh(full_plane_triangle(0.0), VIEW_Z, MAX_RESOLUTION + 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_is_refused(self, value):
        # refused where the mesh is built, so render_mesh never sees one
        mesh = full_plane_triangle(0.0)
        vertices = mesh.vertices.copy()
        vertices[2, 1] = value
        with pytest.raises(ViewretError, match="finite"):
            TriangleMesh(vertices, mesh.triangles)

    def test_a_built_mesh_cannot_be_written_into(self):
        # the check made at construction holds as long as the mesh does
        mesh, _ = normalize_mesh(make_box())
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            mesh.triangles[0, 0] = mesh.triangles[0, 1]

    def test_a_callers_arrays_stay_writable(self):
        vertices = np.array([[-0.4, -0.3, -0.1], [0.5, -0.2, 0.2], [0.0, 0.6, 0.05]])
        triangles = np.array([[0, 1, 2]])
        mesh = TriangleMesh(vertices, triangles)
        vertices[0, 0] = np.nan
        triangles[0, 0] = 1
        assert vertices.flags.writeable and triangles.flags.writeable
        assert np.isfinite(mesh.vertices).all() and mesh.triangles[0, 0] == 0

    def test_transients_stay_within_blocks(self):
        # the per-triangle loop held several float64 arrays the size of a
        # triangle's bounding box, about 90 MB here
        r = 2048
        mesh, _ = normalize_mesh(make_box())
        tracemalloc.start()
        try:
            render_mesh(mesh, np.array([1.0, 0.6, 0.4]) / np.linalg.norm([1.0, 0.6, 0.4]), r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        zbuf_and_image = 9 * r * r
        assert peak - zbuf_and_image < 4 * 2 ** 20


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _from_pixels(uw, r, depth):
    """World vertices that VIEW_Z projects to pixel coordinates (u, w); exact for r a power of 2."""
    return np.column_stack([2.0 * uw[:, 0] / r - 1.0, 1.0 - 2.0 * uw[:, 1] / r, depth])


@st.composite
def triangle_soups(draw):
    """(mesh, viewpoint, resolution) with the triangles a row span could get wrong."""
    kind = draw(st.sampled_from(["random", "centres", "edges", "nudged", "sliver", "off-image",
                                 "huge", "full-plane"]))
    r = draw(st.sampled_from([8, 16, 32, 64, 256, 1024]) | st.integers(8, 1024))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 4))
    viewpoint = VIEW_Z if draw(st.booleans()) else _unit(rng.normal(size=3))
    depth = rng.uniform(-1.0, 1.0, 3 * n)
    if kind == "full-plane":
        return full_plane_triangle(depth[0]), viewpoint, r
    if kind == "random":
        # the image spans [-1, 1]; triangles reach past it
        return TriangleMesh(rng.uniform(-1.5, 1.5, (3 * n, 3)), np.arange(3 * n).reshape(n, 3)), \
            viewpoint, r
    if kind in ("centres", "edges"):
        # vertices exactly on pixel centres or corners, so edges run through pixel centres
        uw = rng.integers(-2, r + 3, (3 * n, 2)) + (0.5 if kind == "centres" else 0.0)
    elif kind == "nudged":
        # pixel centres moved by a hair, each triangle with one edge within a hair of a
        # row or a column: the barycentric test then hinges on the -_EDGE_EPS slack
        uw = rng.integers(-r // 2, r + r // 2, (n, 3, 2)) + 0.5
        axis = draw(st.integers(0, 1))
        uw[:, 1, axis] = uw[:, 0, axis]
        hairs = np.array([0.0, 1e-13, -1e-13, 1e-10, -1e-10, 1e-7, -1e-7])
        uw = (uw + rng.choice(hairs, size=uw.shape)).reshape(-1, 2)
    elif kind == "sliver":
        a, b = rng.uniform(-0.2 * r, 1.2 * r, (2, n, 2))
        if draw(st.booleans()):
            a, b = np.floor(a) + 0.5, np.floor(b) + 0.5
            b[np.all(a == b, axis=1), 0] += 1.0
        normal = np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], axis=1)
        normal /= np.linalg.norm(normal, axis=1, keepdims=True)
        width = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.3]))
        c = a + rng.uniform(-0.5, 1.5, (n, 1)) * (b - a) + width * normal
        uw = np.stack([a, b, c], axis=1).reshape(-1, 2)
    elif kind == "off-image":
        shift = rng.choice([-2 * r, 0, 3 * r], size=(n, 1, 2))
        uw = (rng.uniform(-0.5 * r, 0.5 * r, (n, 3, 2)) + shift).reshape(-1, 2)
    else:
        uw = rng.uniform(-8 * r, 9 * r, (3 * n, 2))
    return TriangleMesh(_from_pixels(uw, r, depth), np.arange(3 * n).reshape(n, 3)), viewpoint, r


class TestRenderMeshAgainstLoop:
    """The row-span rasterizer against the per-triangle loop, byte for byte."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(triangle_soups())
    def test_triangle_soups(self, case):
        mesh, viewpoint, r = case
        assert render_mesh(mesh, viewpoint, r).tobytes() == \
            render_mesh_oracle(mesh, viewpoint, r).tobytes()

    def test_edge_slack_reaches_far_past_the_crossing(self):
        # row 500 meets this triangle only at its first vertex, but the edge to
        # the second rises 1e-7 over 800 pixels, so the -_EDGE_EPS slack lets the
        # loop paint some 800 pixels of that row: a span cut to the exact
        # crossing, even widened by a pixel, would miss them
        r = 1024
        uw = np.array([[100.5, 500.5], [900.5, 500.5 + 1e-7], [500.5, 100.5]])
        mesh = TriangleMesh(_from_pixels(uw, r, np.zeros(3)), np.array([[0, 1, 2]]))
        want = render_mesh_oracle(mesh, VIEW_Z, r)
        assert (want[500] > 0).sum() > 700
        assert render_mesh(mesh, VIEW_Z, r).tobytes() == want.tobytes()

    @pytest.mark.parametrize("make", [make_box, make_sphere, make_cylinder, make_cone])
    def test_primitives_from_every_view(self, make):
        mesh, _ = normalize_mesh(make())
        config = desk_benchmark_config()
        for r in sorted(set(config.resolutions) | {config.db_resolution}):
            for viewpoint in dodecahedron_viewpoints():
                assert render_mesh(mesh, viewpoint, r).tobytes() == \
                    render_mesh_oracle(mesh, viewpoint, r).tobytes(), (r, viewpoint)


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
        with pytest.raises(ViewretError, match="binary image must be at least 3x3"):
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
        with pytest.raises(ViewretError, match="image has no foreground pixels"):
            density(np.zeros((8, 8), dtype=np.uint8))
