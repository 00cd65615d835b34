import numpy as np
import pytest

from viewret.errors import ViewretError
from viewret.geometry import TriangleMesh
from viewret.scansim import (_EDGE_EPS, _PARALLEL_EPS, MAX_RAYS, ScannerConfig, make_box,
                             make_cone, make_cylinder, make_sphere, simulate_scan)


def ray_triangle_intersect(origin, direction, triangle):
    """Scalar Moller-Trumbore: distance to the ray's hit on one triangle, or None.

    The reference for `simulate_scan`'s vectorized kernel. Edges count as
    hits; degenerate (zero-area) triangles and rays parallel to the plane
    yield None. Only strictly positive distances count.
    """
    o = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    tri = np.asarray(triangle, dtype=np.float64)
    e1 = tri[1] - tri[0]
    e2 = tri[2] - tri[0]
    pvec = np.cross(d, e2)
    det = float(e1 @ pvec)
    if abs(det) < _PARALLEL_EPS:
        return None
    inv = 1.0 / det
    tvec = o - tri[0]
    u = float(tvec @ pvec) * inv
    if u < -_EDGE_EPS or u > 1.0 + _EDGE_EPS:
        return None
    qvec = np.cross(tvec, e1)
    v = float(d @ qvec) * inv
    if v < -_EDGE_EPS or u + v > 1.0 + _EDGE_EPS:
        return None
    t = float(e2 @ qvec) * inv
    return t if t > 0.0 else None


def plane_barycentric_oracle(origin, direction, tri):
    """Plane intersection followed by a barycentric inside test."""
    a, b, c = np.asarray(tri, dtype=np.float64)
    normal = np.cross(b - a, c - a)
    denom = normal @ direction
    if abs(denom) < 1e-12:
        return None
    t = (normal @ (a - origin)) / denom
    if t <= 0:
        return None
    p = origin + t * direction
    # solve p - a = u*(b - a) + v*(c - a)
    m = np.stack([b - a, c - a], axis=1)
    uv, *_ = np.linalg.lstsq(m, p - a, rcond=None)
    u, v = uv
    if u < -1e-9 or v < -1e-9 or u + v > 1 + 1e-9:
        return None
    return float(t)


class TestRayTriangleIntersect:
    def test_axis_hit(self):
        tri = [(-2.0, -2.0, 5.0), (2.0, -2.0, 5.0), (0.0, 3.0, 5.0)]
        t = ray_triangle_intersect((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), tri)
        assert t == pytest.approx(5.0, abs=1e-12)

    def test_ray_pointing_away(self):
        tri = [(-2.0, -2.0, 5.0), (2.0, -2.0, 5.0), (0.0, 3.0, 5.0)]
        assert ray_triangle_intersect((0.0, 0.0, 0.0), (0.0, 0.0, -1.0), tri) is None

    def test_degenerate_triangle(self):
        tri = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (2.0, 0.0, 1.0)]
        assert ray_triangle_intersect((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), tri) is None

    def test_matches_plane_barycentric_oracle(self):
        rng = np.random.default_rng(41)
        agree = 0
        for _ in range(1000):
            origin = rng.normal(size=3)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            tri = rng.normal(size=(3, 3)) * 2
            got = ray_triangle_intersect(origin, direction, tri)
            want = plane_barycentric_oracle(origin, direction, tri)
            if got is None or want is None:
                assert got is None and want is None
            else:
                assert got == pytest.approx(want, abs=1e-9)
            agree += got is not None
        assert agree > 10  # sanity: some rays actually hit


def single_triangle_mesh():
    return TriangleMesh(np.array([[-3.0, -3.0, 0.0], [3.0, -3.0, 0.0], [0.0, 4.0, 0.0]]),
                        np.array([[0, 1, 2]]))


class TestSimulateScan:
    def test_points_lie_on_plane(self):
        cfg = ScannerConfig(position=(0.0, 0.0, 5.0), target=(0.0, 0.0, 0.0),
                            fov_deg=30.0, angular_step_deg=1.0, max_range=20.0)
        scan = simulate_scan(single_triangle_mesh(), cfg)
        assert len(scan.cloud) > 100
        assert np.abs(scan.cloud[:, 2]).max() <= 1e-6

    def test_ground_truth_direction(self):
        cfg = ScannerConfig(position=(0.0, 0.0, 5.0), target=(0.0, 0.0, 0.0),
                            fov_deg=30.0, angular_step_deg=1.0, max_range=20.0)
        mesh = single_triangle_mesh()
        scan = simulate_scan(mesh, cfg)
        expect = np.asarray([0.0, 0.0, 5.0]) - mesh.centroid
        expect /= np.linalg.norm(expect)
        np.testing.assert_allclose(scan.ground_truth_viewpoint, expect, atol=1e-12)

    def test_occluder_shadows_wall(self):
        wall = TriangleMesh(
            np.array([[-4.0, -4.0, -2.0], [4.0, -4.0, -2.0], [4.0, 4.0, -2.0], [-4.0, 4.0, -2.0]]),
            np.array([[0, 1, 2], [0, 2, 3]]))
        occluder = TriangleMesh(
            np.array([[-0.5, -0.5, -1.0], [0.5, -0.5, -1.0], [0.0, 0.6, -1.0]]),
            np.array([[0, 1, 2]]))
        both = TriangleMesh(np.concatenate([wall.vertices, occluder.vertices]),
                            np.concatenate([wall.triangles, occluder.triangles + 4]))
        cfg = ScannerConfig(position=(0.0, 0.0, 0.0), target=(0.0, 0.0, -2.0),
                            fov_deg=60.0, angular_step_deg=0.5, max_range=10.0)
        scan = simulate_scan(both, cfg)
        on_wall = scan.cloud[np.abs(scan.cloud[:, 2] + 2.0) < 1e-6]
        for p in on_wall:
            d = p / np.linalg.norm(p)
            blocked = ray_triangle_intersect((0.0, 0.0, 0.0), d, occluder.vertices)
            assert blocked is None or blocked >= np.linalg.norm(p) - 1e-9

    def test_halving_step_quadruples_points(self):
        mesh = single_triangle_mesh()
        counts = []
        for step in (1.0, 0.5):
            cfg = ScannerConfig(position=(0.0, 0.0, 5.0), target=(0.0, 0.0, 0.0),
                                fov_deg=30.0, angular_step_deg=step, max_range=20.0)
            counts.append(len(simulate_scan(mesh, cfg).cloud))
        ratio = counts[1] / counts[0]
        assert 3.2 <= ratio <= 4.8

    def test_recasting_reproduces_points(self):
        mesh = make_sphere(radius=1.0)
        cfg = ScannerConfig(position=(3.0, 0.5, 1.0), target=(0.0, 0.0, 0.0),
                            fov_deg=40.0, angular_step_deg=2.0, max_range=10.0)
        scan = simulate_scan(mesh, cfg)
        origin = np.asarray(cfg.position)
        for p in scan.cloud[::7]:
            d = p - origin
            dist = np.linalg.norm(d)
            d /= dist
            best = min((t for tri in mesh.vertices[mesh.triangles]
                        if (t := ray_triangle_intersect(origin, d, tri)) is not None),
                       default=None)
            assert best is not None
            assert best == pytest.approx(dist, abs=1e-9)

    def test_convex_scan_has_one_point_per_ray(self):
        mesh = make_sphere(radius=1.0)
        cfg = ScannerConfig(position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0),
                            fov_deg=40.0, angular_step_deg=2.0, max_range=10.0)
        scan = simulate_scan(mesh, cfg)
        dirs = scan.cloud - np.asarray(cfg.position)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dots = dirs @ dirs.T
        np.fill_diagonal(dots, -1.0)
        assert dots.max() < 1.0 - 1e-12

    def test_deterministic(self):
        mesh = make_cylinder()
        cfg = ScannerConfig(position=(2.0, 2.0, 1.0), target=(0.0, 0.0, 0.0),
                            fov_deg=40.0, angular_step_deg=1.0, max_range=10.0)
        assert np.array_equal(simulate_scan(mesh, cfg).cloud, simulate_scan(mesh, cfg).cloud)

    def test_range_noise_is_seeded(self):
        mesh = make_sphere()
        base = dict(position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0), fov_deg=30.0,
                    angular_step_deg=2.0, max_range=10.0, noise_sigma=0.01)
        a = simulate_scan(mesh, ScannerConfig(**base, seed=3)).cloud
        b = simulate_scan(mesh, ScannerConfig(**base, seed=3)).cloud
        c = simulate_scan(mesh, ScannerConfig(**base, seed=4)).cloud
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_no_hits(self):
        cfg = ScannerConfig(position=(0.0, 0.0, 5.0), target=(0.0, 0.0, 10.0),
                            fov_deg=10.0, angular_step_deg=1.0, max_range=20.0)
        with pytest.raises(ViewretError, match="scanner rays missed the mesh entirely"):
            simulate_scan(single_triangle_mesh(), cfg)

    def test_empty_mesh(self):
        cfg = ScannerConfig(position=(0.0, 0.0, 5.0), target=(0.0, 0.0, 0.0),
                            fov_deg=10.0, angular_step_deg=1.0, max_range=20.0)
        with pytest.raises(ViewretError, match="mesh has no vertices"):
            simulate_scan(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3))), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScannerConfig(position=(0, 0, 1), target=(0, 0, 1), fov_deg=30,
                          angular_step_deg=1.0, max_range=5.0)
        with pytest.raises(ValueError):
            ScannerConfig(position=(0, 0, 1), target=(0, 0, 0), fov_deg=30,
                          angular_step_deg=40.0, max_range=5.0)

    @pytest.mark.parametrize("change, message", [
        (dict(position=(np.nan, 0, 3)), "finite"), (dict(target=(0, np.inf, 0)), "finite"),
        (dict(noise_sigma=np.inf), "noise_sigma"), (dict(noise_sigma=np.nan), "noise_sigma"),
        (dict(noise_sigma=-1.0), "noise_sigma"), (dict(max_range=np.nan), "max_range"),
        (dict(max_range=0.0), "max_range"), (dict(fov_deg=180.0), "below 180"),
        (dict(fov_deg=400.0), "below 180")])
    def test_settings_outside_their_range_are_refused(self, change, message):
        base = dict(position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0), fov_deg=40.0,
                    angular_step_deg=1.0, max_range=10.0)
        ScannerConfig(**base)
        with pytest.raises(ValueError, match=message):
            ScannerConfig(**{**base, **change})

    def test_ray_lattice_bound(self):
        # construction only: a lattice near the bound would take gigabytes to scan
        assert MAX_RAYS == 2048 * 2048
        step = 5 / 256  # exact in binary, so fov / step is exact
        base = dict(position=(0, 0, 1), target=(0, 0, 0), angular_step_deg=step, max_range=5.0)
        ScannerConfig(fov_deg=2047 * step, **base)  # 2048 rays per side
        for fov in (2048 * step, 1e200, float("inf")):
            with pytest.raises(ValueError, match="rays"):
                ScannerConfig(fov_deg=fov, **base)


class TestPrimitives:
    @pytest.mark.parametrize("maker", [make_box, make_sphere, make_cylinder, make_cone])
    def test_valid_closed_geometry(self, maker):
        mesh = maker()
        assert len(mesh.vertices) > 0 and len(mesh.triangles) > 0
        assert np.all(np.isfinite(mesh.vertices))
        corners = mesh.vertices[mesh.triangles]
        areas = 0.5 * np.linalg.norm(np.cross(corners[:, 1] - corners[:, 0],
                                              corners[:, 2] - corners[:, 0]), axis=1)
        assert np.all(areas > 1e-12)
