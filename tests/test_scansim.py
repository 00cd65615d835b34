import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import simulate_scan_oracle, simulate_scan_per_triangle
from viewret import scansim
from viewret.errors import ViewretError
from viewret.geometry import TriangleMesh, _cross
from viewret.scansim import (_CHUNK_RAYS, _EDGE_EPS, _PARALLEL_EPS, MAX_RAYS, ScannerConfig,
                             _chunks, _footprints, _ray_lattice, make_box, make_cone,
                             make_cylinder, make_sphere, simulate_scan)


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, np.int64(-2), np.float64(3.0)])
    def test_a_seed_other_than_a_non_negative_integer_is_refused(self, seed):
        base = dict(position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0), fov_deg=40.0,
                    angular_step_deg=1.0, max_range=10.0, noise_sigma=0.01)
        with pytest.raises(ViewretError, match="scanner seed must be a non-negative integer"):
            ScannerConfig(**base, seed=seed)

    def test_a_numpy_integer_seed_scans_as_its_int(self):
        base = dict(position=(2.0, 2.0, 1.0), target=(0.0, 0.0, 0.0), fov_deg=30.0,
                    angular_step_deg=1.0, max_range=10.0, noise_sigma=0.01)
        mesh = make_box()
        want = simulate_scan(mesh, ScannerConfig(**base, seed=3)).cloud
        for seed in (np.int64(3), np.uint8(3)):
            assert simulate_scan(mesh, ScannerConfig(**base, seed=seed)).cloud.tobytes() == \
                want.tobytes()

    @pytest.mark.parametrize("change", [
        dict(position=(0.0, 3.0)), dict(position=(0.0, 0.0, 3.0, 1.0)), dict(target=(0.0,)),
        dict(target=[[0.0, 0.0, 0.0]]), dict(position=(0.0, (1.0, 2.0), 3.0)),
        dict(position="abc"), dict(target=0.0), dict(target=(0.0, object(), 0.0))])
    def test_a_position_or_target_of_other_than_3_numbers_is_refused(self, change):
        base = dict(position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0), fov_deg=40.0,
                    angular_step_deg=1.0, max_range=10.0)
        with pytest.raises(ViewretError, match=f"scanner {next(iter(change))} must be 3 numbers"):
            ScannerConfig(**{**base, **change})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [make_cylinder, make_cone, make_sphere, make_box])
    def test_a_scanner_at_the_mesh_centroid_is_refused(self, make):
        mesh = make()
        cfg = ScannerConfig(position=mesh.centroid, target=(1.0, 0.0, 0.0), fov_deg=40.0,
                            angular_step_deg=1.0, max_range=10.0)
        with pytest.raises(ViewretError, match="position must differ from the mesh centroid"):
            simulate_scan(mesh, cfg)

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


# --- the culled kernel against the loop it replaced --------------------------------

@functools.lru_cache(maxsize=1)
def big_sphere():
    return make_sphere(rings=60, segments=80)


@st.composite
def meshes(draw):
    """Random and sliver triangle soups, the four primitives and a 9,440-triangle sphere."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # hypothesis draws only the seed, since its draws favour small values and first choices;
    # the big sphere's scans take a second each, so it comes up rarely
    kind = rng.choice(["random", "sliver", "box", "sphere", "cylinder", "cone", "big sphere"],
                      p=[0.2, 0.2, 0.14, 0.14, 0.14, 0.13, 0.05])
    if kind == "big sphere":
        return kind, big_sphere()
    if kind in ("box", "sphere", "cylinder", "cone"):
        maker = {"box": make_box, "sphere": make_sphere, "cylinder": make_cylinder,
                 "cone": make_cone}[kind]
        return kind, maker()
    n = rng.integers(1, 40, endpoint=True)
    corners = rng.normal(size=(n, 3, 3)) * rng.choice([0.05, 0.5, 2.0])
    if kind == "sliver":
        # a third corner on (or a hair off) the line through the other two
        along = rng.uniform(-0.5, 1.5, size=(n, 1))
        off = rng.normal(size=(n, 3)) * rng.choice([0.0, 1e-12, 1e-6, 1e-3])
        corners[:, 2] = corners[:, 0] + along * (corners[:, 1] - corners[:, 0]) + off
    return kind, TriangleMesh(corners.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))


@st.composite
def poses(draw, mesh, kind):
    """Scanner settings: far from the mesh, inside triangles' bounding spheres, inside the
    mesh, or in a triangle's plane, where rays run nearly parallel to it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    where = rng.choice(["far", "near a vertex", "inside", "in a triangle's plane"])
    event(f"scanner {where}")
    if where == "far":
        direction = rng.normal(size=3)
        position = mesh.centroid + direction / np.linalg.norm(direction) * rng.uniform(1.5, 8.0)
    elif where == "near a vertex":
        vertex = mesh.vertices[rng.integers(len(mesh.vertices))]
        position = vertex + rng.normal(size=3) * 0.05
    elif where == "inside":
        position = mesh.centroid + rng.normal(size=3) * 0.1
    else:
        a, b, c = mesh.vertices[mesh.triangles[rng.integers(len(mesh.triangles))]]
        position = a + rng.uniform(-3.0, 3.0) * (b - a) + rng.uniform(-3.0, 3.0) * (c - a)
    target = mesh.centroid + rng.normal(size=3) * rng.choice([0.0, 0.5, 3.0])
    fov = rng.choice([1.0, 10.0, 40.0, 90.0, 150.0, 179.0])
    if kind == "big sphere":
        fov = min(fov, 40.0)
    side = rng.integers(1, 12 if kind == "big sphere" else 80, endpoint=True)
    step = fov / side if side > 1 else fov * rng.choice([0.6, 1.0])
    return ScannerConfig(position=position, target=target, fov_deg=fov, angular_step_deg=step,
                         max_range=rng.choice([1e6, 2.0]), noise_sigma=rng.choice([0.0, 0.01]),
                         seed=3)


def scan_or_refusal(scan, mesh, cfg):
    try:
        result = scan(mesh, cfg)
    except ViewretError as exc:
        return str(exc)
    return result.cloud.tobytes(), result.ground_truth_viewpoint.tobytes()


class TestCulledKernel:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_clouds_are_the_loops_byte_for_byte(self, data):
        kind, mesh = data.draw(meshes())
        event(str(kind))
        cfg = data.draw(poses(mesh, kind))
        assert scan_or_refusal(simulate_scan, mesh, cfg) == \
            scan_or_refusal(simulate_scan_oracle, mesh, cfg)

    @pytest.mark.parametrize("cfg", [
        dict(position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0), fov_deg=40.0, angular_step_deg=0.5),
        dict(position=(2.0, -1.0, 0.5), target=(0.0, 0.0, 0.0), fov_deg=40.0,
             angular_step_deg=0.25),
        dict(position=(0.1, 0.2, 0.05), target=(1.0, 0.0, 0.0), fov_deg=100.0,
             angular_step_deg=2.0),
        dict(position=(1.2, 0.3, 0.2), target=(0.0, 0.0, 0.0), fov_deg=179.0,
             angular_step_deg=1.0)])
    def test_primitives_at_the_pipelines_steps(self, cfg):
        for mesh in (make_box(), make_sphere(), make_cylinder(), make_cone()):
            scan = ScannerConfig(max_range=100.0, **cfg)
            assert scan_or_refusal(simulate_scan, mesh, scan) == \
                scan_or_refusal(simulate_scan_oracle, mesh, scan)

    def test_footprints_cull_a_sphere_seen_from_afar(self):
        """Not a correctness check: a footprint that silently fell back everywhere would pass
        the byte-for-byte tests and lose the cull."""
        mesh = make_sphere()
        cfg = ScannerConfig(position=(0.0, 0.0, 3.0), target=(0.0, 0.0, 0.0), fov_deg=40.0,
                            angular_step_deg=0.5, max_range=10.0)
        r0, r1, c0, c1 = footprints(mesh, cfg)
        rays = np.maximum(r1 - r0, 0) * np.maximum(c1 - c0, 0)
        assert rays.max() < 81 * 81
        assert rays.mean() < 0.1 * 81 * 81

    def test_a_cylinders_side_triangles_get_narrow_column_ranges(self):
        """Not a correctness check: the corners' azimuths narrow the boxes of long thin
        triangles that stand along the lattice's up direction, whose spheres span the view."""
        mesh = make_cylinder()
        cfg = ScannerConfig(position=(3.0, 0.0, 0.3), target=(0.0, 0.0, 0.0), fov_deg=40.0,
                            angular_step_deg=0.5, max_range=10.0)
        r0, r1, c0, c1 = footprints(mesh, cfg)
        sides = np.sort(np.r_[0:96:4, 1:96:4])
        assert (r1 - r0)[sides].max() > 70
        assert (c1 - c0)[sides].max() < 16

    def test_a_scanner_inside_a_triangles_sphere_tests_every_ray(self):
        mesh = single_triangle_mesh()
        cfg = ScannerConfig(position=(0.0, 0.0, 0.5), target=(0.0, 0.0, 0.0), fov_deg=20.0,
                            angular_step_deg=1.0, max_range=10.0)
        assert [int(x[0]) for x in footprints(mesh, cfg)] == [0, 21, 0, 21]

    def test_a_triangle_behind_the_scanner_is_skipped(self):
        mesh = single_triangle_mesh()
        cfg = ScannerConfig(position=(0.0, 0.0, 20.0), target=(0.0, 0.0, 40.0), fov_deg=20.0,
                            angular_step_deg=1.0, max_range=100.0)
        r0, r1, c0, c1 = (int(x[0]) for x in footprints(mesh, cfg))
        assert r0 >= r1 or c0 >= c1

    def test_a_one_ray_box_is_widened_to_two(self):
        # a small triangle 1.5 steps beyond the lattice's corner: its padded box holds one ray
        cfg = ScannerConfig(position=(0.0, 0.0, 0.0), target=(1.0, 0.0, 0.0), fov_deg=10.0,
                            angular_step_deg=1.0, max_range=10.0)
        dirs, frame, offsets = _ray_lattice(cfg)
        angle = offsets[-1] + 1.5 * (offsets[1] - offsets[0])
        centre = 5.0 * (np.cos(angle) ** 2 * frame[0] + np.cos(angle) * np.sin(angle) * frame[1]
                        + np.sin(angle) * frame[2])
        mesh = TriangleMesh(centre + np.array([[0.0, 1e-3, 0.0], [0.0, 0.0, 1e-3],
                                               [0.0, -1e-3, -1e-3]]), [[0, 1, 2]])
        r0, r1, c0, c1 = (int(x[0]) for x in footprints(mesh, cfg))
        assert (r1 - r0) * (c1 - c0) == 2
        assert scan_or_refusal(simulate_scan, mesh, cfg) == \
            scan_or_refusal(simulate_scan_oracle, mesh, cfg)


    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.data())
    def test_chunks_of_every_kind_give_the_loops_clouds(self, data):
        """Soups of up to a few hundred triangles of mixed sizes, scanned with a small chunk
        budget, so that chunks of one, chunks of many and boxes moved inside the lattice's
        edge all occur."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        mesh = mixed_soup(rng, rng.integers(20, 300, endpoint=True))
        cfg = data.draw(poses(mesh, "mixed"))
        budget = int(rng.choice([16, 128, 1024]))
        for kind in chunk_kinds(mesh, cfg, budget):
            event(kind)
        with mock.patch.object(scansim, "_CHUNK_RAYS", budget):
            got = scan_or_refusal(simulate_scan, mesh, cfg)
        assert got == scan_or_refusal(simulate_scan_oracle, mesh, cfg)

    def test_a_small_budget_makes_every_kind_of_chunk(self):
        """Not a correctness check by itself: the hypothesis test above needs these kinds."""
        mesh = mixed_soup(np.random.default_rng(7), 200)
        cfg = ScannerConfig(position=mesh.centroid + (0.0, 0.0, 6.0), target=mesh.centroid,
                            fov_deg=40.0, angular_step_deg=0.75, max_range=100.0)
        assert chunk_kinds(mesh, cfg, 128) == {"chunk of one", "chunk of many",
                                               "box moved inside the edge"}
        with mock.patch.object(scansim, "_CHUNK_RAYS", 128):
            got = scan_or_refusal(simulate_scan, mesh, cfg)
        assert got == scan_or_refusal(simulate_scan_oracle, mesh, cfg)
        assert got == scan_or_refusal(simulate_scan, mesh, cfg)

    @pytest.mark.parametrize("step", [0.5, 0.15])
    @pytest.mark.parametrize("position", [(0.0, 0.3, 3.0), (2.0, -1.0, 0.5), (0.2, -0.1, 0.3)])
    def test_the_big_sphere_gives_the_per_triangle_loops_clouds(self, step, position):
        """The all-rays oracle takes minutes on the 9,440-triangle sphere at these steps."""
        cfg = ScannerConfig(position=position, target=(0.0, 0.0, 0.0), fov_deg=40.0,
                            angular_step_deg=step, max_range=10.0)
        assert scan_or_refusal(simulate_scan, big_sphere(), cfg) == \
            scan_or_refusal(simulate_scan_per_triangle, big_sphere(), cfg)

    @pytest.mark.parametrize("budget, kind", [(16, "chunk of one"),
                                              (_CHUNK_RAYS, "chunk of many")])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rays_through_shared_corners_and_edges_give_the_loops_clouds(self, budget, kind,
                                                                         stride, seed):
        """A height field whose vertices lie on every (or every other) lattice ray, seen from
        about 1e4 times its triangles' size: each ray meets a shared corner or edge, where u,
        v or u + v sits at 0 or 1 to within a rounding as large as _EDGE_EPS. So whether a
        triangle accepts the ray turns on the rounding of u and v, and any other rounding of
        either moves the cloud."""
        cfg = ScannerConfig(position=(0.3, -0.2, 0.1), target=(1.0, 2.0, 3.0), fov_deg=0.09,
                            angular_step_deg=0.003, max_range=10.0)
        mesh = lattice_height_field(cfg, stride, np.random.default_rng(seed))
        assert kind in chunk_kinds(mesh, cfg, budget)
        with mock.patch.object(scansim, "_CHUNK_RAYS", budget):
            got = scan_or_refusal(simulate_scan, mesh, cfg)
        assert got == scan_or_refusal(simulate_scan_oracle, mesh, cfg)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(st.integers(-3, 40), st.integers(-3, 40)), max_size=60),
           st.sampled_from([1, 16, 100, _CHUNK_RAYS]))
    def test_chunks_cover_every_live_box_once_within_the_budget(self, sides, budget):
        rows, cols = np.array(sides, dtype=np.int64).reshape(-1, 2).T
        zeros = np.zeros(len(sides), dtype=np.int64)
        with mock.patch.object(scansim, "_CHUNK_RAYS", budget):
            chunks = list(_chunks(zeros, rows, zeros, cols))
        live = np.flatnonzero((rows > 0) & (cols > 0))
        taken = np.concatenate([k for k, _, _ in chunks] + [zeros[:0]])
        assert sorted(taken.tolist()) == live.tolist()
        for k, h, w in chunks:
            assert h == rows[k].max() and w == cols[k].max()
            if len(k) > 1:
                assert len(k) * h * w <= budget


def mixed_soup(rng, n):
    """n triangles about the origin, each a hundredth, a tenth or the whole of its spread."""
    corners = (rng.normal(size=(n, 1, 3)) * 1.5
               + rng.normal(size=(n, 3, 3)) * rng.choice([0.01, 0.1, 1.0], size=(n, 1, 1)))
    return TriangleMesh(corners.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))


def lattice_height_field(cfg, stride, rng):
    """Vertices on every ``stride``-th ray of the scan's lattice, about 3 units out, each
    lattice square split along a random diagonal."""
    dirs = _ray_lattice(cfg)[0][::stride, ::stride]
    rows, cols = dirs.shape[:2]
    depth = 3.0 * (1.0 + 0.01 * rng.random((rows, cols, 1)))
    index = np.arange(rows * cols).reshape(rows, cols)
    a, b, c, d = index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:]
    flip = (rng.random(a.shape) < 0.5)[..., None]
    first = np.where(flip, np.stack([a, b, d], -1), np.stack([a, b, c], -1))
    second = np.where(flip, np.stack([b, c, d], -1), np.stack([a, c, d], -1))
    return TriangleMesh((cfg.position + depth * dirs).reshape(-1, 3),
                        np.concatenate([first.reshape(-1, 3), second.reshape(-1, 3)]))


def chunk_kinds(mesh, cfg, budget):
    """Which kinds of chunk `simulate_scan` makes of this scan under a chunk budget."""
    n = len(_ray_lattice(cfg)[2])
    r0, r1, c0, c1 = footprints(mesh, cfg)
    kinds = set()
    with mock.patch.object(scansim, "_CHUNK_RAYS", budget):
        for k, h, w in _chunks(r0, r1, c0, c1):
            kinds.add("chunk of one" if len(k) == 1 else "chunk of many")
            if len(k) > 1 and ((r0[k] > n - h) | (c0[k] > n - w)).any():
                kinds.add("box moved inside the edge")
    return kinds


def footprints(mesh, cfg):
    _, frame, offsets = _ray_lattice(cfg)
    return _footprints(mesh.vertices[mesh.triangles], cfg, frame, offsets)


class TestBlasAssumptions:
    """The culled kernel's two numerical assumptions, checked on the BLAS installed.

    A BLAS that breaks either would move clouds; these tests fail first.
    """

    @pytest.mark.parametrize("m", [2, 3, 5, 17, 255, 1024, 4097, 1 << 14])
    def test_row_subsets_of_a_matrix_vector_product_equal_its_rows(self, m):
        rng = np.random.default_rng(m)
        for scale in (1e-3, 1.0, 1e3):
            matrix = rng.normal(size=(m, 3)) * scale
            vector = rng.normal(size=3)
            full = matrix @ vector
            spans = {(0, m), (0, 2), (m - 2, m), (0, m - 1), (1, m), (m // 3, m // 3 + 2)}
            spans |= {tuple(sorted(rng.choice(m + 1, size=2, replace=False))) for _ in range(20)}
            for lo, hi in spans:
                if hi - lo >= 2:
                    assert np.array_equal(matrix[lo:hi] @ vector, full[lo:hi]), (lo, hi)
            for size in {2, 3, m // 2, m - 1, m}:
                if 2 <= size <= m:
                    rows = np.sort(rng.choice(m, size=size, replace=False))
                    assert np.array_equal(matrix[rows] @ vector, full[rows]), size
            side = int(np.sqrt(m))
            if side >= 2:
                lattice = matrix[:side * side].reshape(side, side, 3)
                for _ in range(20):
                    r0, r1 = sorted(rng.choice(side + 1, size=2, replace=False))
                    c0, c1 = sorted(rng.choice(side + 1, size=2, replace=False))
                    if (r1 - r0) * (c1 - c0) >= 2:
                        box = lattice[r0:r1, c0:c1].reshape(-1, 3)
                        want = full[:side * side].reshape(side, side)[r0:r1, c0:c1].ravel()
                        assert np.array_equal(box @ vector, want)

    @pytest.mark.parametrize("m", [2, 3, 5, 17, 255, 1024, 4097, 1 << 14])
    @pytest.mark.parametrize("stack", [1, 2, 7, 300])
    def test_stacked_products_equal_each_slices_own(self, m, stack):
        """A chunk's (T, m, 3) @ (T, 3, 1) equals each slice's (m, 3) @ (3,), and its
        (T, 1, 3) @ (T, 3, 1) each 1-D dot."""
        stack = min(stack, (1 << 16) // m)
        rng = np.random.default_rng([m, stack])
        for scale in (1e-3, 1.0, 1e3):
            rays = rng.normal(size=(stack, m, 3)) * scale
            vectors = rng.normal(size=(stack, 3))
            others = rng.normal(size=(stack, 3)) * scale
            products = rays @ vectors[:, :, None]
            dots = others[:, None, :] @ vectors[:, :, None]
            for i in range(stack):
                assert np.array_equal(products[i, :, 0], rays[i] @ vectors[i]), i
                assert dots[i, 0, 0] == float(others[i] @ vectors[i]), i

    def test_cross_helper_is_np_cross_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for scale in (1e-9, 1.0, 1e9):
            a = rng.normal(size=(500, 3)) * scale
            b = rng.normal(size=(500, 3))
            got = _cross(a.T, b.T, np.empty_like(a))
            assert got.tobytes() == np.cross(a, b).tobytes()
            grid = a[:480].reshape(20, 24, 3)
            got = _cross(np.moveaxis(grid, -1, 0), b[0].tolist(), np.empty_like(grid))
            assert got.tobytes() == np.cross(grid, b[0]).tobytes()
