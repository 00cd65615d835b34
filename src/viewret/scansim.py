"""Synthetic scanner: ray-casts a mesh from a pose over an angular lattice.

Rays march over a constant-step azimuth/elevation grid aimed at the target;
each ray contributes at most one point, the nearest intersection within
range, so occlusion holes appear exactly where a real line-of-sight scanner
would leave them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NoHits
from .geometry import TriangleMesh, orthonormal_basis

_PARALLEL_EPS = 1e-12
_EDGE_EPS = 1e-12
# the ray-triangle test makes several (rays, 3) float64 temporaries, about
# 100 MB each at 2048 x 2048 rays; the pipeline's scans stay under 300 x 300
MAX_RAYS = 1 << 22


def _rays_per_side(fov_deg: float, step_deg: float):
    # a float, so an absurd ratio is compared rather than converted to int
    return np.floor(fov_deg / step_deg + 1e-9) + 1


@dataclass
class ScannerConfig:
    position: np.ndarray
    target: np.ndarray
    fov_deg: float
    angular_step_deg: float
    max_range: float
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if not (0.0 < self.angular_step_deg <= self.fov_deg):
            raise ValueError("need 0 < angular_step_deg <= fov_deg")
        if _rays_per_side(self.fov_deg, self.angular_step_deg) > np.sqrt(MAX_RAYS):
            raise ValueError(f"fov_deg / angular_step_deg gives more than {MAX_RAYS} rays; "
                             f"use a larger step or a smaller field of view")
        if self.fov_deg >= 180.0:
            raise ValueError("fov_deg must be below 180, where lattice rows repeat directions")
        if not (np.all(np.isfinite(self.position)) and np.all(np.isfinite(self.target))):
            raise ValueError("scanner position and target must be finite")
        if np.allclose(self.position, self.target):
            raise ValueError("scanner position must differ from the target")
        if not self.max_range > 0:
            raise ValueError("max_range must be positive")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError("noise_sigma must be finite and non-negative")


@dataclass
class ScanResult:
    cloud: np.ndarray
    ground_truth_viewpoint: np.ndarray
    config: ScannerConfig = field(default=None, repr=False)


def _ray_lattice(cfg: ScannerConfig):
    forward = cfg.target - cfg.position
    forward /= np.linalg.norm(forward)
    right, up = orthonormal_basis(forward)
    steps = int(_rays_per_side(cfg.fov_deg, cfg.angular_step_deg))
    offsets = np.radians((np.arange(steps) - (steps - 1) / 2.0) * cfg.angular_step_deg)
    elevation, azimuth = np.meshgrid(offsets, offsets, indexing="ij")
    elevation = elevation.ravel()
    azimuth = azimuth.ravel()
    dirs = (np.cos(elevation)[:, None] * (np.cos(azimuth)[:, None] * forward
                                          + np.sin(azimuth)[:, None] * right)
            + np.sin(elevation)[:, None] * up)
    return dirs


def simulate_scan(mesh: TriangleMesh, cfg: ScannerConfig) -> ScanResult:
    """Scan a mesh; returns the partial cloud and the true viewpoint direction.

    The ground-truth viewpoint points from the mesh centroid toward the
    scanner. Optional Gaussian range noise perturbs hit distances when
    ``noise_sigma`` is positive.
    """
    dirs = _ray_lattice(cfg)
    n_rays = len(dirs)
    t_buf = np.full(n_rays, np.inf)
    corners = mesh.vertices[mesh.triangles]
    for a, b, c in corners:
        e1 = b - a
        e2 = c - a
        pvec = np.cross(dirs, e2)
        det = pvec @ e1
        ok = np.abs(det) > _PARALLEL_EPS
        if not ok.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(ok, 1.0 / det, 0.0)
        tvec = cfg.position - a
        u = (pvec @ tvec) * inv
        qvec = np.cross(tvec, e1)
        v = (dirs @ qvec) * inv
        t = float(e2 @ qvec) * inv
        valid = (ok & (u >= -_EDGE_EPS) & (v >= -_EDGE_EPS)
                 & (u + v <= 1.0 + _EDGE_EPS) & (t > 0.0) & (t < t_buf))
        t_buf[valid] = t[valid]

    hit = np.isfinite(t_buf) & (t_buf <= cfg.max_range)
    if not hit.any():
        raise NoHits("scanner rays missed the mesh entirely")
    t_hit = t_buf[hit]
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(cfg.seed)
        t_hit = t_hit + rng.normal(0.0, cfg.noise_sigma, size=len(t_hit))
    cloud = cfg.position + t_hit[:, None] * dirs[hit]
    gt = cfg.position - mesh.centroid
    gt /= np.linalg.norm(gt)
    return ScanResult(cloud=cloud, ground_truth_viewpoint=gt, config=cfg)


# ---------------------------------------------------------------------------
# primitive meshes for synthetic experiments

def make_box(extents=(1.2, 1.2, 1.2)) -> TriangleMesh:
    ex, ey, ez = np.asarray(extents, dtype=np.float64) / 2.0
    v = np.array([[sx * ex, sy * ey, sz * ez]
                  for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    f = np.array([
        [0, 1, 3], [0, 3, 2],      # -x
        [4, 6, 7], [4, 7, 5],      # +x
        [0, 4, 5], [0, 5, 1],      # -y
        [2, 3, 7], [2, 7, 6],      # +y
        [0, 2, 6], [0, 6, 4],      # -z
        [1, 5, 7], [1, 7, 3],      # +z
    ])
    return TriangleMesh(v, f)


def make_sphere(radius=1.0, rings=12, segments=18) -> TriangleMesh:
    verts = [(0.0, 0.0, radius)]
    for i in range(1, rings):
        theta = np.pi * i / rings
        for j in range(segments):
            phi = 2.0 * np.pi * j / segments
            verts.append((radius * np.sin(theta) * np.cos(phi),
                          radius * np.sin(theta) * np.sin(phi),
                          radius * np.cos(theta)))
    verts.append((0.0, 0.0, -radius))
    bottom = len(verts) - 1
    tris = []
    for j in range(segments):
        tris.append([0, 1 + j, 1 + (j + 1) % segments])
    for i in range(rings - 2):
        a = 1 + i * segments
        b = 1 + (i + 1) * segments
        for j in range(segments):
            j2 = (j + 1) % segments
            tris.append([a + j, b + j, b + j2])
            tris.append([a + j, b + j2, a + j2])
    a = 1 + (rings - 2) * segments
    for j in range(segments):
        tris.append([bottom, a + (j + 1) % segments, a + j])
    return TriangleMesh(np.asarray(verts), np.asarray(tris))


def make_cylinder(radius=0.5, height=1.6, segments=24) -> TriangleMesh:
    h = height / 2.0
    verts = []
    for z in (h, -h):
        for j in range(segments):
            phi = 2.0 * np.pi * j / segments
            verts.append((radius * np.cos(phi), radius * np.sin(phi), z))
    top_center = len(verts)
    verts.append((0.0, 0.0, h))
    bot_center = len(verts)
    verts.append((0.0, 0.0, -h))
    tris = []
    for j in range(segments):
        j2 = (j + 1) % segments
        tris.append([j, segments + j, segments + j2])
        tris.append([j, segments + j2, j2])
        tris.append([top_center, j, j2])
        tris.append([bot_center, segments + j2, segments + j])
    return TriangleMesh(np.asarray(verts), np.asarray(tris))


def make_cone(radius=0.7, height=1.5, segments=24) -> TriangleMesh:
    h = height / 2.0
    verts = [(0.0, 0.0, h)]
    for j in range(segments):
        phi = 2.0 * np.pi * j / segments
        verts.append((radius * np.cos(phi), radius * np.sin(phi), -h))
    base_center = len(verts)
    verts.append((0.0, 0.0, -h))
    tris = []
    for j in range(segments):
        j2 = (j + 1) % segments
        tris.append([0, 1 + j, 1 + j2])
        tris.append([base_center, 1 + j2, 1 + j])
    return TriangleMesh(np.asarray(verts), np.asarray(tris))
