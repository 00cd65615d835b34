"""Synthetic scanner: ray-casts a mesh from a pose over an angular lattice.

Rays march over a constant-step azimuth/elevation grid aimed at the target;
each ray contributes at most one point, the nearest intersection within
range, so occlusion holes appear exactly where a real line-of-sight scanner
would leave them.

The ray-triangle test is Moller and Trumbore's ("Fast, Minimum Storage
Ray/Triangle Intersection", 1997), and each triangle runs it only over the
rays of its angular footprint: the cone of directions from the scanner into
the triangle's bounding sphere, as a box of lattice rows (elevation) and
columns (azimuth), its columns narrowed to the azimuths of the triangle's
corners, and padded by two lattice steps. A triangle falls back to
every ray when its sphere, grown by 0.1%, reaches the line through the
scanner along the lattice's up direction: the scanner lies inside the
sphere, or the cone reaches a pole of the (elevation, azimuth) coordinates.
A triangle whose box misses the lattice, such as one behind the scanner, is
skipped. Triangles are tested in chunks: `_chunks` sorts them by box shape
and groups them, each box padded to its chunk's rows x columns, and one set
of numpy calls tests a whole chunk, its rays gathered from the lattice. So a
triangle costs O(rays in its footprint) plus its share of its chunk's calls.
`simulate_scan` proves the cull conservative and the chunks exact, so every
cloud is bit for bit what testing every triangle against every ray gives.

Time per scan with a 40 degree field of view from 3 units away, as
`evaluate.make_synthetic_dataset` scans. Each range covers 3 poses in random
directions, each the smallest of 20 runs, on 2 cores with numpy 2.4.6 and
one OpenBLAS thread:

    mesh (triangles)                    0.5 degree  0.25 degree  0.15 degree
    make_sphere (396)                   5.0-5.3     13.7-13.9    30.8-31.1
    make_box (12)                       1.8-2.0     5.2-5.5      15.1-16.8
    make_cylinder (96)                  2.8-3.0     8.0-8.6      18.6-18.8
    make_cone (48)                      2.8-2.9     8.0-8.4      19.2-20.8
    make_sphere(rings=60, segments=80)  25.3-25.5   38.8-39.5    63.8-66.0

    (milliseconds)

Boxes of a few hundred rays share a chunk with many others, so the large
sphere tests few chunks for its triangles; the box, cylinder and cone,
whose triangles span much of the view, test mostly chunks of one.
The corners' azimuths narrow long thin triangles that stand along the up
direction, which leans toward +z, such as the sides of these z-aligned
primitives. One lying across it still gets its whole sphere's rows.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ViewretError
from .geometry import TriangleMesh, _cross, orthonormal_basis

_PARALLEL_EPS = 1e-12
_EDGE_EPS = 1e-12
# the footprint's margins; simulate_scan's docstring says what each covers
_HIT_SLACK = 2.0 ** -48 / _PARALLEL_EPS
_RELATIVE_SLACK = 1e-9
_ANGLE_SLACK = 1e-9
_POLE_MARGIN = 0.999
_PAD = 2
# a chunk of footprints, tested by one set of numpy calls, pads them to at
# most this many rays
_CHUNK_RAYS = 1 << 13
# the scan holds the lattice as rays and as ray indices, and a triangle that
# falls back to every ray makes several more (rays, 3) float64 temporaries,
# about 100 MB each at 2048 x 2048 rays; the pipeline's scans stay under
# 300 x 300
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
        for name in ("position", "target"):
            try:
                vector = np.asarray(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                vector = None
            if vector is None or vector.shape != (3,):
                raise ViewretError(f"scanner {name} must be 3 numbers")
            setattr(self, name, vector)
        if not (0.0 < self.angular_step_deg <= self.fov_deg):
            raise ViewretError("need 0 < angular_step_deg <= fov_deg")
        if _rays_per_side(self.fov_deg, self.angular_step_deg) > np.sqrt(MAX_RAYS):
            raise ViewretError(f"fov_deg / angular_step_deg gives more than {MAX_RAYS} rays; "
                               f"use a larger step or a smaller field of view")
        if self.fov_deg >= 180.0:
            raise ViewretError("fov_deg must be below 180, where lattice rows repeat directions")
        if not (np.all(np.isfinite(self.position)) and np.all(np.isfinite(self.target))):
            raise ViewretError("scanner position and target must be finite")
        if np.allclose(self.position, self.target):
            raise ViewretError("scanner position must differ from the target")
        if not self.max_range > 0:
            raise ViewretError("max_range must be positive")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ViewretError("noise_sigma must be finite and non-negative")
        # None would seed the range noise from the OS, so reruns would differ
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ViewretError(f"scanner seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class ScanResult:
    cloud: np.ndarray
    ground_truth_viewpoint: np.ndarray
    config: ScannerConfig = field(default=None, repr=False)


def _ray_lattice(cfg: ScannerConfig):
    """The scan's rays: ``(dirs, (forward, right, up), offsets)``.

    ``dirs`` is a (rows, cols, 3) array of unit directions. Row i lies
    ``offsets[i]`` radians above ``forward``, toward ``up`` (its elevation);
    column j lies ``offsets[j]`` radians toward ``right`` (its azimuth).
    """
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
    return dirs.reshape(steps, steps, 3), (forward, right, up), offsets


def _footprints(corners, cfg: ScannerConfig, frame, offsets):
    """Each triangle's footprint: lattice rows ``[r0, r1)`` and columns ``[c0, c1)``.

    ``corners`` is the mesh's (triangles, 3, 3) corner array, and ``frame``
    and ``offsets`` come from `_ray_lattice`. Returns four int arrays, one
    entry per triangle. A ray outside its box is one the triangle's test
    rejects (`simulate_scan` proves it). A triangle that falls back gets the
    whole lattice; one whose box misses the lattice gets an empty range.
    """
    n = len(offsets)
    position = cfg.position
    a = corners[:, 0]
    center = corners.mean(axis=1)
    radius = np.linalg.norm(corners - center[:, None], axis=2).max(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # |e1| |e2| |s| of the test's own vectors, whose rounding the slack bounds
        slack = (radius * _RELATIVE_SLACK + _HIT_SLACK
                 * np.linalg.norm(corners[:, 1] - a, axis=1)
                 * np.linalg.norm(corners[:, 2] - a, axis=1)
                 * np.linalg.norm(position - a, axis=1))
        reach = radius + slack
        to = center - position
        cf, cr, cu = (to @ axis for axis in frame)
        across = np.hypot(cf, cr)
        dist = np.hypot(across, cu)
        fallback = ~(reach < _POLE_MARGIN * across) | ~np.isfinite(dist)
        el = np.arctan2(cu, across)
        az = np.arctan2(cr, cf)
        pad = _PAD * np.radians(cfg.angular_step_deg)
        half_el = np.arcsin(reach / dist) + _ANGLE_SLACK + pad
        half_az = np.arcsin(reach / across)
        # the corners' own azimuths, each widened by its slack ball (step 7)
        w = corners - position
        wf, wr = w @ frame[0], w @ frame[1]
        w_across = np.hypot(wf, wr)
        w_az = np.arctan2(wr, wf)
        w_half = np.arcsin(slack[:, None] / w_across)
        w_lo, w_hi = (w_az - w_half).min(axis=1), (w_az + w_half).max(axis=1)
        tight = (slack[:, None] < _POLE_MARGIN * w_across).all(axis=1) & (w_hi - w_lo < np.pi / 2)
        az_slack = _ANGLE_SLACK / np.cos(offsets[-1]) + pad
        az_lo = np.where(tight, np.maximum(az - half_az, w_lo), az - half_az) - az_slack
        az_hi = np.where(tight, np.minimum(az + half_az, w_hi), az + half_az) + az_slack
    r0, c0 = (np.where(fallback, 0, np.searchsorted(offsets, lo, side="left"))
              for lo in (el - half_el, az_lo))
    r1, c1 = (np.where(fallback, n, np.searchsorted(offsets, hi, side="right"))
              for hi in (el + half_el, az_hi))
    # numpy hands a one-row product to BLAS's dot, not its matrix-vector
    # kernel, and the two can round differently
    single = (r1 - r0 == 1) & (c1 - c0 == 1) & (n > 1)
    c0[single] = np.minimum(c0[single], n - 2)
    c1[single] = c0[single] + 2
    return r0, r1, c0, c1


def _chunks(r0, r1, c0, c1):
    """Group the triangles whose footprint is not empty: yields ``(k, rows, cols)``.

    ``k`` holds a chunk's triangle indices and ``rows`` x ``cols`` is the box
    that each of their footprints (from `_footprints`) is padded to, its
    largest sides. Triangles are taken in ascending order of box shape, and a
    chunk grows while its padded rays stay within ``_CHUNK_RAYS``. So a box of
    more than half the budget is a chunk of one, padded by nothing: it and
    any other box pad to more than the budget.
    """
    rows, cols = r1 - r0, c1 - c0
    live = np.flatnonzero((rows > 0) & (cols > 0))
    order = live[np.lexsort((cols[live], rows[live]))]
    start = h = w = 0
    for i, (hi, wi) in enumerate(zip(rows[order].tolist(), cols[order].tolist())):
        grown_h, grown_w = max(h, hi), max(w, wi)
        if i > start and (i + 1 - start) * grown_h * grown_w > _CHUNK_RAYS:
            yield order[start:i], h, w
            start, grown_h, grown_w = i, hi, wi
        h, w = grown_h, grown_w
    if len(order):
        yield order[start:], h, w


def simulate_scan(mesh: TriangleMesh, cfg: ScannerConfig) -> ScanResult:
    """Scan a mesh; returns the partial cloud and the true viewpoint direction.

    The ground-truth viewpoint points from the mesh centroid toward the
    scanner, so a scanner at the centroid is refused before any ray is
    cast. Optional Gaussian range noise perturbs hit distances when
    ``noise_sigma`` is positive.

    Each ray keeps the smallest t > 0 at which the Moller-Trumbore test
    accepts it. A triangle is tested only against the rays of its
    footprint (`_footprints`), padded within the lattice to its chunk's box
    (`_chunks`), with the expressions and BLAS calls of a test against every
    ray. So the cloud is bit for bit the one that testing every triangle
    against every ray gives, provided the cull is conservative: the test
    rejects every ray outside the footprint.
    Proof, with eps = 2**-53, ``a`` the triangle's first corner and ``e1``,
    ``e2``, ``s = p - a`` (``tvec``) as the loop computes them, p the
    scanner, g the mean of the corners and rho their largest distance from g:

    1. *An accepted ray aims into the ball B(g, R)*, where
       R = rho (1 + _RELATIVE_SLACK) + _HIT_SLACK |e1| |e2| |s|. Take the
       ray's direction d as the loop holds it, and the exact values
       D = e1.(d x e2), U = s.(d x e2), V = d.(s x e1), T = e2.(s x e1) of
       what the loop computes as ``det``, ``u * det``, ``v * det`` and
       ``t * det``. Cramer's rule gives D s + T d = U e1 + V e2 for any d.
       A computed cross product is within 2 eps per component, and a
       three-term dot product within 3 eps, whatever order or fused
       multiply-adds BLAS uses; so each computed value D', U', V', T' is
       within 6.5 eps of the product of its three vectors' lengths, and
       a + s + (T'/D') d = a + (U'/D') e1 + (V'/D') e2 + r with
       |r| <= 26 eps |e1| |e2| |s| / |D'|.
    2. *The _EDGE_EPS slack.* An accepted ray has u, v >= -_EDGE_EPS and
       u + v <= 1 + _EDGE_EPS. After the rounding of u and v, the point
       a + (U'/D') e1 + (V'/D') e2 lies in the triangle grown about its
       centroid by a factor below 1 + 4 _EDGE_EPS. That lies in
       B(g, rho (1 + 1e-11)), well inside the first term of R, and in the
       hull of the balls of radius 1e-11 rho about the three corners.
    3. *Near-parallel rays.* |D'| > _PARALLEL_EPS for an accepted ray, so
       |r| < 26 eps |e1| |e2| |s| / _PARALLEL_EPS, which the second term of
       R bounds (``_HIT_SLACK`` is 32 eps / _PARALLEL_EPS). This is the
       ray whose |det| just clears _PARALLEL_EPS: however far its computed
       u, v and t stray, its hit point a + s + t d stays in B(g, R).
    4. *Rays with t <= 0.* The test requires t > 0, and rounding keeps
       signs, so T'/D' > 0: d points from p toward a point of B(g, R), not
       away from it. (p is a + s to within eps |s|, an angle below 1e-12
       rad at the distances step 5 allows; step 7 covers it.)
    5. *The scanner inside, and the poles.* Let G = |g - p| and L the
       distance from p to g's projection on the lattice's (forward, right)
       plane. When R >= _POLE_MARGIN L, the ball, grown by 0.1%, reaches
       the line through p along ``up``: the scanner lies inside it
       (L <= G <= R), or the cone of directions into it reaches a pole of
       the (elevation, azimuth) coordinates. The triangle then falls back
       to every ray. Otherwise R < 0.999 L <= 0.999 G.
    6. *The box.* A direction from p into B(g, R) lies within asin(R/G)
       of g's direction, so its elevation differs from g's by at most
       asin(R/G). Its azimuth is that of its projection on the (forward,
       right) plane, and the ball projects to a disk of radius R about a
       point at distance L from p, so the azimuth differs from g's by at
       most asin(R/L), below 87.5 degrees. Both arcsines take arguments
       below 0.999, where they are well conditioned. An azimuth range
       that crosses +-180 degrees does so beyond +-92.5 degrees, outside
       the lattice's columns, which lie within +-fov/2 < 90; so a
       triangle behind the scanner gets an empty box and is skipped.
    7. *The corners' azimuths.* By steps 1 to 4 the hit point also lies in
       the hull of the balls of radius h = R - rho about the three
       corners. A corner's ball projects on the (forward, right) plane to
       a disk whose azimuths lie within asin(h / L_c) of the corner's own,
       where L_c is the corner's projected distance from p. When
       h < 0.999 L_c for each corner and the three widened ranges span
       less than 90 degrees, the disks lie in a wedge narrower than 180
       degrees with its apex at p; so does their hull, which does not
       hold the apex, and the hit's azimuth lies in the span. The box's
       columns are those that this span and step 6's range both allow. As
       in step 6, a span past +-180 degrees reaches no column. This
       narrows long thin triangles that stand along ``up``.
    8. *The lattice and the padding.* Ray (i, j) is computed from
       ``offsets[i]`` and ``offsets[j]``, and its elevation and azimuth in
       the computed frame differ from them by a few eps (the azimuth by a
       few eps / cos(fov/2)), as do the computed angles and arcsines of
       steps 6 and 7. Each range is widened on both sides by _ANGLE_SLACK
       (an azimuth range by _ANGLE_SLACK / cos(fov/2)), far beyond those
       errors, and then by _PAD lattice steps, a margin no estimate above
       comes near. The box's rows and columns are those whose ``offsets``
       lie in the widened ranges.
    9. *BLAS.* The rays of a box are a C-contiguous (m, 3) subset of the
       rows that a test against every ray multiplies, and OpenBLAS's
       matrix-vector kernel computes each row by itself, so each row's
       product is the same (tests/test_scansim.py checks this on the BLAS
       installed). A one-row product goes to BLAS's dot instead, which can
       round differently, so a one-ray box is widened to two rays, and no
       box of a chunk has fewer than two.
    10. *Chunks.* A chunk of T triangles gathers its rays from the lattice
        as one C-contiguous (T, m, 3) array, each triangle's box padded to
        the chunk's rows x columns and moved inside the lattice where it
        would cross an edge; a chunk of one has its own box's sides, so it
        gathers exactly its box's rays in C order. ``det``, ``u`` and ``v``
        come from stacked products (T, m, 3) @ (T, 3, 1), and numpy's
        matmul loop hands each (m, 3) slice to the BLAS matrix-vector call
        that (m, 3) @ (3,) makes. ``e2 . qvec`` comes from
        (T, 1, 3) @ (T, 3, 1), the dot of two 3-vectors that 1-D @ 1-D
        makes. The cross products are the elementwise steps of
        ``np.cross``, with ``e2`` broadcast over the rays. Neither one
        (m, 3) @ (3, T) product nor explicit three-term sums would do: both
        round differently from the matrix-vector kernel. The tests check
        every one of these on the BLAS installed. A padded ray is a lattice
        ray outside its triangle's footprint, which steps 1 to 8 show the
        test rejects; so a chunk tests a superset of each footprint within
        the lattice, as the test against every ray does. Each ray keeps the
        least accepted t (``np.minimum.at`` over a chunk's accepted rays).
        A minimum does not depend on the order the triangles come in, so
        neither sorting them by box shape nor how they are grouped into
        chunks changes any value.

    So every triangle still tests each ray it could accept, with the same
    values, and each ray's smallest t is unchanged.
    """
    gt = cfg.position - mesh.centroid
    gt_norm = np.linalg.norm(gt)
    if not gt_norm > 0:
        raise ViewretError("scanner position must differ from the mesh centroid")
    dirs, frame, offsets = _ray_lattice(cfg)
    n = len(offsets)
    t_buf = np.full(n * n, np.inf)
    corners = mesh.vertices[mesh.triangles]
    a = corners[:, 0]
    e1 = corners[:, 1] - a
    e2 = corners[:, 2] - a
    tvec = cfg.position - a
    qvec = _cross(tvec.T, e1.T, np.empty_like(tvec))
    t_e2 = (e2[:, None, :] @ qvec[:, :, None]).ravel()  # e2 . qvec, one dot per triangle
    r0, r1, c0, c1 = _footprints(corners, cfg, frame, offsets)
    rays = dirs.reshape(-1, 3)
    index = np.arange(n * n).reshape(n, n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k, h, w in _chunks(r0, r1, c0, c1):
            # each box padded to h x w, moved inside the lattice where it would cross an edge
            corner = np.minimum(r0[k], n - h) * n + np.minimum(c0[k], n - w)
            ray = (corner[:, None, None] + index[:h, :w]).reshape(len(k), -1)
            # C-contiguous (T, m, 3) rays against (T, 3, 1) vectors, so each @
            # hands every triangle's rays to BLAS's matrix-vector call
            d = rays.take(ray, axis=0)
            pvec = _cross(np.moveaxis(d, -1, 0), e2[k].T[..., None], np.empty(d.shape))
            det = (pvec @ e1[k, :, None])[..., 0]
            ok = np.abs(det) > _PARALLEL_EPS
            inv = 1.0 / det  # whatever it is where not ok, those rays are dropped
            u = (pvec @ tvec[k, :, None])[..., 0] * inv
            v = (d @ qvec[k, :, None])[..., 0] * inv
            t = t_e2[k, None] * inv
            valid = (ok & (u >= -_EDGE_EPS) & (v >= -_EDGE_EPS)
                     & (u + v <= 1.0 + _EDGE_EPS) & (t > 0.0))
            np.minimum.at(t_buf, ray[valid], t[valid])

    hit = np.isfinite(t_buf) & (t_buf <= cfg.max_range)
    if not hit.any():
        raise ViewretError("scanner rays missed the mesh entirely")
    t_hit = t_buf[hit]
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(cfg.seed)
        t_hit = t_hit + rng.normal(0.0, cfg.noise_sigma, size=len(t_hit))
    cloud = cfg.position + t_hit[:, None] * rays[hit]
    return ScanResult(cloud=cloud, ground_truth_viewpoint=gt / gt_norm, config=cfg)


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
