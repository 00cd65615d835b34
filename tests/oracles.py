"""Reference implementations the tests compare the package against.

None of these runs in the pipeline. The dense image measures are the form
that `select.score_grid` replaced: they render an image and count its
pixels, which the score grid does without rendering. The grid's former
per-rung loop floors every rung's coordinates itself, where the grid
shifts those of a root rung. The frame oracle keeps the ``np.cross`` that
`geometry._cross` replaced. The orientation cue's oracles hold the whole
n x n distance matrix, where `select` searches cells of nearby points and
forms in row blocks only the rows the cells cannot prove. The mesh
rasterizer is the per-triangle loop that `render_mesh` evaluates over row
spans in blocks, and the RANSAC baseline is the
per-plane loop that `ransac_viewpoint` scores in blocks of planes. The
all-rays scan oracle tests every triangle against every ray, where
`simulate_scan` tests only a triangle's footprint, and the per-triangle one
tests each footprint by its own numpy calls, where `simulate_scan` tests a
chunk of footprints per call. The keypoint sampler draws from every
foreground pixel's coordinates, where the package draws flat indices and
splits only the chosen ones. The one-image feature extractor samples, cuts
and describes an image in one call, where the package holds each view
between sampling and describing, and the per-level one describes each
pyramid level's windows apart. The leave-one-out
database describes every view and pools the float32 features, where the
package keeps uint8 windows and describes only the rows it uses. The
window pool holds every view's cut windows before it samples, where the
package holds each view's keypoints and cuts only the rows it keeps. The
readers check the files that the CLI writes but never reads back, and
`fvdb_bytes` lays out database files that the writer refuses. Criterion
1's viewpoint-error experiment, and the angular error and curved-scan
dataset it measures with, run in no command; they live here beside the
mixture posteriors, which only the tests read.
"""

import struct

import numpy as np

from viewret.config import PipelineConfig
from viewret.encode import DbEntry, DescriptorDb, _posteriors, fisher_vector, fit_gmm
from viewret.errors import ViewretError
from viewret.evaluate import _prepare_scan, _scan_entry
from viewret.features import (PATCH, WINDOW, _describe_block, _windows, build_pyramid,
                              cut_windows, describe, sample_keypoints)
from viewret.geometry import (_cross, _pixel_indices, _unit_coordinates, as_points,
                              camera_frame, check_resolution)
from viewret.render import _EDGE_EPS, depth_to_intensity
from viewret.scansim import _EDGE_EPS as _SCAN_EDGE_EPS
from viewret.scansim import (_PARALLEL_EPS, ScanResult, _footprints, _ray_lattice, make_cylinder,
                             make_sphere)


# --- dense image measures ------------------------------------------------------

def to_binary(img) -> np.ndarray:
    """Foreground mask of a depth image: 1 where intensity exceeds the background 0."""
    return (np.asarray(img) > 0).astype(np.uint8)


def eight_connected_count(binary) -> int:
    """Count foreground pixels whose full 3x3 neighborhood is also foreground.

    The image border is treated as zero-padded, so a foreground pixel on the
    border can never be counted. Equivalent to convolving with a 3x3 box of
    ones and counting the positions that reach 9.
    """
    b = np.asarray(binary)
    if b.ndim != 2 or min(b.shape) < 3:
        raise ViewretError("binary image must be at least 3x3")
    p = np.pad(b.astype(np.int32), 1)
    h, w = b.shape
    total = np.zeros((h, w), dtype=np.int32)
    for dr in range(3):
        for dc in range(3):
            total += p[dr:dr + h, dc:dc + w]
    return int((total == 9).sum())


def foreground_count(img) -> int:
    return int((np.asarray(img) > 0).sum())


def quantity(img, cloud_size: int) -> float:
    """Fraction of the cloud's points that survived projection onto pixels."""
    if cloud_size < 1:
        raise ValueError("cloud size must be at least 1")
    return foreground_count(img) / cloud_size


def density(img) -> float:
    """Fraction of foreground pixels whose 8-neighborhood is fully foreground."""
    fg = foreground_count(img)
    if fg == 0:
        raise ViewretError("image has no foreground pixels")
    return eight_connected_count(to_binary(img)) / fg


# --- mesh rasterization --------------------------------------------------------

def render_mesh_oracle(mesh, viewpoint, resolution) -> np.ndarray:
    """The former `render_mesh`: each triangle's whole bounding box, one triangle at a time."""
    if len(mesh.vertices) == 0 or len(mesh.triangles) == 0:
        raise ViewretError("mesh has no renderable triangles")
    check_resolution(resolution)
    frame = camera_frame(viewpoint)
    r = resolution
    v = mesh.vertices
    # continuous pixel coordinates of every vertex (col axis u, row axis w)
    u = (v @ frame.right + 1.0) / 2.0 * r
    w = (1.0 - (v @ frame.up + 1.0) / 2.0) * r
    depth = ((v - frame.eye) @ frame.forward) / 2.0

    zbuf = np.full((r, r), np.inf)
    for i0, i1, i2 in mesh.triangles:
        u0, u1, u2 = u[i0], u[i1], u[i2]
        w0, w1, w2 = w[i0], w[i1], w[i2]
        area = (u1 - u0) * (w2 - w0) - (u2 - u0) * (w1 - w0)
        if abs(area) < 1e-12:
            continue
        cmin = max(int(np.ceil(min(u0, u1, u2) - 0.5)), 0)
        cmax = min(int(np.floor(max(u0, u1, u2) - 0.5)), r - 1)
        rmin = max(int(np.ceil(min(w0, w1, w2) - 0.5)), 0)
        rmax = min(int(np.floor(max(w0, w1, w2) - 0.5)), r - 1)
        if cmin > cmax or rmin > rmax:
            continue
        px = np.arange(cmin, cmax + 1) + 0.5
        py = (np.arange(rmin, rmax + 1) + 0.5)[:, None]
        l0 = ((u1 - px) * (w2 - py) - (u2 - px) * (w1 - py)) / area
        l1 = ((u2 - px) * (w0 - py) - (u0 - px) * (w2 - py)) / area
        l2 = 1.0 - l0 - l1
        eps = -_EDGE_EPS
        inside = (l0 >= eps) & (l1 >= eps) & (l2 >= eps)
        if not inside.any():
            continue
        z = l0 * depth[i0] + l1 * depth[i1] + l2 * depth[i2]
        region = zbuf[rmin:rmax + 1, cmin:cmax + 1]
        np.minimum(region, np.where(inside, z, np.inf), out=region)

    img = np.zeros((r, r), dtype=np.uint8)
    covered = np.isfinite(zbuf)
    img[covered] = depth_to_intensity(zbuf[covered])
    return img


def score_grid_per_rung_oracle(cloud, viewpoints, resolutions):
    """The former per-rung loop of `score_grid`: every cell floors and clamps u * r itself.

    Each cell's keys are ``row * r + col``, and the column test of the former
    `_surrounded_count` keeps the first and last columns out; no antipodal
    row is copied.
    """
    pts = as_points(cloud)
    q = np.zeros((len(viewpoints), len(resolutions)))
    d = np.zeros((len(viewpoints), len(resolutions)))
    for i, viewpoint in enumerate(viewpoints):
        u, w = _unit_coordinates(pts, camera_frame(viewpoint))
        for j, r in enumerate(resolutions):
            rows, cols = _pixel_indices(u, w, r)
            flat = np.unique((rows * r + cols).astype(np.uint32))
            n = len(flat)
            sides = np.zeros(n, dtype=bool)
            sides[1:-1] = (flat[1:-1] - flat[:-2] == 1) & (flat[2:] - flat[1:-1] == 1)
            centre = flat[sides & (flat % r > 0) & (flat % r < r - 1)]
            full = np.ones(len(centre), dtype=bool)
            for neighbour in (centre - r, centre + r):
                at = np.minimum(np.searchsorted(flat, neighbour), n - 1)
                full &= (flat[at] == neighbour) & sides[at]
            q[i, j] = n / len(pts)
            d[i, j] = int(full.sum()) / n
    return q, d


# --- camera frames ---------------------------------------------------------------

def orthonormal_basis_oracle(forward):
    """The former `geometry.orthonormal_basis`, with its two ``np.cross`` calls."""
    f = np.asarray(forward, dtype=np.float64)
    hint = np.array([0.0, 0.0, 1.0])
    if abs(float(f @ hint)) > 0.999:
        hint = np.array([0.0, 1.0, 0.0])
    right = np.cross(f, hint)
    right /= np.linalg.norm(right)
    up = np.cross(right, f)
    return right, up


# --- orientation cue -------------------------------------------------------------

def kth_neighbour_sq_distances(points, k) -> np.ndarray:
    """Each point's squared distance to its k-th nearest other point, from the full n x n matrix."""
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.partition(d2, k - 1, axis=1)[:, k - 1]


def spacing_depth_correlation_oracle(points, axis, sample=1500, neighbor=16):
    """The former `_spacing_depth_correlation`, with its (n, n, 3) difference array."""
    rng = np.random.default_rng(0)
    take = min(sample, len(points))
    sub = points[np.sort(rng.choice(len(points), size=take, replace=False))]
    k = min(neighbor, take - 1)
    if k < 1:
        return 0.0
    d2 = ((sub[:, None, :] - sub[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    spacing = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
    depth = sub @ (-np.asarray(axis))

    def rank_z(values):
        ranks = np.argsort(np.argsort(values)).astype(np.float64)
        std = ranks.std()
        return (ranks - ranks.mean()) / std if std > 0 else ranks * 0.0

    return float(np.mean(rank_z(spacing) * rank_z(depth)))


# --- RANSAC baseline -------------------------------------------------------------

def ransac_viewpoint_oracle(cloud, iterations: int = 1000, inlier_tolerance: float = 0.01,
                            seed=0) -> np.ndarray:
    """The former `ransac_viewpoint`: one plane per iteration, distances as ``(p - a) @ n``."""
    pts = as_points(cloud)
    n = len(pts)
    if n < 3:
        raise ViewretError("plane fitting needs at least 3 points")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if inlier_tolerance <= 0:
        raise ValueError("inlier tolerance must be positive")
    rng = np.random.default_rng(seed)
    best_count = -1
    best_normal = None
    for _ in range(iterations):
        i, j, k = rng.choice(n, size=3, replace=False)
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        length = np.linalg.norm(normal)
        if length < 1e-12:
            continue
        normal /= length
        dist = np.abs((pts - pts[i]) @ normal)
        count = int((dist <= inlier_tolerance).sum())
        if count > best_count:
            best_count = count
            best_normal = normal
    if best_normal is None:
        raise ViewretError("no valid plane found in any iteration")
    return best_normal


# --- criterion 1: viewpoint error -------------------------------------------------

VIEWPOINT_SCAN_FOV_DEG = 45.0


def angular_error(v_est, v_gt) -> float:
    """Angle in radians between two unit vectors, in [0, pi]."""
    dot = float(np.asarray(v_est, dtype=np.float64) @ np.asarray(v_gt, dtype=np.float64))
    return float(np.arccos(np.clip(dot, -1.0, 1.0)))


def make_viewpoint_scan_dataset(n_scans: int = 12, seed: int = 0, step_deg: float = 0.3) -> list:
    """Curved-primitive scans for viewpoint-estimation experiments.

    Spheres and capped cylinders alternate; both expose enough curvature for
    the scanned side to be recoverable, which flat-dominant poses of boxes
    or cones do not.
    """
    rng = np.random.default_rng(seed)
    entries = []
    for index in range(n_scans):
        if index % 2 == 0:
            mesh = make_sphere(radius=float(rng.uniform(0.8, 1.2)))
            name = "sphere"
        else:
            mesh = make_cylinder(radius=float(rng.uniform(0.45, 0.6)),
                                 height=float(rng.uniform(1.0, 1.4)))
            name = "cylinder"
        entries.append(_scan_entry(f"{name}-{index}", index % 2, mesh, rng,
                                   VIEWPOINT_SCAN_FOV_DEG, step_deg))
    return entries


def viewpoint_error_experiment(dataset, config: PipelineConfig, seed: int = 0) -> dict:
    """Angular errors of the proposed selector and the RANSAC baseline.

    Every dataset entry must carry a ground-truth viewpoint. Returns arrays
    of per-scan errors keyed by method name.
    """
    proposed = []
    ransac = []
    for index, entry in enumerate(dataset):
        if entry.gt_viewpoint is None:
            raise ViewretError(f"scan {entry.model_id} has no ground-truth viewpoint")
        state = _prepare_scan(entry, index, config, seed)
        proposed.append(angular_error(state.v_proposed, entry.gt_viewpoint))
        ransac.append(angular_error(state.v_ransac, entry.gt_viewpoint))
    return {"proposed": np.asarray(proposed), "ransac": np.asarray(ransac)}


# --- retrieval and descriptors ---------------------------------------------------

def gmm_posteriors(x, gmm) -> np.ndarray:
    """Responsibilities of each row of ``x`` (one row when 1-D) over the mixture's components."""
    x = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x)
    post = _posteriors(rows, rows * rows, gmm)[0]
    return post[0] if x.ndim == 1 else post


def cosine_distance(a, b) -> float:
    """1 - cos(a, b), in [0, 2], of one pair of vectors in float64."""
    va = np.asarray(a, dtype=np.float64).ravel()
    vb = np.asarray(b, dtype=np.float64).ravel()
    if va.shape != vb.shape:
        raise ViewretError(f"descriptor sizes differ: {va.shape} vs {vb.shape}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0 or nb == 0:
        raise ViewretError("cosine distance is undefined for zero vectors")
    cos = np.clip(float(va @ vb) / (na * nb), -1.0, 1.0)
    return 1.0 - cos


def windows_oracle(level_img, rows, cols) -> np.ndarray:
    """The former `features._windows`: the windows gathered by two (n, 18, 18) index arrays."""
    padded = np.pad(np.asarray(level_img), PATCH // 2 + 1)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    span = np.arange(WINDOW)
    return padded[rows[:, None, None] + span[None, :, None],
                  cols[:, None, None] + span[None, None, :]]


def batch_descriptors(level_img, rows, cols) -> np.ndarray:
    """Float64 descriptors for many keypoints of one pyramid level, one per row."""
    return _describe_block(_windows(level_img, rows, cols))


def sample_keypoints_argwhere(pyramid, n_keypoints, decay, seed) -> list:
    """The former `features.sample_keypoints`: draws rows of every foreground pixel's (row, col)."""
    rng = np.random.default_rng(seed)
    per_level = []
    saw_foreground = False
    for level, img in enumerate(pyramid):
        foreground = np.argwhere(np.asarray(img) > 0)
        saw_foreground = saw_foreground or len(foreground) > 0
        take = min(int(np.rint(n_keypoints / decay ** level)), len(foreground))
        chosen = rng.choice(len(foreground), size=take, replace=False) if take > 0 else []
        per_level.append(foreground[chosen].T)
    if not saw_foreground:
        raise ViewretError("no pyramid level has any foreground pixel")
    return per_level


def keypoint_windows_oracle(img, n_keypoints, decay, seed) -> np.ndarray:
    """The former `features.keypoint_windows`: sample, then cut every window of one image."""
    pyramid = build_pyramid(img)
    return cut_windows(pyramid, sample_keypoints_argwhere(pyramid, n_keypoints, decay, seed))


def extract_features_oracle(img, n_keypoints, decay, seed) -> np.ndarray:
    """The former `features.extract_features`: sample, cut and describe, in that order."""
    return describe(keypoint_windows_oracle(img, n_keypoints, decay, seed))


def extract_features_per_level(img, n_keypoints, decay, seed) -> np.ndarray:
    """An earlier `features.extract_features`: each level described apart, then concatenated."""
    pyramid = build_pyramid(img)
    per_level = sample_keypoints(pyramid, n_keypoints, decay, seed)
    return np.concatenate([describe(_windows(level_img, rows, cols))
                           for level_img, (rows, cols) in zip(pyramid, per_level)])


def pool_features_oracle(windows, cap, seed) -> np.ndarray:
    """The former `encode.pool_features`: every view's windows held, then sampled and described."""
    windows = list(windows)
    lengths = [len(w) for w in windows]
    ends = np.cumsum(lengths)
    if sum(lengths) > cap:
        keep = np.sort(np.random.default_rng(seed).choice(int(ends[-1]), size=cap, replace=False))
        per_view = np.split(keep, np.searchsorted(keep, ends[:-1]))
        windows = [w[rows - start] for w, rows, start in zip(windows, per_view, ends - lengths)]
    return describe(np.concatenate(windows))


def loo_database_oracle(dataset, images, config, seed):
    """The former `evaluate._loo_database`: the leave-one-out mixture and database.

    ``images`` holds one list of view images per scan, in dataset order.
    Every view is described, and its float32 features are held, pooled by
    concatenating and sampling, and encoded.
    """
    feats = [[extract_features_per_level(img, config.n_keypoints, config.keypoint_decay,
                                         seed=[seed, 13, index, v_idx])
              for v_idx, img in enumerate(views)]
             for index, views in enumerate(images)]
    pooled = np.concatenate([f for views in feats for f in views])
    if len(pooled) > config.gmm_sample_cap:
        keep = np.random.default_rng([seed, 17]).choice(len(pooled), size=config.gmm_sample_cap,
                                                        replace=False)
        pooled = pooled[np.sort(keep)]
    gmm = fit_gmm(pooled, config.gaussians, seed=[seed, 19])
    db = DescriptorDb(entries=[DbEntry(entry.model_id, int(entry.class_id), v_idx,
                                       fisher_vector(f, gmm).astype(np.float32))
                               for entry, views in zip(dataset, feats)
                               for v_idx, f in enumerate(views)])
    return gmm, db


# --- readers of CLI outputs -------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header = []
    pos = 0
    while len(header) < 4:
        end = data.index(b"\n", pos)
        header.extend(data[pos:end].split())
        pos = end + 1
    if header[0] != b"P5" or int(header[3]) != 255:
        raise ValueError(f"{path}: not a maxval-255 binary PGM")
    w, h = int(header[1]), int(header[2])
    return np.frombuffer(data[pos:pos + w * h], dtype=np.uint8).reshape(h, w).copy()


def read_scan_metadata(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    if "ground_truth_viewpoint" in out:
        out["ground_truth_viewpoint"] = np.asarray(
            [float(v) for v in out["ground_truth_viewpoint"].split()])
    return out


def gmm_bytes(weights, means, sigmas) -> bytes:
    """A GMM1 file laid out field by field, with no check; K and D are ``means``' shape."""
    arrays = [np.asarray(a, dtype="<f4") for a in (weights, means, sigmas)]
    return (b"GMM1" + struct.pack("<II", *arrays[1].shape)
            + b"".join(a.tobytes() for a in arrays))


def fvdb_bytes(k: int, d: int, entries) -> bytes:
    """An FVDB file laid out field by field, with no check.

    ``entries`` are (model id bytes, class id, viewpoint id, descriptor) tuples.
    """
    data = b"FVDB" + struct.pack("<IIII", 1, k, d, len(entries))
    for name, class_id, viewpoint_id, descriptor in entries:
        data += (struct.pack("<H", len(name)) + name + struct.pack("<II", class_id, viewpoint_id)
                 + np.asarray(descriptor, dtype="<f4").tobytes())
    return data


# --- scan simulation -----------------------------------------------------------

def simulate_scan_oracle(mesh, cfg) -> ScanResult:
    """The former `simulate_scan`: every triangle against every ray of the lattice."""
    dirs = _ray_lattice(cfg)[0].reshape(-1, 3)
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
        valid = (ok & (u >= -_SCAN_EDGE_EPS) & (v >= -_SCAN_EDGE_EPS)
                 & (u + v <= 1.0 + _SCAN_EDGE_EPS) & (t > 0.0) & (t < t_buf))
        t_buf[valid] = t[valid]

    hit = np.isfinite(t_buf) & (t_buf <= cfg.max_range)
    if not hit.any():
        raise ViewretError("scanner rays missed the mesh entirely")
    t_hit = t_buf[hit]
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(cfg.seed)
        t_hit = t_hit + rng.normal(0.0, cfg.noise_sigma, size=len(t_hit))
    cloud = cfg.position + t_hit[:, None] * dirs[hit]
    gt = cfg.position - mesh.centroid
    gt /= np.linalg.norm(gt)
    return ScanResult(cloud=cloud, ground_truth_viewpoint=gt, config=cfg)


def simulate_scan_per_triangle(mesh, cfg) -> ScanResult:
    """The former `simulate_scan`: each triangle's footprint by its own numpy calls."""
    gt = cfg.position - mesh.centroid
    gt_norm = np.linalg.norm(gt)
    if not gt_norm > 0:
        raise ViewretError("scanner position must differ from the mesh centroid")
    dirs, frame, offsets = _ray_lattice(cfg)
    n = len(offsets)
    t_buf = np.full((n, n), np.inf)
    corners = mesh.vertices[mesh.triangles]
    a = corners[:, 0]
    e1 = corners[:, 1] - a
    e2 = corners[:, 2] - a
    tvec = cfg.position - a
    qvec = _cross(tvec.T, e1.T, np.empty_like(tvec))
    boxes = _footprints(corners, cfg, frame, offsets)
    planes = [np.ascontiguousarray(dirs[..., i]) for i in range(3)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k, e2k, r0, r1, c0, c1 in zip(range(len(a)), e2.tolist(),
                                          *(x.tolist() for x in boxes)):
            if r0 >= r1 or c0 >= c1:
                continue
            box = slice(r0, r1), slice(c0, c1)
            d = dirs[box].reshape(-1, 3)
            pvec = _cross([x[box] for x in planes], e2k,
                          np.empty((r1 - r0, c1 - c0, 3))).reshape(-1, 3)
            det = pvec @ e1[k]
            ok = np.abs(det) > _PARALLEL_EPS
            inv = 1.0 / det
            u = (pvec @ tvec[k]) * inv
            v = (d @ qvec[k]) * inv
            t = (float(e2[k] @ qvec[k]) * inv).reshape(r1 - r0, c1 - c0)
            near = t_buf[box]
            valid = ((ok & (u >= -_SCAN_EDGE_EPS) & (v >= -_SCAN_EDGE_EPS)
                      & (u + v <= 1.0 + _SCAN_EDGE_EPS)).reshape(t.shape)
                     & (t > 0.0) & (t < near))
            near[valid] = t[valid]

    t_buf = t_buf.ravel()
    dirs = dirs.reshape(-1, 3)
    hit = np.isfinite(t_buf) & (t_buf <= cfg.max_range)
    if not hit.any():
        raise ViewretError("scanner rays missed the mesh entirely")
    t_hit = t_buf[hit]
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(cfg.seed)
        t_hit = t_hit + rng.normal(0.0, cfg.noise_sigma, size=len(t_hit))
    cloud = cfg.position + t_hit[:, None] * dirs[hit]
    return ScanResult(cloud=cloud, ground_truth_viewpoint=gt / gt_norm, config=cfg)
