"""Viewpoint and resolution selection over the sampled grid.

The selector projects the cloud from every candidate viewpoint at every
candidate resolution, normalizes the per-resolution acquisition rates and
picks the viewpoint with the largest normalized sum; the resolution is then
the density argmax along that viewpoint's row. Both measures are counted on
the sorted set of occupied pixels, so no image is rendered and a cell costs
O(N log N) in the cloud size N, whatever the resolution.

Orthographic projection makes the acquisition rate blind to the sign of the
view axis: a cloud occupies exactly the same number of pixels seen from v
and from -v. When given the cloud, the selector therefore fixes the axis
first and then orients it with the depth-based test in `orient_axis`.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_RESOLUTIONS
from .errors import AllCollinear, TooFewPoints
from .geometry import (_pixel_indices, as_points, camera_frame, check_resolution,
                       dodecahedron_viewpoints, orthonormal_basis)
from .render import render_point_cloud

ORIENTATION_RESOLUTION = 256
# the spacing cue: the distance to each of SPACING_SAMPLE points' SPACING_NEIGHBOR-th neighbour
SPACING_SAMPLE = 1500
SPACING_NEIGHBOR = 16
# sample rows whose distances to the whole sample are held at once
BLOCK = 32
RING_STEP_DEG = 30.0


@dataclass
class ScoreGrid:
    """Acquisition rate and density over the viewpoint x resolution lattice."""

    viewpoints: np.ndarray      # (N_v, 3)
    resolutions: tuple          # (N_r,)
    quantity: np.ndarray        # (N_v, N_r)
    density: np.ndarray         # (N_v, N_r)


def _occupied_pixels(x, y, resolution: int) -> np.ndarray:
    """Sorted flat indices of the pixels hit by camera-plane coordinates x, y.

    These are exactly the foreground pixels of `render_point_cloud`'s image.
    """
    rows, cols = _pixel_indices(x, y, resolution)
    flat = np.sort(rows * resolution + cols)
    # same result as np.unique, which measured about 7x slower here (numpy 2.4)
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]


def _surrounded_count(occupied, resolution: int) -> int:
    """Occupied pixels off the image border whose 8 neighbours are all occupied.

    Equals the 3x3 neighbourhood count of the rendered foreground mask that
    the tests keep as the reference (``eight_connected_count`` in
    ``tests/oracles.py``).
    In the sorted set, pixel f has both row neighbours f - 1 and f + 1 when
    its predecessor and successor are exactly those; its 3x3 block is full
    when f and the pixels f - r and f + r above and below it (found by binary
    search) all have both row neighbours. A border pixel has a neighbour
    outside the image, which counts as empty: in the top and bottom rows
    f -+ r falls outside [0, r*r) and is never occupied; in the first and
    last columns f -+ 1 would wrap onto the adjacent row, so those columns
    are excluded explicitly.
    """
    r = resolution
    n = len(occupied)
    sides = np.zeros(n, dtype=bool)
    sides[1:-1] = (occupied[1:-1] - occupied[:-2] == 1) & (occupied[2:] - occupied[1:-1] == 1)
    cols = occupied % r
    centre = occupied[sides & (cols > 0) & (cols < r - 1)]
    full = np.ones(len(centre), dtype=bool)
    for step in (-r, r):
        at = np.minimum(np.searchsorted(occupied, centre + step), n - 1)
        full &= (occupied[at] == centre + step) & sides[at]
    return int(full.sum())


def score_grid(cloud, viewpoints=None, resolutions=None) -> ScoreGrid:
    """Evaluate quantity and density for every (viewpoint, resolution) cell.

    Q is the number of occupied pixels over the number of points and D the
    number of fully surrounded occupied pixels over the occupied ones: the
    same integer ratios that the dense reference measures in
    ``tests/oracles.py`` (``quantity`` and ``density``) take of the rendered
    image, counted without rendering it.
    """
    pts = as_points(cloud)
    views = dodecahedron_viewpoints() if viewpoints is None else np.asarray(viewpoints, dtype=np.float64)
    res = tuple(DEFAULT_RESOLUTIONS if resolutions is None else resolutions)
    if len(views) == 0 or len(res) == 0:
        raise ValueError("viewpoint and resolution sets must be non-empty")
    for r in res:
        check_resolution(r)
    n = len(pts)
    q = np.zeros((len(views), len(res)))
    d = np.zeros((len(views), len(res)))
    for i, viewpoint in enumerate(views):
        frame = camera_frame(viewpoint)
        x = pts @ frame.right
        y = pts @ frame.up
        for j, r in enumerate(res):
            occupied = _occupied_pixels(x, y, r)
            q[i, j] = len(occupied) / n
            d[i, j] = _surrounded_count(occupied, r) / len(occupied)
    return ScoreGrid(viewpoints=views, resolutions=res, quantity=q, density=d)


def normalize_quantity(grid: ScoreGrid) -> np.ndarray:
    """Scale each resolution column of Q into [0, 1]; constant columns map to 0.

    A constant column carries no viewpoint preference, and adding a constant
    to every row cannot change the argmax.
    """
    q = grid.quantity
    lo = q.min(axis=0)
    hi = q.max(axis=0)
    out = np.zeros_like(q)
    spread = hi - lo
    ok = spread > 0
    out[:, ok] = (q[:, ok] - lo[ok]) / spread[ok]
    return out


def _intensity_centrality_covariance(points, axis, resolution):
    img = render_point_cloud(points, axis, resolution)
    rows, cols = np.nonzero(img)
    if len(rows) < 2:
        return 0.0
    inten = img[rows, cols].astype(np.float64)
    dist = np.hypot(rows - rows.mean(), cols - cols.mean())
    peak = dist.max()
    if peak <= 0:
        return 0.0
    centrality = 1.0 - dist / peak
    return float(np.mean((inten - inten.mean()) * (centrality - centrality.mean())))


def _kth_neighbour_sq_distances(points, k):
    """Squared distance from each point to its k-th nearest other point.

    The distances are formed BLOCK rows at a time against all n points, so
    memory is O(BLOCK * n) and no n x n matrix exists. The result is bit for
    bit that of partitioning the full matrix (``kth_neighbour_sq_distances``
    in ``tests/oracles.py``): each element adds the x, y then z squared
    differences in that order, the same float64 operations as summing an
    (n, n, 3) difference array over its last axis (the first square stands
    in for 0 + dx^2, which is exact), and the k-th smallest value of a row is
    an order statistic, whatever rows it is selected alongside.
    """
    n = len(points)
    out = np.empty(n)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        block = points[start:stop]
        d2 = (block[:, 0, None] - points[:, 0]) ** 2
        d2 += (block[:, 1, None] - points[:, 1]) ** 2
        d2 += (block[:, 2, None] - points[:, 2]) ** 2
        rows = np.arange(stop - start)
        d2[rows, start + rows] = np.inf
        d2.partition(k - 1, axis=1)
        out[start:stop] = d2[:, k - 1]
    return out


def _spacing_depth_correlation(points, axis):
    # a range scanner samples near surfaces denser, so local point spacing
    # grows with depth only when viewed from the scanned side
    rng = np.random.default_rng(0)
    take = min(SPACING_SAMPLE, len(points))
    sub = points[np.sort(rng.choice(len(points), size=take, replace=False))]
    k = min(SPACING_NEIGHBOR, take - 1)
    if k < 1:
        return 0.0
    spacing = np.sqrt(_kth_neighbour_sq_distances(sub, k))
    depth = sub @ (-np.asarray(axis))

    def rank_z(values):
        ranks = np.argsort(np.argsort(values)).astype(np.float64)
        std = ranks.std()
        return (ranks - ranks.mean()) / std if std > 0 else ranks * 0.0

    return float(np.mean(rank_z(spacing) * rank_z(depth)))


def orient_axis(cloud, axis) -> np.ndarray:
    """Return +axis or -axis, whichever faces the scanned side of the cloud.

    Two depth cues vote. Primary: local point spacing grows with distance
    from the scanner, so spacing must correlate positively with depth along
    the correct direction. When that correlation is too weak to trust, the
    fallback compares how centrally the bright (near) pixels sit in the
    silhouette: a surface bulging toward the camera is bright in the middle,
    bright on the rim when seen from behind. Ties keep +axis.
    """
    pts = as_points(cloud)
    a = np.asarray(axis, dtype=np.float64)
    score = _spacing_depth_correlation(pts, a)
    if abs(score) < 0.05:
        score = (_intensity_centrality_covariance(pts, a, ORIENTATION_RESOLUTION)
                 - _intensity_centrality_covariance(pts, -a, ORIENTATION_RESOLUTION))
    return a.copy() if score >= 0 else -a


def viewpoint_index(viewpoints, viewpoint) -> int:
    """Index of the set member within L1 distance 1e-9 of ``viewpoint``, else -1.

    The nearest member wins; among equally near ones, the lowest index.
    """
    diff = np.abs(np.asarray(viewpoints, dtype=np.float64)
                  - np.asarray(viewpoint, dtype=np.float64)).sum(axis=1)
    index = int(np.argmin(diff))
    return index if diff[index] <= 1e-9 else -1


def select_viewpoint(grid: ScoreGrid, cloud=None) -> np.ndarray:
    """Viewpoint whose normalized acquisition rates sum highest.

    Ties break toward the lowest viewpoint index. When the cloud is supplied
    and the winner's antipode is in the search set, the winning axis is
    additionally sign-disambiguated with `orient_axis`; the acquisition rate
    itself cannot tell v from -v under orthographic projection.
    """
    sums = normalize_quantity(grid).sum(axis=1)
    best = int(np.argmax(sums))
    if cloud is not None:
        anti = viewpoint_index(grid.viewpoints, -grid.viewpoints[best])
        if anti >= 0:
            oriented = orient_axis(cloud, grid.viewpoints[best])
            if oriented @ grid.viewpoints[best] < 0:
                best = anti
    return grid.viewpoints[best].copy()


def _viewpoint_row(grid: ScoreGrid, viewpoint) -> int:
    row = viewpoint_index(grid.viewpoints, viewpoint)
    if row < 0:
        raise ValueError("viewpoint is not a member of the grid's search set")
    return row


def select_resolution(grid: ScoreGrid, best_viewpoint) -> int:
    """Resolution with maximum density along the chosen viewpoint's row.

    Ties break toward the largest resolution, which preserves the most
    geometry.
    """
    row = grid.density[_viewpoint_row(grid, best_viewpoint)]
    top = row.max()
    return max(r for r, d in zip(grid.resolutions, row) if d == top)


def best_resolution_for_viewpoint(cloud, viewpoint, resolutions=None) -> int:
    """Density-argmax resolution for an arbitrary (off-lattice) viewpoint.

    Scores a one-viewpoint grid, so densities and tie-breaking follow
    `score_grid` and `select_resolution` exactly.
    """
    return select_resolution(score_grid(cloud, [viewpoint], resolutions), viewpoint)


def ransac_viewpoint(cloud, iterations: int = 1000, inlier_tolerance: float = 0.01, seed=0) -> np.ndarray:
    """Unit normal of the best RANSAC plane fit over the iterations.

    Each iteration fits a plane through three random points and counts the
    points within the inlier tolerance of it; the normal of the best plane
    wins. The sign keeps whichever of the two normal directions has the
    higher acquisition rate at ORIENTATION_RESOLUTION; exact ties keep the
    normal as computed. Note
    that a plane normal carries no information about which side the scanner
    stood on, so the sign is effectively arbitrary. Deterministic for a
    fixed seed.
    """
    pts = as_points(cloud)
    n = len(pts)
    if n < 3:
        raise TooFewPoints("plane fitting needs at least 3 points")
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
        raise AllCollinear("no valid plane found in any iteration")
    signs = score_grid(pts, [best_normal, -best_normal], (ORIENTATION_RESOLUTION,))
    q_pos, q_neg = signs.quantity[:, 0]
    return -best_normal if q_neg > q_pos else best_normal


def multiview_ring(center, delta_deg: float = 40.0) -> np.ndarray:
    """The center viewpoint plus 12 viewpoints on a cone of angle ``delta_deg``.

    Ring members are spaced every 30 degrees of azimuth around the center
    direction; all 13 results are unit vectors.
    """
    c = np.asarray(center, dtype=np.float64)
    if not abs(np.linalg.norm(c) - 1.0) <= 1e-9:   # also rejects NaN
        raise ValueError("center must be a unit vector")
    e1, e2 = orthonormal_basis(c)
    delta = np.radians(delta_deg)
    views = [c.copy()]
    for i in range(12):
        azimuth = np.radians(RING_STEP_DEG * i)
        v = np.cos(delta) * c + np.sin(delta) * (np.cos(azimuth) * e1 + np.sin(azimuth) * e2)
        views.append(v / np.linalg.norm(v))
    return np.asarray(views)
