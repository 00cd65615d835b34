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

The grid uses the same symmetry: the image from -v is the left-right mirror
of the image from v, so a viewpoint whose antipode came earlier copies that
row wherever a rounding margin proves the cells equal, and is computed only
where a point lies within the margin of a column or row edge. On the
dodecahedron, 10 of the 20 viewpoints are computed, each cell in
O(N log N); one O(N) margin test per pair covers a ladder of divisors of its
largest rung.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_RESOLUTIONS
from .errors import AllCollinear, TooFewPoints
from .geometry import (_pixel_indices, _unit_coordinates, as_points, camera_frame, check_resolution,
                       dodecahedron_viewpoints, orthonormal_basis)
from .render import render_point_cloud

ORIENTATION_RESOLUTION = 256
# the spacing cue: the distance to each of SPACING_SAMPLE points' SPACING_NEIGHBOR-th neighbour
SPACING_SAMPLE = 1500
SPACING_NEIGHBOR = 16
# sample rows whose distances to the whole sample are held at once
BLOCK = 32
# RANSAC planes scored by one matrix product
PLANES = 32
# 64u: times M + tol, the margin that covers RANSAC's block rounding (see
# ransac_viewpoint); times r(1 + P), the reach of rounding in a pixel
# coordinate (see score_grid)
_MARGIN = 64 * 2.0 ** -53
RING_STEP_DEG = 30.0


@dataclass
class ScoreGrid:
    """Acquisition rate and density over the viewpoint x resolution lattice."""

    viewpoints: np.ndarray      # (N_v, 3)
    resolutions: tuple          # (N_r,)
    quantity: np.ndarray        # (N_v, N_r)
    density: np.ndarray         # (N_v, N_r)


def _occupied_pixels(u, w, resolution: int) -> np.ndarray:
    """Sorted flat indices of the pixels hit by unit image coordinates u, w.

    These are exactly the foreground pixels of `render_point_cloud`'s image.
    The keys are uint32, which is exact since r * r <= MAX_RESOLUTION ** 2 =
    2**26; 34k of them sorted in 127 us, against 274 us as int64 (numpy 2.4).
    """
    rows, cols = _pixel_indices(u, w, resolution)
    flat = (rows * resolution + cols).astype(np.uint32)
    flat.sort()
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
    outside the image, which counts as empty: in the top row the uint32
    f - r wraps to 2**32 - r or more, and in the bottom row f + r is r*r or
    more, so neither is ever occupied; in the first and last columns f -+ 1
    would wrap onto the adjacent row, so those columns are excluded
    explicitly.
    """
    r = resolution
    n = len(occupied)
    sides = np.zeros(n, dtype=bool)
    sides[1:-1] = (occupied[1:-1] - occupied[:-2] == 1) & (occupied[2:] - occupied[1:-1] == 1)
    # f % r: 22 us on 34k uint32 keys, against 88 us for % (145 us on int64, numpy 2.4)
    cols = occupied - occupied // r * r
    centre = occupied[sides & (cols > 0) & (cols < r - 1)]
    full = np.ones(len(centre), dtype=bool)
    for neighbour in (centre - r, centre + r):
        at = np.minimum(np.searchsorted(occupied, neighbour), n - 1)
        full &= (occupied[at] == neighbour) & sides[at]
    return int(full.sum())


def _clear_of_edges(u, w, resolution: int, reach: float) -> bool:
    """Whether every pixel coordinate u*r, w*r lies more than 2e from an integer, e = reach*r."""
    gap = 2.0 * reach * resolution
    for unit in (u, w):
        t = unit * resolution
        frac = t - np.floor(t)
        if not (frac.min() > gap and frac.max() < 1.0 - gap):
            return False
    return True


def _mirrored_rungs(u, w, resolutions, reach) -> np.ndarray:
    """Rungs at which the antipodal viewpoint's cell is proven equal (see `score_grid`).

    Rungs are tested from the largest down; one that divides a larger rung
    that passed needs no test of its own.
    """
    clear = {}
    for r in sorted(set(resolutions), reverse=True):
        clear[r] = (any(ok and big % r == 0 for big, ok in clear.items())
                    or _clear_of_edges(u, w, r, reach))
    return np.array([clear[r] for r in resolutions])


def score_grid(cloud, viewpoints=None, resolutions=None) -> ScoreGrid:
    """Evaluate quantity and density for every (viewpoint, resolution) cell.

    Q is the number of occupied pixels over the number of points and D the
    number of fully surrounded occupied pixels over the occupied ones: the
    same integer ratios that the dense reference measures in
    ``tests/oracles.py`` (``quantity`` and ``density``) take of the rendered
    image, counted without rendering it.

    A viewpoint whose negation came earlier in the list (equal in value, so
    zeros of either sign match) copies that row's Q and D at every rung where
    a margin proves the two cells equal; only its other cells, if any, are
    computed, by the same code as every cell. On the dodecahedron 10 of the
    20 viewpoints are computed. The proof, with u = 2^-53, P the largest
    sum |p_j| over the points, and the rounding bounds of Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1:

    - Negation is exact and rounding is symmetric in sign, so the frame of
      -v is (-right, up) of the frame of v, in value. With X = p.right and
      Y = p.up exact, a point's exact column coordinate at rung r is
      T = (1 + X)/2 r from v and r - T from -v; its row coordinate
      W = (1 - (1 + Y)/2) r is the same from both.
    - Frame components are at most 1 + 2e-9 in size, so a computed x or y
      is within gamma_3 (1 + 2e-9) P of the exact one, which moves a
      coordinate by 1.5urP (1 + O(u)). Adding 1, halving (exact),
      subtracting from 1 (rows) and scaling by r add at most
      ur (3.5 + 1.5P) more. Every computed coordinate, from either frame,
      is thus within e = 4ur(1 + P) of the exact one. The code takes
      e = 64ur(1 + P) (``_MARGIN``), which also covers forming e and the
      tests below.
    - Suppose every computed coordinate of v's frame lies more than 2e from
      an integer; t - floor(t) is within u of the exact fraction, so the
      test is sound. Then every exact coordinate lies more than e from one,
      so each computed coordinate of either frame floors to the exact one's
      floor. For T not an integer, floor(r - T) = r - 1 - floor(T), and
      clamping into [0, r - 1] commutes with c -> r - 1 - c; the rows are
      the same. Rows are tested like columns rather than trusting the
      matrix product to return equal bits for equal operands.
    - So the cell of -v occupies the left-right mirror of v's pixels. Both
      have the same count, and mirroring maps the border columns onto each
      other and each 3 x 3 block onto one, so the surrounded counts agree
      as well: Q and D are equal.
    - T and W scale with r, as e does, so a rung r dividing a larger rung R
      that passes the test passes it too: a coordinate within e_r of an
      integer m at r would be within (R/r) e_r = e_R of (R/r) m at R. The
      default ladder, all divisors of 4096, is tested once per pair.
    - Coordinates large enough to overflow make e infinite, or leave no
      fraction, and fail the test.

    A margin test costs O(N) and a computed cell O(N log N), for its sort,
    whatever the resolution.
    """
    pts = as_points(cloud)
    views = dodecahedron_viewpoints() if viewpoints is None else np.asarray(viewpoints, dtype=np.float64)
    res = tuple(DEFAULT_RESOLUTIONS if resolutions is None else resolutions)
    if len(views) == 0 or len(res) == 0:
        raise ValueError("viewpoint and resolution sets must be non-empty")
    for r in res:
        check_resolution(r)
    n = len(pts)
    computed = {}     # a viewpoint's value -> the first row that computes it
    antipode = {}     # row -> the computed row of its negation
    for i, viewpoint in enumerate(views):
        source = computed.get(tuple((-viewpoint).tolist()))
        if source is None:
            computed.setdefault(tuple(viewpoint.tolist()), i)
        else:
            antipode[i] = source
    sources = set(antipode.values())
    reach = _MARGIN * (1.0 + np.abs(pts).sum(axis=1).max())
    q = np.zeros((len(views), len(res)))
    d = np.zeros((len(views), len(res)))
    mirrored = np.zeros((len(views), len(res)), dtype=bool)   # rungs where a row's antipode may copy it
    for i, viewpoint in enumerate(views):
        copied = np.zeros(len(res), dtype=bool)
        if i in antipode:
            copied = mirrored[antipode[i]]
            q[i, copied] = q[antipode[i], copied]
            d[i, copied] = d[antipode[i], copied]
            if copied.all():
                continue
        frame = camera_frame(viewpoint)
        u, w = _unit_coordinates(pts, frame)
        for j in np.flatnonzero(~copied):
            occupied = _occupied_pixels(u, w, res[j])
            q[i, j] = len(occupied) / n
            d[i, j] = _surrounded_count(occupied, res[j]) / len(occupied)
        if i in sources:
            mirrored[i] = _mirrored_rungs(u, w, res, reach)
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


def propose(points, resolutions=None):
    """The selection rule: ``(viewpoint, resolution, grid)`` for a pose-normalized cloud.

    Scores the dodecahedron at every rung, takes `select_viewpoint` with the
    cloud to orient the axis, then `select_resolution` on its row.
    """
    grid = score_grid(points, None, resolutions)
    viewpoint = select_viewpoint(grid, points)
    return viewpoint, select_resolution(grid, viewpoint), grid


def best_resolution_for_viewpoint(cloud, viewpoint, resolutions=None) -> int:
    """Density-argmax resolution for an arbitrary (off-lattice) viewpoint.

    Scores a one-viewpoint grid, so densities and tie-breaking follow
    `score_grid` and `select_resolution` exactly.
    """
    return select_resolution(score_grid(cloud, [viewpoint], resolutions), viewpoint)


def _inliers(pts, anchor, normal, inlier_tolerance) -> int:
    """Points within the tolerance of the plane through ``anchor``, by the per-plane form."""
    return int((np.abs((pts - anchor) @ normal) <= inlier_tolerance).sum())


def _block_counts(pts, anchors, normals, inlier_tolerance, margin) -> np.ndarray:
    """`_inliers` of each plane of a block, from one matrix product (see `ransac_viewpoint`).

    A plane with points within ``margin`` of the tolerance, or every plane
    when the margin is infinite, is recounted by `_inliers`.
    """
    dist = normals @ pts.T
    dist -= np.einsum("ij,ij->i", anchors, normals)[:, None]
    np.abs(dist, out=dist)
    # one count per row: about 3x faster than count_nonzero(axis=1) here (numpy 2.4)
    counts = np.array([np.count_nonzero(row) for row in dist <= inlier_tolerance - margin])
    unsure = counts != [np.count_nonzero(row) for row in dist <= inlier_tolerance + margin]
    for b in np.flatnonzero(unsure | np.isinf(margin)):
        counts[b] = _inliers(pts, anchors[b], normals[b], inlier_tolerance)
    return counts


def ransac_viewpoint(cloud, iterations: int = 1000, inlier_tolerance: float = 0.01, seed=0) -> np.ndarray:
    """Unit normal of the best RANSAC plane fit over the iterations.

    Each iteration fits a plane through three random points and counts the
    points within the inlier tolerance of it; the normal of the first plane
    with the largest count wins. The sign keeps whichever of the two normal
    directions has the higher acquisition rate at ORIENTATION_RESOLUTION;
    exact ties keep the normal as computed. Note that a plane normal carries
    no information about which side the scanner stood on, so the sign is
    effectively arbitrary. Deterministic for a fixed seed.

    The iterations run in blocks of PLANES. Each triple is still drawn by its
    own ``rng.choice`` call, in order, and the result is bit for bit that of
    one plane at a time (``ransac_viewpoint_oracle`` in ``tests/oracles.py``).
    A block's normals take the same elementwise steps as one plane's. Its
    distances come from one matrix product, ``|p.n - a.n|`` for every point
    p and anchor a, which rounds differently from the per-plane
    ``|(p - a).n|``. The rounding bound for dot products (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1) bounds the gap. Let
    u = 2^-53, M the largest absolute coordinate and tol the tolerance; a
    unit normal has sum |n_j| <= sqrt(3).

    - Per plane, ``p - a`` rounds by at most 2uM per coordinate, which moves
      the distance by 2 sqrt(3) uM, and the 3-term dot product adds at most
      gamma_3 * 2 sqrt(3) M = 6 sqrt(3) uM (1 + O(u)).
    - In the block, ``p.n`` and ``a.n`` each round by gamma_3 * sqrt(3) M
      and their difference, at most 2 sqrt(3) M, by 2 sqrt(3) uM.

    Each form is thus within 8 sqrt(3) uM (1 + O(u)) of the exact distance,
    and the two differ by less than 28uM. So with e = 64u(M + tol), which
    also covers the rounding of tol -+ e, a point with a block distance
    <= tol - e is a per-plane inlier and one with a block distance
    > tol + e is not. Where the counts at tol - e and tol + e agree, no
    point lies in between and they are the per-plane count; otherwise the
    plane is recounted by the per-plane form. Coordinates of 2^1020 or more,
    where the sums may overflow and the bound fails, recount every plane.
    Time is O(iterations x N) and memory O(PLANES x N).
    """
    pts = as_points(cloud)
    n = len(pts)
    if n < 3:
        raise TooFewPoints("plane fitting needs at least 3 points")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if not np.isfinite(inlier_tolerance):
        raise ValueError(f"inlier tolerance must be finite, got {inlier_tolerance}")
    if inlier_tolerance <= 0:
        raise ValueError("inlier tolerance must be positive")
    top = np.abs(pts).max()
    margin = _MARGIN * (top + inlier_tolerance) if top < 2.0 ** 1020 else np.inf
    rng = np.random.default_rng(seed)
    best_count = -1
    best_normal = None
    for start in range(0, iterations, PLANES):
        draws = [rng.choice(n, size=3, replace=False) for _ in range(min(PLANES, iterations - start))]
        i, j, k = np.array(draws).T
        normals = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        lengths = np.array([np.linalg.norm(normal) for normal in normals])
        valid = ~(lengths < 1e-12)   # a NaN length is kept, as one plane at a time keeps it
        if not valid.any():
            continue
        normals = normals[valid] / lengths[valid, None]
        counts = _block_counts(pts, pts[i[valid]], normals, inlier_tolerance, margin)
        b = int(np.argmax(counts))
        if counts[b] > best_count:
            best_count = counts[b]
            best_normal = normals[b]
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
