"""Software orthographic depth-image rendering.

A depth image is an (r, r) uint8 array. Intensity 0 marks background; the
nearest representable depth maps to 255 and the farthest to 1, so rendered
geometry can never disappear into the background value.

Meshes are rasterized by row spans: each (triangle, bounding-box row) pair is
cut to the columns its pixel-center line can cover, and the spans are
expanded into candidate pixels BLOCK at a time. A span leaves out only pixels
that the barycentric inside test rejects whatever its rounding, and the kept
pixels are tested and interpolated with the same floating-point operations,
in the same order, as a loop over each triangle's whole bounding box, so the
image is that loop's, byte for byte.
"""

import numpy as np

from .errors import EmptyMesh, ViewretError
from .geometry import TriangleMesh, as_points, camera_frame, check_resolution, project_points

# slack on normalized barycentric coordinates so shared edges rasterize
_EDGE_EPS = 1e-9
# candidate pixels evaluated at once when rasterizing a mesh; larger blocks
# were no faster at 1024 and slower at 256, where their two dozen float64
# temporaries were mapped and page-faulted afresh for most blocks
BLOCK = 1 << 13
# Rounding moves a barycentric coordinate, as the inside test computes it or as
# a span end is solved from it, by under 45 * 2**-53 * (u extent + r + 1) *
# (w extent + 1) / |area|, extents in pixels; this factor is 128 * 2**-53.
_ROUNDING = 2.0 ** -46


def depth_to_intensity(depth) -> np.ndarray:
    """Map depth in [0, 1] to {1..255}: nearer is brighter, 0 stays reserved."""
    d = np.clip(np.asarray(depth, dtype=np.float64), 0.0, 1.0)
    return np.rint(255.0 - 254.0 * d).astype(np.uint8)


def render_point_cloud(cloud, viewpoint, resolution: int) -> np.ndarray:
    """Rasterize a pose-normalized point cloud into a depth image.

    Every point covers exactly one pixel; when several points collide on a
    pixel only the one nearest the camera survives.
    """
    pts = as_points(cloud)
    frame = camera_frame(viewpoint)
    rows, cols, depths = project_points(pts, frame, resolution)
    flat = rows * resolution + cols
    order = np.lexsort((depths, flat))
    flat_sorted = flat[order]
    first = np.ones(len(flat_sorted), dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    img = np.zeros((resolution, resolution), dtype=np.uint8)
    img.reshape(-1)[flat_sorted[first]] = depth_to_intensity(depths[order[first]])
    return img


def render_mesh(mesh: TriangleMesh, viewpoint, resolution: int) -> np.ndarray:
    """Rasterize a pose-normalized triangle mesh into a depth image.

    Depth is interpolated barycentrically per pixel center with a
    minimum-depth z-buffer; the intensity encoding matches point rendering.
    A pixel of a triangle's bounding box is covered when its three
    barycentric coordinates are all at least ``-_EDGE_EPS``.

    Each (triangle, box row) pair is cut to the span of columns where every
    coordinate, as an exact linear function of the column, is at least
    ``-slack``. The slack is ``_EDGE_EPS`` plus a bound on the rounding in
    the tested coordinates, so every pixel left out fails the test. The span
    is widened by one pixel, for the rounding of its own ends, and clipped to
    the box. Each pixel kept is tested with the expressions of the former
    per-triangle loop, in the same order, and the z-buffer keeps the minimum,
    which does not depend on order: the image is the loop's, byte for byte.
    Time is O(covered pixels + box rows). Beyond the r x r z-buffer and a
    dozen values per triangle, transients are O(BLOCK). Non-finite vertex
    coordinates raise a ViewretError.
    """
    if len(mesh.vertices) == 0 or len(mesh.triangles) == 0:
        raise EmptyMesh("mesh has no renderable triangles")
    if not np.all(np.isfinite(mesh.vertices)):
        raise ViewretError("mesh vertex coordinates must be finite")
    check_resolution(resolution)
    frame = camera_frame(viewpoint)
    r = resolution
    v = mesh.vertices
    # continuous pixel coordinates of every vertex (col axis u, row axis w)
    u = (v @ frame.right + 1.0) / 2.0 * r
    w = (1.0 - (v @ frame.up + 1.0) / 2.0) * r
    depth = ((v - frame.eye) @ frame.forward) / 2.0

    tu, tw, td = u[mesh.triangles], w[mesh.triangles], depth[mesh.triangles]
    area = ((tu[:, 1] - tu[:, 0]) * (tw[:, 2] - tw[:, 0])
            - (tu[:, 2] - tu[:, 0]) * (tw[:, 1] - tw[:, 0]))
    umin, umax = tu.min(axis=1), tu.max(axis=1)
    wmin, wmax = tw.min(axis=1), tw.max(axis=1)
    # the box of pixel centers, clipped in floating point before the cast
    cmin = np.clip(np.ceil(umin - 0.5), 0, r)
    cmax = np.clip(np.floor(umax - 0.5), -1, r - 1)
    rmin = np.clip(np.ceil(wmin - 0.5), 0, r).astype(np.int64)
    rmax = np.clip(np.floor(wmax - 0.5), -1, r - 1).astype(np.int64)
    drawn = (np.abs(area) >= 1e-12) & (cmin <= cmax) & (rmin <= rmax)
    rows = np.where(drawn, rmax - rmin + 1, 0)
    slack = 2.0 * _EDGE_EPS * np.abs(area) + _ROUNDING * (umax - umin + r + 1) * (wmax - wmin + 1)

    # one row per term, one column per triangle: u0 u1 u2 w0 w1 w2 area d0 d1 d2 slack cmin cmax
    per_triangle = np.vstack([tu.T, tw.T, area, td.T, slack, cmin, cmax])

    zbuf = np.full(r * r, np.inf)
    # a pair holds 13 values plus its span's temporaries, about twice the two
    # dozen of a candidate pixel, so pairs go BLOCK // 2 at a time
    for t0, t1 in _runs(rows, BLOCK // 2):
        counts = rows[t0:t1]
        pairs = np.repeat(per_triangle[:, t0:t1], counts, axis=1)
        row = np.repeat(rmin[t0:t1] - _starts(counts), counts) + np.arange(pairs.shape[1])
        pairs[3:6] -= row + 0.5  # w - py, as the loop's (w2 - py) computes it
        first, n = _spans(pairs[0:3], pairs[3:6], pairs[6], pairs[10], pairs[11], pairs[12])
        start = _starts(n)
        # per pair, less its offset among the candidates: first pixel center and flat index
        terms = np.vstack([first + 0.5 - start, row * r + first - start, pairs[:10]])
        for p0, p1 in _runs(n, BLOCK):
            _rasterize(zbuf, terms[:, p0:p1], n[p0:p1], start[p0])

    img = np.empty(r * r, dtype=np.uint8)
    for s in range(0, r * r, BLOCK):
        z = zbuf[s:s + BLOCK]
        # the background's inf maps to 1, which the finite mask zeroes
        np.multiply(depth_to_intensity(z), np.isfinite(z), out=img[s:s + BLOCK])
    return img.reshape(r, r)


def _starts(counts) -> np.ndarray:
    """Offset of each run in the concatenation of runs of the given lengths."""
    return np.cumsum(counts) - counts


def _runs(sizes, limit):
    """Split range(len(sizes)) into consecutive runs whose sizes add up to about `limit` each."""
    ends = np.cumsum(sizes)
    cuts = np.searchsorted(ends, np.arange(limit, ends[-1] if len(ends) else 0, limit), side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [len(sizes)])))
    return zip(bounds[:-1].tolist(), bounds[1:].tolist())


def _spans(u, a, area, slack, cmin, cmax):
    """First column and length of each (triangle, row) pair's candidate span.

    Along a row, barycentric coordinate i is (P - Q * px) / area with
    P = u_j a_k - u_k a_j and Q = a_k - a_j, where a = w - py and (j, k)
    are the loop's vertex order for that coordinate. Requiring it to be at
    least -slack / |area| bounds px on one side, or, where Q is 0, keeps or
    drops the whole row.
    """
    j, k = [1, 2, 0], [2, 0, 1]
    sign = np.where(area > 0, 1.0, -1.0)
    bound = sign * (u[j] * a[k] - u[k] * a[j]) + slack
    slope = sign * (a[k] - a[j])
    with np.errstate(divide="ignore", invalid="ignore"):
        edge = bound / slope
    # slope * px <= bound: an upper end where the slope is positive, a lower one where negative
    hi = np.fmin.reduce(np.where(slope > 0, edge, np.inf), axis=0, initial=np.inf)
    lo = np.fmax.reduce(np.where(slope < 0, edge, -np.inf), axis=0, initial=-np.inf)
    hi[np.any((slope == 0) & (bound < 0), axis=0)] = -np.inf
    first = np.clip(np.ceil(lo - 0.5) - 1, cmin, cmax + 1)
    last = np.clip(np.floor(hi - 0.5) + 1, cmin - 1, cmax)
    return first, np.maximum(last - first + 1, 0).astype(np.int64)


def _rasterize(zbuf, terms, counts, start):
    """Test the candidate pixels of some pairs as the per-triangle loop did and merge into zbuf."""
    offset = np.arange(start, start + counts.sum())
    px0, flat0, u0, u1, u2, a0, a1, a2, area, d0, d1, d2 = np.repeat(terms, counts, axis=1)
    px = px0 + offset
    l0 = ((u1 - px) * a2 - (u2 - px) * a1) / area
    l1 = ((u2 - px) * a0 - (u0 - px) * a2) / area
    l2 = 1.0 - l0 - l1
    eps = -_EDGE_EPS
    inside = (l0 >= eps) & (l1 >= eps) & (l2 >= eps)
    z = l0 * d0 + l1 * d1 + l2 * d2
    np.minimum.at(zbuf, (flat0 + offset).astype(np.int64), np.where(inside, z, np.inf))
