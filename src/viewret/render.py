"""Software orthographic depth-image rendering.

A depth image is an (r, r) uint8 array. Intensity 0 marks background; the
nearest representable depth maps to 255 and the farthest to 1, so rendered
geometry can never disappear into the background value.
"""

import numpy as np

from .errors import EmptyMesh
from .geometry import TriangleMesh, as_points, camera_frame, check_resolution, project_points

# slack on normalized barycentric coordinates so shared edges rasterize
_EDGE_EPS = 1e-9


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
    """
    if len(mesh.vertices) == 0 or len(mesh.triangles) == 0:
        raise EmptyMesh("mesh has no renderable triangles")
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
