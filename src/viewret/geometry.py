"""Point and mesh containers, pose normalization, viewpoints and projection.

Conventions used throughout the package:

* point clouds are (N, 3) float64 arrays,
* a viewpoint is a unit vector; the camera sits there on the unit sphere and
  looks at the origin,
* pixel (0, 0) is the top-left corner of an image; projection is orthographic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ViewretError

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0

# when |forward . (0,0,1)| exceeds this, (0,1,0) is used as the up hint instead
_UP_FALLBACK_DOT = 0.999

MIN_RESOLUTION = 8
# an r x r image must stay allocatable; 8192 is twice the paper's top rung
MAX_RESOLUTION = 8192


def check_resolution(resolution) -> None:
    """Raise ViewretError unless MIN_RESOLUTION <= resolution <= MAX_RESOLUTION."""
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ViewretError(f"resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], "
                           f"got {resolution}")


def as_points(cloud) -> np.ndarray:
    """Coerce ``cloud`` to a validated (N, 3) float64 array.

    Raises ViewretError for zero points and for malformed or non-finite
    input.
    """
    try:
        pts = np.asarray(cloud, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ViewretError(f"expected an (N, 3) point array: {exc}") from None
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ViewretError(f"expected an (N, 3) point array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise ViewretError("point cloud is empty")
    if not np.all(np.isfinite(pts)):
        raise ViewretError("point coordinates must be finite")
    return pts


def _rows_of_three(values, dtype, name) -> np.ndarray:
    """A read-only (N, 3) copy of ``values``; raises ViewretError for any other shape."""
    try:
        with np.errstate(invalid="ignore"):
            rows = np.array(values, dtype=dtype, copy=True)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ViewretError(f"mesh {name} must be an (N, 3) array: {exc}") from None
    if rows.size == 0:
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ViewretError(f"mesh {name} must be an (N, 3) array, got shape {rows.shape}")
    rows.setflags(write=False)
    return rows


@dataclass
class TriangleMesh:
    """Indexed triangle soup: ``vertices`` (V, 3) float64, ``triangles`` (T, 3) int64.

    Construction is the one check: (V, 3) vertices and (T, 3) vertex indices
    (an empty sequence is an empty array of either), a vertex and a triangle
    at least, finite coordinates, integer indices (2.0 is one, 2.7 is not)
    and three distinct vertices in every triangle. The mesh holds read-only
    copies of its arrays, so the check holds for its lifetime.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = _rows_of_three(self.vertices, np.float64, "vertices")
        given = self.triangles
        self.triangles = t = _rows_of_three(given, np.int64, "triangles")
        if not len(self.vertices):
            raise ViewretError("mesh has no vertices")
        if not len(t):
            raise ViewretError("mesh has no triangles")
        if not np.array_equal(t, given):  # 2.7, NaN or 1e30 cast to another integer
            raise ViewretError("mesh triangles must be integer vertex indices")
        if not np.all(np.isfinite(self.vertices)):
            raise ViewretError("mesh vertex coordinates must be finite")
        if t.min() < 0 or t.max() >= len(self.vertices):
            raise ViewretError("triangle index out of range")
        if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
            raise ViewretError("triangle repeats a vertex index")

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


@dataclass
class NormalizationTransform:
    """Translation followed by uniform scaling: p -> (p + translation) * scale."""

    translation: np.ndarray
    scale: float

    def apply(self, cloud) -> np.ndarray:
        return (as_points(cloud) + self.translation) * self.scale


@dataclass
class CameraFrame:
    """Right-handed orthonormal camera frame, ``forward`` pointing at the origin."""

    eye: np.ndarray
    forward: np.ndarray
    right: np.ndarray
    up: np.ndarray


def normalize_pose(cloud):
    """Center the cloud's mass at the origin and scale its radius to one.

    Returns ``(normalized_points, transform)``. Applying the transform to the
    input reproduces the normalized points exactly, so normalization is
    idempotent up to floating-point noise. Raises ViewretError when the
    points coincide, or when the centroid or radius overflows float64.
    """
    pts = as_points(cloud)
    with np.errstate(over="ignore", invalid="ignore"):
        translation = -pts.mean(axis=0)
        max_radius = np.linalg.norm(pts + translation, axis=1).max()
    if not (np.isfinite(translation).all() and np.isfinite(max_radius)):
        raise ViewretError("coordinates too large: the centroid or radius overflows")
    if max_radius < 1e-12:
        raise ViewretError("all points coincide; scale is undefined")
    transform = NormalizationTransform(translation=translation, scale=1.0 / max_radius)
    return transform.apply(pts), transform


def normalize_mesh(mesh: TriangleMesh):
    """Pose-normalize a mesh by its vertex set; returns (mesh, transform)."""
    vertices, transform = normalize_pose(mesh.vertices)
    return TriangleMesh(vertices, mesh.triangles), transform


def _build_dodecahedron() -> np.ndarray:
    phi = GOLDEN_RATIO
    inv = 1.0 / phi
    signs = [(sa, sb) for sa in (-1.0, 1.0) for sb in (-1.0, 1.0)]
    verts = [(sx, sy, sz) for sx in (-1.0, 1.0) for sy, sz in signs]
    verts += [(0.0, sa * inv, sb * phi) for sa, sb in signs]
    verts += [(sa * inv, sb * phi, 0.0) for sa, sb in signs]
    verts += [(sa * phi, 0.0, sb * inv) for sa, sb in signs]
    return np.asarray(verts) / np.sqrt(3.0)


_DODECAHEDRON = _build_dodecahedron()

NUM_VIEWPOINTS = len(_DODECAHEDRON)


def dodecahedron_viewpoints() -> np.ndarray:
    """The 20 vertices of a unit-circumradius dodecahedron, in a fixed order.

    The set is closed under sign flips, so every viewpoint has its antipode
    in the set as well.
    """
    return _DODECAHEDRON.copy()


def orthonormal_basis(forward):
    """Deterministic right-handed (right, up) pair for a unit ``forward``.

    Global +z serves as the up hint; when ``forward`` is nearly parallel to
    it the hint falls back to +y.
    """
    f = np.asarray(forward, dtype=np.float64)
    hint = np.array([0.0, 0.0, 1.0])
    if abs(float(f @ hint)) > _UP_FALLBACK_DOT:
        hint = np.array([0.0, 1.0, 0.0])
    right = np.cross(f, hint)
    right /= np.linalg.norm(right)
    up = np.cross(right, f)
    return right, up


def camera_frame(viewpoint) -> CameraFrame:
    """Camera positioned at ``viewpoint`` on the unit sphere, aimed at the origin."""
    eye = np.asarray(viewpoint, dtype=np.float64)
    if not abs(np.linalg.norm(eye) - 1.0) <= 1e-9:   # also rejects NaN
        raise ViewretError("viewpoint must be a unit vector")
    forward = -eye
    right, up = orthonormal_basis(forward)
    return CameraFrame(eye=eye, forward=forward, right=right, up=up)


def _unit_coordinates(points, frame: CameraFrame):
    """Camera-plane coordinates of (N, 3) points as fractions of the image: ``(u, w)``.

    ``u`` runs across and ``w`` down. The first step of the one
    pixel-assignment formula, `_pixel_indices` the second. Point rendering
    and the score grid take both steps, so a cloud occupies the same pixels
    in either; the score grid forms ``(u, w)`` once per viewpoint and scales
    them to every rung. Mesh rendering scales them by r, unfloored.
    """
    return (points @ frame.right + 1.0) / 2.0, 1.0 - (points @ frame.up + 1.0) / 2.0


def _pixel_indices(u, w, resolution: int):
    """Clamped ``(rows, cols)`` of unit coordinates ``u``, ``w`` on an r x r grid.

    The clamp comes before the cast, so a coordinate beyond the int64 range,
    or one that overflows to infinity, lands on its own border.
    """
    with np.errstate(over="ignore"):
        cols = np.floor(u * resolution)
        rows = np.floor(w * resolution)
    np.clip(cols, 0, resolution - 1, out=cols)
    np.clip(rows, 0, resolution - 1, out=rows)
    return rows.astype(np.int64), cols.astype(np.int64)


def _depths(points, frame: CameraFrame):
    """Depth from the eye along ``forward`` over the sphere diameter, in [0, 1] inside it."""
    return ((points - frame.eye) @ frame.forward) / 2.0


def project_points(points, frame: CameraFrame, resolution: int):
    """Vectorized orthographic projection onto an r x r pixel grid.

    Returns ``(rows, cols, depths)``: `_pixel_indices` of `_unit_coordinates`,
    and `_depths`.
    """
    check_resolution(resolution)
    pts = as_points(points)
    rows, cols = _pixel_indices(*_unit_coordinates(pts, frame), resolution)
    return rows, cols, _depths(pts, frame)
