"""Point and mesh containers, pose normalization, viewpoints and projection.

Conventions used throughout the package:

* point clouds are (N, 3) float64 arrays,
* a viewpoint is a unit vector; the camera sits there on the unit sphere and
  looks at the origin,
* pixel (0, 0) is the top-left corner of an image; projection is orthographic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadResolution, DegenerateCloud, EmptyCloud

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0

# when |forward . (0,0,1)| exceeds this, (0,1,0) is used as the up hint instead
_UP_FALLBACK_DOT = 0.999

MIN_RESOLUTION = 8
# an r x r image must stay allocatable; 8192 is twice the paper's top rung
MAX_RESOLUTION = 8192


def check_resolution(resolution) -> None:
    """Raise BadResolution unless MIN_RESOLUTION <= resolution <= MAX_RESOLUTION."""
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise BadResolution(f"resolution must be in [{MIN_RESOLUTION}, {MAX_RESOLUTION}], "
                            f"got {resolution}")


def as_points(cloud) -> np.ndarray:
    """Coerce ``cloud`` to a validated (N, 3) float64 array.

    Raises EmptyCloud for zero points and ValueError for malformed or
    non-finite input.
    """
    pts = np.asarray(cloud, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point array, got shape {pts.shape}")
    if pts.shape[0] == 0:
        raise EmptyCloud("point cloud is empty")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


@dataclass
class TriangleMesh:
    """Indexed triangle soup: ``vertices`` (V, 3) float64, ``triangles`` (T, 3) int."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.triangles):
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
                raise ValueError("triangle index out of range")
            t = self.triangles
            if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
                raise ValueError("triangle repeats a vertex index")

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
    idempotent up to floating-point noise.
    """
    pts = as_points(cloud)
    translation = -pts.mean(axis=0)
    radii = np.linalg.norm(pts + translation, axis=1)
    max_radius = radii.max()
    if max_radius < 1e-12:
        raise DegenerateCloud("all points coincide; scale is undefined")
    transform = NormalizationTransform(translation=translation, scale=1.0 / max_radius)
    return transform.apply(pts), transform


def normalize_mesh(mesh: TriangleMesh):
    """Pose-normalize a mesh by its vertex set; returns (mesh, transform)."""
    vertices, transform = normalize_pose(mesh.vertices)
    return TriangleMesh(vertices, mesh.triangles.copy()), transform


def _build_dodecahedron() -> np.ndarray:
    phi = GOLDEN_RATIO
    inv = 1.0 / phi
    verts = []
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            for sz in (-1.0, 1.0):
                verts.append((sx, sy, sz))
    for sa in (-1.0, 1.0):
        for sb in (-1.0, 1.0):
            verts.append((0.0, sa * inv, sb * phi))
    for sa in (-1.0, 1.0):
        for sb in (-1.0, 1.0):
            verts.append((sa * inv, sb * phi, 0.0))
    for sa in (-1.0, 1.0):
        for sb in (-1.0, 1.0):
            verts.append((sa * phi, 0.0, sb * inv))
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
        raise ValueError("viewpoint must be a unit vector")
    forward = -eye
    right, up = orthonormal_basis(forward)
    return CameraFrame(eye=eye, forward=forward, right=right, up=up)


def _unit_coordinates(x, y):
    """Camera-plane coordinates as fractions of the image: ``(u, w)`` across and down.

    The first step of the one pixel-assignment formula, `_pixel_indices` the
    second. Rendering and the score grid both take the two steps, so a cloud
    occupies the same pixels in either; the score grid forms ``(u, w)`` once
    per viewpoint and scales them to every rung.
    """
    return (x + 1.0) / 2.0, 1.0 - (y + 1.0) / 2.0


def _pixel_indices(u, w, resolution: int):
    """Clamped ``(rows, cols)`` of unit coordinates ``u``, ``w`` on an r x r grid."""
    cols = np.floor(u * resolution).astype(np.int64)
    rows = np.floor(w * resolution).astype(np.int64)
    np.clip(cols, 0, resolution - 1, out=cols)
    np.clip(rows, 0, resolution - 1, out=rows)
    return rows, cols


def project_points(points, frame: CameraFrame, resolution: int):
    """Vectorized orthographic projection onto an r x r pixel grid.

    Returns ``(rows, cols, depths)``. Pixel indices are clamped into the
    image; depth is measured from the eye along ``forward`` and divided by
    the sphere diameter, so points inside the unit sphere land in [0, 1].
    """
    check_resolution(resolution)
    pts = as_points(points)
    rows, cols = _pixel_indices(*_unit_coordinates(pts @ frame.right, pts @ frame.up), resolution)
    depths = ((pts - frame.eye) @ frame.forward) / 2.0
    return rows, cols, depths
