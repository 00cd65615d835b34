"""Reference implementations the tests compare the package against.

None of these runs in the pipeline. The dense image measures are the form
that `select.score_grid` replaced: they render an image and count its
pixels, which the score grid does without rendering. The readers check the
files that the CLI writes but never reads back.
"""

import numpy as np

from viewret.errors import BadResolution, DimensionMismatch, NoForeground, ZeroVector
from viewret.features import _describe_block, _windows


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
        raise BadResolution("binary image must be at least 3x3")
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
        raise NoForeground("image has no foreground pixels")
    return eight_connected_count(to_binary(img)) / fg


# --- retrieval and descriptors ---------------------------------------------------

def cosine_distance(a, b) -> float:
    """1 - cos(a, b), in [0, 2], of one pair of vectors in float64."""
    va = np.asarray(a, dtype=np.float64).ravel()
    vb = np.asarray(b, dtype=np.float64).ravel()
    if va.shape != vb.shape:
        raise DimensionMismatch(f"descriptor sizes differ: {va.shape} vs {vb.shape}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0 or nb == 0:
        raise ZeroVector("cosine distance is undefined for zero vectors")
    cos = np.clip(float(va @ vb) / (na * nb), -1.0, 1.0)
    return 1.0 - cos


def batch_descriptors(level_img, rows, cols) -> np.ndarray:
    """Float64 descriptors for many keypoints of one pyramid level, one per row."""
    return _describe_block(_windows(level_img, rows, cols))


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
