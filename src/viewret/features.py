"""Multiresolution pyramid, random foreground keypoints and local descriptors.

Descriptors are upright 128-dimensional gradient-orientation histograms
(4x4 spatial cells x 8 orientation bins) computed on a 16x16 patch around
each keypoint. Depth images of pose-normalized objects need no rotation
invariance, so no dominant orientation is estimated.
"""

import numpy as np

from .errors import BadResolution, NoForeground

DESCRIPTOR_SIZE = 128
PATCH = 16
CELLS = 4
ORIENTATION_BINS = 8
GAUSS_SIGMA = 8.0
COMPONENT_CLAMP = 0.2
MIN_LEVEL = 32


def build_pyramid(img) -> list:
    """Successively halve the image with a 2x2 box filter.

    Background zeros participate in the averages. Levels stop before either
    dimension would drop below 32 pixels, since a 16x16 descriptor patch is
    meaningless on anything smaller.
    """
    img = np.asarray(img)
    if img.ndim != 2 or min(img.shape) < MIN_LEVEL:
        raise BadResolution(f"pyramid base must be at least {MIN_LEVEL}x{MIN_LEVEL}")
    levels = [img]
    while True:
        cur = levels[-1]
        nh, nw = cur.shape[0] // 2, cur.shape[1] // 2
        if nh < MIN_LEVEL or nw < MIN_LEVEL:
            break
        t = cur[:2 * nh, :2 * nw].astype(np.float64)
        block = (t[0::2, 0::2] + t[0::2, 1::2] + t[1::2, 0::2] + t[1::2, 1::2]) / 4.0
        levels.append(np.rint(block).astype(np.uint8))
    return levels


def sample_keypoints(pyramid, n_keypoints: int, decay: float, seed) -> list:
    """Draw keypoints uniformly without replacement from each level's foreground.

    Level ``l`` receives ``round(n_keypoints / decay**l)`` samples, clamped to
    the number of foreground pixels actually present. Returns one (2, n) int
    array per level that unpacks as ``rows, cols``; n is 0 where the level
    gets no keypoint. Deterministic for a fixed seed.
    """
    if n_keypoints < 1:
        raise ValueError("n_keypoints must be at least 1")
    if decay < 1:
        raise ValueError("decay must be at least 1")
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
        raise NoForeground("no pyramid level has any foreground pixel")
    return per_level


def _spatial_bins():
    # cell-space coordinate of each patch pixel; centers of the 4 cells sit
    # at 0..3, so pixel i contributes to cells floor(c) and floor(c)+1
    coord = (np.arange(PATCH) - (PATCH - 1) / 2.0) / (PATCH // CELLS) + (CELLS - 1) / 2.0
    lo = np.floor(coord).astype(np.int64)
    hi_weight = coord - lo
    return lo, hi_weight


_CELL_LO, _CELL_HI_W = _spatial_bins()
_OFFSETS = np.arange(PATCH) - (PATCH - 1) / 2.0
_GAUSS = np.exp(-(_OFFSETS[:, None] ** 2 + _OFFSETS[None, :] ** 2) / (2.0 * GAUSS_SIGMA ** 2))


def _batch_descriptors(level_img, rows, cols) -> np.ndarray:
    """Descriptors for many keypoints of one pyramid level, one per row."""
    img = np.asarray(level_img, dtype=np.float64)
    pad = PATCH // 2 + 1
    padded = np.pad(img, pad)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n = len(rows)

    # 18x18 windows so central differences cover the full 16x16 patch
    span = np.arange(PATCH + 2)
    win = padded[rows[:, None, None] + span[None, :, None],
                 cols[:, None, None] + span[None, None, :]]
    gx = (win[:, 1:-1, 2:] - win[:, 1:-1, :-2]) / 2.0
    gy = (win[:, 2:, 1:-1] - win[:, :-2, 1:-1]) / 2.0
    magnitude = np.hypot(gx, gy) * _GAUSS
    orientation = np.mod(np.arctan2(gy, gx) / (2.0 * np.pi / ORIENTATION_BINS), ORIENTATION_BINS)
    floor_bin = orientation.astype(np.int64)
    ofrac = orientation - floor_bin
    # mod can round up to exactly ORIENTATION_BINS for tiny negative angles
    obin0 = floor_bin % ORIENTATION_BINS
    obin1 = (obin0 + 1) % ORIENTATION_BINS

    # spatial cells -1..CELLS land in a one-cell margin that is cropped below
    grid = CELLS + 2
    hist = np.zeros((n, grid, grid, ORIENTATION_BINS))
    flat = hist.reshape(-1)
    kp_base = (np.arange(n) * grid * grid * ORIENTATION_BINS)[:, None, None]
    for dr in (0, 1):
        w_r = _CELL_HI_W if dr else 1.0 - _CELL_HI_W
        for dc in (0, 1):
            w_c = _CELL_HI_W if dc else 1.0 - _CELL_HI_W
            cell_base = ((_CELL_LO + 1 + dr)[:, None] * grid
                         + (_CELL_LO + 1 + dc)[None, :]) * ORIENTATION_BINS
            contrib = magnitude * (w_r[:, None] * w_c[None, :])
            np.add.at(flat, (kp_base + cell_base + obin0).reshape(-1),
                      (contrib * (1.0 - ofrac)).reshape(-1))
            np.add.at(flat, (kp_base + cell_base + obin1).reshape(-1),
                      (contrib * ofrac).reshape(-1))

    desc = hist[:, 1:-1, 1:-1].reshape(n, DESCRIPTOR_SIZE)
    norms = np.linalg.norm(desc, axis=1)
    live = norms > 0
    desc[live] /= norms[live, None]
    np.clip(desc, 0.0, COMPONENT_CLAMP, out=desc)
    norms = np.linalg.norm(desc, axis=1)
    live = norms > 0
    desc[live] /= norms[live, None]
    return desc


def extract_features(img, n_keypoints: int, decay: float, seed) -> np.ndarray:
    """Pyramid, keypoint sampling and description in one call.

    Returns an (n, 128) float32 array, level by level in sampling order, so
    the result is deterministic for a fixed seed.
    """
    pyramid = build_pyramid(img)
    per_level = sample_keypoints(pyramid, n_keypoints, decay, seed)
    return np.concatenate([_batch_descriptors(level_img, rows, cols)
                           for level_img, (rows, cols) in zip(pyramid, per_level)]
                          ).astype(np.float32)
