"""Multiresolution pyramid, random foreground keypoints and local descriptors.

Descriptors are upright 128-dimensional gradient-orientation histograms
(4x4 spatial cells x 8 orientation bins) computed on a 16x16 patch around
each keypoint. Depth images of pose-normalized objects need no rotation
invariance, so no dominant orientation is estimated. `describe` computes
each keypoint's descriptor from its 18x18 uint8 window alone, so callers
may hold and sample windows (324 bytes against 512) and describe later.
"""

import numpy as np

from .errors import ViewretError

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
        raise ViewretError(f"pyramid base must be at least {MIN_LEVEL}x{MIN_LEVEL}")
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
        raise ViewretError("n_keypoints must be at least 1")
    if decay < 1:
        raise ViewretError("decay must be at least 1")
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
WINDOW = PATCH + 2
# rows described per batch: bounds the transients of describing a large pool,
# and a block's float64 temporaries (about 20 KB a row) stay in a core's L2 cache
DESCRIBE_BLOCK = 64
# a central difference of uint8 pixels is one of 511 integers, -255..255
_DIFFS = 2 * 255 + 1


def _gradient_tables():
    """Gradient terms of every (dy, dx) pair of uint8 central differences.

    Entry ``(dy + 255) * 511 + (dx + 255)`` holds the magnitude, the
    fraction past the lower orientation bin and both orientation bins of the
    gradient (dx / 2, dy / 2), from the float64 expressions a per-window
    computation uses, on contiguous arrays as there. Built one dy row at a
    time to keep the transients small.
    """
    half = np.arange(-255, 256) / 2.0
    magnitude = np.empty((_DIFFS, _DIFFS))
    ofrac = np.empty((_DIFFS, _DIFFS))
    obin0 = np.empty((_DIFFS, _DIFFS), dtype=np.uint8)
    obin1 = np.empty((_DIFFS, _DIFFS), dtype=np.uint8)
    for i, gy_value in enumerate(half):
        gx, gy = half, np.full(_DIFFS, gy_value)
        magnitude[i] = np.hypot(gx, gy)
        orientation = np.mod(np.arctan2(gy, gx) / (2.0 * np.pi / ORIENTATION_BINS),
                             ORIENTATION_BINS)
        floor_bin = orientation.astype(np.int64)
        ofrac[i] = orientation - floor_bin
        # mod can round up to exactly ORIENTATION_BINS for tiny negative angles
        obin0[i] = floor_bin % ORIENTATION_BINS
        obin1[i] = (obin0[i] + 1) % ORIENTATION_BINS
    return magnitude.ravel(), ofrac.ravel(), obin0.ravel(), obin1.ravel()


_MAGNITUDE, _OFRAC, _OBIN0, _OBIN1 = _gradient_tables()

# spatial cells -1..CELLS land in a one-cell margin that is cropped after accumulation
_GRID = CELLS + 2


def _spatial_terms():
    """(16x16 weight, 16x16 offset of the cell's first bin) for the 4 cells each pixel feeds."""
    terms = []
    for dr in (0, 1):
        w_r = _CELL_HI_W if dr else 1.0 - _CELL_HI_W
        for dc in (0, 1):
            w_c = _CELL_HI_W if dc else 1.0 - _CELL_HI_W
            terms.append((w_r[:, None] * w_c[None, :],
                          ((_CELL_LO + 1 + dr)[:, None] * _GRID
                           + (_CELL_LO + 1 + dc)[None, :]) * ORIENTATION_BINS))
    return terms


_SPATIAL = _spatial_terms()


def _windows(level_img, rows, cols) -> np.ndarray:
    """The (n, 18, 18) uint8 windows around keypoints; the rim feeds the central differences."""
    img = np.asarray(level_img)
    if img.dtype != np.uint8:
        raise ViewretError(f"depth images must be uint8, got {img.dtype}")
    padded = np.pad(img, PATCH // 2 + 1)
    # a strided view of every window; indexing it copies only the n chosen ones
    every = np.lib.stride_tricks.sliding_window_view(padded, (WINDOW, WINDOW))
    return every[np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)]


def _describe_block(windows) -> np.ndarray:
    """Float64 descriptors of a block of uint8 windows, one per row."""
    win = windows.astype(np.int32)
    n = len(win)
    idx = ((win[:, 2:, 1:-1] - win[:, :-2, 1:-1] + 255) * _DIFFS
           + (win[:, 1:-1, 2:] - win[:, 1:-1, :-2] + 255))
    magnitude = _MAGNITUDE[idx] * _GAUSS
    ofrac = _OFRAC[idx]
    lower = 1.0 - ofrac
    kp_base = (np.arange(n) * _GRID * _GRID * ORIENTATION_BINS)[:, None, None]
    bin0 = kp_base + _OBIN0[idx]
    bin1 = kp_base + _OBIN1[idx]

    hist = np.zeros((n, _GRID, _GRID, ORIENTATION_BINS))
    flat = hist.reshape(-1)
    for spatial_w, cell_base in _SPATIAL:
        contrib = magnitude * spatial_w
        np.add.at(flat, (bin0 + cell_base).reshape(-1), (contrib * lower).reshape(-1))
        np.add.at(flat, (bin1 + cell_base).reshape(-1), (contrib * ofrac).reshape(-1))

    desc = hist[:, 1:-1, 1:-1].reshape(n, DESCRIPTOR_SIZE)
    norms = np.linalg.norm(desc, axis=1)
    live = norms > 0
    desc[live] /= norms[live, None]
    np.clip(desc, 0.0, COMPONENT_CLAMP, out=desc)
    norms = np.linalg.norm(desc, axis=1)
    live = norms > 0
    desc[live] /= norms[live, None]
    return desc


def describe(windows) -> np.ndarray:
    """(n, 128) float32 descriptors of (n, 18, 18) uint8 keypoint windows.

    Each row depends only on its own window, so describing in blocks of
    DESCRIBE_BLOCK rows gives the same values as describing all at once.
    """
    out = np.empty((len(windows), DESCRIPTOR_SIZE), dtype=np.float32)
    for start in range(0, len(windows), DESCRIBE_BLOCK):
        out[start:start + DESCRIBE_BLOCK] = _describe_block(windows[start:start + DESCRIBE_BLOCK])
    return out


def keypoint_windows(img, n_keypoints: int, decay: float, seed) -> np.ndarray:
    """Pyramid and keypoint sampling: (n, 18, 18) uint8 windows, levels in sampling order."""
    pyramid = build_pyramid(img)
    per_level = sample_keypoints(pyramid, n_keypoints, decay, seed)
    return np.concatenate([_windows(level_img, rows, cols)
                           for level_img, (rows, cols) in zip(pyramid, per_level)])


def extract_features(img, n_keypoints: int, decay: float, seed) -> np.ndarray:
    """The (n, 128) float32 descriptors of `keypoint_windows`; deterministic for a fixed seed."""
    return describe(keypoint_windows(img, n_keypoints, decay, seed))
