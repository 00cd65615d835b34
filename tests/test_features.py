import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (batch_descriptors, extract_features_per_level, keypoint_windows_oracle,
                     sample_keypoints_argwhere, windows_oracle)
from viewret.config import PipelineConfig
from viewret.encode import view_windows
from viewret.errors import ViewretError
from viewret import features
from viewret.features import (_CELL_HI_W, _CELL_LO, _GAUSS, _MAGNITUDE, _OBIN0, _OBIN1, _OFRAC,
                              CELLS, COMPONENT_CLAMP, DESCRIPTOR_SIZE, ORIENTATION_BINS, PATCH,
                              WINDOW, Keypoints, _windows, build_pyramid, cut_windows, describe,
                              sample_keypoints)


def descriptor(level_img, row, col):
    return batch_descriptors(level_img, [row], [col])[0]


def view_features(img, n_keypoints, decay, seed_prefix):
    """`describe` of one image's view as `view_windows` holds it: keypoint seed [*prefix, 0]."""
    config = PipelineConfig(n_keypoints=n_keypoints, keypoint_decay=decay)
    [view] = view_windows([img], config, seed_prefix)
    return describe(view[:])


class TestBuildPyramid:
    def test_level_count_256(self):
        pyr = build_pyramid(np.full((256, 256), 40, dtype=np.uint8))
        assert [lvl.shape[0] for lvl in pyr] == [256, 128, 64, 32]

    def test_level_count_32(self):
        assert len(build_pyramid(np.full((32, 32), 40, dtype=np.uint8))) == 1

    def test_constant_image_stays_constant(self):
        pyr = build_pyramid(np.full((128, 128), 128, dtype=np.uint8))
        for level in pyr:
            assert np.all(level == 128)

    def test_box_filter_mean(self):
        img = np.zeros((64, 64), dtype=np.uint8)
        img[0, 0] = 100
        img[0, 1] = 60
        img[1, 0] = 20
        img[1, 1] = 20
        pyr = build_pyramid(img)
        assert pyr[1][0, 0] == 50

    def test_odd_size_truncates(self):
        pyr = build_pyramid(np.full((65, 65), 70, dtype=np.uint8))
        assert [lvl.shape for lvl in pyr] == [(65, 65), (32, 32)]

    def test_too_small(self):
        with pytest.raises(ViewretError, match="pyramid base must be at least 32x32"):
            build_pyramid(np.full((16, 16), 9, dtype=np.uint8))


class TestSampleKeypoints:
    def test_decaying_counts(self):
        pyr = [np.full((s, s), 99, dtype=np.uint8) for s in (128, 64, 32)]
        per_level = sample_keypoints(pyr, 4, 2.0, seed=0)
        assert [len(rows) for rows, _ in per_level] == [4, 2, 1]

    def test_flat_counts(self):
        pyr = build_pyramid(np.full((256, 256), 50, dtype=np.uint8))
        per_level = sample_keypoints(pyr, 1000, 1.0, seed=1)
        assert [len(rows) for rows, _ in per_level] == [1000] * 4

    def test_clamped_to_available_foreground(self):
        img = np.zeros((32, 32), dtype=np.uint8)
        img[5, 6] = img[9, 9] = img[20, 3] = 255
        [(rows, cols)] = sample_keypoints([img], 10, 1.0, seed=2)
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(5, 6), (9, 9), (20, 3)]

    def test_keypoints_land_on_foreground(self):
        rng = np.random.default_rng(3)
        img = (rng.random((64, 64)) < 0.1).astype(np.uint8) * 200
        pyr = build_pyramid(img)
        for level_img, (rows, cols) in zip(pyr, sample_keypoints(pyr, 50, 1.0, seed=4)):
            assert np.all(level_img[rows, cols] > 0)

    def test_no_foreground(self):
        with pytest.raises(ViewretError, match="no pyramid level has any foreground pixel"):
            sample_keypoints([np.zeros((32, 32), dtype=np.uint8)], 10, 1.0, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        img = (rng.random((64, 64)) < 0.5).astype(np.uint8) * 120
        pyr = build_pyramid(img)
        a = sample_keypoints(pyr, 30, 1.5, seed=6)
        b = sample_keypoints(pyr, 30, 1.5, seed=6)
        assert len(a) == len(b) == len(pyr)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(1, 150), st.integers(1, 150),
           st.sampled_from([0.0, 0.001, 0.02, 0.5, 1.0]), st.integers(1, 500),
           st.sampled_from([1.0, 1.5, 2.0, 4.0, 300.0]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_the_argwhere_form(self, h, w, fill, n_keypoints, decay, levels, seed):
        # sparse to full foreground on odd shapes; a decay of 300 and faint pixels that vanish
        # when halved leave coarse levels with no keypoint
        rng = np.random.default_rng(seed)
        img = np.where(rng.random((h, w)) < fill, rng.integers(1, 4, (h, w)), 0).astype(np.uint8)
        img[rng.integers(h), rng.integers(w)] = 2
        pyramid = build_pyramid(img) if levels and min(h, w) >= 32 else [img, np.zeros_like(img)]
        got = sample_keypoints(pyramid, n_keypoints, decay, seed)
        want = sample_keypoints_argwhere(pyramid, n_keypoints, decay, seed)
        assert len(got) == len(want) == len(pyramid)
        for g, o in zip(got, want):
            assert g.dtype == np.uint16 and o.dtype == np.int64 and g.shape == o.shape
            assert np.array_equal(g, o)

    def test_the_last_row_and_column_of_a_level_2_to_the_16_wide_fit(self):
        img = np.zeros((2, 1 << 16), dtype=np.uint8)
        img[1, -1] = 7
        [(rows, cols)] = sample_keypoints([img], 4, 1.0, seed=0)
        assert rows.dtype == cols.dtype == np.uint16
        assert (rows.tolist(), cols.tolist()) == ([1], [(1 << 16) - 1])
        with pytest.raises(ViewretError, match="level 0 is more than 65536 pixels a side"):
            sample_keypoints([np.ones((1, (1 << 16) + 1), dtype=np.uint8)], 4, 1.0, seed=0)

    def test_holds_no_coordinate_per_foreground_pixel(self):
        # the argwhere form built an (m, 2) int64 array, 16 bytes a foreground pixel, to draw
        # 8 keypoints, and peaked at 33 bytes a pixel on this full 2048^2 level; a mask and m
        # flat indices take about 9
        img = np.full((2048, 2048), 200, dtype=np.uint8)
        pyramid = [img]
        m = img.size
        tracemalloc.start()
        try:
            [(rows, cols)] = sample_keypoints(pyramid, 8, 1.0, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == len(cols) == 8
        assert peak < 12 * m


class TestSiftDescriptor:
    def test_constant_patch_gives_zero_vector(self):
        img = np.full((40, 40), 90, dtype=np.uint8)
        assert np.all(descriptor(img, 20, 20) == 0.0)

    def test_offset_invariance(self):
        rng = np.random.default_rng(7)
        img = rng.integers(40, 200, size=(48, 48)).astype(np.uint8)
        a = descriptor(img, 24, 24)
        b = descriptor((img + 10).astype(np.uint8), 24, 24)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_vertical_step_edge_hits_single_orientation_bin(self):
        img = np.full((48, 48), 60, dtype=np.uint8)
        img[:, 24:] = 160
        desc = descriptor(img, 24, 24).reshape(4, 4, 8)
        assert desc.sum() > 0
        # gradient points along +x exactly, the center of orientation bin 0
        assert np.all(desc[:, :, 1:] == 0.0)

    def test_norm_and_component_bounds(self):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
        for _ in range(20):
            desc = descriptor(img, int(rng.integers(64)), int(rng.integers(64)))
            norm = np.linalg.norm(desc)
            assert norm == 0.0 or norm <= 1.0 + 1e-6
            assert desc.min() >= 0.0


class TestViewFeatures:
    """One image described as `view_windows` holds it, the path every command takes."""

    def test_all_background_raises(self):
        with pytest.raises(ViewretError, match="no pyramid level has any foreground pixel"):
            view_features(np.zeros((64, 64), dtype=np.uint8), 10, 1.0, [0])

    def test_feature_count_over_levels(self):
        img = np.full((256, 256), 33, dtype=np.uint8)
        feats = view_features(img, 1000, 1.0, [1])
        assert feats.shape == (4000, 128) and feats.dtype == np.float32

    @pytest.mark.parametrize("rung", [32, 64, 128, 256, 512, 1024])
    def test_matches_describing_each_level_apart(self, rung):
        from viewret.geometry import dodecahedron_viewpoints, normalize_mesh
        from viewret.render import render_mesh
        from viewret.scansim import make_cone

        mesh, _ = normalize_mesh(make_cone(radius=0.6, height=1.7))
        for v_idx in (0, 7, 13):
            img = render_mesh(mesh, dodecahedron_viewpoints()[v_idx], rung)
            for n_keypoints, decay in ((150, 1.0), (350, 2.0)):
                prefix = [rung, v_idx, n_keypoints]
                windows = keypoint_windows_oracle(img, n_keypoints, decay, [*prefix, 0])
                assert windows.dtype == np.uint8 and windows.shape[1:] == (WINDOW, WINDOW)
                want = extract_features_per_level(img, n_keypoints, decay, [*prefix, 0])
                got = view_features(img, n_keypoints, decay, prefix)
                assert got.dtype == want.dtype == np.float32 and len(got) == len(windows)
                assert got.tobytes() == want.tobytes()

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        img = (rng.random((64, 64)) < 0.7).astype(np.uint8) * rng.integers(1, 255, size=(64, 64)).astype(np.uint8)
        a = view_features(img, 64, 2.0, [10])
        b = view_features(img, 64, 2.0, [10])
        assert np.array_equal(a, b)

    def test_foreground_shift_leaves_descriptors_unchanged(self):
        # zero padding pins the area beyond the image at intensity 0, so the
        # shift invariance applies to patches that stay inside the image
        rng = np.random.default_rng(11)
        img = rng.integers(30, 200, size=(64, 64)).astype(np.uint8)  # fully foreground
        shifted = (img + 10).astype(np.uint8)
        pyr_a, pyr_b = build_pyramid(img), build_pyramid(shifted)
        per_level = sample_keypoints(pyr_a, 40, 1.0, seed=12)
        for (rows_a, cols_a), (rows_b, cols_b) in zip(per_level,
                                                      sample_keypoints(pyr_b, 40, 1.0, seed=12)):
            assert np.array_equal(rows_a, rows_b) and np.array_equal(cols_a, cols_b)
        margin = 10
        compared = 0
        for level_a, level_b, (rows, cols) in zip(pyr_a, pyr_b, per_level):
            size = level_a.shape[0]
            for r, c in zip(rows, cols):
                if margin <= r < size - margin and margin <= c < size - margin:
                    np.testing.assert_allclose(descriptor(level_a, r, c), descriptor(level_b, r, c),
                                               atol=1e-9)
                    compared += 1
        assert compared > 10


# --- the per-keypoint sampler and masked histogram they replaced ---------------

class Keypoint(NamedTuple):
    level: int
    row: int
    col: int


def sample_keypoints_oracle(pyramid, n_keypoints, decay, seed):
    rng = np.random.default_rng(seed)
    keypoints = []
    saw_foreground = False
    for level, img in enumerate(pyramid):
        foreground = np.argwhere(np.asarray(img) > 0)
        if len(foreground) == 0:
            continue
        saw_foreground = True
        want = int(np.rint(n_keypoints / decay ** level))
        take = min(want, len(foreground))
        if take < 1:
            continue
        chosen = rng.choice(len(foreground), size=take, replace=False)
        for idx in chosen:
            r, c = foreground[idx]
            keypoints.append(Keypoint(level, int(r), int(c)))
    if not saw_foreground:
        raise ViewretError("no pyramid level has any foreground pixel")
    return keypoints


def gradient_terms_oracle(gx, gy):
    """Magnitude, fraction past the lower orientation bin, and both bins, in float64."""
    orientation = np.mod(np.arctan2(gy, gx) / (2.0 * np.pi / ORIENTATION_BINS), ORIENTATION_BINS)
    floor_bin = orientation.astype(np.int64)
    obin0 = floor_bin % ORIENTATION_BINS
    return np.hypot(gx, gy), orientation - floor_bin, obin0, (obin0 + 1) % ORIENTATION_BINS


def batch_descriptors_oracle(level_img, rows, cols):
    """The 4x4 histogram with validity masks on the spatial bins, in float64."""
    padded = np.pad(np.asarray(level_img, dtype=np.float64), PATCH // 2 + 1)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n = len(rows)
    if n == 0:
        return np.zeros((0, DESCRIPTOR_SIZE))
    span = np.arange(PATCH + 2)
    win = padded[rows[:, None, None] + span[None, :, None],
                 cols[:, None, None] + span[None, None, :]]
    gx = (win[:, 1:-1, 2:] - win[:, 1:-1, :-2]) / 2.0
    gy = (win[:, 2:, 1:-1] - win[:, :-2, 1:-1]) / 2.0
    hypot, ofrac, obin0, obin1 = gradient_terms_oracle(gx, gy)
    magnitude = hypot * _GAUSS

    hist = np.zeros((n, CELLS, CELLS, ORIENTATION_BINS))
    flat = hist.reshape(-1)
    kp_base = (np.arange(n) * CELLS * CELLS * ORIENTATION_BINS)[:, None, None]
    for dr in (0, 1):
        cell_r = _CELL_LO + dr
        w_r = _CELL_HI_W if dr else 1.0 - _CELL_HI_W
        ok_r = (cell_r >= 0) & (cell_r < CELLS)
        for dc in (0, 1):
            cell_c = _CELL_LO + dc
            w_c = _CELL_HI_W if dc else 1.0 - _CELL_HI_W
            ok_c = (cell_c >= 0) & (cell_c < CELLS)
            ok = ok_r[:, None] & ok_c[None, :]
            if not ok.any():
                continue
            spatial_w = (w_r[:, None] * w_c[None, :]) * ok
            cell_base = (cell_r.clip(0, CELLS - 1)[:, None] * CELLS
                         + cell_c.clip(0, CELLS - 1)[None, :]) * ORIENTATION_BINS
            contrib = magnitude * spatial_w
            np.add.at(flat, (kp_base + cell_base + obin0).reshape(-1),
                      (contrib * (1.0 - ofrac)).reshape(-1))
            np.add.at(flat, (kp_base + cell_base + obin1).reshape(-1),
                      (contrib * ofrac).reshape(-1))

    desc = hist.reshape(n, DESCRIPTOR_SIZE)
    norms = np.linalg.norm(desc, axis=1)
    live = norms > 0
    desc[live] /= norms[live, None]
    np.clip(desc, 0.0, COMPONENT_CLAMP, out=desc)
    norms = np.linalg.norm(desc, axis=1)
    live = norms > 0
    desc[live] /= norms[live, None]
    return desc


def per_keypoint_features_oracle(img, n_keypoints, decay, seed):
    pyramid = build_pyramid(img)
    keypoints = sample_keypoints_oracle(pyramid, n_keypoints, decay, seed)
    out = np.zeros((len(keypoints), DESCRIPTOR_SIZE))
    for level, level_img in enumerate(pyramid):
        idx = [i for i, kp in enumerate(keypoints) if kp.level == level]
        if not idx:
            continue
        rows = [keypoints[i].row for i in idx]
        cols = [keypoints[i].col for i in idx]
        out[idx] = batch_descriptors_oracle(level_img, rows, cols)
    return out


@st.composite
def images_and_settings(draw):
    """An image, keypoint settings, and which levels of a sampler input to blank.

    Faint foreground (intensity 1) vanishes from the coarser levels, and a
    decay up to 4 with few keypoints rounds the coarser levels' share to 0.
    """
    h, w = draw(st.integers(32, 130)), draw(st.integers(32, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["dense", "sparse", "single", "faint"]))
    if kind == "single":
        mask = np.zeros((h, w), dtype=bool)
    else:
        mask = rng.random((h, w)) < {"dense": 0.9, "sparse": 0.02, "faint": 0.3}[kind]
    mask[rng.integers(h), rng.integers(w)] = True
    values = np.ones((h, w), dtype=np.int64) if kind == "faint" else rng.integers(1, 256, (h, w))
    img = np.where(mask, values, 0).astype(np.uint8)
    n_keypoints = draw(st.integers(1, 400))
    decay = draw(st.floats(1.0, 4.0))
    blank = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    return img, n_keypoints, decay, blank, draw(st.integers(0, 2 ** 32 - 1))


class TestAgainstKeypointOracle:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(images_and_settings())
    def test_features_and_keypoints_match(self, case):
        img, n_keypoints, decay, blank, seed = case
        want = per_keypoint_features_oracle(img, n_keypoints, decay, [seed, 0]).astype(np.float32)
        assert np.array_equal(view_features(img, n_keypoints, decay, [seed]), want)

        # the sampler takes any list of levels: here a blank level may come
        # before one with foreground, which no built pyramid has
        levels = [np.zeros_like(img) if b else img for b in blank]
        if all(blank):
            with pytest.raises(ViewretError, match="no pyramid level has any foreground pixel"):
                sample_keypoints(levels, n_keypoints, decay, seed)
            return
        per_level = sample_keypoints(levels, n_keypoints, decay, seed)
        oracle = sample_keypoints_oracle(levels, n_keypoints, decay, seed)
        assert len(per_level) == len(levels)
        for level, (rows, cols) in enumerate(per_level):
            kps = [kp for kp in oracle if kp.level == level]
            assert rows.tolist() == [kp.row for kp in kps]
            assert cols.tolist() == [kp.col for kp in kps]

    def test_single_keypoint_matches_masked_histogram(self):
        rng = np.random.default_rng(13)
        img = rng.integers(0, 256, size=(48, 48)).astype(np.uint8)
        for r, c in ((0, 0), (47, 47), (0, 47), (24, 24), (3, 44)):
            assert np.array_equal(descriptor(img, r, c), batch_descriptors_oracle(img, [r], [c])[0])


class TestGradientTables:
    def test_every_entry_matches_the_per_window_expressions(self):
        # every (dy, dx) pair as two uint8 pixel pairs whose differences realize it,
        # in the row-major order of the tables
        diffs = np.arange(-255, 256)
        low = np.maximum(-diffs, 0).astype(np.float64)
        dy, dx = np.meshgrid(diffs, diffs, indexing="ij")
        top, left = np.meshgrid(low, low, indexing="ij")
        gx = ((left + dx) - left) / 2.0
        gy = ((top + dy) - top) / 2.0
        hypot, ofrac, obin0, obin1 = gradient_terms_oracle(gx, gy)
        assert np.array_equal(_MAGNITUDE, hypot.ravel())
        assert np.array_equal(_OFRAC, ofrac.ravel())
        assert np.array_equal(_OBIN0, obin0.ravel())
        assert np.array_equal(_OBIN1, obin1.ravel())

    def test_resident_size(self):
        tables = (_MAGNITUDE, _OFRAC, _OBIN0, _OBIN1)
        assert sum(t.nbytes for t in tables) <= 5 * 2 ** 20

    def test_extreme_differences(self):
        # 2x2 blocks of 0 and 255: pixels two apart differ by +-255 along both axes
        img = ((np.indices((48, 48)) // 2).sum(axis=0) % 2 * 255).astype(np.uint8)
        img[::5] = 0
        for r, c in ((0, 0), (20, 21), (47, 46)):
            assert np.array_equal(descriptor(img, r, c), batch_descriptors_oracle(img, [r], [c])[0])


class TestKeypoints:
    """A held view's keypoints index like the array of every window they cut."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(32, 150), st.integers(1, 120), st.sampled_from([1.0, 2.0, 300.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_indexes_like_its_windows(self, side, n_keypoints, decay, seed):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(side, side), dtype=np.uint8)
        img[rng.random((side, side)) < 0.5] = 0
        img[0, 0] = 9
        pyramid = build_pyramid(img)
        per_level = sample_keypoints(pyramid, n_keypoints, decay, seed)
        windows = keypoint_windows_oracle(img, n_keypoints, decay, seed)
        held = Keypoints(img, per_level)
        n = len(windows)
        assert len(held) == n
        assert held.nbytes == img.nbytes + 4 * n
        indices = (slice(None), slice(1, None, 3), slice(n, None), np.sort(rng.choice(n, n // 2)),
                   rng.permutation(n), rng.integers(0, n, size=7), np.array([], dtype=np.int64))
        for index in indices:
            got = held[index]
            assert got.dtype == np.uint8 and got.flags.c_contiguous
            assert np.array_equal(got, windows[index])
            assert np.array_equal(cut_windows(pyramid, per_level, index), windows[index])

    def test_refuses_a_non_uint8_image_when_held(self):
        img = np.full((40, 40), 7.0)
        with pytest.raises(ViewretError, match="depth images must be uint8, got float64"):
            Keypoints(img, sample_keypoints(build_pyramid(img), 5, 1.0, 0))


class TestDescribe:
    def test_windows_are_uint8(self):
        img = np.full((40, 40), 7, dtype=np.uint8)
        win = _windows(img, [0, 39], [5, 39])
        assert win.dtype == np.uint8 and win.shape == (2, WINDOW, WINDOW)
        assert win[0, 0, 0] == 0 and win[1, 9, 9] == 7

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2 ** 32 - 1), st.integers(0, 40))
    def test_windows_match_the_index_arrays(self, h, w, seed, n):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        # two opposite corners, then random keypoints
        rows = np.concatenate(([0, h - 1], rng.integers(0, h, size=n)))
        cols = np.concatenate(([w - 1, 0], rng.integers(0, w, size=n)))
        win = _windows(img, rows, cols)
        assert win.dtype == np.uint8 and win.flags.c_contiguous
        assert np.array_equal(win, windows_oracle(img, rows, cols))
        assert _windows(img, [], []).shape == (0, WINDOW, WINDOW)

    def test_rejects_non_uint8_images(self):
        with pytest.raises(ValueError):
            _windows(np.full((40, 40), 7.0), [20], [20])

    def test_blocks_match_one_batch(self, monkeypatch):
        rng = np.random.default_rng(14)
        img = (rng.random((96, 96)) < 0.6).astype(np.uint8) * rng.integers(1, 256, size=(96, 96),
                                                                            dtype=np.uint8)
        windows = keypoint_windows_oracle(img, 120, 1.5, seed=15)
        whole = features._describe_block(windows).astype(np.float32)
        assert len(windows) > features.DESCRIBE_BLOCK
        assert np.array_equal(describe(windows), whole)
        monkeypatch.setattr(features, "DESCRIBE_BLOCK", 7)
        blocked = describe(windows)
        assert blocked.dtype == np.float32 and len(windows) > 7 * 3
        assert np.array_equal(blocked, whole)
