"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Everything is seeded, so the suite is deterministic.
"""

import time

import numpy as np
import pytest

from viewret.cli import run
from viewret.config import PipelineConfig
from viewret.encode import GmmParams, _fisher_gradients, fit_gmm, gmm_posteriors
from viewret.evaluate import (RankedRetrieval, desk_benchmark_config, make_synthetic_dataset,
                              make_viewpoint_scan_dataset, map_metric, ndcg_metric,
                              run_benchmark, viewpoint_error_experiment)
from viewret.geometry import camera_frame
from viewret.render import render_point_cloud
from viewret.select import multiview_ring, score_grid, select_viewpoint

SEED = 42


def check(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def ball_cloud(rng, n):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / 3.0)


@pytest.fixture(scope="module")
def viewpoint_experiment():
    start = time.monotonic()
    dataset = make_viewpoint_scan_dataset(n_scans=12, seed=SEED)
    config = PipelineConfig(resolutions=(64, 128, 256))
    errors = viewpoint_error_experiment(dataset, config, seed=SEED)
    return errors, time.monotonic() - start


@pytest.fixture(scope="module")
def bench_report():
    start = time.monotonic()
    dataset = make_synthetic_dataset(n_classes=4, scans_per_class=5, seed=SEED)
    config = desk_benchmark_config(seed=SEED)
    report = run_benchmark(dataset, ["gt-prop", "prop-prop", "ransac-prop"], config, seed=SEED)
    return report, time.monotonic() - start


class TestCriterion1:
    def test_viewpoint_selection_beats_ransac(self, viewpoint_experiment):
        errors, elapsed = viewpoint_experiment
        proposed = float(errors["proposed"].mean())
        ransac = float(errors["ransac"].mean())
        ok = proposed <= 0.35 and proposed <= 0.5 * ransac and elapsed < 300.0
        check(1, f"viewpoint error: proposed {proposed:.3f} rad vs ransac {ransac:.3f} rad "
                 f"over {len(errors['proposed'])} scans in {elapsed:.0f}s "
                 f"(need <=0.35 and <=half of ransac, <300s)", ok)


class TestCriterion2:
    def test_retrieval_sanity(self, bench_report):
        report, elapsed = bench_report
        metrics = report.cases["prop-prop"].metrics
        ok = metrics["nn"] >= 90.0 and metrics["map"] >= 80.0 and elapsed < 600.0
        check(2, f"prop-prop retrieval: NN {metrics['nn']:.1f}% mAP {metrics['map']:.1f}% "
                 f"in {elapsed:.0f}s (need NN>=90, mAP>=80, <600s)", ok)


class TestCriterion3:
    def test_case_ordering(self, bench_report):
        report, _ = bench_report
        nn = {name: report.cases[name].metrics["nn"]
              for name in ("gt-prop", "prop-prop", "ransac-prop")}
        ok = nn["gt-prop"] >= nn["prop-prop"] >= nn["ransac-prop"]
        check(3, f"NN ordering gt {nn['gt-prop']:.1f} >= prop {nn['prop-prop']:.1f} "
                 f">= ransac {nn['ransac-prop']:.1f}", ok)


class TestCriterion4:
    def test_quantity_density_oracles(self):
        rng = np.random.default_rng(SEED)
        exact = 0
        for _ in range(100):
            n = int(rng.integers(50, 800))
            points = ball_cloud(rng, n)
            view = rng.normal(size=3)
            view /= np.linalg.norm(view)
            resolution = int(rng.choice([16, 32, 64]))

            frame = camera_frame(view)
            buckets = set()
            for p in points:
                col = min(max(int(np.floor((p @ frame.right + 1) / 2 * resolution)), 0),
                          resolution - 1)
                row = min(max(int(np.floor((1 - (p @ frame.up + 1) / 2) * resolution)), 0),
                          resolution - 1)
                buckets.add((row, col))
            mask = np.zeros((resolution, resolution), dtype=bool)
            for row, col in buckets:
                mask[row, col] = True
            connected = 0
            h, w = mask.shape
            for r in range(h):
                for c in range(w):
                    if mask[r, c] and all(
                            0 <= r + dr < h and 0 <= c + dc < w and mask[r + dr, c + dc]
                            for dr in (-1, 0, 1) for dc in (-1, 0, 1)):
                        connected += 1

            render_ok = np.array_equal(render_point_cloud(points, view, resolution) > 0, mask)
            grid = score_grid(points, [view], (resolution,))
            q_ok = grid.quantity[0, 0] == len(buckets) / n
            d_ok = grid.density[0, 0] == connected / len(buckets)
            exact += render_ok and q_ok and d_ok
        check(4, f"rendered foreground and score-grid Q/D match brute-force oracles exactly "
                 f"on {exact}/100 clouds", exact == 100)


class TestCriterion5:
    def test_fisher_vector_oracle(self):
        rng = np.random.default_rng(SEED + 1)
        dim = 128
        worst = 0.0
        for _ in range(50):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(1, 101))
            gmm = GmmParams(weights=rng.dirichlet(np.ones(k) * 5),
                            means=rng.normal(size=(k, dim)),
                            sigmas=rng.uniform(0.5, 2.0, size=(k, dim)))
            x = rng.normal(size=(n, dim))
            got = _fisher_gradients(x, gmm)

            parts = []
            for kk in range(k):
                u = np.zeros(dim)
                v = np.zeros(dim)
                for i in range(n):
                    q = gmm_posteriors(x[i], gmm)[kk]
                    z = (x[i] - gmm.means[kk]) / gmm.sigmas[kk]
                    u += q * z
                    v += q * (z * z - 1.0) / np.sqrt(2.0)
                parts.append(u / (n * np.sqrt(gmm.weights[kk])))
                parts.append(v / (n * np.sqrt(gmm.weights[kk])))
            want = np.concatenate(parts)
            scale = np.abs(want).max()
            worst = max(worst, float(np.abs(got - want).max() / max(scale, 1e-300)))
        check(5, f"fisher vectors match the naive gradient oracle "
                 f"(worst relative deviation {worst:.2e}, need <=1e-10)", worst <= 1e-10)


class TestCriterion6:
    def test_em_monotonic(self):
        rng = np.random.default_rng(SEED + 2)
        violations = 0
        for trial in range(20):
            k = int(rng.integers(1, 6))
            blobs = [rng.normal(rng.uniform(-4, 4, size=6), rng.uniform(0.2, 1.0),
                                size=(int(rng.integers(30, 80)), 6)) for _ in range(k)]
            gmm = fit_gmm(np.concatenate(blobs), k, seed=trial)
            trace = np.asarray(gmm.log_likelihoods)
            if not np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1])):
                violations += 1
        check(6, f"EM log-likelihood non-decreasing in {20 - violations}/20 fits",
              violations == 0)


class TestCriterion7:
    def test_quantity_grows_with_resolution(self):
        rng = np.random.default_rng(SEED + 3)
        wins = 0
        for _ in range(20):
            n = int(rng.integers(5000, 9000))
            points = ball_cloud(rng, n)
            grid = score_grid(points, None, (32, 64, 128, 256, 512))
            row = select_viewpoint(grid, points)
            wins += grid.quantity[row, 0] <= grid.quantity[row, -1]
        check(7, f"Q(32) <= Q(512) at the selected viewpoint on {wins}/20 clouds "
                 f"(need >=18)", wins >= 18)


class TestCriterion8:
    def test_bench_determinism(self, tmp_path):
        reports = []
        for name, threads in (("a", 1), ("b", 1), ("c", 8)):
            config = tmp_path / f"bench-{name}.cfg"
            config.write_text("n_keypoints=60\ngaussians=4\nresolutions=32,64\ngmm_sample_cap=5000\n"
                              f"threads={threads}\n")
            out = tmp_path / f"report-{name}.csv"
            pr = tmp_path / f"pr-{name}.csv"
            code = run(["bench", "--cases", "gt-prop,prop-prop,ransac-prop",
                        "--classes", "2", "--scans-per-class", "2",
                        "--config", str(config), "--seed", "11",
                        "--report", str(out), "--pr-data", str(pr)])
            assert code == 0
            reports.append(out.read_bytes() + pr.read_bytes())
        ok = reports[0] == reports[1] and reports[0] == reports[2]
        check(8, "bench output byte-identical across reruns and across threads 1 vs 8", ok)


class TestCriterion9:
    def test_metric_oracles(self):
        rng = np.random.default_rng(SEED + 4)
        results = []
        for _ in range(100):
            n_classes = int(rng.integers(2, 4))
            labels = list(rng.integers(0, n_classes, size=int(rng.integers(3, 12))))
            query_class = int(rng.integers(0, n_classes))
            items = [(f"m{i}", cls, 0.1 * i) for i, cls in enumerate(labels)]
            results.append(RankedRetrieval(query_class=query_class, items=items))

        per_class = {}
        ndcgs = []
        for r in results:
            rel = [1 if cls == r.query_class else 0 for _, cls, _ in r.items]
            hits, precs = 0, []
            for rank, flag in enumerate(rel, start=1):
                if flag:
                    hits += 1
                    precs.append(hits / rank)
            per_class.setdefault(r.query_class, []).append(
                sum(precs) / len(precs) if precs else 0.0)
            dcg = sum(v / np.log2(i + 1) for i, v in enumerate(rel, start=1))
            ideal = sorted(rel, reverse=True)
            idcg = sum(v / np.log2(i + 1) for i, v in enumerate(ideal, start=1))
            ndcgs.append(dcg / idcg if idcg > 0 else 0.0)
        map_want = 100.0 * np.mean([np.mean(v) for v in per_class.values()])
        ndcg_want = 100.0 * np.mean(ndcgs)

        map_diff = abs(map_metric(results) - map_want)
        ndcg_diff = abs(ndcg_metric(results) - ndcg_want)

        hand_map = map_metric([RankedRetrieval(1, [("a", 1, 0.1), ("b", 0, 0.2), ("c", 1, 0.3)])])
        hand_ndcg = ndcg_metric([RankedRetrieval(1, [("a", 0, 0.1), ("b", 1, 0.2), ("c", 1, 0.3)])])
        hand_ok = (abs(hand_map - 100.0 * (1.0 + 2.0 / 3.0) / 2.0) <= 1e-9
                   and abs(hand_ndcg - 100.0 * (1 / np.log2(3) + 0.5) / (1.0 + 1 / np.log2(3))) <= 1e-9)
        ok = map_diff <= 1e-12 and ndcg_diff <= 1e-12 and hand_ok
        check(9, f"mAP/NDCG match naive oracles (diffs {map_diff:.1e}/{ndcg_diff:.1e}) "
                 f"and hand examples reproduce", ok)


class TestCriterion10:
    def test_multiview_ring_geometry(self):
        rng = np.random.default_rng(SEED + 5)
        ok = True
        for _ in range(5):
            center = rng.normal(size=3)
            center /= np.linalg.norm(center)
            ring = multiview_ring(center)
            ok &= ring.shape == (13, 3)
            ok &= bool(np.array_equal(ring[0], center))
            angles = np.arccos(np.clip(ring[1:] @ center, -1, 1))
            ok &= bool(np.abs(angles - np.radians(40.0)).max() <= 1e-6)
        check(10, "multi-view ring: 13 views, 12 of them at 40 deg +/- 1e-6 from the center", ok)
