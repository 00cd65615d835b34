import numpy as np
import pytest

from oracles import extract_features_oracle, keypoint_windows_oracle, loo_database_oracle
from viewret.config import PipelineConfig
from viewret.errors import ViewretError
from viewret.evaluate import (CASES, RankedRetrieval, angular_error, make_synthetic_dataset,
                              make_viewpoint_scan_dataset, map_metric, ndcg_metric, nn_metric,
                              parse_cases, precision_recall_curve, run_benchmark,
                              viewpoint_error_experiment)
from viewret.features import DESCRIBE_BLOCK


def ranking(query_class, labels, base_distance=0.1):
    items = [(f"m{i}", cls, base_distance + 0.05 * i) for i, cls in enumerate(labels)]
    return RankedRetrieval(query_class=query_class, items=items)


class TestPrecisionRecallCurve:
    def test_two_relevant_ranked_first(self):
        points = precision_recall_curve(ranking(1, [1, 1, 0, 0]))
        assert points == [(0.5, 1.0), (1.0, 1.0), (1.0, 2 / 3), (1.0, 0.5)]

    def test_single_relevant_item(self):
        assert precision_recall_curve(ranking(1, [1])) == [(1.0, 1.0)]

    def test_precision_bounds_and_recall_monotone(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            labels = list(rng.integers(0, 2, size=10))
            if sum(labels) == 0:
                labels[0] = 1
            points = precision_recall_curve(ranking(1, labels))
            recalls = [r for r, _ in points]
            assert all(0 <= p <= 1 for _, p in points)
            assert recalls == sorted(recalls)

    def test_no_relevant(self):
        with pytest.raises(ViewretError, match="ranking has no relevant items"):
            precision_recall_curve(ranking(1, [0, 0]))


class TestNnMetric:
    def test_three_of_four(self):
        results = [ranking(1, [1, 0]), ranking(1, [1, 0]), ranking(1, [1, 0]), ranking(1, [0, 1])]
        assert nn_metric(results) == 75.0

    def test_all_correct(self):
        assert nn_metric([ranking(2, [2, 0])] * 5) == 100.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(45)
        results = [ranking(int(rng.integers(3)), list(rng.integers(0, 3, size=6)))
                   for _ in range(40)]
        want = 100.0 * sum(r.items[0][1] == r.query_class for r in results) / len(results)
        assert nn_metric(results) == want


def naive_average_precision(labels, query_class):
    hits, precs = 0, []
    for rank, cls in enumerate(labels, start=1):
        if cls == query_class:
            hits += 1
            precs.append(hits / rank)
    return sum(precs) / len(precs) if precs else 0.0


class TestMapMetric:
    def test_perfect(self):
        results = [ranking(c, [c, c, 1 - c]) for c in (0, 1)]
        assert map_metric(results) == 100.0

    def test_hand_example(self):
        # relevant at ranks 1 and 3 of 3
        value = map_metric([ranking(1, [1, 0, 1])])
        assert value == pytest.approx(100.0 * (1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(46)
        results = [ranking(int(rng.integers(3)), list(rng.integers(0, 3, size=8)))
                   for _ in range(60)]
        per_class = {}
        for r in results:
            labels = [cls for _, cls, _ in r.items]
            per_class.setdefault(r.query_class, []).append(
                naive_average_precision(labels, r.query_class))
        want = 100.0 * np.mean([np.mean(v) for v in per_class.values()])
        assert map_metric(results) == pytest.approx(want, abs=1e-12)


class TestNdcgMetric:
    def test_perfect(self):
        assert ndcg_metric([ranking(1, [1, 1, 0])]) == pytest.approx(100.0, abs=1e-12)

    def test_hand_example(self):
        value = ndcg_metric([ranking(1, [0, 1, 1])])
        dcg = 1 / np.log2(3) + 1 / np.log2(4)
        idcg = 1.0 + 1 / np.log2(3)
        assert value == pytest.approx(100.0 * dcg / idcg, abs=1e-9)
        assert value == pytest.approx(69.34, abs=0.01)

    def test_no_relevant_scores_zero(self):
        assert ndcg_metric([ranking(1, [0, 0])]) == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(47)
        results = [ranking(int(rng.integers(2)), list(rng.integers(0, 2, size=7)))
                   for _ in range(50)]
        scores = []
        for r in results:
            rel = [1 if cls == r.query_class else 0 for _, cls, _ in r.items]
            dcg = sum(v / np.log2(i + 1) for i, v in enumerate(rel, start=1))
            ideal = sorted(rel, reverse=True)
            idcg = sum(v / np.log2(i + 1) for i, v in enumerate(ideal, start=1))
            scores.append(dcg / idcg if idcg > 0 else 0.0)
        want = 100.0 * np.mean(scores)
        assert ndcg_metric(results) == pytest.approx(want, abs=1e-12)

    def test_all_metrics_saturate_together(self):
        results = [ranking(c, [c, c, 1 - c, 1 - c]) for c in (0, 1) for _ in range(3)]
        assert nn_metric(results) == 100.0
        assert map_metric(results) == 100.0
        assert ndcg_metric(results) == pytest.approx(100.0, abs=1e-12)


class TestAngularError:
    def test_identical(self):
        assert angular_error([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 0.0

    def test_orthogonal(self):
        assert angular_error([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == pytest.approx(np.pi / 2)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            u, v, w = rng.normal(size=(3, 3))
            u, v, w = (x / np.linalg.norm(x) for x in (u, v, w))
            assert angular_error(u, v) == angular_error(v, u)
            assert angular_error(u, w) <= angular_error(u, v) + angular_error(v, w) + 1e-12


class TestCases:
    def test_the_six_cases_their_sources_rungs_and_tags(self):
        # the tags seed each case's query keypoints, so they may not change
        assert list(CASES.items()) == [
            ("gt-prop", ("ground_truth", None, 0)),
            ("gt-fixed", ("ground_truth", 256, 1)),
            ("prop-prop", ("proposed", None, 10)),
            ("prop-fixed", ("proposed", 256, 11)),
            ("ransac-prop", ("ransac", None, 20)),
            ("ransac-fixed", ("ransac", 256, 21))]

    def test_names_parse_in_the_order_given(self):
        assert parse_cases(reversed(CASES)) == list(reversed(CASES))

    @pytest.mark.parametrize("names", [["gt-gt"], ["prop-prop", "guessed"],
                                       ["prop-prop", "prop-prop", "gt-gt"]])
    def test_unknown_case(self, names):
        unknown = names[-1]
        with pytest.raises(ViewretError, match=(
                f"^unknown case '{unknown}'; expected one of gt-prop,gt-fixed,prop-prop,"
                f"prop-fixed,ransac-prop,ransac-fixed$")):
            parse_cases(names)


class TestDatasets:
    def test_synthetic_dataset_shape(self):
        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=1, step_deg=1.0)
        assert len(ds) == 4
        assert sorted({e.class_id for e in ds}) == [0, 1]
        for e in ds:
            assert len(e.cloud) > 50
            assert abs(np.linalg.norm(e.gt_viewpoint) - 1.0) <= 1e-9

    def test_viewpoint_dataset_has_ground_truth(self):
        ds = make_viewpoint_scan_dataset(n_scans=4, seed=2, step_deg=1.0)
        assert len(ds) == 4
        for e in ds:
            assert e.gt_viewpoint is not None


def micro_config(seed=0):
    return PipelineConfig(n_keypoints=40, keypoint_decay=2.0, gaussians=2,
                          resolutions=(32, 64), gmm_sample_cap=4000, seed=seed)


def loo_reference(dataset, name, config, seed):
    """The former leave-one-out loop, with its own pooling, encoding and cosine ranking.

    Returns one ``[(model_id, distance), ...]`` ranking per query.
    """
    from viewret.encode import fisher_vector, fit_gmm
    from viewret.evaluate import _prepare_scan
    from viewret.geometry import dodecahedron_viewpoints
    from viewret.render import render_point_cloud
    from viewret.select import best_resolution_for_viewpoint

    source, fixed, tag = CASES[name]
    states = [_prepare_scan(entry, i, config, seed) for i, entry in enumerate(dataset)]
    per_instance = []
    for index, state in enumerate(states):
        rung = state.r_proposed if fixed is None else fixed
        images = [render_point_cloud(state.points, v, rung) for v in dodecahedron_viewpoints()]
        per_instance.append([np.asarray(extract_features_oracle(img, config.n_keypoints,
                                                                config.keypoint_decay,
                                                                seed=[seed, 13, index, view_id]),
                                        dtype=np.float32)
                             for view_id, img in enumerate(images)])
    pooled = np.concatenate([f for feats in per_instance for f in feats], axis=0)
    if len(pooled) > config.gmm_sample_cap:
        keep = np.random.default_rng([seed, 17]).choice(len(pooled), size=config.gmm_sample_cap,
                                                        replace=False)
        pooled = pooled[np.sort(keep)]
    gmm = fit_gmm(pooled, config.gaussians, seed=[seed, 19])
    db = [np.stack([fisher_vector(f, gmm) for f in feats]) for feats in per_instance]

    rankings = []
    for index, (entry, state) in enumerate(zip(dataset, states)):
        v_query = {"ground_truth": entry.gt_viewpoint, "proposed": state.v_proposed,
                   "ransac": state.v_ransac}[source]
        if fixed is not None:
            r_query = fixed
        elif source == "proposed":
            r_query = state.r_proposed
        else:
            r_query = best_resolution_for_viewpoint(state.points, v_query, config.resolutions)
        feats = extract_features_oracle(render_point_cloud(state.points, v_query, r_query),
                                        config.n_keypoints, config.keypoint_decay,
                                        seed=[seed, 23, tag, index])
        q_desc = fisher_vector(feats, gmm)
        items = []
        for other_idx, other in enumerate(dataset):
            if other_idx == index:
                continue
            mat = db[other_idx]
            cos = np.clip((mat @ q_desc) / (np.linalg.norm(mat, axis=1) * np.linalg.norm(q_desc)),
                          -1.0, 1.0)
            items.append((other.model_id, float((1.0 - cos).min())))
        items.sort(key=lambda it: it[1])
        rankings.append(items)
    return rankings


class TestRunBenchmark:
    def test_report_structure_and_determinism(self):
        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=3, step_deg=0.8)
        a = run_benchmark(ds, ["prop-prop"], micro_config(), seed=3)
        b = run_benchmark(ds, ["prop-prop"], micro_config(), seed=3)
        assert set(a.cases) == {"prop-prop"}
        metrics = a.cases["prop-prop"].metrics
        assert set(metrics) == {"nn", "map", "ndcg"}
        assert all(0.0 <= v <= 100.0 for v in metrics.values())
        assert metrics == b.cases["prop-prop"].metrics
        rows_a = list(a.rows())
        rows_b = list(b.rows())
        assert rows_a == rows_b

    def test_threads_do_not_change_results(self):
        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=4, step_deg=0.8)
        a = run_benchmark(ds, ["prop-prop"], micro_config(), seed=4, threads=1)
        b = run_benchmark(ds, ["prop-prop"], micro_config(), seed=4, threads=4)
        assert list(a.rows()) == list(b.rows())

    def test_threads_start_no_thread(self, monkeypatch):
        import threading

        def refuse(self):
            raise AssertionError("run_benchmark started a thread")

        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=4, step_deg=0.8)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        report = run_benchmark(ds, ["prop-prop"], micro_config(), seed=4, threads=4)
        assert set(report.cases) == {"prop-prop"}

    def test_matches_former_leave_one_out_loop(self):
        ds = make_synthetic_dataset(n_classes=2, scans_per_class=3, seed=9, step_deg=0.8)
        config = micro_config().override(gmm_sample_cap=1500, ransac_iterations=200)
        cases = ["gt-prop", "prop-prop", "ransac-fixed"]
        report = run_benchmark(ds, cases, config, seed=9)
        classes = {e.model_id: e.class_id for e in ds}
        for name in cases:
            want = loo_reference(ds, name, config, seed=9)
            got = report.cases[name].retrievals
            assert len(got) == len(want) == len(ds)
            for retrieval, reference, entry in zip(got, want, ds):
                assert retrieval.query_class == entry.class_id
                assert [m for m, _, _ in retrieval.items] == [m for m, _ in reference]
                assert all(cls == classes[m] for m, cls, _ in retrieval.items)
                np.testing.assert_allclose([d for _, _, d in retrieval.items],
                                           [d for _, d in reference], rtol=0, atol=1e-6)

    def test_a_fixed_case_leaves_the_proposed_cases_unchanged(self):
        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=6, step_deg=0.8)
        alone = run_benchmark(ds, ["prop-prop"], micro_config(), seed=6)
        both = run_benchmark(ds, ["prop-fixed", "prop-prop"], micro_config(), seed=6)
        assert list(both.cases) == ["prop-fixed", "prop-prop"]
        assert list(alone.rows()) == [row for row in both.rows() if row[0] == "prop-prop"]
        assert alone.cases["prop-prop"].retrievals == both.cases["prop-prop"].retrievals

    @pytest.mark.parametrize("cases, message", [
        ([], "no case requested"),
        (["prop-prop", "prop-prop"], "case prop-prop is requested twice"),
        (["gt-fixed", "prop-prop", "gt-fixed"], "case gt-fixed is requested twice"),
    ])
    def test_no_case_or_a_repeated_one_is_refused_before_any_scan(self, cases, message,
                                                                  monkeypatch):
        from viewret import evaluate

        def refuse(*args, **kwargs):
            raise AssertionError("a scan was prepared")

        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=4, step_deg=1.0)
        monkeypatch.setattr(evaluate, "_prepare_scan", refuse)
        with pytest.raises(ViewretError, match=f"^{message}$"):
            run_benchmark(ds, cases, micro_config(), seed=4)

    @pytest.mark.parametrize("change, message", [
        (dict(class_id=1.5), "scan 1: class id 1.5 is not an integer"),
        (dict(class_id=-2), r"scan 1: class id -2 is outside \[0, "),
        (dict(model_id="box 0"), "scan 1: model id is empty or holds whitespace"),
        (dict(model_id=""), "scan 1: model id is empty or holds whitespace"),
        (dict(model_id=5), "scan 1: model id 5 is not a string")])
    def test_an_id_no_database_can_store_is_refused_before_any_scan(self, change, message,
                                                                     monkeypatch):
        from viewret import evaluate

        def refuse(*args, **kwargs):
            raise AssertionError("a scan was prepared")

        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=4, step_deg=1.0)
        for name, value in change.items():
            setattr(ds[1], name, value)
        monkeypatch.setattr(evaluate, "_prepare_scan", refuse)
        with pytest.raises(ViewretError, match=f"^{message}"):
            run_benchmark(ds, ["prop-prop"], micro_config(), seed=4)

    def test_a_rung_too_small_to_describe_is_refused_before_any_scan(self, monkeypatch):
        from viewret import evaluate

        def refuse(*args, **kwargs):
            raise AssertionError("a scan was prepared")

        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=4, step_deg=1.0)
        monkeypatch.setattr(evaluate, "_prepare_scan", refuse)
        with pytest.raises(ViewretError, match=r"^resolutions rung 8 is outside \[32, 8192\]"):
            run_benchmark(ds, ["prop-prop"], micro_config().override(resolutions=(8, 32)), seed=4)

    def test_duplicate_model_ids_rejected(self):
        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=10, step_deg=1.0)
        ds[2].model_id = ds[0].model_id
        with pytest.raises(ValueError, match="unique"):
            run_benchmark(ds, ["prop-prop"], micro_config(), seed=10)

    @pytest.mark.parametrize("n_classes", [-1, 0, 5])
    def test_class_count_outside_the_makers_is_refused(self, n_classes):
        with pytest.raises(ValueError, match="n_classes must be 1 to 4"):
            make_synthetic_dataset(n_classes=n_classes, scans_per_class=1)

    @pytest.mark.parametrize("scans_per_class", [-1, 0])
    def test_no_scans_per_class_is_refused(self, scans_per_class):
        with pytest.raises(ValueError, match="scans_per_class must be at least 1"):
            make_synthetic_dataset(n_classes=1, scans_per_class=scans_per_class)

    def test_one_scan_has_no_database(self):
        ds = make_synthetic_dataset(n_classes=1, scans_per_class=1, seed=5, step_deg=1.0)
        with pytest.raises(ViewretError):
            run_benchmark(ds, ["prop-prop"], micro_config(), seed=5)

    def test_missing_ground_truth(self):
        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=5, step_deg=1.0)
        ds[1].gt_viewpoint = None
        with pytest.raises(ViewretError, match="case gt-prop needs ground truth, but "):
            run_benchmark(ds, ["gt-prop"], micro_config(), seed=5)


class TestLooDatabase:
    """run_benchmark's mixture and database against describing, holding and pooling every view."""

    SEED = 3

    @pytest.fixture(scope="class")
    def scans(self):
        from viewret.evaluate import _prepare_scan
        from viewret.geometry import dodecahedron_viewpoints
        from viewret.render import render_point_cloud

        ds = make_synthetic_dataset(n_classes=2, scans_per_class=2, seed=self.SEED, step_deg=0.8)
        config = micro_config().override(ransac_iterations=100)
        images = [[render_point_cloud(state.points, v, state.r_proposed)
                   for v in dodecahedron_viewpoints()]
                  for state in (_prepare_scan(e, i, config, self.SEED) for i, e in enumerate(ds))]
        total = sum(len(keypoint_windows_oracle(img, config.n_keypoints, config.keypoint_decay,
                                                seed=[self.SEED, 13, index, v_idx]))
                    for index, views in enumerate(images) for v_idx, img in enumerate(views))
        return ds, config, images, total

    def test_pool_spans_many_describe_blocks(self, scans):
        assert scans[3] > 10 * DESCRIBE_BLOCK

    @pytest.mark.parametrize("cap", ["in-one-block", "over-blocks", "equal", "above"])
    def test_matches_the_oracle_byte_for_byte(self, scans, cap, monkeypatch):
        from viewret import evaluate

        ds, config, images, total = scans
        config = config.override(gmm_sample_cap={
            "in-one-block": DESCRIBE_BLOCK // 2, "over-blocks": 5 * DESCRIBE_BLOCK + 17,
            "equal": total, "above": total + 1}[cap])
        fitted, queried = [], []

        def fit_gmm(features, *args, **kwargs):
            fitted.append((len(features), evaluate_fit_gmm(features, *args, **kwargs)))
            return fitted[-1][1]

        def query_db(db, *args, **kwargs):
            queried.append(db)
            return evaluate_query_db(db, *args, **kwargs)

        evaluate_fit_gmm, evaluate_query_db = evaluate.fit_gmm, evaluate.query_db
        monkeypatch.setattr(evaluate, "fit_gmm", fit_gmm)
        monkeypatch.setattr(evaluate, "query_db", query_db)
        run_benchmark(ds, ["prop-prop"], config, seed=self.SEED)
        want_gmm, want_db = loo_database_oracle(ds, images, config, self.SEED)

        assert len(fitted) == 1 and fitted[0][0] == min(config.gmm_sample_cap, total)
        gmm = fitted[0][1]
        for name in ("weights", "means", "sigmas"):
            assert getattr(gmm, name).tobytes() == getattr(want_gmm, name).tobytes()
        assert gmm.log_likelihoods == want_gmm.log_likelihoods
        assert len(queried) == len(ds) and all(db is queried[0] for db in queried)
        def rows(db):
            return [(e.model_id, e.class_id, e.viewpoint_id, e.descriptor.dtype,
                     e.descriptor.tobytes()) for e in db.entries]

        assert len(queried[0].entries) == 20 * len(ds) and rows(queried[0]) == rows(want_db)

    @pytest.mark.parametrize("name", ["prop-prop", "gt-fixed"])
    def test_queries_match_the_one_image_extractor_byte_for_byte(self, scans, name,
                                                                 monkeypatch):
        from viewret import evaluate
        from viewret.encode import fisher_vector
        from viewret.evaluate import _prepare_scan
        from viewret.render import render_point_cloud

        ds, config, _, _ = scans
        queried, fitted = [], []

        def query_db(db, descriptor, *args, **kwargs):
            queried.append(descriptor)
            return evaluate_query_db(db, descriptor, *args, **kwargs)

        def fit_gmm(*args, **kwargs):
            fitted.append(evaluate_fit_gmm(*args, **kwargs))
            return fitted[-1]

        evaluate_fit_gmm, evaluate_query_db = evaluate.fit_gmm, evaluate.query_db
        monkeypatch.setattr(evaluate, "fit_gmm", fit_gmm)
        monkeypatch.setattr(evaluate, "query_db", query_db)
        _, rung, tag = CASES[name]
        run_benchmark(ds, [name], config, seed=self.SEED)
        assert len(fitted) == 1 and len(queried) == len(ds)
        for index, (entry, descriptor) in enumerate(zip(ds, queried)):
            state = _prepare_scan(entry, index, config, self.SEED)
            img = (render_point_cloud(state.points, state.v_proposed, state.r_proposed)
                   if name == "prop-prop" else
                   render_point_cloud(state.points, entry.gt_viewpoint, rung))
            feats = extract_features_oracle(img, config.n_keypoints, config.keypoint_decay,
                                            [self.SEED, 23, tag, index])
            want = fisher_vector(feats, fitted[0])
            assert descriptor.dtype == want.dtype == np.float64
            assert descriptor.tobytes() == want.tobytes()


class TestViewpointErrorExperiment:
    def test_runs_and_reports_both_methods(self):
        ds = make_viewpoint_scan_dataset(n_scans=2, seed=7, step_deg=0.8)
        cfg = PipelineConfig(resolutions=(64, 128), ransac_iterations=100)
        errs = viewpoint_error_experiment(ds, cfg, seed=7)
        assert len(errs["proposed"]) == len(errs["ransac"]) == 2
        assert np.all(errs["proposed"] >= 0) and np.all(errs["proposed"] <= np.pi)

    def test_requires_ground_truth(self):
        ds = make_viewpoint_scan_dataset(n_scans=2, seed=8, step_deg=1.0)
        ds[0].gt_viewpoint = None
        with pytest.raises(ViewretError, match="has no ground-truth viewpoint"):
            viewpoint_error_experiment(ds, PipelineConfig(resolutions=(64,)), seed=8)
