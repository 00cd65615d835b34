import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (cosine_distance, extract_features_oracle, gmm_posteriors,
                     keypoint_windows_oracle, pool_features_oracle)
from viewret import encode
from viewret.config import PipelineConfig
from viewret.encode import (VARIANCE_FLOOR, DescriptorDb, GmmParams, _fisher_gradients,
                            _kmeans_plus_plus, _log_joint, build_db, encode_views,
                            fisher_vector, fisher_vectors, fit_gmm, pool_database_features,
                            pool_features, query_db, view_windows)
from viewret.errors import ViewretError
from viewret.evaluate import desk_benchmark_config
from viewret.features import (DESCRIBE_BLOCK, DESCRIPTOR_SIZE, WINDOW, Keypoints, build_pyramid,
                              cut_windows, describe, sample_keypoints)
from viewret.geometry import dodecahedron_viewpoints, normalize_mesh
from viewret.render import render_mesh
from viewret.scansim import make_box, make_cone
from viewret.select import RANSAC_TOLERANCE


def random_gmm(rng, k, dim):
    return GmmParams(weights=np.full(k, 1.0 / k),
                     means=rng.normal(size=(k, dim)),
                     sigmas=rng.uniform(0.5, 2.0, size=(k, dim)))


def log_joint_oracle(x, gmm):
    """Per-component log(w_k * N(x | mu_k, diag sigma_k^2)), shape (n, K)."""
    n, d = x.shape
    out = np.empty((n, gmm.n_components))
    for k in range(gmm.n_components):
        z = (x - gmm.means[k]) / gmm.sigmas[k]
        out[:, k] = (np.log(gmm.weights[k]) - 0.5 * d * np.log(2.0 * np.pi)
                     - np.log(gmm.sigmas[k]).sum() - 0.5 * (z * z).sum(axis=1))
    return out


def posteriors_oracle(x, gmm):
    """Per-component posteriors (n, K) and log p(x) per row, in log space."""
    logj = log_joint_oracle(x, gmm)
    m = logj.max(axis=1)
    lse = m + np.log(np.exp(logj - m[:, None]).sum(axis=1))
    return np.exp(logj - lse[:, None]), lse


def fisher_oracle(features, gmm):
    """Literal per-feature, per-component accumulation of the gradient formulas."""
    x = np.asarray(features, dtype=np.float64)
    n = len(x)
    k = gmm.n_components
    post = posteriors_oracle(x, gmm)[0]
    parts = []
    for kk in range(k):
        u = np.zeros(gmm.dim)
        v = np.zeros(gmm.dim)
        for i in range(n):
            q = post[i, kk]
            z = (x[i] - gmm.means[kk]) / gmm.sigmas[kk]
            u += q * z
            v += q * (1.0 / np.sqrt(2.0)) * (z * z - 1.0)
        parts.append(u / (n * np.sqrt(gmm.weights[kk])))
        parts.append(v / (n * np.sqrt(gmm.weights[kk])))
    return np.concatenate(parts)


def fit_gmm_oracle(features, n_components, seed=0, max_iterations=25, tol=1e-5):
    """EM with a loop over the components in the start, the E-step, the M-step and the re-seed."""
    x = np.asarray(features, dtype=np.float64)
    n, d = x.shape
    rng = np.random.default_rng(seed)
    means = _kmeans_plus_plus(x, n_components, rng)
    dist2 = np.stack([((x - means[k]) ** 2).sum(axis=1) for k in range(n_components)], axis=1)
    assign = dist2.argmin(axis=1)
    global_var = np.maximum(x.var(axis=0), VARIANCE_FLOOR)
    weights = np.empty(n_components)
    variances = np.empty((n_components, d))
    for k in range(n_components):
        members = x[assign == k]
        if len(members) == 0:
            weights[k] = 1.0
            variances[k] = global_var
        else:
            weights[k] = len(members)
            means[k] = members.mean(axis=0)
            variances[k] = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
    gmm = GmmParams(weights=weights / weights.sum(), means=means, sigmas=np.sqrt(variances))
    trace = gmm.log_likelihoods
    previous = None
    reinitialized = False
    for _ in range(max_iterations):
        resp, lse = posteriors_oracle(x, gmm)
        ll = float(lse.sum())
        trace.append(ll)
        if previous is not None and abs(ll - previous) < tol * abs(previous):
            break
        previous = ll
        mass = resp.sum(axis=0)
        dead = mass < n * 1e-12
        if dead.any():
            if reinitialized:
                raise ViewretError("component responsibility mass underflowed twice")
            reinitialized = True
            worst = int(np.argmin(lse))
            for k in np.nonzero(dead)[0]:
                gmm.means[k] = x[worst]
                gmm.sigmas[k] = np.sqrt(global_var)
                gmm.weights[k] = 1.0 / n
            gmm.weights /= gmm.weights.sum()
            continue
        gmm.weights = mass / n
        for k in range(n_components):
            q = resp[:, k:k + 1]
            mu = (q * x).sum(axis=0) / mass[k]
            var = (q * (x - mu) ** 2).sum(axis=0) / mass[k]
            gmm.means[k] = mu
            gmm.sigmas[k] = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
    return gmm


def assert_same_fit(got, want):
    assert len(got.log_likelihoods) == len(want.log_likelihoods)
    np.testing.assert_allclose(got.log_likelihoods, want.log_likelihoods, rtol=1e-8)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-8)
    np.testing.assert_allclose(got.means, want.means, rtol=1e-8)
    np.testing.assert_allclose(got.sigmas, want.sigmas, rtol=1e-8)


def blobs(rng, k, dim, spread):
    """k Gaussian blobs with centres in [0, 1]^dim and standard deviation ``spread``."""
    return np.concatenate([rng.normal(rng.uniform(0.0, 1.0, size=dim), spread,
                                      size=(int(rng.integers(15, 40)), dim))
                           for _ in range(k)])


class TestFitGmm:
    @pytest.mark.parametrize("spread", [0.02, 0.5], ids=["separated", "overlapping"])
    @pytest.mark.parametrize("dim", [4, 16, 128])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_per_component_oracle(self, k, dim, spread):
        rng = np.random.default_rng([k, dim, int(spread * 100)])
        x = blobs(rng, k, dim, spread)
        assert_same_fit(fit_gmm(x, k, seed=k), fit_gmm_oracle(x, k, seed=k))

    def test_dead_component_is_reseeded(self):
        # k-means++ draws a duplicate centre, whose cluster stays empty and
        # whose responsibility mass then underflows
        x = np.concatenate([np.zeros((100, 4)), np.full((100, 4), 5.0)])
        gmm = fit_gmm(x, 3, seed=0)
        assert len(gmm.log_likelihoods) == 2
        # start weights (100, 100, 1) / 201; the re-seed sets the dead one to
        # 1/n and renormalizes
        reseeded = (1.0 / len(x)) / (200.0 / 201.0 + 1.0 / len(x))
        assert gmm.weights.min() == pytest.approx(reseeded, rel=1e-12)
        np.testing.assert_allclose(gmm.sigmas[np.argmin(gmm.weights)], 2.5, rtol=1e-12)
        assert_same_fit(gmm, fit_gmm_oracle(x, 3, seed=0))

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(25)
        a = rng.normal(0.0, 0.05, size=(120, 4))
        b = rng.normal(5.0, 0.05, size=(80, 4))
        gmm = fit_gmm(np.concatenate([a, b]), 2, seed=0)
        centroids = sorted([a.mean(axis=0), b.mean(axis=0)], key=lambda c: c[0])
        fitted = sorted(gmm.means, key=lambda c: c[0])
        np.testing.assert_allclose(fitted[0], centroids[0], atol=1e-3)
        np.testing.assert_allclose(fitted[1], centroids[1], atol=1e-3)
        np.testing.assert_allclose(sorted(gmm.weights), [0.4, 0.6], atol=0.02)

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(200, 6)) * 2.0 + 1.0
        gmm = fit_gmm(x, 1, seed=0)
        assert gmm.weights[0] == 1.0
        np.testing.assert_allclose(gmm.means[0], x.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(gmm.sigmas[0] ** 2, np.maximum(x.var(axis=0), 1e-6), atol=1e-9)

    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(27)
        for trial in range(5):
            k = int(rng.integers(1, 5))
            x = np.concatenate([rng.normal(rng.uniform(-3, 3), rng.uniform(0.3, 1.0),
                                           size=(rng.integers(40, 90), 5))
                                for _ in range(k)])
            gmm = fit_gmm(x, k, seed=trial)
            trace = np.asarray(gmm.log_likelihoods)
            assert len(trace) >= 2
            assert np.all(np.diff(trace) >= -1e-9 * np.abs(trace[:-1]))

    def test_deterministic(self):
        rng = np.random.default_rng(28)
        x = rng.normal(size=(150, 4))
        a = fit_gmm(x, 3, seed=5)
        b = fit_gmm(x, 3, seed=5)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.sigmas, b.sigmas)

    def test_too_few_features(self):
        with pytest.raises(ViewretError, match="need at least 20 features for K=2, got 19"):
            fit_gmm(np.zeros((19, 4)), 2, seed=0)

    def test_default_parameter_set(self):
        config = PipelineConfig()
        assert config.gaussians == 256
        assert config.n_keypoints == 1000
        assert config.keypoint_decay == 1.0
        assert len(config.resolutions) == 8
        assert config.ransac_iterations == 1000
        assert RANSAC_TOLERANCE == 0.01
        assert config.db_resolution == 256
        assert config.seed == 42


class TestGmmParams:
    """A mixture is checked where it is built, so no stage can encode with a broken one."""

    def test_weights_that_do_not_match_the_means_are_refused_before_encoding(self):
        with pytest.raises(ViewretError, match="mixture needs"):
            fisher_vector(np.ones((3, 4)), GmmParams(np.full(2, 0.5), np.zeros((1, 4)),
                                                      np.ones((1, 4))))

    def test_zero_sigma_is_refused_before_encoding(self):
        sigmas = np.ones((2, 4))
        sigmas[1, 2] = 0.0
        with pytest.raises(ViewretError, match="mixture sigmas must be finite and positive"):
            fisher_vector(np.ones((3, 4)), GmmParams(np.full(2, 0.5), np.zeros((2, 4)), sigmas))

    @pytest.mark.parametrize("weights, means, sigmas, message", [
        (np.ones(1), np.zeros(4), np.ones(4), "mixture needs"),
        (np.ones(1), np.zeros((1, 4)), np.ones((1, 3)), "mixture needs"),
        (np.ones(0), np.zeros((0, 4)), np.ones((0, 4)), "mixture shape K=0, D=4 is empty"),
        (np.ones(2), np.zeros((2, 0)), np.ones((2, 0)), "mixture shape K=2, D=0 is empty"),
        (np.array([0.5, -0.5]), np.zeros((2, 4)), np.ones((2, 4)), "weights must be finite"),
        (np.ones(1), np.full((1, 4), np.inf), np.ones((1, 4)), "means must be finite"),
        (np.ones(1), np.zeros((1, 4)), np.full((1, 4), np.nan), "sigmas must be finite"),
        (np.array(["1"]), np.zeros((1, 4)), np.ones((1, 4)), "must be real numbers"),
    ])
    def test_refusals(self, weights, means, sigmas, message):
        with pytest.raises(ViewretError, match=message):
            GmmParams(weights, means, sigmas)

    def test_float64_arrays_are_held_as_given(self):
        weights, means, sigmas = np.ones(1), np.zeros((1, 4)), np.ones((1, 4))
        gmm = GmmParams(weights, means, sigmas)
        assert gmm.weights is weights and gmm.means is means and gmm.sigmas is sigmas
        widened = GmmParams(*(a.astype(np.float32) for a in (weights, means, sigmas)))
        assert all(a.dtype == np.float64 for a in (widened.weights, widened.means, widened.sigmas))


class TestGmmPosteriors:
    def test_single_component(self):
        gmm = random_gmm(np.random.default_rng(29), 1, 8)
        np.testing.assert_array_equal(gmm_posteriors(np.zeros(8), gmm), [1.0])

    def test_collapses_onto_matching_component(self):
        dim = 8
        gmm = GmmParams(weights=np.array([0.5, 0.5]),
                        means=np.stack([np.zeros(dim), np.full(dim, 50.0)]),
                        sigmas=np.ones((2, dim)))
        q = gmm_posteriors(np.zeros(dim), gmm)
        assert q[0] >= 1.0 - 1e-12
        assert q[1] <= 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(30)
        gmm = random_gmm(rng, 5, 12)
        x = rng.normal(size=(40, 12)) * 10
        q = gmm_posteriors(x, gmm)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)


class TestFisherVector:
    def test_features_at_mean_single_component(self):
        dim = 16
        gmm = GmmParams(weights=np.array([1.0]),
                        means=np.zeros((1, dim)),
                        sigmas=np.ones((1, dim)))
        raw = _fisher_gradients(np.zeros((7, dim)), gmm)
        np.testing.assert_allclose(raw[:dim], 0.0, atol=1e-15)
        np.testing.assert_allclose(raw[dim:], -1.0 / np.sqrt(2.0), atol=1e-12)

    def test_duplicated_features_change_nothing(self):
        rng = np.random.default_rng(31)
        gmm = random_gmm(rng, 3, 10)
        x = rng.normal(size=(1, 10))
        once = _fisher_gradients(x, gmm)
        tenfold = _fisher_gradients(np.repeat(x, 10, axis=0), gmm)
        np.testing.assert_allclose(once, tenfold, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(3):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(2, 40))
            gmm = random_gmm(rng, k, 9)
            x = rng.normal(size=(n, 9))
            got = _fisher_gradients(x, gmm)
            want = fisher_oracle(x, gmm)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_normalized_output_is_unit(self):
        rng = np.random.default_rng(33)
        gmm = random_gmm(rng, 4, 8)
        d = fisher_vector(rng.normal(size=(30, 8)), gmm)
        assert abs(np.linalg.norm(d) - 1.0) <= 1e-9

    def test_is_the_gradients_power_and_l2_normalized(self):
        rng = np.random.default_rng(35)
        gmm = random_gmm(rng, 4, 8)
        x = rng.normal(size=(30, 8))
        g = _fisher_gradients(x, gmm)
        powered = np.sign(g) * np.sqrt(np.abs(g))
        assert np.array_equal(fisher_vector(x, gmm), powered / np.linalg.norm(powered))

    def test_empty_feature_set(self):
        gmm = random_gmm(np.random.default_rng(34), 2, 8)
        with pytest.raises(ViewretError, match="cannot encode an empty feature set"):
            fisher_vector(np.zeros((0, 8)), gmm)


EPS = np.finfo(np.float64).eps


@st.composite
def features_and_mixture(draw):
    """Features in [0, 1] and a mixture with means in [0, 1] and sigmas of at least 1e-3."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0)
    x = draw(hnp.arrays(np.float64, (n, dim), elements=unit))
    weights = draw(hnp.arrays(np.float64, k, elements=st.floats(1e-3, 1.0)))
    return x, GmmParams(weights=weights / weights.sum(),
                        means=draw(hnp.arrays(np.float64, (k, dim), elements=unit)),
                        sigmas=draw(hnp.arrays(np.float64, (k, dim),
                                               elements=st.floats(1e-3, 2.0))))


# one feature between two narrow components: a near-one-hot posterior
NEAR_ONE_HOT = (np.array([[0.4, 0.5]]),
                GmmParams(weights=np.array([0.3, 0.7]),
                          means=np.array([[0.4, 0.5], [0.41, 0.5]]),
                          sigmas=np.full((2, 2), 1e-3)))


class TestAgainstPerComponentForms:
    """The statistics forms agree with the per-component loops within a rounding bound.

    The expanded forms cancel terms as large as ((|x| + |mu|) / sigma)^2, so
    every bound is a multiple of the double-precision epsilon times that size.
    """

    @staticmethod
    def reach(x, gmm):
        """(|x| + |mu_k|) / sigma_k, shape (n, K, D)."""
        return (np.abs(x)[:, None, :] + np.abs(gmm.means)) / gmm.sigmas

    def bounds(self, x, gmm):
        """Oracle log-joint and posteriors with their absolute and relative error bounds.

        A log-joint error moves posterior k by its own error plus the
        posterior-weighted mean error of its row.
        """
        logj = log_joint_oracle(x, gmm)
        logj_bound = 4 * (gmm.dim + 4) * EPS * ((self.reach(x, gmm) ** 2).sum(axis=2)
                                                + np.abs(logj))
        q = posteriors_oracle(x, gmm)[0]
        q_rtol = logj_bound + (q * logj_bound).sum(axis=1, keepdims=True) + 8 * EPS
        return logj, logj_bound, q, q_rtol

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(features_and_mixture())
    @example(NEAR_ONE_HOT)
    def test_log_joint_and_posteriors(self, case):
        x, gmm = case
        logj, logj_bound, q, q_rtol = self.bounds(x, gmm)
        assert np.all(np.abs(_log_joint(x, x * x, gmm) - logj) <= logj_bound)
        assert np.all(np.abs(gmm_posteriors(x, gmm) - q) <= q_rtol * q + 1e-300)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(features_and_mixture())
    @example(NEAR_ONE_HOT)
    def test_fisher_vector(self, case):
        x, gmm = case
        n = len(x)
        _, _, q, q_rtol = self.bounds(x, gmm)
        # posterior error plus rounding of the n-term sums
        weight = (q * (q_rtol + (2 * n + 8) * EPS))[:, :, None]
        reach = self.reach(x, gmm)
        u_bound = (weight * reach).sum(axis=0) / (n * np.sqrt(gmm.weights))[:, None]
        v_bound = ((weight * (reach * reach + 1.0)).sum(axis=0)
                   / (n * np.sqrt(2 * gmm.weights))[:, None])
        bound = np.stack([u_bound, v_bound], axis=1).ravel()
        got = _fisher_gradients(x, gmm)
        assert np.all(np.abs(got - fisher_oracle(x, gmm)) <= bound + 1e-300)


class TestCosineDistance:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(v, v) <= 1e-12

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 5.0]) == pytest.approx(1.0, abs=1e-12)

    def test_opposite(self):
        assert cosine_distance([1.0, -2.0], [-1.0, 2.0]) == pytest.approx(2.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ViewretError, match="undefined for zero vectors"):
            cosine_distance([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ViewretError, match="descriptor sizes differ"):
            cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])


def tiny_config(seed=0):
    return PipelineConfig(n_keypoints=40, keypoint_decay=2.0, gaussians=2,
                          resolutions=(32, 64), db_resolution=64,
                          gmm_sample_cap=5000, seed=seed)


# the shortest descriptor a `DescriptorDb` holds: one component's mean and deviation gradients
DIM = 2 * DESCRIPTOR_SIZE


class TestBuildAndQueryDb:
    def make_gmm(self, rng):
        feats = np.abs(rng.normal(size=(60, 128))) * 0.05
        return fit_gmm(feats, 2, seed=0)

    def test_mesh_yields_twenty_entries(self):
        rng = np.random.default_rng(35)
        db = build_db([("box", 0, make_box())], self.make_gmm(rng), tiny_config())
        assert len(db.entries) == 20
        assert sorted(e.viewpoint_id for e in db.entries) == list(range(20))

    def test_default_db_resolution(self):
        assert PipelineConfig().db_resolution == 256

    def test_rejects_empty_and_duplicate_model_lists(self):
        rng = np.random.default_rng(99)
        gmm = self.make_gmm(rng)
        with pytest.raises(ValueError):
            build_db([], gmm, tiny_config())
        cloud = rng.normal(size=(100, 3))
        with pytest.raises(ValueError):
            build_db([("same", 0, cloud), ("same", 1, cloud)], gmm, tiny_config())

    def test_rebuild_is_identical(self):
        rng = np.random.default_rng(36)
        gmm = self.make_gmm(rng)
        cloud = rng.normal(size=(500, 3))
        a = build_db([("m", 1, cloud)], gmm, tiny_config(seed=9))
        b = build_db([("m", 1, cloud)], gmm, tiny_config(seed=9))
        for ea, eb in zip(a.entries, b.entries):
            assert np.array_equal(ea.descriptor, eb.descriptor)

    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(37)
        from viewret.encode import DbEntry
        descs = rng.normal(size=(6, DIM)).astype(np.float32)
        db = DescriptorDb(entries=[DbEntry(f"m{i}", i % 2, 0, d) for i, d in enumerate(descs)])
        ranking = query_db(db, descs[3][None, :], top_k=3)
        assert ranking[0][0] == "m3"
        assert ranking[0][1] <= 1e-6

    def test_top_k_overflow_returns_everything(self):
        rng = np.random.default_rng(38)
        from viewret.encode import DbEntry
        db = DescriptorDb(entries=[DbEntry(f"m{i}", 0, 0, rng.normal(size=DIM).astype(np.float32))
                                   for i in range(4)])
        assert len(query_db(db, rng.normal(size=(1, DIM)), top_k=100)) == 4

    def test_top_k_below_one_rejected(self):
        rng = np.random.default_rng(38)
        from viewret.encode import DbEntry
        db = DescriptorDb(entries=[DbEntry(f"m{i}", 0, 0, rng.normal(size=DIM).astype(np.float32))
                                   for i in range(4)])
        for top_k in (0, -1):
            with pytest.raises(ValueError):
                query_db(db, rng.normal(size=(1, DIM)), top_k=top_k)

    def test_matches_exhaustive_pairwise_oracle(self):
        rng = np.random.default_rng(39)
        from viewret.encode import DbEntry
        contiguous = [DbEntry(f"m{i}", 0, v, rng.normal(size=DIM).astype(np.float32))
                      for i in range(3) for v in range(2)]
        cases = [(contiguous, rng.normal(size=(2, DIM)))]
        # each model's rows scattered through the database, and 13 query rows (a --multiview query)
        interleaved = [DbEntry(f"m{i}", 0, v, rng.normal(size=DIM).astype(np.float32))
                       for v in range(3) for i in (2, 0, 3, 1)]
        cases.append((interleaved, rng.normal(size=(13, DIM))))
        for entries, queries in cases:
            ranking = query_db(DescriptorDb(entries=entries), queries)
            expect = {}
            for entry in entries:
                for q in queries:
                    d = cosine_distance(q, entry.descriptor)
                    expect[entry.model_id] = min(expect.get(entry.model_id, np.inf), d)
            want = sorted(expect.items(), key=lambda kv: kv[1])
            assert [m for m, _ in ranking] == [m for m, _ in want]
            np.testing.assert_allclose([d for _, d in ranking], [d for _, d in want], atol=1e-12)

    def test_zero_norm_database_row_is_refused_where_the_database_is_built(self):
        rng = np.random.default_rng(41)
        from viewret.encode import DbEntry
        entries = [DbEntry(f"m{i}", 0, v, rng.normal(size=DIM).astype(np.float32))
                   for i in range(3) for v in range(2)]
        entries[3].descriptor[:] = 0.0
        with pytest.raises(ViewretError, match="^entry 3: descriptor is not finite and non-zero in float32$"):
            DescriptorDb(entries=entries)

    def test_tied_distances_keep_database_model_order(self):
        rng = np.random.default_rng(42)
        from viewret.encode import DbEntry
        near, far = rng.normal(size=(2, DIM)).astype(np.float32)
        entries = [DbEntry("z", 0, 0, near), DbEntry("a", 0, 0, far), DbEntry("m", 0, 0, near),
                   DbEntry("b", 0, 0, near.copy())]
        ranking = query_db(DescriptorDb(entries=entries), near[None, :])
        assert [m for m, _ in ranking] == ["z", "m", "b", "a"]
        assert ranking[0][1] == ranking[1][1] == ranking[2][1] < ranking[3][1]
        assert ranking[3][1] == pytest.approx(cosine_distance(near, far), abs=1e-12)

    def test_ranking_invariant_under_descriptor_scaling(self):
        rng = np.random.default_rng(40)
        from viewret.encode import DbEntry
        descs = rng.normal(size=(5, DIM)).astype(np.float32)
        q = rng.normal(size=(1, DIM))
        db1 = DescriptorDb(entries=[DbEntry(f"m{i}", 0, 0, d) for i, d in enumerate(descs)])
        db2 = DescriptorDb(entries=[DbEntry(f"m{i}", 0, 0, d * 7.5) for i, d in enumerate(descs)])
        assert [m for m, _ in query_db(db1, q)] == [m for m, _ in query_db(db2, 2.0 * q)]

    def test_empty_db(self):
        with pytest.raises(ViewretError, match="^descriptor database is empty$"):
            DescriptorDb(entries=[])

    def test_descriptors_of_two_lengths_are_refused_before_any_query(self):
        from viewret.encode import DbEntry
        with pytest.raises(ViewretError, match="^entry 1: descriptors must be 1-D real arrays that share one length"):
            query_db(DescriptorDb(entries=[DbEntry("a", 0, 0, np.ones(DIM, dtype=np.float32)),
                                           DbEntry("b", 0, 0, np.ones(2 * DIM, dtype=np.float32))]),
                     np.ones((1, DIM)))

    def test_descriptors_are_held_read_only_and_not_copied(self):
        from viewret.encode import DbEntry
        descriptor = np.ones(DIM, dtype=np.float32)
        db = DescriptorDb(entries=[DbEntry("a", 0, 0, descriptor)])
        assert isinstance(db.entries, tuple) and db.entries[0].descriptor is descriptor
        with pytest.raises(ValueError, match="read-only"):
            descriptor[0] = 0.0


# --- the pool it replaced: describe every view, then sample the rows ----------

def pool_database_features_oracle(models, config):
    feats = [extract_features_oracle(img, config.n_keypoints, config.keypoint_decay,
                                     seed=[config.seed, m_idx, v_idx])
             for m_idx, (_, _, geometry) in enumerate(models)
             for v_idx, img in enumerate(encode.database_views(geometry, config))]
    pooled = np.concatenate(feats, axis=0)
    if len(pooled) > config.gmm_sample_cap:
        keep = np.random.default_rng([config.seed, 0x9001]).choice(
            len(pooled), size=config.gmm_sample_cap, replace=False)
        pooled = pooled[np.sort(keep)]
    return pooled


class TestPoolDatabaseFeatures:
    @pytest.fixture(scope="class")
    def models(self):
        rng = np.random.default_rng(41)
        return [("box", 0, make_box()),
                ("cone", 1, make_cone(radius=0.6, height=1.7)),
                ("cloud", 2, rng.normal(size=(600, 3)) * [1.0, 0.7, 0.4])]

    @pytest.fixture(scope="class")
    def total_rows(self, models):
        return len(pool_database_features_oracle(models, tiny_config().override(
            gmm_sample_cap=10 ** 9)))

    def test_pool_spans_many_describe_blocks(self, total_rows):
        assert total_rows > 10 * DESCRIBE_BLOCK

    @pytest.mark.parametrize("cap", ["in-one-block", "over-blocks", "equal", "above"])
    def test_matches_describe_then_sample(self, models, total_rows, cap):
        cap = {"in-one-block": DESCRIBE_BLOCK // 2, "over-blocks": 5 * DESCRIBE_BLOCK + 17,
               "equal": total_rows, "above": total_rows + 1}[cap]
        config = tiny_config(seed=3).override(gmm_sample_cap=cap)
        got = pool_database_features(models, config)
        want = pool_database_features_oracle(models, config)
        assert got.dtype == want.dtype == np.float32
        assert got.shape == (min(cap, total_rows), 128)
        assert np.array_equal(got, want)

    def test_blank_view_is_refused_naming_its_model_and_view(self, models, monkeypatch):
        views = encode.database_views

        def one_blank(geometry, config):
            images = list(views(geometry, config))
            images[7] = np.zeros_like(images[7])
            return images

        monkeypatch.setattr(encode, "database_views", one_blank)
        # the former pool named neither; skipping the view would renumber the views after it
        with pytest.raises(ViewretError, match="^no pyramid level has any foreground pixel$"):
            pool_database_features_oracle(models, tiny_config())
        gmm = random_gmm(np.random.default_rng(40), 2, DESCRIPTOR_SIZE)
        for build in (lambda: pool_database_features(models, tiny_config()),
                      lambda: build_db(models, gmm, tiny_config())):
            with pytest.raises(ViewretError, match="^model box: view 7 renders no pixel$"):
                build()


class TestDatabaseViews:
    def test_views_are_rendered_one_at_a_time(self):
        # twenty 2048^2 views held at once came to 161.6 MiB here; one at a time, the peak is
        # one render and its keypoint sampling
        config = tiny_config().override(db_resolution=2048, n_keypoints=8)
        views = encode.database_views(make_box(), config)
        assert not isinstance(views, list)
        tracemalloc.start()
        try:
            pooled = pool_database_features([("box", 0, make_box())], config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pooled) > 0 and peak < 100 * 2 ** 20


class TestPoolFeatures:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=12), st.integers(1, 300),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_concatenate_then_sample(self, lengths, cap, seed):
        rng = np.random.default_rng(seed)
        windows = [rng.integers(0, 256, size=(n, WINDOW, WINDOW), dtype=np.uint8)
                   for n in lengths]
        pooled = np.concatenate(windows)
        if len(pooled) > cap:
            keep = np.random.default_rng([seed, 17]).choice(len(pooled), size=cap, replace=False)
            pooled = pooled[np.sort(keep)]
        got = pool_features(iter(windows), cap, [seed, 17])
        assert got.dtype == np.float32 and got.tobytes() == describe(pooled).tobytes()

    def test_no_chunks(self):
        with pytest.raises(ValueError):
            pool_features([], 10, seed=0)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_a_cap_below_one_is_refused_before_any_view_is_made(self, cap):
        def views():
            raise AssertionError("a view was made")
            yield

        with pytest.raises(ViewretError, match=f"gmm_sample_cap must be at least 1, got {cap}"):
            pool_features(views(), cap, seed=0)


def view_image(rng, side, faint):
    """A random depth image; faint pixels (1 or 2) vanish from the coarser pyramid levels."""
    top = 3 if faint else 256
    img = rng.integers(0, top, size=(side, side), dtype=np.uint8)
    img[rng.random((side, side)) < rng.uniform(0.2, 0.9)] = 0
    img[side // 2, side // 2] = 1
    return img


def held_view(img, n_keypoints, decay, seed, as_windows):
    """A view held as the windows or the keypoints of `view_windows`, whichever is asked for."""
    pyramid = build_pyramid(img)
    per_level = sample_keypoints(pyramid, n_keypoints, decay, seed)
    return cut_windows(pyramid, per_level) if as_windows else Keypoints(pyramid[0], per_level)


@st.composite
def views_and_caps(draw):
    """Views of random images, held as keypoints or windows, some with empty levels; a cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    specs = draw(st.lists(st.tuples(st.integers(32, 140), st.booleans(), st.integers(1, 200),
                                    st.sampled_from([1.0, 2.0, 300.0]), st.booleans()),
                          min_size=1, max_size=8))
    views, windows = [], []
    for index, (side, faint, n_keypoints, decay, as_windows) in enumerate(specs):
        img = view_image(rng, side, faint)
        views.append(held_view(img, n_keypoints, decay, [index], as_windows))
        windows.append(keypoint_windows_oracle(img, n_keypoints, decay, [index]))
    total = sum(len(w) for w in windows)
    cap = draw(st.one_of(st.integers(1, total), st.integers(total, 2 * total + 1)))
    return views, windows, cap


class TestPoolFromKeypoints:
    """`pool_features` over held views against holding every view's cut windows."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(views_and_caps(), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_window_pool_byte_for_byte(self, drawn, seed):
        views, windows, cap = drawn
        got = pool_features(iter(views), cap, [seed, 17])
        want = pool_features_oracle(windows, cap, [seed, 17])
        assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cap", ["in-one-block", "over-blocks", "equal", "above"])
    def test_a_cap_over_many_blocks_and_empty_levels(self, cap):
        rng = np.random.default_rng(29)
        views, windows = [], []
        for index in range(12):
            img = view_image(rng, 128 if index % 3 else 300, faint=index % 4 == 1)
            decay = 300.0 if index % 5 == 2 else 1.5
            views.append(held_view(img, 150, decay, [index], as_windows=index % 2 == 0))
            windows.append(keypoint_windows_oracle(img, 150, decay, [index]))
        levels = [v.per_level for v in views if isinstance(v, Keypoints)]
        assert any(kp.shape[1] == 0 for per_level in levels for kp in per_level)
        total = sum(len(w) for w in windows)
        assert total > 20 * DESCRIBE_BLOCK
        cap = {"in-one-block": DESCRIBE_BLOCK // 2, "over-blocks": 13 * DESCRIBE_BLOCK + 5,
               "equal": total, "above": total + 1}[cap]
        got = pool_features(views, cap, [4, 17])
        want = pool_features_oracle(windows, cap, [4, 17])
        assert len(got) == min(cap, total) and got.tobytes() == want.tobytes()

    def test_memory_stays_below_every_window(self):
        # holding every window, as the former pool did, would take 160,000 rows of 324 bytes
        config = tiny_config().override(n_keypoints=1000, keypoint_decay=1.0)
        rng = np.random.default_rng(8)
        images = (rng.integers(1, 256, size=(256, 256), dtype=np.uint8) for _ in range(40))
        tracemalloc.start()
        try:
            pooled = pool_features(view_windows(images, config, [9]), 500, [9, 17])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        every_window = 40 * 4 * 1000 * WINDOW * WINDOW
        assert pooled.shape == (500, 128)
        assert peak < every_window / 5


class TestViewWindows:
    @pytest.mark.parametrize("side, held", [(64, Keypoints), (2048, np.ndarray)])
    def test_a_view_is_held_in_the_fewer_bytes(self, side, held):
        config = tiny_config()
        rng = np.random.default_rng(side)
        images = [rng.integers(1, 256, size=(side, side), dtype=np.uint8) for _ in range(2)]
        views = list(view_windows(images, config, [5]))
        for v_idx, (img, view) in enumerate(zip(images, views)):
            want = keypoint_windows_oracle(img, config.n_keypoints, config.keypoint_decay,
                                           [5, v_idx])
            assert type(view) is held and len(view) == len(want)
            assert view[:].dtype == np.uint8 and np.array_equal(view[:], want)
            nbytes = img.nbytes + 16 * len(want)
            assert (nbytes < want.nbytes) == (held is Keypoints)


@st.composite
def images_and_keypoint_settings(draw):
    """1 to 4 view images and keypoint settings; a few keypoints on a wide image hold windows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sides = draw(st.lists(st.integers(32, 140), min_size=1, max_size=4))
    faint = draw(st.booleans())
    images = [view_image(rng, side, faint) for side in sides]
    return images, draw(st.integers(1, 200)), draw(st.sampled_from([1.0, 2.0, 300.0]))


class TestFisherVectors:
    """Held views encoded one at a time, against sampling, cutting and describing each image."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(images_and_keypoint_settings(), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_one_image_extractor_byte_for_byte(self, drawn, prefix, k, gmm_seed):
        images, n_keypoints, decay = drawn
        config = tiny_config().override(n_keypoints=n_keypoints, keypoint_decay=decay)
        gmm = random_gmm(np.random.default_rng(gmm_seed), k, 128)
        views = list(view_windows(images, config, [prefix, 23]))
        got = list(fisher_vectors(views, gmm))
        assert len(got) == len(images)
        for index, (img, descriptor) in enumerate(zip(images, got)):
            want = fisher_vector(extract_features_oracle(img, n_keypoints, decay,
                                                         [prefix, 23, index]), gmm)
            assert descriptor.dtype == want.dtype == np.float64
            assert descriptor.tobytes() == want.tobytes()
        entries = encode_views("m", 3, views, gmm)
        assert [(e.model_id, e.class_id, e.viewpoint_id) for e in entries] == [
            ("m", 3, v_idx) for v_idx in range(len(images))]
        assert all(e.descriptor.dtype == np.float32
                   and e.descriptor.tobytes() == d.astype(np.float32).tobytes()
                   for e, d in zip(entries, got))

    @pytest.mark.parametrize("rung, held", [(128, Keypoints), (512, np.ndarray),
                                            (1024, np.ndarray)])
    def test_views_held_either_way_at_desk_keypoints(self, rung, held):
        config = desk_benchmark_config(seed=4)
        mesh, _ = normalize_mesh(make_cone(radius=0.6, height=1.7))
        images = [render_mesh(mesh, dodecahedron_viewpoints()[v_idx], rung) for v_idx in (2, 9)]
        gmm = random_gmm(np.random.default_rng(rung), 3, 128)
        views = list(view_windows(images, config, [4, 23, 10]))
        assert all(type(view) is held for view in views)
        for index, (img, descriptor) in enumerate(zip(images, fisher_vectors(views, gmm))):
            want = fisher_vector(extract_features_oracle(img, config.n_keypoints,
                                                         config.keypoint_decay,
                                                         [4, 23, 10, index]), gmm)
            assert descriptor.tobytes() == want.tobytes()

    def test_views_are_taken_one_at_a_time(self):
        gmm = random_gmm(np.random.default_rng(6), 2, 128)
        taken = []

        def images():
            for side in (64, 80, 96):
                taken.append(side)
                yield np.full((side, side), 90, dtype=np.uint8)

        vectors = fisher_vectors(view_windows(images(), tiny_config(), [1]), gmm)
        assert taken == []
        next(vectors)
        assert taken == [64]
        assert len(list(vectors)) == 2 and taken == [64, 80, 96]

    @pytest.mark.parametrize("class_id, message", [
        (1.5, "class id 1.5 is not an integer"), ("1", "class id '1' is not an integer"),
        (-1, r"class id -1 is outside \[0, ")])
    def test_a_class_id_reaches_the_database_as_given(self, class_id, message):
        gmm = random_gmm(np.random.default_rng(7), 2, 128)
        images = [view_image(np.random.default_rng(side), side, False) for side in (48, 64)]
        entries = encode_views("m", class_id, view_windows(images, tiny_config(), [2]), gmm)
        assert [e.class_id for e in entries] == [class_id, class_id]
        with pytest.raises(ViewretError, match=f"^entry 0: {message}"):
            DescriptorDb(entries)

    def test_a_numpy_integer_class_id_is_kept(self):
        gmm = random_gmm(np.random.default_rng(8), 2, 128)
        images = [view_image(np.random.default_rng(3), 56, False)]
        entries = encode_views("m", np.uint32(4), view_windows(images, tiny_config(), [2]), gmm)
        assert type(entries[0].class_id) is np.uint32 and entries[0].class_id == 4
        DescriptorDb(entries)
