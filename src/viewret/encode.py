"""Diagonal-covariance GMM estimation, Fisher-vector encoding and retrieval.

The mixture is fit once over a sample of the database features and reused
for every image. An image's descriptor stacks, per component, the
soft-assigned mean and deviation gradients of its feature set; two images
are compared by the cosine distance of their descriptors. `fit-gmm`,
`build-db` and the benchmark share one offline path: `view_windows`, then
`pool_features` for the mixture and `encode_views` for the descriptors."""

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .errors import ViewretError
from .features import describe, keypoint_windows
from .geometry import TriangleMesh, dodecahedron_viewpoints, normalize_mesh, normalize_pose
from .render import render_mesh, render_point_cloud
from .select import propose

VARIANCE_FLOOR = 1e-6
MAX_EM_ITERATIONS = 25
EM_RELATIVE_TOL = 1e-5
_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GmmParams:
    """Mixture weights, means and per-dimension standard deviations."""

    weights: np.ndarray          # (K,)
    means: np.ndarray            # (K, D)
    sigmas: np.ndarray           # (K, D)
    log_likelihoods: list = field(default_factory=list, repr=False)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_joint(x: np.ndarray, x2: np.ndarray, gmm: GmmParams) -> np.ndarray:
    """log(w_k N(x | mu_k, diag sigma_k^2)), (n, K): c_k - x^2 P^T/2 + x (mu P)^T, P = 1/sigma^2.

    ``x2`` is ``x * x``, which a caller computes once for all the calls on one x.
    """
    prec = 1.0 / (gmm.sigmas * gmm.sigmas)
    out = x2 @ (-0.5 * prec).T
    out += x @ (gmm.means * prec).T
    out += (np.log(gmm.weights) - 0.5 * gmm.dim * _LOG_2PI - np.log(gmm.sigmas).sum(axis=1)
            - 0.5 * (gmm.means * gmm.means * prec).sum(axis=1))
    return out


def _posteriors(x: np.ndarray, x2: np.ndarray, gmm: GmmParams):
    """Responsibilities (n, K), normalized in place over the log-joint, and log p(x) per row."""
    resp = _log_joint(x, x2, gmm)
    peak = resp.max(axis=1, keepdims=True)
    resp -= peak
    np.exp(resp, out=resp)
    total = resp.sum(axis=1, keepdims=True)
    resp /= total
    return resp, (peak + np.log(total))[:, 0]


def _moments(x: np.ndarray, x2: np.ndarray, resp: np.ndarray):
    """Zeroth- to second-order statistics s0 = sum q (K,), s1 = q^T x, s2 = q^T x^2 (K, D)."""
    return resp.sum(axis=0), resp.T @ x, resp.T @ x2


def _means_sigmas(s0, s1, s2):
    """Per-component means and floored standard deviations from the statistics."""
    means = s1 / s0[:, None]
    return means, np.sqrt(np.maximum(s2 / s0[:, None] - means * means, VARIANCE_FLOOR))


def gmm_posteriors(x, gmm: GmmParams) -> np.ndarray:
    """Soft assignments of one feature (or a batch) to every component.

    Computed in log space; each row sums to one.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    post = _posteriors(arr, arr * arr, gmm)[0]
    return post[0] if single else post


def _kmeans_plus_plus(x: np.ndarray, k: int, rng) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = x[idx]
        np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1), out=d2)
    return centers


def fit_gmm(features, n_components: int, seed=0) -> GmmParams:
    """Fit a diagonal-covariance mixture with EM from a k-means++ start.

    Stops after MAX_EM_ITERATIONS or when the relative log-likelihood change
    drops below EM_RELATIVE_TOL. Variances are floored at 1e-6. The per-iteration
    log-likelihood trace is kept on the result for inspection. Deterministic
    for a fixed seed.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ViewretError("features must be a 2-D array")
    n = len(x)
    if n_components < 1:
        raise ViewretError("n_components must be at least 1")
    if n < 10 * n_components:
        raise ViewretError(f"need at least {10 * n_components} features for K={n_components}, got {n}")

    x2 = x * x
    rng = np.random.default_rng(seed)
    centers = _kmeans_plus_plus(x, n_components, rng)
    # nearest centre by |c|^2 - 2 x.c (|x|^2 is common to all); an empty
    # cluster keeps its centre, weight 1 before normalization and the global variance
    assign = ((centers * centers).sum(axis=1) - 2.0 * (x @ centers.T)).argmin(axis=1)
    s0, s1, s2 = _moments(x, x2, np.eye(n_components)[assign])
    empty = s0 == 0
    counts = np.maximum(s0, 1.0)
    means, sigmas = _means_sigmas(counts, s1, s2)
    global_sigma = np.sqrt(np.maximum(x.var(axis=0), VARIANCE_FLOOR))
    means[empty] = centers[empty]
    sigmas[empty] = global_sigma

    gmm = GmmParams(weights=counts / counts.sum(), means=means, sigmas=sigmas)
    trace = gmm.log_likelihoods
    previous = None
    reinitialized = False
    for _ in range(MAX_EM_ITERATIONS):
        resp, log_px = _posteriors(x, x2, gmm)
        ll = float(log_px.sum())
        trace.append(ll)
        if previous is not None and abs(ll - previous) < EM_RELATIVE_TOL * abs(previous):
            break
        previous = ll
        s0, s1, s2 = _moments(x, x2, resp)
        dead = s0 < n * 1e-12
        if dead.any():
            if reinitialized:
                raise ViewretError("component responsibility mass underflowed twice")
            reinitialized = True
            gmm.means[dead] = x[np.argmin(log_px)]
            gmm.sigmas[dead] = global_sigma
            gmm.weights[dead] = 1.0 / n
            gmm.weights /= gmm.weights.sum()
            continue
        gmm.weights = s0 / n
        gmm.means, gmm.sigmas = _means_sigmas(s0, s1, s2)
    return gmm


def _fisher_gradients(features, gmm: GmmParams) -> np.ndarray:
    """The raw 2*D*K gradient vector [u_1, v_1, ..., u_K, v_K] of a feature set.

    ``u_k`` aggregates the soft-assigned standardized residuals against
    component k and ``v_k`` the corresponding deviation gradients, both
    averaged over the feature count.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.size == 0:
        raise ViewretError("cannot encode an empty feature set")
    if x.shape[1] != gmm.dim:
        raise ViewretError(f"features have dim {x.shape[1]}, mixture expects {gmm.dim}")
    n = len(x)
    x2 = x * x
    s0, s1, s2 = _moments(x, x2, _posteriors(x, x2, gmm)[0])
    mu, sigma, s0 = gmm.means, gmm.sigmas, s0[:, None]
    u = (s1 - s0 * mu) / sigma
    v = (s2 - 2.0 * mu * s1 + s0 * mu * mu) / (sigma * sigma) - s0
    u /= n * np.sqrt(gmm.weights)[:, None]
    v /= n * np.sqrt(2.0 * gmm.weights)[:, None]
    return np.stack([u, v], axis=1).ravel()


def fisher_vector(features, gmm: GmmParams) -> np.ndarray:
    """Encode a feature set into its 2*D*K Fisher vector.

    The raw gradients (see ``_fisher_gradients``) get the usual signed
    square root followed by L2 normalization.
    """
    descriptor = _fisher_gradients(features, gmm)
    descriptor = np.sign(descriptor) * np.sqrt(np.abs(descriptor))
    norm = np.linalg.norm(descriptor)
    if norm > 0:
        descriptor /= norm
    return descriptor


@dataclass
class DbEntry:
    model_id: str
    class_id: int
    viewpoint_id: int
    descriptor: np.ndarray


@dataclass
class DescriptorDb:
    """All per-view descriptors of the database models, sharing one mixture."""

    entries: list


def database_views(geometry, config: PipelineConfig) -> list:
    """Render the 20 database views of one model.

    Meshes render at the fixed database resolution; point clouds render at
    the resolution the selector proposes for them.
    """
    views = dodecahedron_viewpoints()
    if isinstance(geometry, TriangleMesh):
        mesh, _ = normalize_mesh(geometry)
        return [render_mesh(mesh, v, config.db_resolution) for v in views]
    pts, _ = normalize_pose(geometry)
    _, r_best, _ = propose(pts, config.resolutions)
    return [render_point_cloud(pts, v, r_best) for v in views]


def view_windows(images, config: PipelineConfig, seed_prefix):
    """Yield each view's uint8 keypoint windows; view ``i`` uses seed ``[*seed_prefix, i]``."""
    for v_idx, img in enumerate(images):
        yield keypoint_windows(img, config.n_keypoints, config.keypoint_decay,
                               seed=[*seed_prefix, v_idx])


def pool_features(windows, cap: int, seed) -> np.ndarray:
    """Float32 features of a seeded sample of at most ``cap`` rows of the windows' concatenation.

    The sample is ``cap`` sorted row indices drawn without replacement, and
    only the kept windows are described. A descriptor depends on its window
    alone, so this equals describing every row, then sampling.
    """
    windows = list(windows)
    lengths = [len(w) for w in windows]
    ends = np.cumsum(lengths)
    if sum(lengths) > cap:
        keep = np.sort(np.random.default_rng(seed).choice(int(ends[-1]), size=cap, replace=False))
        per_view = np.split(keep, np.searchsorted(keep, ends[:-1]))
        windows = [w[rows - start] for w, rows, start in zip(windows, per_view, ends - lengths)]
    return describe(np.concatenate(windows))


def encode_views(model_id: str, class_id: int, windows, gmm: GmmParams) -> list:
    """One float32 Fisher-vector `DbEntry` per view's keypoint windows of one model."""
    return [DbEntry(model_id, int(class_id), v_idx,
                    fisher_vector(describe(w), gmm).astype(np.float32))
            for v_idx, w in enumerate(windows)]


def pool_database_features(models, config: PipelineConfig) -> np.ndarray:
    """`pool_features` over the windows `build_db` encodes, at most ``gmm_sample_cap`` rows."""
    windows = (w for m_idx, (_, _, geometry) in enumerate(models)
               for w in view_windows(database_views(geometry, config), config,
                                     [config.seed, m_idx]))
    return pool_features(windows, config.gmm_sample_cap, [config.seed, 0x9001])


def build_db(models, gmm: GmmParams, config: PipelineConfig) -> DescriptorDb:
    """Encode one descriptor per (model, viewpoint) for all database models."""
    ids = [m[0] for m in models]
    if len(ids) == 0:
        raise ViewretError("need at least one model")
    if len(set(ids)) != len(ids):
        raise ViewretError("model ids must be unique")
    entries = []
    for m_idx, (model_id, class_id, geometry) in enumerate(models):
        windows = view_windows(database_views(geometry, config), config, [config.seed, m_idx])
        entries.extend(encode_views(model_id, class_id, windows, gmm))
    return DescriptorDb(entries=entries)


def query_db(db: DescriptorDb, query_descriptors, top_k: int = None) -> list:
    """Rank database models by their minimum view-pair distance to the query.

    Returns ``(model_id, distance)`` pairs sorted ascending; ties keep the
    database's model order. ``top_k`` (at least 1) truncates the ranking when
    given.
    """
    if top_k is not None and top_k < 1:
        raise ViewretError(f"top_k must be at least 1, got {top_k}")
    if not db.entries:
        raise ViewretError("descriptor database is empty")
    queries = np.atleast_2d(np.asarray(query_descriptors, dtype=np.float64))
    dim = db.entries[0].descriptor.shape[0]
    if queries.shape[1] != dim:
        raise ViewretError(f"query dim {queries.shape[1]} does not match database dim {dim}")
    qnorm = np.linalg.norm(queries, axis=1)
    if np.any(qnorm == 0):
        raise ViewretError("query descriptor has zero norm")
    qn = queries / qnorm[:, None]

    grouped = {}
    for entry in db.entries:
        grouped.setdefault(entry.model_id, []).append(entry.descriptor)

    ranking = []
    for model_id, descriptors in grouped.items():
        mat = np.asarray(descriptors, dtype=np.float64)
        norms = np.linalg.norm(mat, axis=1)
        if np.any(norms == 0):
            raise ViewretError(f"database descriptor for {model_id} has zero norm")
        cos = np.clip(qn @ (mat / norms[:, None]).T, -1.0, 1.0)
        ranking.append((model_id, float((1.0 - cos).min())))
    ranking.sort(key=lambda pair: pair[1])
    return ranking if top_k is None else ranking[:top_k]
