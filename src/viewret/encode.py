"""Diagonal-covariance GMM estimation, Fisher-vector encoding and retrieval.

The mixture is fit once over a sample of the database features and reused
for every image. An image's descriptor stacks, per component, the
soft-assigned mean and deviation gradients of its feature set; two images
are compared by the cosine distance of their descriptors. `fit-gmm`,
`build-db`, `query` and the benchmark share one path from a view image to
its features: `view_windows` samples each image once and holds the view,
`pool_features` samples held views for the mixture, and `fisher_vectors`
encodes held views one at a time, for the database (`encode_views`) and
the queries alike.

The mixture and the database check themselves where they are built, and
no stage or file format checks them again. `GmmParams` refuses shapes
other than (K,) weights and (K, D) means and sigmas, and values that are
not finite, or weights and sigmas that are not positive. `DescriptorDb`
refuses a database with no entries. Per entry, prefixed ``entry {i}: ``,
it refuses ids that FVDB cannot store (a class or viewpoint id that is
not an integer in [0, 2**32), a model id that is empty, holds whitespace or
takes more than 65535 UTF-8 bytes) and a descriptor that is not a 1-D
real array of the first one's length (a positive multiple of
2 * DESCRIPTOR_SIZE), or that is not finite and non-zero as the float32
values FVDB stores. It holds its entries as a tuple and marks each
descriptor read-only in place, without a copy, so the check holds."""

from dataclasses import dataclass, field

import numpy as np

from .config import ROWS_PER_GAUSSIAN, PipelineConfig
from .errors import ViewretError
from .features import (DESCRIPTOR_SIZE, WINDOW, Keypoints, build_pyramid, cut_windows, describe,
                       sample_keypoints)
from .geometry import TriangleMesh, dodecahedron_viewpoints, normalize_mesh, normalize_pose
from .render import render_mesh, render_point_cloud
from .select import propose

VARIANCE_FLOOR = 1e-6
MAX_EM_ITERATIONS = 25
EM_RELATIVE_TOL = 1e-5
_LOG_2PI = np.log(2.0 * np.pi)
# the widths of an FVDB entry's "<H" model-id length and "<I" class and viewpoint ids
MAX_MODEL_ID_BYTES = 0xFFFF
MAX_CLASS_ID = 0xFFFFFFFF


@dataclass
class GmmParams:
    """Mixture weights, means and per-dimension standard deviations.

    Construction checks (K,) weights and (K, D) means and sigmas with K and
    D at least 1, finite means, and finite positive weights and sigmas. The
    values are checked in the dtype given, since casting a float32
    signalling NaN to float64 warns, and then held as float64 (not copied
    when they are float64 already). `fit_gmm` updates its mixture in place.
    """

    weights: np.ndarray          # (K,)
    means: np.ndarray            # (K, D)
    sigmas: np.ndarray           # (K, D)
    log_likelihoods: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        weights, means, sigmas = arrays = [np.asarray(a) for a in
                                           (self.weights, self.means, self.sigmas)]
        if any(a.dtype.kind not in "iuf" for a in arrays):
            raise ViewretError("mixture weights, means and sigmas must be real numbers")
        if (weights.ndim != 1 or means.ndim != 2 or sigmas.shape != means.shape
                or len(means) != len(weights)):
            raise ViewretError(f"mixture needs (K,) weights and (K, D) means and sigmas, got "
                               f"{weights.shape}, {means.shape} and {sigmas.shape}")
        if 0 in means.shape:
            raise ViewretError(f"mixture shape K={means.shape[0]}, D={means.shape[1]} is empty")
        for name, values in (("weights", weights), ("sigmas", sigmas)):
            if not np.all(np.isfinite(values) & (values > 0)):
                raise ViewretError(f"mixture {name} must be finite and positive")
        if not np.all(np.isfinite(means)):
            raise ViewretError("mixture means must be finite")
        self.weights, self.means, self.sigmas = (a.astype(np.float64, copy=False) for a in arrays)

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
    if n < ROWS_PER_GAUSSIAN * n_components:
        raise ViewretError(f"need at least {ROWS_PER_GAUSSIAN * n_components} features "
                           f"for K={n_components}, got {n}")

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


def check_model(model_id: str, class_id: int):
    """Raise ViewretError unless a database can store the record and `query` print its id."""
    if not isinstance(class_id, (int, np.integer)):
        raise ViewretError(f"class id {class_id!r} is not an integer")
    if not 0 <= class_id <= MAX_CLASS_ID:
        raise ViewretError(f"class id {class_id} is outside [0, {MAX_CLASS_ID}]")
    if not isinstance(model_id, str):
        raise ViewretError(f"model id {model_id!r} is not a string")
    if model_id.split() != [model_id]:
        raise ViewretError("model id is empty or holds whitespace")
    if len(model_id.encode("utf-8")) > MAX_MODEL_ID_BYTES:
        raise ViewretError(f"model id is longer than {MAX_MODEL_ID_BYTES} UTF-8 bytes")


@dataclass
class DescriptorDb:
    """All per-view descriptors of the database models, sharing one mixture. Construction is
    the database's one check (see the module docstring); it makes each descriptor read-only."""

    entries: tuple

    def __post_init__(self):
        self.entries = tuple(self.entries)
        if not self.entries:
            raise ViewretError("descriptor database is empty")
        dim = np.size(self.entries[0].descriptor)
        for index, entry in enumerate(self.entries):
            try:
                check_model(entry.model_id, entry.class_id)
                if not isinstance(entry.viewpoint_id, (int, np.integer)):
                    raise ViewretError(f"viewpoint id {entry.viewpoint_id!r} is not an integer")
                if not 0 <= entry.viewpoint_id <= MAX_CLASS_ID:
                    raise ViewretError(f"viewpoint id {entry.viewpoint_id} is outside "
                                       f"[0, {MAX_CLASS_ID}]")
                desc = entry.descriptor
                if not (isinstance(desc, np.ndarray) and desc.dtype.kind in "iuf"
                        and desc.shape == (dim,) and dim and dim % (2 * DESCRIPTOR_SIZE) == 0):
                    raise ViewretError(f"descriptors must be 1-D real arrays that share one "
                                       f"length, a positive multiple of {2 * DESCRIPTOR_SIZE}")
                with np.errstate(over="ignore", invalid="ignore"):
                    stored = desc.astype(np.float32, copy=False)
                if not (np.all(np.isfinite(stored)) and stored.any()):
                    raise ViewretError("descriptor is not finite and non-zero in float32")
            except ViewretError as exc:
                raise ViewretError(f"entry {index}: {exc}") from None
        for entry in self.entries:
            entry.descriptor.setflags(write=False)


def database_views(geometry, config: PipelineConfig):
    """Yield the 20 database views of one model, rendering each when it is taken.

    Meshes render at the fixed database resolution; point clouds render at
    the resolution the selector proposes for them. One image is held at a
    time, so a model's views cost one render however large the resolution.
    """
    views = dodecahedron_viewpoints()
    if isinstance(geometry, TriangleMesh):
        mesh, _ = normalize_mesh(geometry)
        for v in views:
            yield render_mesh(mesh, v, config.db_resolution)
        return
    pts, _ = normalize_pose(geometry)
    _, r_best, _ = propose(pts, config.resolutions)
    for v in views:
        yield render_point_cloud(pts, v, r_best)


def view_windows(images, config: PipelineConfig, seed_prefix):
    """Yield each view image held for `pool_features` and `encode_views`.

    View ``i`` samples its keypoints with seed ``[*seed_prefix, i]``, once.
    A held view indexes like its (n, 18, 18) uint8 keypoint windows: it is
    a `features.Keypoints`, the keypoints and the image they are cut from,
    unless the cut windows take no more bytes; then it is the windows.
    """
    for v_idx, img in enumerate(images):
        pyramid = build_pyramid(img)
        per_level = sample_keypoints(pyramid, config.n_keypoints, config.keypoint_decay,
                                     seed=[*seed_prefix, v_idx])
        held = Keypoints(pyramid[0], per_level)
        yield held if held.nbytes < len(held) * WINDOW * WINDOW else cut_windows(pyramid, per_level)


def pool_features(views, cap: int, seed) -> np.ndarray:
    """Float32 features of a seeded sample of at most ``cap`` rows of the held views' windows.

    A held view indexes like its (n, 18, 18) uint8 windows (see
    `view_windows`). The sample is ``cap`` sorted row indices of the views'
    concatenation, drawn without replacement from the row counts alone, and
    only the kept rows' windows are cut and described. So the pool holds
    the views (images and keypoints, or windows where those are smaller)
    plus ``cap`` rows, not every window. A descriptor depends on its window
    alone, so this equals describing every row, then sampling.
    """
    if cap < 1:
        raise ViewretError(f"gmm_sample_cap must be at least 1, got {cap}")
    views = list(views)
    if not views:
        raise ViewretError("no views to pool")
    lengths = np.array([len(v) for v in views])
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    if total > cap:
        keep = np.sort(np.random.default_rng(seed).choice(total, size=cap, replace=False))
    else:
        keep = np.arange(total)
    windows = np.empty((len(keep), WINDOW, WINDOW), dtype=np.uint8)
    lo = 0
    for view, start, hi in zip(views, ends - lengths, np.searchsorted(keep, ends)):
        if hi > lo:
            windows[lo:hi] = view[keep[lo:hi] - start]
        lo = hi
    return describe(windows)


def fisher_vectors(views, gmm: GmmParams):
    """Yield each held view's float64 Fisher vector in turn, cutting its windows just then."""
    for view in views:
        yield fisher_vector(describe(view[:]), gmm)


def encode_views(model_id: str, class_id: int, views, gmm: GmmParams) -> list:
    """One float32 Fisher-vector `DbEntry` per held view of one model, in view order."""
    return [DbEntry(model_id, class_id, v_idx, descriptor.astype(np.float32))
            for v_idx, descriptor in enumerate(fisher_vectors(views, gmm))]


def pool_database_features(models, config: PipelineConfig) -> np.ndarray:
    """`pool_features` over the views `build_db` encodes, at most ``gmm_sample_cap`` rows."""
    views = (view for m_idx, (_, _, geometry) in enumerate(models)
             for view in view_windows(database_views(geometry, config), config,
                                      [config.seed, m_idx]))
    return pool_features(views, config.gmm_sample_cap, [config.seed, 0x9001])


def build_db(models, gmm: GmmParams, config: PipelineConfig) -> DescriptorDb:
    """Encode one descriptor per (model, viewpoint) for all database models."""
    ids = [m[0] for m in models]
    if len(set(ids)) != len(ids):
        raise ViewretError("model ids must be unique")
    entries = []
    for m_idx, (model_id, class_id, geometry) in enumerate(models):
        views = view_windows(database_views(geometry, config), config, [config.seed, m_idx])
        entries.extend(encode_views(model_id, class_id, views, gmm))
    return DescriptorDb(entries=entries)


def query_db(db: DescriptorDb, query_descriptors, top_k: int = None) -> list:
    """Rank database models by their minimum view-pair distance to the query.

    Returns ``(model_id, distance)`` pairs sorted ascending; ties keep the
    database's model order. ``top_k`` (at least 1) truncates the ranking when
    given.
    """
    if top_k is not None and top_k < 1:
        raise ViewretError(f"top_k must be at least 1, got {top_k}")
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
        cos = np.clip(qn @ (mat / np.linalg.norm(mat, axis=1)[:, None]).T, -1.0, 1.0)
        ranking.append((model_id, float((1.0 - cos).min())))
    ranking.sort(key=lambda pair: pair[1])
    return ranking if top_k is None else ranking[:top_k]
