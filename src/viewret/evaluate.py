"""Retrieval metrics, viewpoint error and the synthetic benchmark runner.

Relevance is binary throughout: a retrieved model counts as relevant when it
shares the query's class. The benchmark follows a leave-one-out protocol in
which every scan queries a database built from all other scans.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .encode import (DescriptorDb, check_model, encode_views, fisher_vectors, fit_gmm,
                     pool_features, query_db, view_windows)
from .errors import ViewretError
from .geometry import dodecahedron_viewpoints, normalize_pose
from .render import render_point_cloud
from .scansim import ScannerConfig, make_box, make_cone, make_cylinder, make_sphere, simulate_scan
from .select import best_resolution_for_viewpoint, propose, ransac_viewpoint

# the simulated scanner stands SCAN_DISTANCE from the origin, where each model sits
SCAN_DISTANCE = 3.0
SYNTHETIC_FOV_DEG = 40.0
VIEWPOINT_SCAN_FOV_DEG = 45.0

# the paper's six cases: name -> (viewpoint source, rung, tag). A rung of None
# renders each scan's database views at its proposed rung, and its query at
# that rung too for "proposed", else at its viewpoint's density-argmax rung.
# The tag seeds the case's query keypoints, so a case's results do not depend
# on which other cases a run requests.
CASES = {
    "gt-prop": ("ground_truth", None, 0),
    "gt-fixed": ("ground_truth", 256, 1),
    "prop-prop": ("proposed", None, 10),
    "prop-fixed": ("proposed", 256, 11),
    "ransac-prop": ("ransac", None, 20),
    "ransac-fixed": ("ransac", 256, 21),
}


@dataclass
class RankedRetrieval:
    """One query's class label and its ranking of (model id, class, distance)."""

    query_class: int
    items: list


def parse_cases(names) -> list:
    """Case names as a list; refuses a name not in CASES, none, or a repeat."""
    names = list(names)
    for name in names:
        if name not in CASES:
            raise ViewretError(f"unknown case {name!r}; expected one of " + ",".join(CASES))
    if not names:
        raise ViewretError("no case requested")
    for index, name in enumerate(names):
        if name in names[:index]:
            raise ViewretError(f"case {name} is requested twice")
    return names


def precision_recall_curve(retrieval: RankedRetrieval) -> list:
    """One (recall, precision) point per rank position; recall counts the relevant items listed."""
    rel = [cls == retrieval.query_class for _, cls, _ in retrieval.items]
    total = sum(rel)
    if total < 1:
        raise ViewretError("ranking has no relevant items in its universe")
    points = []
    found = 0
    for rank, is_rel in enumerate(rel, start=1):
        found += is_rel
        points.append((found / total, found / rank))
    return points


def nn_metric(results) -> float:
    """Percentage of queries whose top-ranked item shares the query class."""
    hits = sum(1 for r in results if r.items and r.items[0][1] == r.query_class)
    return 100.0 * hits / len(results)


def _average_precision(retrieval: RankedRetrieval) -> float:
    found = 0
    precisions = []
    for rank, (_, cls, _) in enumerate(retrieval.items, start=1):
        if cls == retrieval.query_class:
            found += 1
            precisions.append(found / rank)
    return float(np.mean(precisions)) if precisions else 0.0


def map_metric(results) -> float:
    """Mean over classes of the mean average precision of that class's queries."""
    per_class = {}
    for r in results:
        per_class.setdefault(r.query_class, []).append(_average_precision(r))
    return 100.0 * float(np.mean([np.mean(v) for v in per_class.values()]))


def ndcg_metric(results) -> float:
    """Mean normalized discounted cumulative gain with binary relevance."""
    scores = []
    for r in results:
        rel = [cls == r.query_class for _, cls, _ in r.items]
        total = sum(rel)
        if total == 0:
            scores.append(0.0)
            continue
        dcg = sum(1.0 / np.log2(rank + 1) for rank, is_rel in enumerate(rel, start=1) if is_rel)
        idcg = sum(1.0 / np.log2(rank + 1) for rank in range(1, total + 1))
        scores.append(dcg / idcg)
    return 100.0 * float(np.mean(scores))


def angular_error(v_est, v_gt) -> float:
    """Angle in radians between two unit vectors, in [0, pi]."""
    dot = float(np.asarray(v_est, dtype=np.float64) @ np.asarray(v_gt, dtype=np.float64))
    return float(np.arccos(np.clip(dot, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# synthetic dataset and benchmark

@dataclass
class ScanEntry:
    """One dataset instance: a partial scan and, when known, its true viewpoint."""

    model_id: str
    class_id: int
    cloud: np.ndarray
    gt_viewpoint: np.ndarray = None


_CLASS_MAKERS = (
    ("sphere", lambda rng: make_sphere(radius=float(rng.uniform(0.8, 1.2)))),
    ("box", lambda rng: make_box(extents=rng.uniform(0.9, 1.3, size=3))),
    ("cylinder", lambda rng: make_cylinder(radius=float(rng.uniform(0.36, 0.42)),
                                           height=float(rng.uniform(1.7, 1.9)))),
    ("cone", lambda rng: make_cone(radius=float(rng.uniform(0.55, 0.7)),
                                   height=float(rng.uniform(1.6, 1.9)))),
)


def _scan_entry(model_id: str, class_id: int, mesh, rng, fov_deg: float,
                step_deg: float) -> ScanEntry:
    """Scan ``mesh`` from a random direction SCAN_DISTANCE from the origin, aimed at it."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    cfg = ScannerConfig(position=direction * SCAN_DISTANCE, target=(0.0, 0.0, 0.0),
                        fov_deg=fov_deg, angular_step_deg=step_deg,
                        max_range=4.0 * SCAN_DISTANCE)
    scan = simulate_scan(mesh, cfg)
    return ScanEntry(model_id=model_id, class_id=class_id, cloud=scan.cloud,
                     gt_viewpoint=scan.ground_truth_viewpoint)


def make_synthetic_dataset(n_classes: int = 4, scans_per_class: int = 5, seed: int = 0,
                           step_deg: float = 0.5) -> list:
    """Simulated partial scans of jittered primitive meshes from random poses."""
    if not 1 <= n_classes <= len(_CLASS_MAKERS):
        raise ViewretError(f"n_classes must be 1 to {len(_CLASS_MAKERS)}, got {n_classes}")
    if scans_per_class < 1:
        raise ViewretError(f"scans_per_class must be at least 1, got {scans_per_class}")
    rng = np.random.default_rng(seed)
    entries = []
    for class_id, (name, make) in enumerate(_CLASS_MAKERS[:n_classes]):
        for index in range(scans_per_class):
            mesh = make(rng)
            entries.append(_scan_entry(f"{name}-{index}", class_id, mesh, rng,
                                       SYNTHETIC_FOV_DEG, step_deg))
    return entries


def make_viewpoint_scan_dataset(n_scans: int = 12, seed: int = 0, step_deg: float = 0.3) -> list:
    """Curved-primitive scans for viewpoint-estimation experiments.

    Spheres and capped cylinders alternate; both expose enough curvature for
    the scanned side to be recoverable, which flat-dominant poses of boxes
    or cones do not.
    """
    rng = np.random.default_rng(seed)
    entries = []
    for index in range(n_scans):
        if index % 2 == 0:
            mesh = make_sphere(radius=float(rng.uniform(0.8, 1.2)))
            name = "sphere"
        else:
            mesh = make_cylinder(radius=float(rng.uniform(0.45, 0.6)),
                                 height=float(rng.uniform(1.0, 1.4)))
            name = "cylinder"
        entries.append(_scan_entry(f"{name}-{index}", index % 2, mesh, rng,
                                   VIEWPOINT_SCAN_FOV_DEG, step_deg))
    return entries


@dataclass
class _ScanState:
    points: np.ndarray
    v_proposed: np.ndarray
    r_proposed: int
    v_ransac: np.ndarray


@dataclass
class CaseResult:
    """A case's metrics and its rankings, one per query in dataset order."""

    metrics: dict
    retrievals: list


@dataclass
class BenchmarkReport:
    cases: dict = field(default_factory=dict)

    def rows(self):
        for name, result in self.cases.items():
            for metric in ("nn", "map", "ndcg"):
                yield name, metric, result.metrics[metric]


def _prepare_scan(entry: ScanEntry, index: int, config: PipelineConfig, seed: int) -> _ScanState:
    points, _ = normalize_pose(entry.cloud)
    v_prop, r_prop, _ = propose(points, config.resolutions)
    v_ransac = ransac_viewpoint(points, config.ransac_iterations, seed=[seed, 11, index])
    return _ScanState(points=points, v_proposed=v_prop, r_proposed=r_prop, v_ransac=v_ransac)


def viewpoint_error_experiment(dataset, config: PipelineConfig, seed: int = 0) -> dict:
    """Angular errors of the proposed selector and the RANSAC baseline.

    Every dataset entry must carry a ground-truth viewpoint. Returns arrays
    of per-scan errors keyed by method name.
    """
    proposed = []
    ransac = []
    for index, entry in enumerate(dataset):
        if entry.gt_viewpoint is None:
            raise ViewretError(f"scan {entry.model_id} has no ground-truth viewpoint")
        state = _prepare_scan(entry, index, config, seed)
        proposed.append(angular_error(state.v_proposed, entry.gt_viewpoint))
        ransac.append(angular_error(state.v_ransac, entry.gt_viewpoint))
    return {"proposed": np.asarray(proposed), "ransac": np.asarray(ransac)}


def _query_image(name, entry, state, config) -> np.ndarray:
    """The view case ``name`` renders of one scan to query with."""
    source, rung, _ = CASES[name]
    v_query = {"ground_truth": entry.gt_viewpoint, "proposed": state.v_proposed,
               "ransac": state.v_ransac}[source]
    if rung is None:
        rung = (state.r_proposed if source == "proposed" else
                best_resolution_for_viewpoint(state.points, v_query, config.resolutions))
    return render_point_cloud(state.points, v_query, rung)


def run_benchmark(dataset, cases, config: PipelineConfig, seed: int = 0,
                  threads: int = 1) -> BenchmarkReport:
    """Leave-one-out retrieval over the dataset for every requested case.

    Each instance queries the database of all instances, with its own model
    dropped from the ranking. The database holds 20 views per instance,
    built through the functions `fit-gmm` and `build-db` use (`view_windows`,
    `pool_features`, `encode_views`), with this run's own renders and seeds,
    and ranked by `query_db`. Between pooling and encoding, each view is
    held as its keypoints and the image they are cut from, or as its
    windows where those are smaller; so a rung's views take images plus
    keypoints plus ``gmm_sample_cap`` pooled rows, not every window. A
    case's queries take `query`'s path: rendered in dataset order, then
    `view_windows` (seed prefix ``[seed, 23, tag]``, the tag in `CASES`) and
    `fisher_vectors`. A case's rung in `CASES` sets the rung of its database
    views and its query (see `CASES` for a rung of None). One mixture and
    database is built per rung that a requested case uses. Needs at least
    one case, each a name in `CASES` and none repeated, and at least two
    scans with unique model ids, and class and model ids that a database
    can store (`encode.check_model`); it refuses others before any scan is
    prepared. Deterministic for a fixed seed.
    ``threads`` is accepted for compatibility and ignored: the scans are
    prepared one after another.
    """
    cases = parse_cases(cases)
    if len(dataset) < 2:
        raise ViewretError("leave-one-out needs at least two scans")
    for index, entry in enumerate(dataset):
        try:
            check_model(entry.model_id, entry.class_id)
        except ViewretError as exc:
            raise ViewretError(f"scan {index}: {exc}") from None
    classes = {entry.model_id: entry.class_id for entry in dataset}
    if len(classes) != len(dataset):
        raise ViewretError("model ids must be unique")
    for name in cases:
        if CASES[name][0] == "ground_truth":
            for entry in dataset:
                if entry.gt_viewpoint is None:
                    raise ViewretError(
                        f"case {name} needs ground truth, but {entry.model_id} has none")

    states = [_prepare_scan(entry, i, config, seed) for i, entry in enumerate(dataset)]
    databases = {}
    for rung in dict.fromkeys(CASES[name][1] for name in cases):
        held = []
        for index, state in enumerate(states):
            images = (render_point_cloud(state.points, v, rung or state.r_proposed)
                      for v in dodecahedron_viewpoints())
            held.append(list(view_windows(images, config, [seed, 13, index])))
        gmm = fit_gmm(pool_features((view for views in held for view in views),
                                    config.gmm_sample_cap, [seed, 17]),
                      config.gaussians, seed=[seed, 19])
        databases[rung] = gmm, DescriptorDb(entries=[
            e for entry, views in zip(dataset, held)
            for e in encode_views(entry.model_id, entry.class_id, views, gmm)])
        del held  # before the next rung's views are held

    report = BenchmarkReport()
    for name in cases:
        _, rung, tag = CASES[name]
        gmm, db = databases[rung]
        images = (_query_image(name, entry, state, config) for entry, state in zip(dataset, states))
        descriptors = fisher_vectors(view_windows(images, config, [seed, 23, tag]), gmm)
        retrievals = []
        for entry, descriptor in zip(dataset, descriptors):
            items = [(model_id, classes[model_id], distance)
                     for model_id, distance in query_db(db, descriptor)
                     if model_id != entry.model_id]
            retrievals.append(RankedRetrieval(query_class=entry.class_id, items=items))
        report.cases[name] = CaseResult(
            metrics={"nn": nn_metric(retrievals),
                     "map": map_metric(retrievals),
                     "ndcg": ndcg_metric(retrievals)},
            retrievals=retrievals)
    return report


def desk_benchmark_config(seed: int = 42) -> PipelineConfig:
    """Scaled-down parameters for the synthetic desk-size benchmark."""
    return PipelineConfig(n_keypoints=350, keypoint_decay=2.0, gaussians=32,
                          resolutions=(32, 64, 128, 256), gmm_sample_cap=20000,
                          seed=seed)
