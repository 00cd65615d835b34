"""The benchmark's workloads: inputs made from a seed, set-up, timed operations and checks.

Each workload runs inside a fresh interpreter (see worker.py) with its own
working directory as the current directory, so every path handed to the
program is relative and a traced and an untraced run see identical
arguments. All program calls go through module attributes (``cli.run``,
``evaluate.run_benchmark``) so that a traced run's wrappers are reached.

Sizes: ``bench`` is what BENCHMARK.json runs, sized to the run budget;
``full`` is the size the workloads were specified at (it includes the
acceptance-size leave-one-out run); ``small`` is seconds long, for the
harness's own tests.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from viewret import cli, evaluate, scansim
from viewret import io as vio
from viewret.config import DEFAULT_RESOLUTIONS

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

SCAN_DISTANCE = 3.0
SCAN_FOV_DEG = 40.0
VIEWS_PER_MODEL = 20
LOO_CASES = ("gt-prop", "prop-prop", "ransac-prop")

# config overrides on top of evaluate.desk_benchmark_config (350 keypoints,
# decay 2.0, K=32, db resolution 256); `small` shrinks every stage so a run
# takes seconds
_SMALL = dict(n_keypoints=40, gaussians=4, resolutions=(32, 64), db_resolution=64,
              gmm_sample_cap=1000, ransac_iterations=50)

SPARSE = ("sparse", 0.5)
DENSE = ("dense", 0.15)

SIZES = {
    # `scans` is the query pool: (kind, angular step in degrees) per scan
    "query": {
        "small": dict(classes=2, per_class=1, scans=(("sparse", 2.0), ("dense", 1.0)), top_k=2,
                      config=_SMALL),
        "bench": dict(classes=4, per_class=1, scans=(SPARSE, DENSE, SPARSE), top_k=3,
                      config=dict(resolutions=DEFAULT_RESOLUTIONS, gmm_sample_cap=2000)),
        "full": dict(classes=4, per_class=2, scans=(SPARSE, DENSE, SPARSE, DENSE), top_k=5,
                     config=dict(resolutions=DEFAULT_RESOLUTIONS, gmm_sample_cap=5000)),
    },
    # `per_op`: models in the manifest of one fit-gmm + build-db operation;
    # the models are split into manifests of that many, and a batch runs them all
    "build": {
        "small": dict(classes=2, per_class=1, per_op=1, config=_SMALL),
        "bench": dict(classes=4, per_class=2, per_op=1, config=dict(gmm_sample_cap=1000)),
        "full": dict(classes=4, per_class=2, per_op=8, config={}),
    },
    # `datasets`: how many synthetic datasets set-up makes; a batch evaluates each once
    "loo": {
        "small": dict(classes=2, per_class=2, datasets=1, config=_SMALL),
        "bench": dict(classes=4, per_class=2, datasets=2, config=dict(gmm_sample_cap=1000)),
        "full": dict(classes=4, per_class=5, datasets=1, config={}),
    },
}

# jittered primitives, one maker per class, with the ranges of the package's
# synthetic dataset
PRIMITIVES = (
    ("sphere", lambda rng: scansim.make_sphere(radius=float(rng.uniform(0.8, 1.2)))),
    ("box", lambda rng: scansim.make_box(extents=rng.uniform(0.9, 1.3, size=3))),
    ("cylinder", lambda rng: scansim.make_cylinder(radius=float(rng.uniform(0.36, 0.42)),
                                                   height=float(rng.uniform(1.7, 1.9)))),
    ("cone", lambda rng: scansim.make_cone(radius=float(rng.uniform(0.55, 0.7)),
                                           height=float(rng.uniform(1.6, 1.9)))),
)


class SetupError(RuntimeError):
    """Set-up could not produce the workload's inputs."""


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cpu_seconds() -> float:
    """CPU time of this process so far, every thread included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_cli(argv):
    """One in-process CLI call; returns (exit code, wall seconds, cpu seconds, stderr)."""
    err = io.StringIO()
    cpu = cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu
    sys.stderr.write(err.getvalue())
    return code, wall, cpu, err.getvalue()


def op_result(kind, wall_s, cpu_s, problems, **detail) -> dict:
    return dict(kind=kind, wall_s=wall_s, cpu_s=cpu_s, ok=not problems, problems=problems,
                **detail)


def write_models(rng, classes, per_class) -> dict:
    """Jittered primitive meshes as .obj files plus their manifest; returns id -> class."""
    models = {}
    for class_id, (name, make) in enumerate(PRIMITIVES[:classes]):
        for index in range(per_class):
            model_id = f"{name}-{index}"
            vio.save_obj(make(rng), f"{model_id}.obj")
            models[model_id] = class_id
    write_manifest(models, "models.txt")
    return models


def write_manifest(models, path):
    """A fit-gmm / build-db manifest: one `id class mesh` line per model."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{model_id} {class_id} {model_id}.obj\n"
                      for model_id, class_id in models.items())


def write_config(config, path="pipeline.cfg"):
    """Every PipelineConfig field, in the CLI's `key = value` config format."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in asdict(config).items():
            if key == "resolutions":
                value = ",".join(str(r) for r in value)
            fh.write(f"{key} = {value}\n")


def fit_and_build(manifest="models.txt", gmm="mixture.gmm", db="models.fvdb",
                  config_path="pipeline.cfg"):
    """`viewret fit-gmm` then `viewret build-db` over one manifest."""
    fit = run_cli(["fit-gmm", "--input", manifest, "--config", config_path, "--output", gmm])
    build = run_cli(["build-db", "--input", manifest, "--gmm", gmm, "--config", config_path,
                     "--output", db])
    return fit, build


def _features_pooled(fit_stderr) -> int:
    # "fit-gmm: K=32 over 5000 features -> mixture.gmm"
    words = fit_stderr.split()
    return int(words[words.index("over") + 1]) if "over" in words else -1


class Workload:
    name = ""
    setup_repeats = 1

    def __init__(self, size: str, seed: int):
        self.size = size
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.config = evaluate.desk_benchmark_config(seed=seed).override(**self.params["config"])
        self.digests = {}

    def reference(self):
        """This size's reference outputs when the run uses the reference seed."""
        section = REFERENCE[self.name]
        if self.seed != REFERENCE["seed"]:
            return None
        return section["sizes"].get(self.size)

    def describe(self) -> dict:
        params = {k: v for k, v in self.params.items() if k != "config"}
        return dict(workload=self.name, size=self.size, seed=self.seed, params=params,
                    config=asdict(self.config), setup_repeats=self.setup_repeats)

    def setup(self):
        raise NotImplementedError

    def batch(self, index: int) -> list:
        """Run one batch of operations; a batch is the unit the time loop stops on."""
        raise NotImplementedError

    def final_checks(self) -> list:
        """Checks made once after the timed loop, outside any trace."""
        return []

    def _record_digest(self, key, digest, problems):
        previous = self.digests.setdefault(key, digest)
        if previous != digest:
            problems.append(f"{key}: output differs from an earlier operation on the same input")


class QueryWorkload(Workload):
    """`viewret query` in process, one client in a closed loop.

    Set-up writes the mesh models, the gmm and the db, and simulates a pool of
    query scans that alternate sparse and dense steps. A batch queries every
    scan of the pool once, so every run's median mixes both sizes alike and
    averages over the same number of inputs.
    """

    name = "query"

    def setup(self):
        p = self.params
        rng = np.random.default_rng([self.seed, 1])
        self.models = write_models(rng, p["classes"], p["per_class"])
        write_config(self.config)
        fit, build = fit_and_build()
        if fit[0] or build[0]:
            raise SetupError(f"fit-gmm exited {fit[0]}, build-db exited {build[0]}")
        problems = []
        self._record_digest("mixture.gmm", sha256_file("mixture.gmm"), problems)
        self._record_digest("models.fvdb", sha256_file("models.fvdb"), problems)
        if problems:
            raise SetupError("; ".join(problems))
        self.scans = []
        for kind, step in p["scans"]:
            class_id = int(rng.integers(p["classes"]))
            mesh = PRIMITIVES[class_id][1](rng)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            cfg = scansim.ScannerConfig(position=direction * SCAN_DISTANCE,
                                        target=(0.0, 0.0, 0.0), fov_deg=SCAN_FOV_DEG,
                                        angular_step_deg=step, max_range=4.0 * SCAN_DISTANCE)
            cloud = scansim.simulate_scan(mesh, cfg).cloud
            path = f"scan-{len(self.scans)}.xyz"
            vio.save_xyz(cloud, path)
            self.scans.append(dict(path=path, kind=kind, class_id=class_id, points=len(cloud)))

    def batch(self, index):
        pool = len(self.scans)
        return [self._query(index * pool + i) for i in range(pool)]

    def _query(self, op_index):
        scan_index = op_index % len(self.scans)
        scan = self.scans[scan_index]
        out = f"ranking-{op_index}.txt"
        code, wall, cpu, _ = run_cli(["query", "--input", scan["path"], "--db", "models.fvdb",
                                      "--gmm", "mixture.gmm", "--config", "pipeline.cfg",
                                      "--top-k", str(self.params["top_k"]), "--output", out])
        problems = []
        ranking = []
        if code != 0:
            problems.append(f"query exited {code}")
        else:
            ranking = self._check_ranking(scan_index, out, problems)
            self._record_digest(f"ranking-{scan_index}", sha256_file(out), problems)
        top1 = ranking[0][0] if ranking else None
        return op_result(scan["kind"], wall, cpu, problems, scan=scan_index,
                         points=scan["points"], top1_same_class=top1 is not None
                         and self.models.get(top1) == scan["class_id"])

    def _check_ranking(self, scan_index, path, problems) -> list:
        ranking = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            model_id, distance = line.split()
            ranking.append((model_id, float(distance)))
        expected_len = min(self.params["top_k"], len(self.models))
        ids = [m for m, _ in ranking]
        dists = [d for _, d in ranking]
        if len(ranking) != expected_len:
            problems.append(f"{len(ranking)} ranked models, expected {expected_len}")
        if len(set(ids)) != len(ids) or not set(ids) <= set(self.models):
            problems.append(f"ranked ids {ids} are not distinct database models")
        if dists != sorted(dists) or any(not 0.0 <= d <= 2.0 for d in dists):
            problems.append(f"distances {dists} are not ascending cosine distances")
        ref = self.reference()
        if ref is not None:
            tol = REFERENCE[self.name]["distance_tolerance"]
            want = ref[scan_index]
            if ids != [m for m, _ in want]:
                problems.append(f"ranked ids {ids} differ from reference {[m for m, _ in want]}")
            elif any(abs(d - w) > tol for d, (_, w) in zip(dists, want)):
                problems.append(f"distances {dists} differ from reference by more than {tol}")
        return ranking


class BuildWorkload(Workload):
    """`viewret fit-gmm` then `viewret build-db`, once per manifest of mesh models.

    Set-up writes the models and splits them into manifests of `per_op`
    models each. A batch fits and builds over every manifest once, so every
    run's median covers the same models; at `bench` size that is one
    operation per model, two per primitive class. Set-up writes only small
    files, so it is repeated often enough for its median to be steady.
    """

    name = "build"
    setup_repeats = 41

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.models = write_models(rng, self.params["classes"], self.params["per_class"])
        ids = list(self.models)
        per_op = self.params["per_op"]
        self.sets = []
        for start in range(0, len(ids), per_op):
            manifest = f"set-{len(self.sets)}"
            write_manifest({m: self.models[m] for m in ids[start:start + per_op]},
                           f"{manifest}.txt")
            self.sets.append((manifest, ids[start:start + per_op]))
        write_config(self.config)

    def batch(self, index):
        return [self._fit_and_build(manifest, ids) for manifest, ids in self.sets]

    def _fit_and_build(self, manifest, ids):
        gmm, db = f"{manifest}.gmm", f"{manifest}.fvdb"
        (fit_code, fit_s, fit_cpu, fit_err), (build_code, build_s, build_cpu, _) = \
            fit_and_build(f"{manifest}.txt", gmm, db)
        problems = []
        if fit_code or build_code:
            problems.append(f"fit-gmm exited {fit_code}, build-db exited {build_code}")
        else:
            self._record_digest(gmm, sha256_file(gmm), problems)
            self._record_digest(db, sha256_file(db), problems)
        return op_result("fit+build", fit_s + build_s, fit_cpu + build_cpu, problems,
                         models=len(ids), fit_gmm_s=fit_s, build_db_s=build_s,
                         features=_features_pooled(fit_err))

    def final_checks(self):
        checks = []
        for manifest, ids in self.sets:
            db_path, gmm_path = Path(f"{manifest}.fvdb"), Path(f"{manifest}.gmm")
            if not db_path.exists() or not gmm_path.exists():
                checks.append((f"{manifest}.db_entries", False, "no gmm or database was written"))
                continue
            db = vio.read_descriptor_db(db_path)
            views = {}
            for entry in db.entries:
                views.setdefault(entry.model_id, []).append(entry.viewpoint_id)
            ok = (set(views) == set(ids)
                  and all(sorted(v) == list(range(VIEWS_PER_MODEL)) for v in views.values()))
            checks.append((f"{manifest}.db_entries", ok,
                           f"{len(db.entries)} entries over {len(views)} models"))
            gmm = vio.read_gmm(gmm_path)
            checks.append((f"{manifest}.gmm_components", gmm.n_components == self.config.gaussians,
                           f"K={gmm.n_components}"))
        return checks


class LooWorkload(Workload):
    """The leave-one-out evaluation: `evaluate.run_benchmark` over three cases.

    Set-up makes `datasets` synthetic datasets. The first is the one
    `make_synthetic_dataset` makes at the run's seed, as `viewret bench` does;
    the others use seeds derived from it. A batch evaluates every dataset
    once, so every run's median covers the same datasets.
    """

    name = "loo"
    setup_repeats = 5

    def setup(self):
        self.datasets = [evaluate.make_synthetic_dataset(
            n_classes=self.params["classes"], scans_per_class=self.params["per_class"],
            seed=self.seed if index == 0 else [self.seed, index])
            for index in range(self.params["datasets"])]

    def batch(self, index):
        return [self._evaluate(i, dataset) for i, dataset in enumerate(self.datasets)]

    def _evaluate(self, index, dataset):
        cpu = cpu_seconds()
        start = time.perf_counter()
        report = evaluate.run_benchmark(dataset, list(LOO_CASES), self.config,
                                        seed=self.seed, threads=1)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        lines = [f"{case},{metric},{value!r}\n" for case, metric, value in report.rows()]
        for case, result in report.cases.items():
            for query, retrieval in enumerate(result.retrievals):
                lines += [f"{case},{query},{model_id},{distance!r}\n"
                          for model_id, _, distance in retrieval.items]
        path = f"report-{index}.csv"
        Path(path).write_text("".join(lines), encoding="utf-8")
        problems = self._check_report(index, dataset, report)
        self._record_digest(path, sha256_file(path), problems)
        metrics = {case: dict(result.metrics) for case, result in report.cases.items()}
        return op_result("loo", wall, cpu, problems, dataset=index, metrics=metrics)

    def _check_report(self, index, dataset, report) -> list:
        problems = []
        if sorted(report.cases) != sorted(LOO_CASES):
            return [f"cases {sorted(report.cases)}, expected {sorted(LOO_CASES)}"]
        for case, result in report.cases.items():
            if any(not 0.0 <= v <= 100.0 for v in result.metrics.values()):
                problems.append(f"{case}: metric out of range: {result.metrics}")
            if any(len(r.items) != len(dataset) - 1 for r in result.retrievals):
                problems.append(f"{case}: a ranking does not hold every other scan")
        ref = self.reference()
        if ref is not None:
            tol = REFERENCE[self.name]["tolerance_pct"]
            for case, want in ref[index].items():
                got = report.cases[case].metrics
                if any(abs(got[m] - want[m]) > tol for m in want):
                    problems.append(f"{case}: {got} differs from reference {want}")
        return problems


WORKLOADS = {w.name: w for w in (QueryWorkload, BuildWorkload, LooWorkload)}
