"""viewret benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. Each run starts worker.py in a fresh interpreter. ``--trace 0``
prints the end-to-end metrics of that run. ``--trace 1`` first makes the same
untraced run, then repeats exactly its operations with every public function
of the program wrapped in a span, checks that stdout and every output file
came out byte-identical, and prints the per-layer metrics. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it is a record of the machine, the settings and the
workload-specific figures. See README.md for what each workload measures.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("query", "build", "loo")
SIZES = ("small", "bench", "full")

# (name, unit): the same four for every workload; what one operation is
# depends on the workload (see README.md)
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# a run must end within 180 s; a full-size run is for manual use and has no limit
TIME_LIMIT_S = {"small": 170.0, "bench": 170.0, "full": 3600.0}

# one BLAS thread: viewret's matrices are small, and on a few shared cores a
# second BLAS thread made operations slower and exposed to the scheduler
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def source_digest() -> str:
    """Digest of the program and benchmark sources, so stored outputs belong to one version."""
    h = hashlib.sha256()
    files = [*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py"), HERE / "reference.json"]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def tail_percentile(values):
    """The highest of p90/p95/p99/p99.9 with at least ten samples beyond it, or None."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            ordered = sorted(values)
            return dict(percentile=p, value=ordered[min(n - 1, int(p / 100.0 * n))])
    return None


def run_worker(state: Path, args, traced: bool, batches, deadline: float):
    """Start worker.py in a fresh interpreter and wait for it; None on failure."""
    mode = "traced" if traced else "plain"
    workdir = state / "work" / f"{args.workload}-{args.size}-{mode}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir.parent / f"{args.workload}-{args.size}-{mode}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced)),
           "--result", str(result_path)]
    if batches is not None:
        cmd += ["--batches", str(batches)]
    if traced:
        (state / "traces").mkdir(exist_ok=True)
        cmd += ["--spans", str(state / "traces" / f"{args.workload}-{args.size}.json")]
    try:
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True,
                              env=dict(os.environ, **WORKER_ENV),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{mode} {args.workload} run exceeded the time limit")
        return None
    sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
    if proc.returncode != 0 or not result_path.exists():
        fail(f"{mode} {args.workload} run exited {proc.returncode}")
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["stdout"] = hashlib.sha256(proc.stdout).hexdigest()
    return result


def compare_with_earlier(state: Path, key: str, digests: dict) -> list:
    """Outputs must match every earlier run of the same sources, workload, size and seed."""
    store = state / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    earlier = known.setdefault(key, {})
    problems = [f"{name} differs from an earlier run of these sources at this seed"
                for name, digest in digests.items() if earlier.get(name, digest) != digest]
    earlier.update(digests)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return problems


def workload_figures(workload: str, result: dict) -> dict:
    """The workload's own named figures, for the record line."""
    ops = result["ops"]
    walls = [op["wall_s"] for op in ops]
    if workload == "query":
        return dict(query_per_s=len(ops) / result["timed_s"],
                    query_p50_s=statistics.median(walls), query_count=len(walls),
                    query_tail=tail_percentile(walls),
                    sparse_p50_s=statistics.median(op["wall_s"] for op in ops
                                                   if op["kind"] == "sparse"),
                    dense_p50_s=statistics.median(op["wall_s"] for op in ops
                                                  if op["kind"] == "dense"),
                    top1_same_class_pct=100.0 * sum(op["top1_same_class"] for op in ops)
                    / len(ops))
    if workload == "build":
        return dict(fit_gmm_s=statistics.median(op["fit_gmm_s"] for op in ops),
                    build_db_s=statistics.median(op["build_db_s"] for op in ops),
                    models_per_op=ops[0]["models"],
                    features=[op["features"] for op in ops[:len(ops) // result["batches"]]],
                    gaussians=result["describe"]["config"]["gaussians"])
    # NN and mAP of `prop-prop`, averaged over the datasets of one batch
    cases = [op["metrics"] for op in ops[:len(ops) // result["batches"]]]
    return dict(loo_s=statistics.median(walls),
                loo_nn_pct=statistics.fmean(c["prop-prop"]["nn"] for c in cases),
                loo_map_pct=statistics.fmean(c["prop-prop"]["map"] for c in cases),
                cases=cases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="viewret end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="bench (default) fits the run budget; full is the specified "
                             "size; small is for the harness tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not (ROOT / "src" / "viewret" / "__init__.py").is_file():
        return fail(f"no viewret sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S[args.size]
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)

    plain = run_worker(state, args, traced=False, batches=None, deadline=deadline)
    if plain is None:
        return 2
    runs = [plain]
    traced = None
    if args.trace:
        traced = run_worker(state, args, traced=True, batches=plain["batches"],
                            deadline=deadline)
        if traced is None:
            return 2
        runs.append(traced)

    problems = []
    for run in runs:
        problems += [p for op in run["ops"] for p in op["problems"]]
        problems += [f"{name}: {detail}" for name, ok, detail in run["checks"] if not ok]
    if traced is not None:
        if traced["digests"] != plain["digests"]:
            problems.append("traced outputs differ from untraced outputs")
        if traced["stdout"] != plain["stdout"]:
            problems.append("traced stdout differs from untraced stdout")
    key = f"{source_digest()}/{args.workload}/{args.size}/{args.seed}"
    problems += compare_with_earlier(state, key, plain["digests"])

    attempted = sum(len(run["ops"]) for run in runs)
    failed = sum(not op["ok"] for run in runs for op in run["ops"])
    if args.trace:
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = dict(setup_s=plain["setup_s"],
                      op_p50_s=statistics.median(op["wall_s"] for op in plain["ops"]),
                      ops_per_s=len(plain["ops"]) / plain["timed_s"],
                      peak_rss_mb=plain["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = dict(run=plain["describe"], machine=plain["machine"],
                  setup_times=plain["setup_times"], batches=plain["batches"],
                  op_walls=[op["wall_s"] for op in plain["ops"]],
                  op_cpus=[op["cpu_s"] for op in plain["ops"]],
                  figures=workload_figures(args.workload, plain),
                  untraced_wall_s=plain["wall_s"],
                  traced_wall_s=traced["wall_s"] if traced else None,
                  problems=problems)
    print(json.dumps({"record": record}))
    print(json.dumps(dict(correct=not problems, attempted=attempted, failed=failed,
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
