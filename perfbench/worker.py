"""One workload run in a fresh interpreter; writes its result as JSON.

run.py starts this script once per run (twice for a traced run), so peak
memory, imports and warm caches never carry over between workloads or
between the untraced and the traced run. The working directory is the
run's own scratch directory inside the checkout.

    python3 perfbench/worker.py --root <checkout> --workload query --size bench \
        --seed 1 --seconds 10 --trace 0 --result result.json [--batches N]
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def blas_info(np) -> dict:
    """The BLAS numpy was built against, the library loaded and its thread count."""
    info = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=cfg.get("name"), version=cfg.get("version"),
                    build=cfg.get("openblas configuration"))
    except (AttributeError, KeyError, TypeError):
        pass
    library = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower() and ".so" in path:
                    library = path
                    break
    except OSError:
        pass
    info["library"] = library
    info["threads"] = None
    if library:
        dll = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                break
    info["env"] = {k: os.environ.get(k) for k in
                   ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def machine_info(np) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return dict(nproc=nproc, cpu=cpu, platform=platform.platform(),
                python=platform.python_version(), numpy=np.__version__, blas=blas_info(np))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--batches", type=int, default=None,
                        help="run exactly this many batches instead of timing the loop")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import numpy as np
    import viewret
    from viewret.errors import ViewretError
    if Path(viewret.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"worker: imported viewret from {viewret.__file__}, not from {src}\n")
        return 2

    import tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size, args.seed)
    clock = time.perf_counter
    setup_times = []
    for _ in range(workload.setup_repeats - 1):
        start = clock()
        workload.setup()
        setup_times.append(clock() - start)

    recorder = tracer.Tracer(error_type=ViewretError) if args.trace else None
    patched = tracer.install(recorder) if recorder else []
    # `wall` spans the last set-up and the timed loop, the part a traced run records
    wall_start = clock()
    workload.setup()
    setup_times.append(clock() - wall_start)
    ops = []
    batches = 0
    loop_start = clock()
    while True:
        ops.extend(workload.batch(batches))
        batches += 1
        if args.batches is not None:
            if batches >= args.batches:
                break
        elif clock() - loop_start >= args.seconds:
            break
    loop_end = clock()
    tracer.uninstall(patched)

    result = dict(
        describe=workload.describe(),
        machine=machine_info(np),
        setup_times=setup_times,
        setup_s=statistics.median(setup_times),
        batches=batches,
        ops=ops,
        timed_s=loop_end - loop_start,
        wall_s=loop_end - wall_start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checks=[list(check) for check in workload.final_checks()],
        digests=workload.digests,
    )
    if recorder:
        result["layers"] = recorder.layer_metrics(loop_end - wall_start)
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                dict(columns=["id", "parent", "name", "start_s", "end_s"],
                     spans=recorder.spans, stats=recorder.stats)), encoding="utf-8")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
