"""Command-line surface wiring the pipeline stages together.

Every subcommand is file-in/file-out; all randomness flows from --seed, so a
command run twice with identical flags and inputs produces identical output.
Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr, data to files or stdout.
"""

import argparse
import errno
import functools
import os
import sys
from contextlib import nullcontext
from dataclasses import fields

import numpy as np

from . import io as vio
from .config import PipelineConfig
from .encode import (build_db, fisher_vectors, fit_gmm, pool_database_features, query_db,
                     view_windows)
from .errors import ViewretError
from .evaluate import (CASES, desk_benchmark_config, make_synthetic_dataset, parse_cases,
                       precision_recall_curve, run_benchmark)
from .geometry import (NUM_VIEWPOINTS, TriangleMesh, dodecahedron_viewpoints, normalize_mesh,
                       normalize_pose)
from .render import render_mesh, render_point_cloud
from .scansim import ScannerConfig, simulate_scan
from .select import (best_resolution_for_viewpoint, multiview_ring, propose, ransac_viewpoint,
                     score_grid, viewpoint_index)

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _parse_vector(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ViewretError(f"expected x,y,z but got {text!r}")
    return np.asarray(parts)


def _viewpoint_index(text):
    index = int(text)
    if not 0 <= index < NUM_VIEWPOINTS:
        raise argparse.ArgumentTypeError(f"viewpoint index must be in 0..{NUM_VIEWPOINTS - 1}")
    return index


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_resolutions(text):
    """A resolution ladder: integers separated by commas and/or whitespace."""
    values = tuple(int(v) for v in text.replace(",", " ").split())
    if not values:
        raise ViewretError("expected at least one resolution")
    return values


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise ViewretError(f"{text!r} is not finite")
    return value


# the config file's keys are PipelineConfig's fields, each parsed as its default's type
_CONFIG_KEYS = {f.name: _parse_resolutions if f.name == "resolutions"
                else _finite_float if isinstance(f.default, float) else type(f.default)
                for f in fields(PipelineConfig)}


def _load_config_file(path) -> dict:
    values = {}
    first_line = {}
    for line_no, line in vio.text_lines(path):
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise ViewretError(f"{path}:{line_no}: unknown config key {key!r}")
        if key in first_line:
            raise ViewretError(f"{path}:{line_no}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = line_no
        try:
            values[key] = _CONFIG_KEYS[key](value.strip())
        except ValueError as exc:
            raise ViewretError(f"{path}:{line_no}: bad value for {key!r}: {exc}") from None
    return values


def _effective_config(args):
    """The command's base config, overridden by --config file values, overridden by flags.

    None for a command that has no base config, and so no config flags. File
    values and flags go into one override, so the config is checked once, on
    the values the command uses.
    """
    if args.base_config is None:
        return None
    values = _load_config_file(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return args.base_config().override(**values)


def _check_outputs(args):
    """Refuse an output path that its writer would refuse, before any work is done.

    The message is the one opening the path for writing gives: the path
    names a directory, or its directory does not exist.
    """
    for flag in ("output", "dump_grid", "report", "pr_data"):
        path = getattr(args, flag, None)
        if not path:
            continue
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(os.path.dirname(path) or os.curdir):
            code = errno.ENOENT
        else:
            continue
        raise ViewretError(str(OSError(code, os.strerror(code), path)))


def _load_points(path):
    """The XYZ cloud at ``path``, pose-normalized."""
    points, _ = normalize_pose(vio.load_xyz(path))
    return points


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="viewret", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p, func, output="optional", base=PipelineConfig):
        """Register ``func``; a command with a ``base`` config takes the config flags."""
        p.set_defaults(func=func, base_config=base)
        if base is not None:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--config", default=None)
        if output == "required":
            p.add_argument("--output", required=True)
        elif output == "optional":
            p.add_argument("--output", default=None)

    p = sub.add_parser("normalize", help="pose-normalize a point cloud")
    p.add_argument("--input", required=True)
    common(p, cmd_normalize, base=None)

    p = sub.add_parser("render", help="render a depth image to PGM")
    p.add_argument("--input", required=True)
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--viewpoint-index", type=_viewpoint_index, default=None)
    where.add_argument("--viewpoint", type=_parse_vector, default=None)
    p.add_argument("--resolution", type=int, required=True)
    common(p, cmd_render, output="required", base=None)

    p = sub.add_parser("select", help="select viewpoint and resolution for a cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--resolutions", type=_parse_resolutions, default=None)
    p.add_argument("--method", choices=("proposed", "ransac"), default="proposed")
    p.add_argument("--dump-grid", default=None,
                   help="write the 20-viewpoint score grid as CSV, whatever the method")
    common(p, cmd_select, output=None)

    p = sub.add_parser("scan-sim", help="simulate a partial scan of a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--scanner-pos", type=_parse_vector, required=True)
    p.add_argument("--target", type=_parse_vector, default=None)
    p.add_argument("--fov", type=float, default=40.0)
    p.add_argument("--step", type=float, default=0.5)
    p.add_argument("--max-range", type=float, default=100.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    common(p, cmd_scan_sim, output="required")

    p = sub.add_parser("fit-gmm", help="fit the mixture over pooled database features")
    p.add_argument("--input", required=True, help="model manifest")
    p.add_argument("--gaussians", type=int, default=None)
    common(p, cmd_fit_gmm, output="required")

    p = sub.add_parser("build-db", help="build the descriptor database from a manifest")
    p.add_argument("--input", required=True)
    p.add_argument("--gmm", required=True)
    common(p, cmd_build_db, output="required")

    p = sub.add_parser("query", help="rank database models against a query cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--gmm", required=True)
    p.add_argument("--top-k", type=_positive_int, default=None)
    p.add_argument("--multiview", action="store_true",
                   help="query with the 13-view ring instead of a single view")
    p.add_argument("--resolutions", type=_parse_resolutions, default=None)
    common(p, cmd_query)

    p = sub.add_parser("bench", help="run the synthetic retrieval benchmark")
    p.add_argument("--cases", default=",".join(CASES))
    p.add_argument("--report", default=None)
    p.add_argument("--pr-data", default=None)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--scans-per-class", type=int, default=5)
    common(p, cmd_bench, output=None, base=desk_benchmark_config)

    return parser


def cmd_normalize(args, config: None):
    cloud = vio.load_xyz(args.input)
    points, transform = normalize_pose(cloud)
    if args.output:
        vio.save_xyz(points, args.output)
    t = transform.translation
    sys.stdout.write(f"translation {t[0]:.17g} {t[1]:.17g} {t[2]:.17g}\n")
    sys.stdout.write(f"scale {transform.scale:.17g}\n")
    return 0


def _resolve_viewpoint(args):
    if args.viewpoint_index is not None:
        return dodecahedron_viewpoints()[args.viewpoint_index]
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(args.viewpoint)
    if not (np.isfinite(norm) and norm > 0):
        raise ViewretError("--viewpoint must be a non-zero vector of finite length")
    return args.viewpoint / norm


def cmd_render(args, config: None):
    geometry = vio.load_geometry(args.input)
    viewpoint = _resolve_viewpoint(args)
    if isinstance(geometry, TriangleMesh):
        mesh, _ = normalize_mesh(geometry)
        img = render_mesh(mesh, viewpoint, args.resolution)
    else:
        points, _ = normalize_pose(geometry)
        img = render_point_cloud(points, viewpoint, args.resolution)
    vio.write_pgm(img, args.output)
    return 0


def cmd_select(args, config: PipelineConfig):
    points = _load_points(args.input)
    if args.method == "ransac":
        viewpoint = ransac_viewpoint(points, config.ransac_iterations, seed=config.seed)
        resolution = best_resolution_for_viewpoint(points, viewpoint, config.resolutions)
        # RANSAC needs no grid: it is scored only for the dump
        grid = score_grid(points, None, config.resolutions) if args.dump_grid else None
    else:
        viewpoint, resolution, grid = propose(points, config.resolutions)
    # written only once the selection has succeeded, so a refused cloud leaves no file
    if args.dump_grid:
        vio.write_score_grid_csv(grid, args.dump_grid)
    index = viewpoint_index(dodecahedron_viewpoints(), viewpoint)
    sys.stdout.write(f"viewpoint_index {index}\n")
    sys.stdout.write(f"viewpoint {viewpoint[0]:.17g} {viewpoint[1]:.17g} {viewpoint[2]:.17g}\n")
    sys.stdout.write(f"resolution {resolution}\n")
    return 0


def cmd_scan_sim(args, config: PipelineConfig):
    mesh = vio.load_obj(args.mesh)
    target = args.target if args.target is not None else mesh.centroid
    cfg = ScannerConfig(position=args.scanner_pos, target=target,
                        fov_deg=args.fov, angular_step_deg=args.step,
                        max_range=args.max_range, noise_sigma=args.noise_sigma,
                        seed=config.seed)
    scan = simulate_scan(mesh, cfg)
    vio.save_xyz(scan.cloud, args.output)
    vio.write_scan_metadata(scan, args.output + ".meta")
    sys.stderr.write(f"scan-sim: {len(scan.cloud)} points -> {args.output}\n")
    return 0


def cmd_fit_gmm(args, config: PipelineConfig):
    features = pool_database_features(vio.load_manifest(args.input), config)
    gmm = fit_gmm(features, config.gaussians, seed=config.seed)
    vio.write_gmm(gmm, args.output)
    sys.stderr.write(f"fit-gmm: K={config.gaussians} over {len(features)} features -> {args.output}\n")
    return 0


def cmd_build_db(args, config: PipelineConfig):
    models = vio.load_manifest(args.input)
    gmm = vio.read_gmm(args.gmm)
    db = build_db(models, gmm, config)
    vio.write_descriptor_db(db, args.output)
    sys.stderr.write(f"build-db: {len(db.entries)} entries -> {args.output}\n")
    return 0


def cmd_query(args, config: PipelineConfig):
    points = _load_points(args.input)
    db = vio.read_descriptor_db(args.db)
    gmm = vio.read_gmm(args.gmm)
    # a descriptor holds 2 * D values per component, and both readers refuse a D other than 128
    db_k = db.entries[0].descriptor.size // (2 * gmm.dim)
    if db_k != gmm.n_components:
        raise ViewretError(f"{args.db} holds descriptors of K={db_k}, "
                           f"but {args.gmm} has K={gmm.n_components}")
    viewpoint, resolution, _ = propose(points, config.resolutions)
    views = multiview_ring(viewpoint) if args.multiview else [viewpoint]
    images = (render_point_cloud(points, v, resolution) for v in views)
    descriptors = list(fisher_vectors(view_windows(images, config, [config.seed]), gmm))
    ranking = query_db(db, np.asarray(descriptors), args.top_k)
    with open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout) as fh:
        fh.writelines(f"{model_id} {distance:.10f}\n" for model_id, distance in ranking)
    return 0


def cmd_bench(args, config: PipelineConfig):
    cases = parse_cases(name for name in args.cases.split(",") if name)
    if args.pr_data and args.scans_per_class == 1:
        # a query's only relevant models are the other scans of its class
        raise ViewretError("ranking has no relevant items in its universe")
    dataset = make_synthetic_dataset(n_classes=args.classes,
                                     scans_per_class=args.scans_per_class,
                                     seed=config.seed)
    report = run_benchmark(dataset, cases, config, seed=config.seed)
    lines = ["case,metric,value\n"]
    lines += [f"{case},{metric},{value:.6f}\n" for case, metric, value in report.rows()]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    if args.pr_data:
        with open(args.pr_data, "w", encoding="utf-8") as fh:
            fh.write("case,query_id,recall,precision\n")
            fh.writelines(f"{name},{entry.model_id},{recall:.10f},{precision:.10f}\n"
                          for name, result in report.cases.items()
                          for entry, retrieval in zip(dataset, result.retrievals)
                          for recall, precision in precision_recall_curve(retrieval))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()` on the first call, then the same parser.

    The parser binds the ``cmd_*`` functions that the module holds at that first call.
    """
    return build_parser()


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        config = _effective_config(args)
        _check_outputs(args)
        return args.func(args, config)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"viewret {args.command}: error: {exc}\n")
        return DATA_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
