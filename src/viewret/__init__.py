"""View-based partial 3D shape retrieval from segmented point clouds.

The pipeline: pose-normalize a cloud, pick the rendering viewpoint and image
resolution from a sampled score grid, render depth images, describe them
with gradient-histogram features encoded as Fisher vectors, and rank
database models by minimum view-pair cosine distance.
"""

from .config import DEFAULT_RESOLUTIONS, PipelineConfig
from .encode import DbEntry, DescriptorDb, GmmParams, build_db, fisher_vector, fit_gmm, query_db
from .errors import ViewretError
from .evaluate import (CASES, RankedRetrieval, ScanEntry, desk_benchmark_config,
                       make_synthetic_dataset, map_metric, ndcg_metric, nn_metric,
                       precision_recall_curve, run_benchmark)
from .features import build_pyramid, sample_keypoints
from .geometry import (CameraFrame, NormalizationTransform, TriangleMesh, camera_frame,
                       dodecahedron_viewpoints, normalize_mesh, normalize_pose)
from .render import render_mesh, render_point_cloud
from .scansim import (ScannerConfig, ScanResult, make_box, make_cone, make_cylinder,
                      make_sphere, simulate_scan)
from .select import (ScoreGrid, best_resolution_for_viewpoint, multiview_ring,
                     normalize_quantity, propose, ransac_viewpoint, score_grid,
                     select_resolution, select_viewpoint)

__version__ = "0.1.0"
