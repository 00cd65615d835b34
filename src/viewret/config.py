"""Shared pipeline parameters with their standard defaults."""

from dataclasses import dataclass, replace
from numbers import Integral, Real

from .errors import ViewretError
from .features import MIN_LEVEL
from .geometry import MAX_RESOLUTION

DEFAULT_RESOLUTIONS = (32, 64, 128, 256, 512, 1024, 2048, 4096)
# `encode.fit_gmm` needs this many pooled rows per mixture component
ROWS_PER_GAUSSIAN = 10


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared by the offline and online pipeline stages.

    The viewpoint search space is always the fixed 20-vertex set, so only
    the resolution ladder is configurable here. No command takes a
    ``--threads`` flag; the ``threads`` key is accepted, so config files
    that set it keep working, and is ignored: every stage runs serially.
    Every field is checked where the config is built, before any stage
    runs, and a refusal names its key. Each integer field, and each rung of
    ``resolutions``, must be an ``int`` or numpy integer, and
    ``keypoint_decay`` a real number. ``n_keypoints``, ``gaussians``,
    ``ransac_iterations`` and ``gmm_sample_cap`` must be at least 1,
    ``keypoint_decay`` at least 1, and ``seed`` non-negative;
    ``resolutions`` needs at least one rung, none repeated (a repeated rung
    would weigh twice in `select.select_viewpoint`'s row sums), and each
    rung, like ``db_resolution``, must lie in [32, 8192], since a view
    smaller than `features.MIN_LEVEL` cannot be described. Then
    ``gmm_sample_cap`` must be at least ``ROWS_PER_GAUSSIAN * gaussians``,
    the rows `encode.fit_gmm` needs. RANSAC runs at
    `select.ransac_viewpoint`'s default tolerance.
    """

    n_keypoints: int = 1000
    keypoint_decay: float = 1.0
    gaussians: int = 256
    resolutions: tuple = DEFAULT_RESOLUTIONS
    ransac_iterations: int = 1000
    db_resolution: int = 256
    seed: int = 42
    gmm_sample_cap: int = 200000
    threads: int = 1

    def __post_init__(self):
        for key in ("n_keypoints", "gaussians", "ransac_iterations", "db_resolution", "seed",
                    "gmm_sample_cap", "threads"):
            if not isinstance(getattr(self, key), Integral):
                raise ViewretError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if not isinstance(self.keypoint_decay, Real):
            raise ViewretError(f"keypoint_decay must be a real number, "
                               f"got {self.keypoint_decay!r}")
        for key in ("n_keypoints", "keypoint_decay", "gaussians", "ransac_iterations",
                    "gmm_sample_cap"):
            if not getattr(self, key) >= 1:
                raise ViewretError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ViewretError(f"seed must be non-negative, got {self.seed}")
        if not self.resolutions:
            raise ViewretError("resolutions must hold at least one rung")
        for index, rung in enumerate(self.resolutions):
            if not isinstance(rung, Integral):
                raise ViewretError(f"resolutions rung {rung!r} is not an integer")
            if rung in self.resolutions[:index]:
                raise ViewretError(f"resolutions rung {rung} is repeated")
        for name, rung in [*(("resolutions rung", r) for r in self.resolutions),
                           ("db_resolution", self.db_resolution)]:
            if not MIN_LEVEL <= rung <= MAX_RESOLUTION:
                raise ViewretError(f"{name} {rung} is outside [{MIN_LEVEL}, {MAX_RESOLUTION}]")
        if self.gmm_sample_cap < ROWS_PER_GAUSSIAN * self.gaussians:
            raise ViewretError(f"gmm_sample_cap {self.gmm_sample_cap} is below "
                               f"{ROWS_PER_GAUSSIAN * self.gaussians}, the {ROWS_PER_GAUSSIAN} rows "
                               f"per component that gaussians = {self.gaussians} needs")

    def override(self, **kwargs) -> "PipelineConfig":
        return replace(self, **kwargs)
