"""Shared pipeline parameters with their standard defaults."""

import math
from dataclasses import dataclass, replace

from .errors import ViewretError
from .geometry import MAX_RESOLUTION, MIN_RESOLUTION

DEFAULT_RESOLUTIONS = (32, 64, 128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared by the offline and online pipeline stages.

    The viewpoint search space is always the fixed 20-vertex set, so only
    the resolution ladder is configurable here. ``threads`` is accepted so
    existing config files and callers keep working, and is ignored: every
    stage runs serially. Every field is checked where the config is built,
    before any stage runs, and a refusal names its key: ``n_keypoints``,
    ``gaussians``, ``ransac_iterations`` and ``gmm_sample_cap`` must be at
    least 1, ``keypoint_decay`` at least 1, ``ransac_tolerance`` finite and
    positive, and ``seed`` non-negative; ``resolutions`` needs at least one
    rung, and each rung and ``db_resolution`` must lie in [8, 8192].
    """

    n_keypoints: int = 1000
    keypoint_decay: float = 1.0
    gaussians: int = 256
    resolutions: tuple = DEFAULT_RESOLUTIONS
    ransac_iterations: int = 1000
    ransac_tolerance: float = 0.01
    db_resolution: int = 256
    seed: int = 42
    gmm_sample_cap: int = 200000
    threads: int = 1

    def __post_init__(self):
        for key in ("n_keypoints", "keypoint_decay", "gaussians", "ransac_iterations",
                    "gmm_sample_cap"):
            if not getattr(self, key) >= 1:
                raise ViewretError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not 0 < self.ransac_tolerance < math.inf:
            raise ViewretError(f"ransac_tolerance must be finite and positive, "
                               f"got {self.ransac_tolerance}")
        if self.seed < 0:
            raise ViewretError(f"seed must be non-negative, got {self.seed}")
        if not self.resolutions:
            raise ViewretError("resolutions must hold at least one rung")
        for name, rung in [*(("resolutions rung", r) for r in self.resolutions),
                           ("db_resolution", self.db_resolution)]:
            if not MIN_RESOLUTION <= rung <= MAX_RESOLUTION:
                raise ViewretError(f"{name} {rung} is outside [{MIN_RESOLUTION}, {MAX_RESOLUTION}]")

    def override(self, **kwargs) -> "PipelineConfig":
        return replace(self, **kwargs)
