"""Shared pipeline parameters with their standard defaults."""

from dataclasses import dataclass, replace

DEFAULT_RESOLUTIONS = (32, 64, 128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared by the offline and online pipeline stages.

    The viewpoint search space is always the fixed 20-vertex set, so only
    the resolution ladder is configurable here. ``threads`` is accepted so
    existing config files and callers keep working, and is ignored: every
    stage runs serially.
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

    def override(self, **kwargs) -> "PipelineConfig":
        return replace(self, **kwargs)
