"""Domain error types raised across the package.

All of them derive from ValueError so callers that do not care about the
specific failure can catch the usual thing.
"""


class ViewretError(ValueError):
    """Base class for every error raised by this package."""


class EmptyCloud(ViewretError):
    pass


class DegenerateCloud(ViewretError):
    pass


class BadResolution(ViewretError):
    pass


class EmptyMesh(ViewretError):
    pass


class NoForeground(ViewretError):
    pass


class TooFewPoints(ViewretError):
    pass


class AllCollinear(ViewretError):
    pass


class TooFewFeatures(ViewretError):
    pass


class DegenerateComponent(ViewretError):
    pass


class EmptyFeatureSet(ViewretError):
    pass


class ZeroVector(ViewretError):
    pass


class DimensionMismatch(ViewretError):
    pass


class EmptyDb(ViewretError):
    pass


class NoHits(ViewretError):
    pass


class NoRelevant(ViewretError):
    pass


class MissingGroundTruth(ViewretError):
    pass


class CorruptFile(ViewretError):
    """A binary file is truncated, oversized or holds invalid values."""
