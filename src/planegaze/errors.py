"""Exception hierarchy, and the reasons a batch row fails with.

Three branches matter to callers: parse problems (bad input files, exit
code 1 from the CLI), numerical failures (an estimator could not reach a
usable answer, exit code 2) and degenerate data (the inputs admit no
answer at all, exit code 3). The batch stages raise none of these for a
bad row: they mark it with one of ``ROW_FAILURES`` and go on.
"""

from __future__ import annotations


class PlanegazeError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(PlanegazeError):
    """An input file could not be parsed. Carries file and line when known."""

    def __init__(self, message: str, *, file: str | None = None, line: int | None = None):
        self.file = file
        self.line = line
        loc = ""
        if file is not None:
            loc = f"{file}:{line}: " if line is not None else f"{file}: "
        super().__init__(loc + message)


class NumericalError(PlanegazeError):
    """An iterative or closed-form solver failed on otherwise valid data."""


class DegenerateDataError(PlanegazeError):
    """The input configuration does not determine a solution."""


# --- numerical failures -------------------------------------------------

class IllConditionedError(NumericalError):
    """Constraint system too close to rank-deficient to solve reliably."""


class NoConvergenceError(NumericalError):
    """Refinement diverged. ``best`` holds the best iterate found so far."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class NotInvertibleError(NumericalError):
    """Distortion model could not be inverted at the requested pixel."""


# --- degenerate data ----------------------------------------------------

class DegenerateConfigurationError(DegenerateDataError):
    """Point configuration is rank-deficient (too few or collinear points)."""


class InvalidPoseError(DegenerateDataError):
    """Recovered pose is physically impossible (plane not in front of camera)."""


class NoSharedViewsError(DegenerateDataError):
    """Stereo calibration requires at least one view seen by both cameras."""


class EmptySelectionError(DegenerateDataError):
    """A filter selected no records."""


class ResampleExceededError(DegenerateDataError):
    """Scene sampling failed to produce a valid configuration."""


# --- per-row failures ---------------------------------------------------

# Every reason a batch stage marks a row with, and so every reason a frame is
# skipped with in report.json. The CamelCase reasons read as error class
# names; five of them (ParallelRaysError, BehindCameraError,
# MissingObservationError, UnknownTargetError, DegenerateGeometryError) name
# no class, since nothing raises them.
ROW_FAILURES = (
    "missing_prediction", "missing_face_observation", "NotInvertibleError", "ParallelRaysError",
    "BehindCameraError", "MissingObservationError", "UnknownTargetError", "DegenerateGeometryError",
)
