"""Exception hierarchy shared across the library.

Geometry errors signal per-operation failure modes (degenerate projections,
non-ellipsoid decompositions); data errors carry enough context to report a
file location; numerical errors mark solver-level failures.
"""


class EllipslamError(Exception):
    """Base class for all library errors."""


# --- geometry ---------------------------------------------------------------

class AngleNearPi(EllipslamError):
    """SO(3)/SE(3) log requested within 1e-6 rad of the pi branch cut."""


class BehindCamera(EllipslamError):
    """Point or quadric center at non-positive depth in the camera frame."""


class NonPositiveDepth(EllipslamError):
    pass


class NotAnEllipsoid(EllipslamError):
    """Dual quadric whose centered 3x3 block is not positive definite."""


class DegenerateProjection(EllipslamError):
    """Quadric projection that does not produce a valid ellipse."""


class InsufficientViews(EllipslamError):
    pass


# --- point-cloud / initialization -------------------------------------------

class EmptyCloud(EllipslamError):
    pass


class TooFewPoints(EllipslamError):
    pass


class DegenerateCloud(EllipslamError):
    """Point cloud with rank-deficient covariance (no 3D extent)."""


# --- optimization ------------------------------------------------------------

class DivergedOptimization(EllipslamError):
    pass


class SingularSystem(EllipslamError):
    """Normal equations not solvable even after damping."""


class NonMonotoneFrameId(EllipslamError):
    pass


class DanglingFactor(EllipslamError):
    """Factor referencing a state that is not in the window."""


# --- metrics -----------------------------------------------------------------

class NoValidView(EllipslamError):
    pass


class EmptyGroundTruth(EllipslamError):
    pass


class LengthMismatch(EllipslamError):
    pass


# --- command line --------------------------------------------------------------

class UsageError(EllipslamError):
    """Command-line argument or configuration value that does not parse."""


# --- I/O ----------------------------------------------------------------------

class DataError(EllipslamError):
    """Base class for dataset / estimate file errors."""


class MalformedLine(DataError):
    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class NonMonotoneFrame(DataError):
    pass


class EmptyTable(DataError):
    pass
