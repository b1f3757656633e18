"""Object-level SLAM back-end with ellipsoid landmarks.

Tracks static and dynamic rigid objects as dual quadrics from 2D detections
and sparse feature tracks, jointly optimizing camera pose, object pose,
landmarks and ellipsoid parameters in a sliding window. Ships with a
deterministic synthetic-scene simulator and an evaluation harness.
"""

__version__ = "0.1.0"

from .se3 import Intrinsics, Pose, Twist
from .quadrics import BBox, DualQuadric, QuadricParams

__all__ = [
    "Intrinsics",
    "Pose",
    "Twist",
    "BBox",
    "DualQuadric",
    "QuadricParams",
]
