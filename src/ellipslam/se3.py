"""SE(3)/SO(3) value types, exp/log maps and the pinhole camera model.

Conventions used everywhere in the library:
  * camera frame: z forward, x right, y down; pixels u right, v down,
  * ``Pose`` T_wc maps camera-frame points into the world
    (``X_w = T_wc * X_c``); projection therefore uses the inverse,
  * pose increments are right-multiplied twists: ``T <- T * exp(delta)``.

Poses serialize as 7 numbers ``[qx, qy, qz, qw, tx, ty, tz]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AngleNearPi, BehindCamera, NonPositiveDepth

# Below this rotation angle (rad) exp/log switch to their series expansions.
SMALL_ANGLE = 1e-8


def skew(v):
    """3x3 cross-product matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class Pose:
    """Rigid transform with rotation matrix and translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, pts):
        """Transform one point (3,) or a stack of points (n, 3)."""
        pts = np.asarray(pts, dtype=float)
        return pts @ self.rotation.T + self.translation

    def apply_rows(self, pts):
        """Transform a stack of points (n, 3) one (1, 3) @ (3, 3) product per
        row, so each row gets the numbers `apply` gives that point alone: an
        (n, 3) @ (3, 3) product rounds differently."""
        pts = np.asarray(pts, dtype=float)
        return (pts[:, None, :] @ self.rotation.T)[:, 0] + self.translation


@dataclass(frozen=True)
class Twist:
    """se(3) element: translational part rho (m), rotational part phi (rad)."""

    rho: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=float).reshape(3))
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float).reshape(3))

    @staticmethod
    def from_vector(v) -> "Twist":
        v = np.asarray(v, dtype=float).reshape(6)
        return Twist(v[:3], v[3:])

    def vector(self) -> np.ndarray:
        return np.concatenate([self.rho, self.phi])


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]])

    @staticmethod
    def from_list(v) -> "Intrinsics":
        fx, fy, cx, cy = (float(x) for x in v)
        return Intrinsics(fx, fy, cx, cy)

    def to_list(self):
        return [self.fx, self.fy, self.cx, self.cy]


def compose(a: Pose, b: Pose) -> Pose:
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(p: Pose) -> Pose:
    rt = p.rotation.T
    return Pose(rt, -rt @ p.translation)


def skew_batch(v):
    """(n, 3, 3) cross-product matrices of (n, 3) vectors."""
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -v[:, 2], v[:, 1], -v[:, 0]
    return k - np.swapaxes(k, 1, 2)


def se3_exp_batch(xi):
    """Exp map of (n, 6) twists in (rho, phi) order: (n, 4, 4) transforms;
    series expansions below SMALL_ANGLE."""
    theta = np.sqrt(np.einsum("ni,ni->n", xi[:, 3:], xi[:, 3:]))
    k = skew_batch(xi[:, 3:])
    kk = k @ k
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    s = np.where(small, 1.0, np.sin(theta) / safe)[:, None, None]
    a = np.where(small, 0.5, (1.0 - np.cos(theta)) / safe**2)[:, None, None]
    b = np.where(small, 1.0 / 6.0, (theta - np.sin(theta)) / safe**3)[:, None, None]
    out = np.zeros((len(xi), 4, 4))
    out[:, :3, :3] = np.eye(3) + s * k + a * kk
    out[:, :3, 3] = ((np.eye(3) + a * k + b * kk) @ xi[:, :3, None])[:, :, 0]
    out[:, 3, 3] = 1.0
    return out


def se3_log_batch(mats):
    """Log map of a stack of 4x4 transforms: (n, 6) twists in (rho, phi)
    order, series expansions below SMALL_ANGLE, and a mask of the rows whose
    rotation angle is within 1e-6 of pi, the branch cut where `se3_log`
    raises AngleNearPi; those rows hold finite placeholders."""
    m = np.asarray(mats, dtype=float)
    w = 0.5 * np.stack(
        [m[:, 2, 1] - m[:, 1, 2], m[:, 0, 2] - m[:, 2, 0], m[:, 1, 0] - m[:, 0, 1]], axis=1
    )
    sin_t = np.sqrt(np.einsum("ni,ni->n", w, w))
    cos_t = 0.5 * (m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2] - 1.0)
    theta = np.arctan2(sin_t, cos_t)
    near_pi = np.pi - theta < 1e-6
    small = theta < SMALL_ANGLE
    scale = np.where(small, 1.0 + theta**2 / 6.0, theta / np.where(small | near_pi, 1.0, sin_t))
    phi = w * scale[:, None]
    k = skew_batch(phi)
    kk = k @ k
    half = 0.5 * theta
    safe = np.where(small, 1.0, theta)
    coef = np.where(
        small, 1.0 / 12.0, (1.0 - half * np.cos(half) / np.where(small, 1.0, np.sin(half))) / safe**2
    )
    v_inv = np.eye(3)[None, :, :] - 0.5 * k + coef[:, None, None] * kk
    rho = (v_inv @ m[:, :3, 3, None])[:, :, 0]
    return np.concatenate([rho, phi], axis=1), near_pi


def se3_exp(x: Twist) -> Pose:
    """Exp map of one twist: a one-row `se3_exp_batch` call."""
    m = se3_exp_batch(x.vector()[None])[0]
    return Pose(m[:3, :3], m[:3, 3])


def se3_log(p: Pose) -> Twist:
    """Log map of one pose: a one-row `se3_log_batch` call; raises
    AngleNearPi when the rotation angle is within 1e-6 of pi."""
    logs, near_pi = se3_log_batch(p.matrix()[None])
    if near_pi[0]:
        raise AngleNearPi("rotation angle within 1e-6 of pi")
    return Twist.from_vector(logs[0])


def project(k: Intrinsics, p_cam) -> np.ndarray:
    """Project a camera-frame point to pixels; raises BehindCamera for z <= 1e-6."""
    p = np.asarray(p_cam, dtype=float).reshape(3)
    if p[2] <= 1e-6:
        raise BehindCamera(f"depth {p[2]} not positive")
    return np.array([k.fx * p[0] / p[2] + k.cx, k.fy * p[1] / p[2] + k.cy])


def back_project(k: Intrinsics, uv, depth) -> np.ndarray:
    """Pixels uv (..., 2) at depths (...) to camera-frame points (..., 3);
    raises NonPositiveDepth if any depth is <= 0."""
    uv = np.asarray(uv, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if (depth <= 0).any():
        raise NonPositiveDepth(f"depth {depth.min()} not positive")
    out = np.empty(depth.shape + (3,))
    out[..., 0] = (uv[..., 0] - k.cx) / k.fx * depth
    out[..., 1] = (uv[..., 1] - k.cy) / k.fy * depth
    out[..., 2] = depth
    return out


# --- quaternion wire format ----------------------------------------------------

def rotation_to_quat(r) -> np.ndarray:
    """Rotation matrix -> unit quaternion (x, y, z, w), w >= 0."""
    r = np.asarray(r, dtype=float)
    t = np.trace(r)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([(r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s, 0.25 * s])
    elif r[0, 0] > r[1, 1] and r[0, 0] > r[2, 2]:
        s = np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array([0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s, (r[2, 1] - r[1, 2]) / s])
    elif r[1, 1] > r[2, 2]:
        s = np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array([(r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s, (r[0, 2] - r[2, 0]) / s])
    else:
        s = np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array([(r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s, (r[1, 0] - r[0, 1]) / s])
    if q[3] < 0:
        q = -q
    return q / np.linalg.norm(q)


def quat_to_rotation(q) -> np.ndarray:
    x, y, z, w = (float(v) for v in q)
    n = x * x + y * y + z * z + w * w
    s = 2.0 / n
    return np.array(
        [
            [1.0 - s * (y * y + z * z), s * (x * y - z * w), s * (x * z + y * w)],
            [s * (x * y + z * w), 1.0 - s * (x * x + z * z), s * (y * z - x * w)],
            [s * (x * z - y * w), s * (y * z + x * w), 1.0 - s * (x * x + y * y)],
        ]
    )


def pose_to_wire(p: Pose) -> list:
    q = rotation_to_quat(p.rotation)
    return [q[0], q[1], q[2], q[3], p.translation[0], p.translation[1], p.translation[2]]


def pose_from_wire(v, quat_tol=1e-6) -> Pose:
    v = [float(x) for x in v]
    if len(v) != 7:
        raise ValueError("pose wire format needs 7 numbers [qx,qy,qz,qw,tx,ty,tz]")
    q = np.array(v[:4])
    n = np.linalg.norm(q)
    if abs(n - 1.0) > quat_tol:
        raise ValueError(f"quaternion norm {n} deviates from 1 by more than {quat_tol}")
    return Pose(quat_to_rotation(q / n), np.array(v[4:]))
