"""Dual-quadric algebra: ellipsoid parameterization, tangent bounding
boxes of projected ellipsoids, tangent-plane constraint rows and the
closed-form SVD initializer built on them. `tangent_bboxes` is the one
tangent-box kernel: boxes, validity and the closed-form Jacobian from one
dual conic per row, for the bbox factor, the ellipsoid refinement and,
through `project_quadrics` / `project_quadric`, everything else.

A dual quadric is a homogeneous symmetric 4x4 matrix ``Q`` whose tangent
planes satisfy ``pi^T Q pi = 0``, normalized to ``Q[3,3] = -1``; its
perspective image is the dual conic ``C = P Q P^T`` with
``P = K [I|0] (T_wc)^{-1}``. The conic is not normalized: each box side
is a ratio of its entries, so the boxes do not depend on its scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateProjection,
    InsufficientViews,
    NotAnEllipsoid,
)
from .se3 import Intrinsics, Pose, inverse, skew

DISCRIMINANT_EPS = 1e-12


@dataclass(frozen=True)
class QuadricParams:
    """9-DoF ellipsoid: semi-axes (m), center translation (m), rotation."""

    axes: np.ndarray
    translation: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axes", np.asarray(self.axes, dtype=float).reshape(3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float).reshape(3))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float).reshape(3, 3))
        if np.any(self.axes <= 0):
            raise ValueError(f"semi-axes must be positive, got {self.axes}")


@dataclass(frozen=True)
class DualQuadric:
    """Homogeneous symmetric 4x4 dual-quadric matrix."""

    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(4, 4))


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel box [xmin, ymin, xmax, ymax]."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(f"invalid bbox {self.vector()}")

    def vector(self) -> np.ndarray:
        return np.array([self.xmin, self.ymin, self.xmax, self.ymax], dtype=float)

    @staticmethod
    def from_vector(v) -> "BBox":
        v = [float(x) for x in v]
        return BBox(v[0], v[1], v[2], v[3])

    def width(self) -> float:
        return self.xmax - self.xmin

    def height(self) -> float:
        return self.ymax - self.ymin

    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax)])

    def area(self) -> float:
        return self.width() * self.height()


def dual_quadric_to_params(dq: DualQuadric) -> QuadricParams:
    """Recover canonical (axes ascending, det(R) = +1) parameters from Q.

    Raises NotAnEllipsoid when the centered 3x3 block is not positive
    definite, which is the documented failure mode of the closed-form
    initializer under noise.
    """
    q = dq.q
    if abs(q[3, 3]) < 1e-15:
        raise NotAnEllipsoid("Q[3,3] is zero; quadric has no finite center")
    q = q / -q[3, 3]
    q = 0.5 * (q + q.T)
    center = q[:3, 3] / q[3, 3]
    # translate the quadric back to the origin: R D R^T = Q33 + c c^T
    centered = q[:3, :3] + np.outer(center, center)
    centered = 0.5 * (centered + centered.T)
    evals, evecs = np.linalg.eigh(centered)
    if np.any(evals <= 1e-12):
        raise NotAnEllipsoid(f"centered eigenvalues {evals} not all positive")
    axes = np.sqrt(evals)
    rotation = evecs.copy()
    if np.linalg.det(rotation) < 0:
        rotation[:, 2] = -rotation[:, 2]
    return QuadricParams(axes=axes, translation=center, rotation=rotation)


def projection_matrix(t_wc: Pose, k: Intrinsics) -> np.ndarray:
    """3x4 camera matrix P = K [I|0] (T_wc)^{-1}."""
    t_cw = inverse(t_wc)
    m = np.zeros((3, 4))
    m[:, :3] = t_cw.rotation
    m[:, 3] = t_cw.translation
    return k.matrix() @ m


def project_quadrics(quads, t_wos, t_wcs, k: Intrinsics):
    """Tangent boxes (n, 4) and validity (n,) of `tangent_bboxes` for
    object-frame quadric i seen through object pose i and camera pose i."""
    n = len(quads)
    a_co = np.array([inverse(c).matrix() @ o.matrix() for o, c in zip(t_wos, t_wcs)]).reshape(n, 4, 4)
    k0 = np.broadcast_to(k.matrix() @ np.eye(3, 4), (n, 3, 4))  # K [I | 0]
    boxes, valid, _ = tangent_bboxes(np.array([q.axes for q in quads]).reshape(n, 3),
                                     np.array([q.translation for q in quads]).reshape(n, 3),
                                     np.array([q.rotation for q in quads]).reshape(n, 3, 3), k0, a_co)
    return boxes, valid


def project_quadric(q: QuadricParams, t_wo: Pose, t_wc: Pose, k: Intrinsics) -> BBox:
    """Tangent box of an object-frame quadric seen through object and camera
    poses: one row of `project_quadrics`. Static objects pass their
    accumulated (constant) pose as ``t_wo``. Raises BehindCamera when the
    quadric center has depth <= 1e-3 m and DegenerateProjection when the
    image is not an ellipse."""
    boxes, valid = project_quadrics([q], [t_wo], [t_wc], k)
    if valid[0]:
        return BBox.from_vector(boxes[0])
    depth = inverse(t_wc).apply(t_wo.apply(q.translation))[2]
    if depth <= 1e-3:
        raise BehindCamera(f"quadric center depth {depth}")
    raise DegenerateProjection("projected conic is not an ellipse")


def bbox_to_tangent_planes(b: BBox, k: Intrinsics, t_wc: Pose) -> np.ndarray:
    """Back-project the four bbox edge lines to world planes, unit normals.

    Lines are l = (1, 0, -x) for the vertical edges and (0, 1, -y) for the
    horizontal ones; plane = P^T l.
    """
    p = projection_matrix(t_wc, k)
    lines = np.array(
        [
            [1.0, 0.0, -b.xmin],
            [1.0, 0.0, -b.xmax],
            [0.0, 1.0, -b.ymin],
            [0.0, 1.0, -b.ymax],
        ]
    )
    planes = lines @ p
    norms = np.linalg.norm(planes[:, :3], axis=1)
    return planes / norms[:, None]


def plane_constraint_row(pi) -> np.ndarray:
    """Row a such that a . vech(Q) = pi^T Q pi for the upper-triangular
    row-major vectorization (q11, q12, q13, q14, q22, q23, q24, q33, q34, q44)."""
    p1, p2, p3, p4 = (float(x) for x in pi)
    return np.array(
        [
            p1 * p1,
            2 * p1 * p2,
            2 * p1 * p3,
            2 * p1 * p4,
            p2 * p2,
            2 * p2 * p3,
            2 * p2 * p4,
            p3 * p3,
            2 * p3 * p4,
            p4 * p4,
        ]
    )


_VECH_IDX = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def unvech(v) -> np.ndarray:
    q = np.zeros((4, 4))
    for (i, j), x in zip(_VECH_IDX, v):
        q[i, j] = x
        q[j, i] = x
    return q


def svd_closed_form_init(obs, k: Intrinsics) -> QuadricParams:
    """Closed-form multi-view initializer: stack the tangent-plane rows of
    every (bbox, camera pose) observation and take the right singular vector
    of the smallest singular value as the quadric.

    Needs at least 3 views (12 rows for 10 unknowns up to scale). Under
    observation noise the recovered matrix frequently fails the ellipsoid
    test; NotAnEllipsoid propagates to the caller as an initialization
    failure.
    """
    if len(obs) < 3:
        raise InsufficientViews(f"need >= 3 views, got {len(obs)}")
    rows = []
    for bbox, t_wc in obs:
        for pi in bbox_to_tangent_planes(bbox, k, t_wc):
            rows.append(plane_constraint_row(pi))
    a = np.asarray(rows)
    _, _, vt = np.linalg.svd(a, full_matrices=True)
    return dual_quadric_to_params(DualQuadric(unvech(vt[-1])))


def bbox_iou(a: BBox, b: BBox) -> float:
    """Intersection over union; two zero-area boxes give 0 by convention."""
    ix = max(0.0, min(a.xmax, b.xmax) - max(a.xmin, b.xmin))
    iy = max(0.0, min(a.ymax, b.ymax) - max(a.ymin, b.ymin))
    inter = ix * iy
    union = a.area() + b.area() - inter
    if union <= 0.0:
        return 0.0
    return inter / union


# generators [e_j]x of so(3), and of se(3) for twists (translation, rotation)
_SO3_GENERATORS = np.array([skew(e) for e in np.eye(3)])
_SE3_GENERATORS = np.zeros((6, 4, 4))
_SE3_GENERATORS[:3, :3, 3] = np.eye(3)
_SE3_GENERATORS[3:, :3, :3] = _SO3_GENERATORS


def tangent_bboxes(axes, t, rot, k0, a_co, with_jacobians=False):
    """Tangent boxes (n, 4) of quadrics (axes, t, rot) seen through
    M = K0 A with K0 = K [I|0] (n, 3, 4) and A = T_cw T_wo (n, 4, 4), their
    validity (n,) (centre depth above 1 mm, C22 nonzero, both tangency
    discriminants positive) and, `with_jacobians`, the closed-form d box / d x
    (kept, 4, 21) of the valid rows, else None. The dual conic
    C = M Q M^T is formed once.

    Columns are [log-axes 3 | t 3 | rotation 3 | object twist 6 | camera
    twist 6], every increment right-multiplied. Column k moves C by
    dC = X_k + X_k^T:
        log-axis i   X = a_i^2 u_i u_i^T, u_i = M3 R e_i
        rotation i   X = U [e_i]x diag(a^2) U^T, U = M3 R
        object G_j   X = M G_j Q M^T; t_i equals object translation i
        camera G_j   X = -K0 G_j A Q M^T (the twist enters through T_cw)
    A box side x = (C02 -+ s) / C22, s = sqrt(C02^2 - C00 C22) (y with C11
    and C12), is linear in dC with weights W, so its derivative is <W, X_k>:
    the diagonal and so(3) part of U^T W U diag(a^2), and the se(3) parts
    of A^T V and -V A^T for V = K0^T W M Q.
    """
    axes, t, rot = (np.asarray(a, dtype=float) for a in (axes, t, rot))
    # the dual quadrics Q = T diag(a^2, -1) T^T, T = [R t; 0 1]
    q = np.empty((len(axes), 4, 4))
    q[:, :3, :3] = np.einsum("nij,nkj->nik", rot * (axes**2)[:, None, :], rot) - np.einsum("ni,nj->nij", t, t)
    q[:, :3, 3] = q[:, 3, :3] = -t
    q[:, 3, 3] = -1.0
    m = k0 @ a_co
    mq = m @ q
    c = mq @ np.swapaxes(m, 1, 2)
    z = np.einsum("ni,ni->n", a_co[:, 2, :3], t) + a_co[:, 2, 3]
    c22 = c[:, 2, 2]
    safe = np.abs(c22) > 1e-15
    c22s = np.where(safe, c22, 1.0)
    dx = c[:, 0, 2] ** 2 - c[:, 0, 0] * c22
    dy = c[:, 1, 2] ** 2 - c[:, 1, 1] * c22
    valid = safe & (z > 1e-3) & (dx / c22s**2 > DISCRIMINANT_EPS) & (dy / c22s**2 > DISCRIMINANT_EPS)
    sx = np.sqrt(np.clip(dx, 0.0, None))
    sy = np.sqrt(np.clip(dy, 0.0, None))
    x_a = (c[:, 0, 2] + sx) / c22s
    x_b = (c[:, 0, 2] - sx) / c22s
    y_a = (c[:, 1, 2] + sy) / c22s
    y_b = (c[:, 1, 2] - sy) / c22s
    boxes = np.stack(
        [np.minimum(x_a, x_b), np.minimum(y_a, y_b), np.maximum(x_a, x_b), np.maximum(y_a, y_b)], axis=1
    )
    if not with_jacobians:
        return boxes, valid, None
    axes, rot, k0, a_co, m, mq, c = (a[valid] for a in (axes, rot, k0, a_co, m, mq, c))
    # W (n, side, 3, 3) of the sides [xmin, ymin, xmax, ymax], side
    # x = (Ci2 + sign s) / C22 on row i = 0, 1, 0, 1 of C, where the
    # minimum takes -s when C22 > 0: d x = <W, X> by the chain rule through
    # s^2 = Ci2^2 - Cii C22, with dCi2 = Xi2 + X2i, dCii = 2 Xii, dC22 = 2 X22
    n, i, side = len(c), np.array([0, 1, 0, 1]), np.arange(4)
    c22 = c[:, 2, 2, None]
    ci2, cii = c[:, i, 2], c[:, i, i]
    sign = np.where(c22 > 0, -1.0, 1.0) * np.array([1.0, 1.0, -1.0, -1.0])
    s = np.sqrt(ci2**2 - cii * c22)
    w = np.zeros((n, 4, 3, 3))
    w[:, side, i, 2] = w[:, side, 2, i] = (1.0 + sign * ci2 / s) / c22
    w[:, side, i, i] = -sign / s
    w[:, :, 2, 2] = -(sign * cii / s + 2.0 * (ci2 + sign * s) / c22) / c22
    u = (m[:, :, :3] @ rot)[:, None]
    y = (np.swapaxes(u, 2, 3) @ w @ (u * (axes**2)[:, None, None, :])).reshape(n, 4, 9)
    v = np.swapaxes(k0, 1, 2)[:, None] @ w @ mq[:, None]
    a_t = np.swapaxes(a_co, 1, 2)[:, None]
    # <G, Z> of every generator is one product with the flattened Z
    z = np.stack([a_t @ v, -(v @ a_t)], axis=2).reshape(n, 4, 2, 16)
    twists = (z @ _SE3_GENERATORS.reshape(6, 16).T).reshape(n, 4, 12)
    rots = y @ _SO3_GENERATORS.reshape(3, 9).T
    return boxes, valid, np.concatenate([y[..., ::4], twists[..., :3], rots, twists], axis=-1)
