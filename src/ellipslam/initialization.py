"""Scale-constrained ellipsoid initialization.

An object starts as a coarse sphere placed at the centroid of its point
cloud, with a prior axial scale taken from an oriented-bounding-box fit
(or a given radius). The sphere is then
refined against accumulated 2D detection boxes with a soft prior on the
semi-axes, which keeps the problem well conditioned under the narrow
baselines where the closed-form initializer breaks down.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCloud,
    DivergedOptimization,
    EmptyCloud,
    TooFewPoints,
)
from .quadrics import QuadricParams, batch_tangent_bboxes, projection_matrix
from .se3 import Intrinsics, so3_exp

log = logging.getLogger(__name__)

# `refine_quadric` stops once an accepted step lowers the cost by less than
# this, relative; the window solver's default `SolverConfig.rel_cost_tol`
REL_COST_TOL = 1e-9


@dataclass(frozen=True)
class OrientedBBox:
    """Oriented box fit: center, orthonormal axis directions (columns) and
    half extents."""

    center: np.ndarray
    axes_dirs: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).reshape(3))
        object.__setattr__(self, "axes_dirs", np.asarray(self.axes_dirs, dtype=float).reshape(3, 3))
        object.__setattr__(self, "half_extents", np.asarray(self.half_extents, dtype=float).reshape(3))


@dataclass(frozen=True)
class InitPrior:
    """Prior axial scale: either an isotropic radius or per-axis lengths."""

    radius: float | None = None
    per_axis: np.ndarray | None = None

    def __post_init__(self):
        if self.radius is None and self.per_axis is None:
            raise ValueError("prior needs a radius or per-axis lengths")
        if self.per_axis is not None:
            object.__setattr__(self, "per_axis", np.asarray(self.per_axis, dtype=float).reshape(3))
            if np.any(self.per_axis <= 0):
                raise ValueError("per-axis prior must be positive")
        if self.radius is not None and self.radius <= 0:
            raise ValueError("prior radius must be positive")

    def axes(self) -> np.ndarray:
        if self.per_axis is not None:
            return self.per_axis.copy()
        return np.full(3, float(self.radius))


@dataclass
class RefineConfig:
    bbox_sigma_px: float = 4.0
    prior_size_weight: float = 50.0  # (px/m)^2 equivalent; tuned by the acceptance suite
    max_iters: int = 60
    lambda_init: float = 1e-3
    step_tol: float = 1e-10
    cost_tol: float = 1e-14
    grad_tol: float = 1e-10


def centroid(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyCloud("no points for centroid")
    return pts.reshape(-1, 3).mean(axis=0)


def _tight_obbs(points, dirs):
    """Tight boxes of v point sets (v, s, 3) in their frames dirs (v, 3, 3):
    centers (v, 3) and half extents (v, 3)."""
    proj = points @ dirs
    lo = proj.min(axis=1)
    hi = proj.max(axis=1)
    center_local = 0.5 * (lo + hi)
    return (dirs @ center_local[:, :, None])[:, :, 0], 0.5 * (hi - lo)


def _pca_dirs(points):
    """Right-handed principal axes (v, 3, 3) of v point sets (v, s, 3), and
    a (v,) mask of the sets whose covariance is rank deficient."""
    centered = points - points.mean(axis=1, keepdims=True)
    cov = centered.transpose(0, 2, 1) @ centered / points.shape[1]
    evals, evecs = np.linalg.eigh(cov)
    degenerate = evals[:, 0] < 1e-12 * np.maximum(evals[:, -1], 1.0)
    flip = np.linalg.det(evecs) < 0
    evecs[flip, :, 0] = -evecs[flip, :, 0]
    return evecs, degenerate


def fit_obb_ransac(points, max_iters=64, eps=0.05, rng=None) -> OrientedBBox:
    """RANSAC oriented-bounding-box fit.

    Each hypothesis fits a PCA box to a random subset and scores it by the
    number of points inside the box inflated by `eps`; all hypotheses are
    scored in one batch, a rank-deficient subset scores -1 and the first
    best one wins. The best consensus set is refit at the end.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 8:
        raise TooFewPoints(f"OBB fit needs >= 8 points, got {len(pts)}")
    if rng is None:
        rng = np.random.default_rng(0)
    sample_size = max(8, len(pts) // 2)
    subsets = pts[np.stack([rng.choice(len(pts), size=sample_size, replace=False) for _ in range(max_iters)])]
    dirs, degenerate = _pca_dirs(subsets)
    centers, extents = _tight_obbs(subsets, dirs)
    local = np.abs((pts - centers[:, None, :]) @ dirs)
    inside = np.all(local <= extents[:, None, :] + eps, axis=2)
    counts = np.where(degenerate, -1, inside.sum(axis=1))
    best = int(np.argmax(counts))
    if counts[best] < 8:
        raise DegenerateCloud("no consensus set found")
    consensus = pts[inside[best]][None]
    dirs, degenerate = _pca_dirs(consensus)
    if degenerate[0]:
        raise DegenerateCloud("consensus set covariance rank deficient")
    center, extents = _tight_obbs(consensus, dirs)
    return OrientedBBox(center=center[0], axes_dirs=dirs[0], half_extents=extents[0])


def init_sphere(center, prior: InitPrior) -> QuadricParams:
    r = float(np.mean(prior.axes()))
    return QuadricParams(axes=[r, r, r], translation=np.asarray(center, dtype=float), rotation=np.eye(3))


def refine_quadric(
    init: QuadricParams,
    obs,
    prior: InitPrior,
    cfg: RefineConfig | None = None,
    k: Intrinsics | None = None,
) -> QuadricParams:
    """Refine ellipsoid parameters against accumulated bbox observations.

    `obs` is a list of (BBox, camera pose T_wc, object pose T_wo) triples.
    The semi-axes are optimized in log space (positivity) and the rotation
    by right-multiplied axis-angle increments; damped Gauss-Newton steps are
    only accepted when they decrease the cost, and the loop stops once an
    accepted step lowers it by less than `REL_COST_TOL` relative, as the
    window solver does. The axis prior compares the
    sorted semi-axes so the ellipsoid's frame permutation symmetry cannot
    fight the data term. Observations whose projection degenerates at the
    current iterate are dropped for that iteration. With no observations the
    initial sphere is the prior fixed point and is returned as-is.
    """
    if cfg is None:
        cfg = RefineConfig()
    if k is None:
        raise ValueError("intrinsics required")
    prior_axes = np.sort(prior.axes())
    if len(obs) == 0:
        return init

    m = len(obs)
    boxes_obs = np.stack([b.vector() for b, _, _ in obs])
    cam_mats = np.stack([projection_matrix(t_wc, k) @ t_wo.matrix() for _, t_wc, t_wo in obs])
    z_rows = np.stack(
        [(np.linalg.inv(t_wc.matrix()) @ t_wo.matrix())[2] for _, t_wc, t_wo in obs]
    )
    prior_w = np.sqrt(cfg.prior_size_weight)
    # each iteration evaluates 19 variants in one call: the iterate (row 0)
    # and, per parameter j, central-difference steps of +h (row 2j + 1) and
    # -h (row 2j + 2); the three rotation parameters step through
    # precomputed increments. The fixed step keeps the linearization
    # identical under rigid changes of the world frame (equivariance)
    h = 1e-6
    fd = np.arange(6)
    rot_steps = np.stack([so3_exp(np.where(np.arange(3) == j, s, 0.0)) for j in range(3) for s in (h, -h)])
    cam_fd = np.tile(cam_mats, (19, 1, 1))
    z_fd = np.tile(z_rows, (19, 1))

    def evaluate(xs, rots):
        """Tangent boxes (v, m, 4), validity (v, m) and the sorted-axes prior
        rows of v variants of the quadric, in one batched call."""
        v = len(rots)
        axes = np.exp(xs[:, :3])
        boxes, valid = batch_tangent_bboxes(
            np.repeat(axes, m, axis=0),
            np.repeat(xs[:, 3:6], m, axis=0),
            np.repeat(rots, m, axis=0),
            cam_fd[: v * m],
            z_fd[: v * m],
        )
        prior_rows = (np.sort(axes, axis=1) - prior_axes) * prior_w
        return boxes.reshape(v, m, 4), valid.reshape(v, m), prior_rows

    def residuals(boxes, prior_rows, active):
        rows = ((boxes_obs[active] - boxes[:, active]) / cfg.bbox_sigma_px).reshape(len(boxes), -1)
        return np.concatenate([rows, prior_rows], axis=1)

    rot = init.rotation.copy()
    x = np.concatenate([np.log(init.axes), init.translation])
    lam = cfg.lambda_init
    accepted_any = False
    dropped = 0
    for _ in range(cfg.max_iters):
        xs = np.tile(x, (19, 1))
        xs[2 * fd + 1, fd] += h
        xs[2 * fd + 2, fd] -= h
        rots = np.concatenate([np.broadcast_to(rot, (13, 3, 3)), rot @ rot_steps])
        boxes, valid, prior_rows = evaluate(xs, rots)
        active = np.flatnonzero(valid[0])
        dropped += m - len(active)
        if len(active) == 0:
            log.warning("all %d bbox observations degenerate at the current iterate", m)
            break
        res = residuals(boxes, prior_rows, active)
        r = res[0]
        cost = float(r @ r)
        if cost < cfg.cost_tol:
            break
        # a column whose +h or -h variant drops an active observation stays zero
        ok = valid[:, active].all(axis=1)
        cols = ok[1::2] & ok[2::2]
        jac = np.zeros((len(r), 9))
        jac[:, cols] = ((res[1::2] - res[2::2]) / (2.0 * h))[cols].T
        g = jac.T @ r
        if np.max(np.abs(g)) < cfg.grad_tol:
            break
        jtj = jac.T @ jac
        stepped = False
        delta = np.zeros(9)
        for _ in range(24):
            try:
                delta = np.linalg.solve(jtj + lam * np.eye(9), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            rot_new = rot @ so3_exp(delta[6:9])
            x_new = x + delta[:6]
            boxes, valid, prior_rows = evaluate(x_new[None], rot_new[None])
            r_new = residuals(boxes, prior_rows, active)[0]
            new_cost = float(r_new @ r_new)
            if valid[0, active].all() and new_cost < cost:
                x = x_new
                rot = rot_new
                lam = max(lam / 10.0, 1e-12)
                stepped = True
                accepted_any = True
                break
            lam *= 10.0
        if not stepped:
            if not accepted_any and np.max(np.abs(g)) > 1e-3:
                raise DivergedOptimization("no downhill step found from the initial guess")
            break
        if np.linalg.norm(delta) < cfg.step_tol:
            break
        if (cost - new_cost) / max(cost, 1e-300) < REL_COST_TOL:
            break
    if dropped:
        log.debug("refinement dropped %d degenerate observation evaluations", dropped)
    return QuadricParams(np.exp(x[:3]), x[3:6], rot)
