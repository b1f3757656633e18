"""Scale-constrained ellipsoid initialization.

An object starts as a coarse sphere placed at the centroid of its point
cloud, with a prior axial scale taken from an oriented-bounding-box fit
(or a given radius). The sphere is then
refined against accumulated 2D detection boxes with a soft prior on the
semi-axes, which keeps the problem well conditioned under the narrow
baselines where the closed-form initializer breaks down. The refinement
runs the window's LM loop (`window.levenberg_marquardt`) on the window's
quadric model with the camera and object fixed, and on the window's
tangent-box kernel (`quadrics.tangent_bboxes`).
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
from .quadrics import QuadricParams, tangent_bboxes
from .se3 import Intrinsics
from .window import SolverConfig, levenberg_marquardt, retract

log = logging.getLogger(__name__)


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


def initial_ellipsoid(points, rng, fit_obb) -> tuple[QuadricParams, InitPrior]:
    """The sphere a refinement starts from and its axis prior, for a point
    cloud (n, 3): the sorted half extents of `fit_obb(points, rng=rng)` or,
    where that fit fails, the norm of the points' spread plus 1 mm as a
    radius, and a sphere of their mean size at the centroid. Raises
    EmptyCloud for no points. `fit_obb` is `fit_obb_ransac` as the caller
    imports it, which is where perfbench's spans wrap it."""
    center = centroid(points)
    try:
        # unblended extents: the omega blend biases the prior low, which the
        # depth-degenerate bbox geometry converts into meters of center error
        prior = InitPrior(per_axis=np.maximum(np.sort(fit_obb(points, rng=rng).half_extents), 1e-6))
    except (TooFewPoints, DegenerateCloud):
        prior = InitPrior(radius=float(np.linalg.norm(np.std(points, axis=0))) + 1e-3)
    return init_sphere(center, prior), prior


def refine_quadric(
    init: QuadricParams,
    obs,
    prior: InitPrior,
    cfg: RefineConfig | None = None,
    k: Intrinsics | None = None,
) -> QuadricParams:
    """Refine ellipsoid parameters against accumulated bbox observations.

    `obs` is a list of (BBox, camera pose T_wc, object pose T_wo) triples.
    The model is the window's with the camera and object fixed: the quadric
    retracts as there (log-axes, t, right-multiplied rotation), each box is
    a `QuadricBBoxFactor` without robust kernel, and the axis prior compares
    the sorted semi-axes, so the frame permutation symmetry cannot fight the
    data term. (In the window the quadric's `StatePriorFactor` holds the
    rotation, so its log-axis weights carry the size prior unsorted.)
    `window.levenberg_marquardt` minimizes it with `SolverConfig()` defaults;
    each evaluation is one `quadrics.tangent_bboxes` call, which gives the
    boxes, their validity and, to linearize, the closed-form tangent-box
    Jacobian. A box invalid at an iterate is left out of that
    linearization. With no observations the initial sphere is the prior
    fixed point and is returned as-is. Raises
    DivergedOptimization on a non-finite cost or when no downhill step
    exists from the initial guess.
    """
    if cfg is None:
        cfg = RefineConfig()
    if k is None:
        raise ValueError("intrinsics required")
    prior_axes = np.sort(prior.axes())
    if len(obs) == 0:
        return init

    m = len(obs)
    prior_w = np.sqrt(cfg.prior_size_weight)
    boxes_obs = np.stack([b.vector() for b, _, _ in obs])
    k0 = np.broadcast_to(np.pad(k.matrix(), ((0, 0), (0, 1))), (m, 3, 4))  # K [I | 0]
    a_co = np.stack([np.linalg.inv(t_wc.matrix()) @ t_wo.matrix() for _, t_wc, t_wo in obs])

    def evaluate(q, with_jacobians):
        """Cost of the whitened rows of the valid boxes and the prior, the
        validity mask and, with Jacobians, the normal equations."""
        boxes, valid, box_jac = tangent_bboxes(
            np.broadcast_to(q.axes, (m, 3)), np.broadcast_to(q.translation, (m, 3)),
            np.broadcast_to(q.rotation, (m, 3, 3)), k0, a_co, with_jacobians)
        order = np.argsort(q.axes)
        rows = (boxes_obs[valid] - boxes[valid]) / cfg.bbox_sigma_px
        r = np.concatenate([rows.ravel(), (q.axes[order] - prior_axes) * prior_w])
        if not with_jacobians:
            return float(r @ r), valid, None, None
        if not valid.all():
            log.debug("refinement dropped %d of %d degenerate observations", m - valid.sum(), m)
        jac = np.zeros((len(r), 9))
        jac[:-3] = box_jac[:, :, :9].reshape(-1, 9) / -cfg.bbox_sigma_px
        jac[np.arange(len(r) - 3, len(r)), order] = q.axes[order] * prior_w  # d a / d log a = a
        return float(r @ r), valid, jac.T @ jac, jac.T @ r

    est, report = levenberg_marquardt(init, evaluate, retract, SolverConfig())
    if report.termination == "no active factors":
        log.warning("all %d bbox observations degenerate at the current iterate", m)
    if report.termination == "non-finite cost" or (
            report.termination == "no downhill step" and not report.accepted_steps):
        raise DivergedOptimization(f"refinement failed: {report.termination} from the initial guess")
    return est
