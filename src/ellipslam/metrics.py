"""Evaluation metrics: projected-bbox IoU, centroid/axis errors, success
rate, CLEAR multi-object tracking scores, trajectory ATE and Monte-Carlo
3D ellipsoid IoU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .association import hungarian_assign
from .errors import (
    BehindCamera,
    DegenerateProjection,
    EmptyGroundTruth,
    LengthMismatch,
    NoValidView,
)
from .quadrics import QuadricParams, bbox_iou, conic_to_bbox, project_quadric
from .se3 import Intrinsics, Pose


def iou_2d_metric(gt_q: QuadricParams, est_q: QuadricParams, views, k: Intrinsics,
                  gt_pose: Pose | None = None, est_pose: Pose | None = None) -> float:
    """Mean over views of the IoU between the projected tangent boxes.

    Views where either quadric fails to project are skipped; raises
    NoValidView when none survive.
    """
    gt_pose = gt_pose or Pose.identity()
    est_pose = est_pose or Pose.identity()
    vals = []
    for t_wc in views:
        try:
            a = conic_to_bbox(project_quadric(gt_q, gt_pose, t_wc, k))
            b = conic_to_bbox(project_quadric(est_q, est_pose, t_wc, k))
        except (BehindCamera, DegenerateProjection):
            continue
        vals.append(bbox_iou(a, b))
    if not vals:
        raise NoValidView("no view produced a valid projection for both quadrics")
    return float(np.mean(vals))


def e_trans(t_gt, t_est) -> float:
    return float(np.linalg.norm(np.asarray(t_gt, dtype=float) - np.asarray(t_est, dtype=float)))


def e_axe(axes_gt, axes_est) -> float:
    """Norm of the sorted semi-axis difference (canonical frame order)."""
    return float(np.linalg.norm(np.sort(np.asarray(axes_gt, dtype=float)) - np.sort(np.asarray(axes_est, dtype=float))))


def success_rate(trials) -> float:
    """Fraction of (initialized, iou_2d) trials with an ellipsoid whose
    projected IoU against ground truth exceeds 0.5."""
    if not trials:
        return 0.0
    ok = sum(1 for initialized, iou in trials if initialized and iou > 0.5)
    return ok / len(trials)


@dataclass
class MotAccumulator:
    """CLEAR counters accumulated over frames.

    Matching is per-frame Hungarian on (1 - IoU) with a 0.5 IoU gate; the
    matched distance d is the IoU overlap itself (higher is better), so
    MOTP is a percentage-like overlap score.
    """

    iou_gate: float = 0.5
    misses: int = 0
    false_positives: int = 0
    mismatches: int = 0
    gt_count: int = 0
    match_count: int = 0
    distance_sum: float = 0.0
    last_match: dict = field(default_factory=dict)  # gt id -> track id

    def update(self, gt_boxes, est_boxes):
        """gt_boxes / est_boxes: lists of (id, BBox)."""
        self.gt_count += len(gt_boxes)
        if not gt_boxes or not est_boxes:
            self.misses += len(gt_boxes)
            self.false_positives += len(est_boxes)
            return
        cost = np.ones((len(gt_boxes), len(est_boxes)))
        for i, (_, gb) in enumerate(gt_boxes):
            for j, (_, eb) in enumerate(est_boxes):
                cost[i, j] = 1.0 - bbox_iou(gb, eb)
        pairs, um_gt, um_est = hungarian_assign(cost, gate=1.0 - self.iou_gate)
        self.misses += len(um_gt)
        self.false_positives += len(um_est)
        for i, j in pairs:
            gt_id = gt_boxes[i][0]
            est_id = est_boxes[j][0]
            if gt_id in self.last_match and self.last_match[gt_id] != est_id:
                self.mismatches += 1
            self.last_match[gt_id] = est_id
            self.match_count += 1
            self.distance_sum += 1.0 - cost[i, j]


def mota(acc: MotAccumulator) -> float:
    if acc.gt_count == 0:
        raise EmptyGroundTruth("no ground-truth objects accumulated")
    return 1.0 - (acc.misses + acc.false_positives + acc.mismatches) / acc.gt_count


def motp(acc: MotAccumulator) -> float:
    if acc.match_count == 0:
        raise EmptyGroundTruth("no matches accumulated")
    return acc.distance_sum / acc.match_count


def umeyama_alignment(src, dst):
    """Rigid (rotation + translation, no scale) alignment src -> dst."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    cov = (dst - mu_d).T @ (src - mu_s) / len(src)
    u, _, vt = np.linalg.svd(cov)
    s = np.eye(3)
    if np.linalg.det(u @ vt) < 0:
        s[2, 2] = -1.0
    r = u @ s @ vt
    t = mu_d - r @ mu_s
    return r, t


def ate_rmse(gt_positions, est_positions) -> float:
    """RMSE of translation after rigid alignment of the estimate to GT."""
    gt = np.asarray(gt_positions, dtype=float)
    est = np.asarray(est_positions, dtype=float)
    if gt.shape != est.shape:
        raise LengthMismatch(f"{gt.shape} vs {est.shape}")
    if len(gt) < 3:
        raise LengthMismatch("need at least 3 poses for alignment")
    r, t = umeyama_alignment(est, gt)
    aligned = est @ r.T + t
    return float(np.sqrt(np.mean(np.sum((gt - aligned) ** 2, axis=1))))


def ellipsoid_aabb(q: QuadricParams, pose: Pose | None = None):
    """World axis-aligned bounds of an ellipsoid."""
    pose = pose or Pose.identity()
    center = pose.apply(q.translation)
    r = pose.rotation @ q.rotation
    half = np.sqrt(((r * q.axes) ** 2).sum(axis=1))
    return center - half, center + half


def _inside(q: QuadricParams, pose: Pose, pts):
    from .se3 import inverse

    local = inverse(pose).apply(pts)
    u = (local - q.translation) @ q.rotation / q.axes
    return np.einsum("ij,ij->i", u, u) <= 1.0


def monte_carlo_3d_iou(q1: QuadricParams, q2: QuadricParams, n_samples=100_000, seed=0,
                       pose1: Pose | None = None, pose2: Pose | None = None):
    """Volume IoU by uniform sampling of the union's axis-aligned bound.

    Returns (iou, standard error). Disjoint bounds short-circuit to 0.
    """
    if n_samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    pose1 = pose1 or Pose.identity()
    pose2 = pose2 or Pose.identity()
    lo1, hi1 = ellipsoid_aabb(q1, pose1)
    lo2, hi2 = ellipsoid_aabb(q2, pose2)
    if np.any(hi1 < lo2) or np.any(hi2 < lo1):
        return 0.0, 0.0
    lo = np.minimum(lo1, lo2)
    hi = np.maximum(hi1, hi2)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    pts = rng.uniform(lo, hi, size=(int(n_samples), 3))
    in1 = _inside(q1, pose1, pts)
    in2 = _inside(q2, pose2, pts)
    n_union = int(np.sum(in1 | in2))
    n_inter = int(np.sum(in1 & in2))
    if n_union == 0:
        return 0.0, 0.0
    iou = n_inter / n_union
    stderr = float(np.sqrt(max(iou * (1.0 - iou), 1e-12) / n_union))
    return float(iou), stderr


def match_quadrics_to_gt(gt_list, est_list, gate_m=4.0):
    """Hungarian pairing of estimated quadrics to GT by centroid distance.

    `gt_list` / `est_list`: lists of (center 3-vector, payload). Returns
    list of (gt payload, est payload) pairs.
    """
    if not gt_list or not est_list:
        return []
    cost = np.zeros((len(gt_list), len(est_list)))
    for i, (cg, _) in enumerate(gt_list):
        for j, (ce, _) in enumerate(est_list):
            cost[i, j] = np.linalg.norm(np.asarray(cg, dtype=float) - np.asarray(ce, dtype=float))
    pairs, _, _ = hungarian_assign(cost, gate=gate_m)
    return [(gt_list[i][1], est_list[j][1]) for i, j in pairs]
