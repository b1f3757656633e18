"""Multi-object data association and motion classification.

Detections are matched to tracks by the Hungarian algorithm over a hybrid
cost combining a semantic feature-overlap distance, the IoU against the
track's quadric projection (or last box before initialization) and the IoU
against its constant-velocity Kalman prediction. Per-point motion evidence
comes from rigid-motion-compensated scene flow; per-object labels are fused
with a hysteresis belief filter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .quadrics import BBox, QuadricParams, bbox_iou
from .se3 import Pose


class MotionLabel(Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"
    UNKNOWN = "unknown"


class PointLabel(Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass
class AssignmentCostConfig:
    theta1: float = 2.0  # semantic overlap weight
    theta2: float = 1.0  # quadric/last-bbox IoU weight
    theta3: float = 1.0  # KF prediction IoU weight
    gate: float = 3.5


@dataclass
class MotionDetectorConfig:
    scene_flow_thresh: float = 0.15
    dynamic_ratio: float = 0.3
    ema_alpha: float = 0.3
    belief_low: float = 0.4
    belief_high: float = 0.6


# --- SORT-style Kalman bbox filter -------------------------------------------

_KF_F = np.eye(7)
_KF_F[0, 4] = _KF_F[1, 5] = _KF_F[2, 6] = 1.0
_KF_H = np.eye(4, 7)
_KF_Q = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.01])
_KF_R = np.diag([1.0, 1.0, 10.0, 10.0])


@dataclass
class KfBoxState:
    """Constant-velocity filter state over (cx, cy, area, aspect)."""

    x: np.ndarray
    p: np.ndarray

    @staticmethod
    def from_bbox(b: BBox) -> "KfBoxState":
        x = np.zeros(7)
        x[:4] = _bbox_to_z(b)
        p = np.diag([10.0, 10.0, 10.0, 10.0, 1e4, 1e4, 1e4])
        return KfBoxState(x, p)

    def bbox(self) -> BBox:
        return _z_to_bbox(self.x[:4])


def _bbox_to_z(b: BBox) -> np.ndarray:
    w = max(b.width(), 1e-6)
    h = max(b.height(), 1e-6)
    return np.array([b.xmin + w / 2.0, b.ymin + h / 2.0, w * h, w / h])


def _z_to_bbox(z) -> BBox:
    area = max(float(z[2]), 1.0)
    aspect = max(float(z[3]), 1e-6)
    w = np.sqrt(area * aspect)
    h = area / w
    return BBox(z[0] - w / 2.0, z[1] - h / 2.0, z[0] + w / 2.0, z[1] + h / 2.0)


def kf_predict(s: KfBoxState):
    x = _KF_F @ s.x
    if x[2] + x[6] <= 1.0:
        x[6] = 0.0
    x[2] = max(x[2], 1.0)
    p = _KF_F @ s.p @ _KF_F.T + _KF_Q
    out = KfBoxState(x, p)
    return out, out.bbox()


def kf_update(s: KfBoxState, obs: BBox) -> KfBoxState:
    z = _bbox_to_z(obs)
    y = z - _KF_H @ s.x
    sm = _KF_H @ s.p @ _KF_H.T + _KF_R
    k = s.p @ _KF_H.T @ np.linalg.inv(sm)
    x = s.x + k @ y
    p = (np.eye(7) - k @ _KF_H) @ s.p
    return KfBoxState(x, 0.5 * (p + p.T))


# --- track state ----------------------------------------------------------------

POSE_HISTORY = 6  # poses a track keeps: the motion vote's window


@dataclass
class ObjectTrack:
    id: int
    kf: KfBoxState
    quadric: QuadricParams | None = None
    # the last POSE_HISTORY (time_s, Pose T_wo) of the n_posed frames it was posed in
    pose_history: deque = field(default_factory=lambda: deque(maxlen=POSE_HISTORY))
    n_posed: int = 0
    landmarks: dict = field(default_factory=dict)  # feature id -> object-frame 3-vector
    motion_label: MotionLabel = MotionLabel.UNKNOWN
    dynamic_belief: float = 0.5
    frames_since_assoc: int = 0
    last_bbox: BBox | None = None
    feature_ids: set = field(default_factory=set)
    bbox_history: list = field(default_factory=list)  # (frame, BBox, Pose T_wc, Pose T_wo)


def semantic_inlier_distance(track_features_prev, current_instance_features) -> float:
    """1 - overlap ratio of the tracked feature ids inside the detection."""
    cur = set(current_instance_features)
    prev = set(track_features_prev)
    return 1.0 - len(cur & prev) / max(1, len(cur))


def build_cost_matrix(detections, tracks, cfg: AssignmentCostConfig | None = None,
                      projected_bboxes=None) -> np.ndarray:
    """Hybrid assignment cost; rows are detections, columns tracks.

    `detections` is a list of (BBox, feature-id set or None); the projection
    term uses `projected_bboxes[j]` when given (quadric re-projection),
    falling back to the track's last observed box.
    """
    if cfg is None:
        cfg = AssignmentCostConfig()
    m, n = len(detections), len(tracks)
    cost = np.zeros((m, n))
    for j, track in enumerate(tracks):
        _, predicted = kf_predict(track.kf)
        proj = None
        if projected_bboxes is not None:
            proj = projected_bboxes[j]
        if proj is None:
            proj = track.last_bbox
        for i, (bbox, feat_ids) in enumerate(detections):
            if feat_ids is not None and track.feature_ids:
                a_sem = semantic_inlier_distance(track.feature_ids, feat_ids)
            else:
                a_sem = 0.5  # no feature evidence either way
            a_iou = 1.0 - bbox_iou(bbox, proj) if proj is not None else 1.0
            a_p = 1.0 - bbox_iou(bbox, predicted)
            cost[i, j] = cfg.theta1 * a_sem + cfg.theta2 * a_iou + cfg.theta3 * a_p
    return cost


def hungarian_assign(cost, gate=float("inf")):
    """Minimum-cost matching with post-hoc gating.

    Ties between equal-cost matchings break toward the lowest (detection,
    track) indices via an infinitesimal lexicographic bias. Returns
    (pairs, unmatched_rows, unmatched_cols).
    """
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    if m == 0 or n == 0:
        return [], list(range(m)), list(range(n))
    scale = 1.0 + np.max(np.abs(cost))
    bias = np.arange(m * n, dtype=float).reshape(m, n) / (m * n)
    rows, cols = linear_sum_assignment(cost + 1e-9 * scale * bias)
    pairs = []
    unmatched_rows = set(range(m))
    unmatched_cols = set(range(n))
    for i, j in zip(rows, cols):
        if cost[i, j] > gate:
            continue
        pairs.append((int(i), int(j)))
        unmatched_rows.discard(int(i))
        unmatched_cols.discard(int(j))
    return pairs, sorted(unmatched_rows), sorted(unmatched_cols)


def scene_flow_label(p_prev_w, p_curr_w, motion: Pose | None = None,
                     cfg: MotionDetectorConfig | None = None) -> PointLabel:
    """Residual world motion after compensating the object's rigid motion."""
    if cfg is None:
        cfg = MotionDetectorConfig()
    if motion is None:
        motion = Pose.identity()
    flow = np.asarray(p_curr_w, dtype=float) - motion.apply(np.asarray(p_prev_w, dtype=float))
    return PointLabel.DYNAMIC if np.linalg.norm(flow) > cfg.scene_flow_thresh else PointLabel.STATIC


def classify_object_motion(track: ObjectTrack, point_labels,
                           cfg: MotionDetectorConfig | None = None) -> MotionLabel:
    """Fuse per-point labels and recent pose translation into the track's
    motion label via an EMA belief with a hysteresis band."""
    if cfg is None:
        cfg = MotionDetectorConfig()
    ratio = (
        sum(1 for l in point_labels if l is PointLabel.DYNAMIC) / len(point_labels) if point_labels else 0.0
    )
    vote = ratio > cfg.dynamic_ratio
    if not vote and len(track.pose_history) >= 2:
        recent = list(track.pose_history)
        steps = [
            np.linalg.norm(b[1].translation - a[1].translation)
            for a, b in zip(recent[:-1], recent[1:])
        ]
        if steps and float(np.mean(steps)) > cfg.scene_flow_thresh:
            vote = True
    track.dynamic_belief = (1.0 - cfg.ema_alpha) * track.dynamic_belief + cfg.ema_alpha * (
        1.0 if vote else 0.0
    )
    if track.dynamic_belief > cfg.belief_high:
        track.motion_label = MotionLabel.DYNAMIC
    elif track.dynamic_belief < cfg.belief_low:
        track.motion_label = MotionLabel.STATIC
    return track.motion_label


MAX_MISSED_FRAMES = 15


class TrackManager:
    """Owns the track set and the monotone id counter."""

    def __init__(self, cost_cfg: AssignmentCostConfig | None = None):
        self.tracks: list[ObjectTrack] = []
        self.cost_cfg = cost_cfg or AssignmentCostConfig()
        self._next_id = 0

    def new_track(self, bbox: BBox, feature_ids=None) -> ObjectTrack:
        track = ObjectTrack(id=self._next_id, kf=KfBoxState.from_bbox(bbox), last_bbox=bbox)
        if feature_ids:
            track.feature_ids = set(feature_ids)
        self._next_id += 1
        self.tracks.append(track)
        return track

    def step(self, detections, projected_bboxes=None):
        """One association round: match, update matched KFs, spawn tracks
        for unmatched detections, age and prune stale tracks.

        `detections` is a list of (BBox, feature-id set or None). Returns
        the list of (detection index, track) pairs for this frame.
        """
        cost = build_cost_matrix(detections, self.tracks, self.cost_cfg, projected_bboxes)
        pairs, unmatched_dets, unmatched_tracks = hungarian_assign(cost, self.cost_cfg.gate)
        matched = []
        for i, j in pairs:
            track = self.tracks[j]
            bbox, feat_ids = detections[i]
            track.kf, _ = kf_predict(track.kf)
            track.kf = kf_update(track.kf, bbox)
            track.last_bbox = bbox
            track.frames_since_assoc = 0
            if feat_ids is not None:
                track.feature_ids = set(feat_ids)
            matched.append((i, track))
        for j in unmatched_tracks:
            track = self.tracks[j]
            track.kf, pred = kf_predict(track.kf)
            track.last_bbox = pred
            track.frames_since_assoc += 1
        for i in unmatched_dets:
            bbox, feat_ids = detections[i]
            matched.append((i, self.new_track(bbox, feat_ids)))
        self.tracks = [t for t in self.tracks if t.frames_since_assoc < MAX_MISSED_FRAMES]
        return matched
