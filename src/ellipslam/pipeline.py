"""Per-frame back-end orchestration.

For every incoming frame: obtain a camera pose (given or estimated from
background features), associate detections with tracks, register object
poses from tracked surface features, classify motion, initialize ellipsoids
once enough evidence accumulated, push states and factors into the sliding
window, solve, and emit the per-frame estimate record.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .association import (
    AssignmentCostConfig,
    MotionDetectorConfig,
    TrackManager,
    classify_object_motion,
    scene_flow_label,
)
from .dataio import EstimateRecord, FrameObservation, TrackEstimate
from .errors import AngleNearPi, BehindCamera, DegenerateProjection, EllipslamError
from .initialization import RefineConfig, centroid, fit_obb_ransac, initial_ellipsoid, refine_quadric
from .metrics import umeyama_alignment
from .quadrics import conic_to_bbox, project_quadric
from .se3 import (
    Intrinsics,
    Pose,
    Twist,
    back_project,
    compose,
    inverse,
    se3_exp,
    se3_log,
)
from .window import (
    MotionFactor,
    QuadricBBoxFactor,
    ReprojFactor,
    RobustConfig,
    SolverConfig,
    StatePriorFactor,
    WindowState,
    _irls_weight_vec,
    reproject,
)

log = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    camera_mode: str = "given"  # "given" or "estimate"
    window_capacity: int = 15
    enable_quadric_factors: bool = True
    enable_motion_factors: bool = True
    feature_sigma_px: float = 1.0
    depth_sigma_coeff: float = 0.001
    depth_sigma_floor: float = 0.02
    use_depth: bool = True
    bbox_sigma_px: float = 4.0
    size_sigma_m: float = 0.5
    quadric_reg_sqrt_info: tuple = (0.1, 0.1, 0.1, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0)
    motion_sigma: tuple = (0.05, 0.05, 0.05, 0.01, 0.01, 0.02)
    init_min_frames: int = 3
    init_min_points: int = 10
    max_bbox_history: int = 12
    camera_prior_sigma: tuple = (1e-3, 1e-3, 1e-3, 5e-4, 5e-4, 5e-4)
    object_anchor_sigma: tuple = (1e-3, 1e-3, 1e-3, 5e-4, 5e-4, 5e-4)
    assoc: AssignmentCostConfig = field(default_factory=AssignmentCostConfig)
    motion: MotionDetectorConfig = field(default_factory=MotionDetectorConfig)
    # warm-started per-frame solves rarely need more than a few iterations;
    # the window is re-solved every frame so sub-ppm polishing is wasted
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(max_iters=3, rel_cost_tol=1e-6))
    refine: RefineConfig = field(default_factory=RefineConfig)

    def depth_sigma(self, z):
        """Depth noise model; elementwise over an array of depths."""
        return np.maximum(self.depth_sigma_floor, self.depth_sigma_coeff * z * z)


def solve_camera_pose(init: Pose, obs, k: Intrinsics, iters=10, px_sigma=1.0,
                      depth_sigma=None, huber_delta=2.447):
    """Pose-only Gauss-Newton over (landmark, pixel, depth) observations on
    the window's reprojection kernel.

    Residual rows are whitened (pixel sigma; `depth_sigma` maps an array of
    predicted depths to depth sigmas) and each observation carries a Huber
    IRLS weight, so a single bad landmark or depth outlier cannot steer the
    pose. Points less than 1 mm in front of the camera are skipped; with
    fewer than three left the current pose is returned.
    """
    x_w = np.array([x for x, _, _ in obs], dtype=float)
    z_px = np.array([uv for _, uv, _ in obs], dtype=float)
    depth = np.array([0.0 if d is None else d for _, _, d in obs])
    has_depth = np.array([d is not None for _, _, d in obs])
    sigma_px = np.full(len(obs), float(px_sigma))
    robust = RobustConfig(huber_delta=huber_delta)
    pose = init
    for _ in range(iters):
        p_cam = (x_w - pose.translation) @ pose.rotation
        sigma_depth = depth_sigma(p_cam[:, 2]) if depth_sigma is not None else 0.2
        # an observation without depth gets an infinite sigma: a zero row
        sigma_depth = np.where(has_depth, sigma_depth, np.inf)
        r, valid, j_cam, _ = reproject(k, p_cam, z_px, sigma_px, depth, sigma_depth, min_depth=1e-3)
        if np.count_nonzero(valid) < 3:
            return pose
        r, j_cam = r[valid], j_cam[valid]
        w = _irls_weight_vec(np.sqrt(np.einsum("mi,mi->m", r, r)), "huber", robust)
        h = np.einsum("m,mri,mrj->ij", w, j_cam, j_cam)
        g = np.einsum("m,mri,mr->i", w, j_cam, r)
        try:
            delta = np.linalg.solve(h + 1e-9 * np.eye(6), -g)
        except np.linalg.LinAlgError:
            return pose
        pose = compose(pose, se3_exp(Twist.from_vector(delta)))
        if np.linalg.norm(delta) < 1e-12:
            break
    return pose


class Backend:
    """Sliding-window SLAM back-end over FrameObservation streams."""

    def __init__(self, cfg: PipelineConfig | None = None):
        self.cfg = cfg or PipelineConfig()
        self.window = WindowState(capacity=self.cfg.window_capacity)
        self.tracks = TrackManager(self.cfg.assoc)
        self.k: Intrinsics | None = None
        self.cam_pose: Pose | None = None
        self.cam_rel: Pose = Pose.identity()
        self.prev_time: float | None = None
        self.prev_world_points: dict = {}  # feature id -> world point (previous frame)

    # -- helpers -------------------------------------------------------------------

    def _camera_pose_for(self, obs: FrameObservation) -> Pose:
        if self.cfg.camera_mode == "given" and obs.pose_wc is not None:
            return obs.pose_wc
        if self.cfg.camera_mode == "given":
            # dead-reckon across gaps in the provided trajectory
            return compose(self.cam_pose, self.cam_rel) if self.cam_pose else Pose.identity()
        # estimate mode: refine from the last solved pose. Extrapolating the
        # velocity here couples the prediction error back into the window's
        # soft gauge mode with gain > 1 and slowly diverges; the pose solve
        # below recovers the actual per-frame motion from the map instead.
        init = self.cam_pose if self.cam_pose is not None else Pose.identity()
        pnp_obs = []
        for f in obs.features:
            if f.instance is not None:
                continue
            key = ("lm", f.id)
            if key in self.window.values:
                pnp_obs.append((self.window.values[key], np.array([f.u, f.v]), f.depth_m))
        if len(pnp_obs) >= 6:
            return solve_camera_pose(
                init, pnp_obs, self.k,
                px_sigma=self.cfg.feature_sigma_px,
                depth_sigma=self.cfg.depth_sigma,
            )
        return init

    def _world_points(self, feats, cam: Pose) -> list:
        """World points of `feats` through `cam`, back-projected in one batch;
        None for a feature without a depth."""
        with_depth = [i for i, f in enumerate(feats) if f.depth_m is not None]
        world = [None] * len(feats)
        if with_depth:
            uv = [(feats[i].u, feats[i].v) for i in with_depth]
            pts = cam.apply_rows(back_project(self.k, uv, [feats[i].depth_m for i in with_depth]))
            for i, p in zip(with_depth, pts):
                world[i] = p.copy()
        return world

    def _register_object_pose(self, track, feats_with_world, frame):
        """Pose observation for this frame from 3D-3D correspondences of
        already-anchored object landmarks; falls back to the constant
        velocity prediction."""
        hist = track.pose_history
        if len(hist) >= 2:
            h = compose(hist[-1][1], inverse(hist[-2][1]))
            predicted = compose(h, hist[-1][1])
        elif hist:
            predicted = hist[-1][1]
        else:
            predicted = None

        shared = [(fid, p_w) for fid, p_w in feats_with_world if fid in track.landmarks]
        if len(shared) >= 3:
            src = np.array([track.landmarks[fid] for fid, _ in shared])
            dst = np.array([p_w for _, p_w in shared])
            if np.linalg.matrix_rank(src - src.mean(axis=0), tol=1e-9) >= 2:
                r, t = umeyama_alignment(src, dst)
                return Pose(r, t)
        if predicted is not None:
            return predicted
        # first sighting: anchor the object frame at the point centroid
        pts = np.array([p_w for _, p_w in feats_with_world])
        return Pose(np.eye(3), centroid(pts))

    def _maybe_init_quadric(self, track):
        """Initialize the track's ellipsoid once it was posed in
        `init_min_frames` frames and holds `init_min_points` landmarks."""
        if track.quadric is not None or len(track.pose_history) < self.cfg.init_min_frames:
            return
        if len(track.landmarks) < self.cfg.init_min_points:
            return
        pts_o = np.array(list(track.landmarks.values()))
        sphere, prior = initial_ellipsoid(pts_o, np.random.default_rng(1000 + track.id), fit_obb_ransac)
        obs = [(bbox, t_wc, t_wo) for _, bbox, t_wc, t_wo in track.bbox_history]
        try:
            track.quadric = refine_quadric(sphere, obs, prior, self.cfg.refine, k=self.k)
        except EllipslamError as exc:  # refinement is best-effort at init time
            log.debug("quadric init for track %d failed: %s", track.id, exc)
            track.quadric = sphere

    def _projected_bbox(self, track, cam: Pose):
        if track.quadric is None or not track.pose_history:
            return None
        try:
            conic = project_quadric(track.quadric, track.pose_history[-1][1], cam, self.k)
            return conic_to_bbox(conic)
        except (BehindCamera, DegenerateProjection):
            return None

    # -- main step -------------------------------------------------------------------

    @blas.single_thread()
    def process_frame(self, obs: FrameObservation) -> EstimateRecord:
        cfg = self.cfg
        if self.k is None:
            self.k = obs.intrinsics
        cam = self._camera_pose_for(obs)
        dt = (obs.time_s - self.prev_time) if self.prev_time is not None else None

        # detections paired with the feature ids inside their mask
        feats_by_mask: dict = {}
        for f in obs.features:
            if f.instance is not None:
                feats_by_mask.setdefault(f.instance, set()).add(f.id)
        detections = [(d.bbox, feats_by_mask.get(d.instance_gt)) for d in obs.detections]
        projected = [self._projected_bbox(t, cam) for t in self.tracks.tracks]
        matched = self.tracks.step(detections, projected)
        # a full window drops its oldest frame now, so the bookkeeping below
        # sees which landmarks and quadrics the window still holds
        self.window.marginalize_oldest()

        # --- object bookkeeping before the window solve
        new_object_poses = {}
        new_object_landmarks = {}
        new_quadrics = {}
        frame_factors = []
        anchors = []
        world_points_this_frame: dict = {}
        world = self._world_points(obs.features, cam)

        for det_idx, track in matched:
            det = obs.detections[det_idx]
            tid = track.id
            mask_ids = feats_by_mask.get(det.instance_gt) or set()
            mask_feats = [
                (f, p_w) for f, p_w in zip(obs.features, world) if f.instance is not None and f.id in mask_ids
            ]
            feats_with_world = []
            for f, p_w in mask_feats:
                if p_w is None:
                    continue
                feats_with_world.append((f.id, p_w))
                world_points_this_frame[f.id] = p_w
            if not feats_with_world:
                continue
            pose = self._register_object_pose(track, feats_with_world, obs.frame)
            track.pose_history.append((obs.frame, pose))
            inv_pose = inverse(pose)
            for fid, p_w in feats_with_world:
                if fid not in track.landmarks:
                    track.landmarks[fid] = inv_pose.apply(p_w)
            track.bbox_history.append((obs.frame, det.bbox, cam, pose))
            if len(track.bbox_history) > cfg.max_bbox_history:
                track.bbox_history.pop(0)

            # motion evidence: raw world displacement of each object point
            labels = []
            for fid, p_w in feats_with_world:
                prev = self.prev_world_points.get(fid)
                if prev is None:
                    continue
                labels.append(scene_flow_label(prev, p_w, None, cfg.motion))
            classify_object_motion(track, labels, cfg.motion)

            self._maybe_init_quadric(track)

            # states and factors for the window; a track's first pose
            # anchors the gauge of its object frame
            new_object_poses[tid] = pose
            if len(track.pose_history) == 1:
                anchors.append(StatePriorFactor(key=("obj", obs.frame, tid), reference=pose,
                                                sqrt_info=1.0 / np.asarray(cfg.object_anchor_sigma)))
            for fid, _ in feats_with_world:
                key = ("olm", tid, fid)
                if key not in self.window.values:
                    new_object_landmarks[(tid, fid)] = track.landmarks[fid]
            if cfg.enable_quadric_factors and track.quadric is not None and ("quad", tid) not in self.window.values:
                new_quadrics[tid] = track.quadric
            for f, p_w in mask_feats:
                if p_w is None:
                    continue
                frame_factors.append(
                    ReprojFactor(
                        frame=obs.frame,
                        lm_id=f.id,
                        z_px=np.array([f.u, f.v]),
                        k=self.k,
                        track=tid,
                        depth=f.depth_m if cfg.use_depth else None,
                        sigma_px=cfg.feature_sigma_px,
                        sigma_depth=cfg.depth_sigma(f.depth_m) if cfg.use_depth else None,
                    )
                )
            if cfg.enable_quadric_factors and track.quadric is not None:
                frame_factors.append(
                    QuadricBBoxFactor(
                        frame=obs.frame, track=tid, bbox=det.bbox, k=self.k, sigma_px=cfg.bbox_sigma_px
                    )
                )

        # background features
        new_landmarks = {}
        for f, p_w in zip(obs.features, world):
            if f.instance is not None:
                continue
            key = ("lm", f.id)
            if key not in self.window.values and f.id not in new_landmarks:
                if p_w is None:
                    continue
                new_landmarks[f.id] = p_w
            frame_factors.append(
                ReprojFactor(
                    frame=obs.frame,
                    lm_id=f.id,
                    z_px=np.array([f.u, f.v]),
                    k=self.k,
                    depth=f.depth_m if cfg.use_depth else None,
                    sigma_px=cfg.feature_sigma_px,
                    sigma_depth=cfg.depth_sigma(f.depth_m) if (cfg.use_depth and f.depth_m) else None,
                )
            )
            if p_w is not None:
                world_points_this_frame[f.id] = p_w

        # --- window update
        self.window.add_frame(
            obs.frame,
            cam,
            object_poses=new_object_poses,
            landmarks=new_landmarks,
            object_landmarks=new_object_landmarks,
            quadrics=new_quadrics,
            factors=[],
        )
        if cfg.camera_mode == "given":
            self.window.add_factor(
                StatePriorFactor(
                    key=("cam", obs.frame), reference=cam, sqrt_info=1.0 / np.asarray(cfg.camera_prior_sigma)
                )
            )
        elif not self.window.fixed and len(self.window.frames) == 1:
            self.window.fixed.add(("cam", obs.frame))
        for f in frame_factors:
            self.window.add_factor(f)
        # a quadric enters the window once, just initialized, and its one
        # prior keeps it there. Its log-axis weights add the size prior,
        # a / size_sigma_m for d a = a d log a, anchored to the refined
        # axes: the raw OBB blend is biased low and would drag the center
        # along the depth direction where bbox constraints are weakest
        for tid, quadric in new_quadrics.items():
            sqrt_info = np.array(cfg.quadric_reg_sqrt_info, dtype=float)
            sqrt_info[:3] = np.hypot(sqrt_info[:3], quadric.axes / cfg.size_sigma_m)
            self.window.add_factor(StatePriorFactor(key=("quad", tid), reference=quadric, sqrt_info=sqrt_info))
        for f in anchors:
            self.window.add_factor(f)
        if cfg.enable_motion_factors:
            for tid in new_object_poses:
                frames = [f for f in self.window.frames if ("obj", f, tid) in self.window.values]
                if len(frames) >= 3:
                    triple = tuple(frames[-3:])
                    self.window.add_factor(
                        MotionFactor(
                            track=tid, frames=triple, sqrt_info=1.0 / np.asarray(cfg.motion_sigma)
                        )
                    )

        if self.window.n_factors:
            self.window.lm_solve(cfg.solver)

        # --- read back optimized states as copies: window states are views
        # into the solver's stacked arrays, which records would keep alive
        cam_opt = _owned(self.window.values[("cam", obs.frame)])
        if self.cam_pose is not None:
            self.cam_rel = compose(inverse(self.cam_pose), cam_opt)
        self.cam_pose = cam_opt

        estimates = []
        for det_idx, track in matched:
            tid = track.id
            key = ("obj", obs.frame, tid)
            if key not in self.window.values:
                continue
            pose_opt = _owned(self.window.values[key])
            track.pose_history[-1] = (obs.frame, pose_opt)
            for fid in track.landmarks:
                if ("olm", tid, fid) in self.window.values:
                    track.landmarks[fid] = self.window.values[("olm", tid, fid)].copy()
            if ("quad", tid) in self.window.values:
                track.quadric = self.window.values[("quad", tid)]
            velocity = np.zeros(6)
            if len(track.pose_history) >= 2 and dt:
                h = compose(track.pose_history[-1][1], inverse(track.pose_history[-2][1]))
                try:
                    velocity = se3_log(h).vector() / dt
                except AngleNearPi:
                    velocity = np.zeros(6)
            quad_axes = track.quadric.axes if track.quadric is not None else None
            quad_pose = None
            if track.quadric is not None:
                quad_pose = compose(pose_opt, Pose(track.quadric.rotation, track.quadric.translation))
            estimates.append(
                TrackEstimate(
                    id=tid,
                    pose_wo=pose_opt,
                    velocity=velocity,
                    motion_label=track.motion_label.value,
                    quadric_axes=quad_axes,
                    quadric_pose=quad_pose,
                    bbox=obs.detections[det_idx].bbox,
                )
            )

        self._retire_dead_tracks()
        self.prev_world_points = world_points_this_frame
        self.prev_time = obs.time_s
        return EstimateRecord(frame=obs.frame, camera_pose=cam_opt, tracks=estimates)

    def _retire_dead_tracks(self):
        """Drop the window factors and states of tracks the manager pruned."""
        self.window.retire_tracks({t.id for t in self.tracks.tracks})


def _owned(pose: Pose) -> Pose:
    return Pose(pose.rotation.copy(), pose.translation.copy())


def run_pipeline(frames, cfg: PipelineConfig | None = None):
    """Run the back-end over an iterable of FrameObservation records."""
    backend = Backend(cfg)
    return [backend.process_frame(obs) for obs in frames]
