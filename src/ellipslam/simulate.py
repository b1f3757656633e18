"""Deterministic synthetic scene generation.

Two scenario families:

  * the static arc benchmark: one ellipsoid observed by a handful of cameras
    evenly spread over a narrow circular arc, with independent noise sweeps
    over camera-pose error and detection-bbox error,
  * dynamic rigid-object scenes: objects carrying fixed surface features
    move at constant velocity while a camera observes features (pixel +
    depth), detections and ground-truth states per frame.

Randomness is drawn from counter-based Philox streams keyed by
(seed, trial, frame, entity) so output is reproducible regardless of
generation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import Detection, Feature, FrameObservation, GtObject
from .errors import DegenerateProjection
from .quadrics import BBox, QuadricParams, project_quadrics
from .se3 import Intrinsics, Pose, Twist, compose, inverse, project, se3_exp, se3_log


def rng_for(seed, *path) -> np.random.Generator:
    """Independent deterministic stream for a (seed, *path) key."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path))))


def look_at(eye, target, down=(0.0, 1.0, 0.0)) -> Pose:
    eye = np.asarray(eye, dtype=float)
    z = np.asarray(target, dtype=float) - eye
    z = z / np.linalg.norm(z)
    x = np.cross(np.asarray(down, dtype=float), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(np.stack([x, y, z], axis=1), eye)


def yaw_pose(yaw_rad, translation) -> Pose:
    c, s = np.cos(yaw_rad), np.sin(yaw_rad)
    r = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return Pose(r, translation)


def fibonacci_sphere(n) -> np.ndarray:
    """Deterministic, roughly uniform unit directions."""
    i = np.arange(n)
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - y * y)
    return np.stack([r * np.cos(phi), y, r * np.sin(phi)], axis=1)


def antipodal_surface_points(axes, n) -> np.ndarray:
    """Object-frame surface samples in antipodal pairs (centroid exactly 0)."""
    half = max(1, n // 2)
    d = fibonacci_sphere(half)
    pts = np.concatenate([d, -d], axis=0)[:n]
    return pts * np.asarray(axes, dtype=float)


@dataclass
class StaticArcConfig:
    n_cameras: int = 5
    arc_degrees: float = 18.0
    radius: float = 12.0
    axis_low: float = 0.75
    axis_high: float = 2.25
    yaw_range_deg: float = 5.0
    image_width: int = 640
    image_height: int = 480
    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    n_surface_points: int = 80
    ellipsoids_per_seed: int = 10

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.fx, self.fy, self.cx, self.cy)


@dataclass
class NoiseConfig:
    pose_translation_pct: float = 0.0
    rotation_pct: float = 0.0
    bbox_pct: float = 0.0


def arc_poses(cfg: StaticArcConfig):
    angles = np.deg2rad(np.linspace(-cfg.arc_degrees / 2.0, cfg.arc_degrees / 2.0, cfg.n_cameras))
    return [
        look_at(cfg.radius * np.array([np.sin(a), 0.0, -np.cos(a)]), [0.0, 0.0, 0.0]) for a in angles
    ]


def apply_pose_noise(poses, trans_pct, rot_pct, rng):
    """Perturb the relative pose chain: translation noise scales with the
    relative translation magnitude, rotation noise with the relative angle.
    The first pose is kept exact; zero percentages return the input poses."""
    if trans_pct == 0.0 and rot_pct == 0.0:
        return list(poses)
    out = [poses[0]]
    for prev, curr in zip(poses[:-1], poses[1:]):
        rel = compose(inverse(prev), curr)
        rel_twist = se3_log(rel)
        t_mag = float(np.linalg.norm(rel.translation))
        r_mag = float(np.linalg.norm(rel_twist.phi))
        sigma_t = trans_pct * t_mag / np.sqrt(3.0)
        sigma_r = rot_pct * r_mag / np.sqrt(3.0)
        noise = Twist(rng.normal(scale=sigma_t, size=3) if sigma_t > 0 else np.zeros(3),
                      rng.normal(scale=sigma_r, size=3) if sigma_r > 0 else np.zeros(3))
        rel_noisy = compose(rel, se3_exp(noise))
        out.append(compose(out[-1], rel_noisy))
    return out


def apply_bbox_noise(b: BBox, pct, image_width, rng, image_height=None) -> BBox:
    """Gaussian noise with sigma = pct * image width on every corner
    coordinate; corners re-sorted and clamped to the image."""
    if pct == 0.0:
        return b
    v = b.vector() + rng.normal(scale=pct * image_width, size=4)
    xmin, xmax = sorted((v[0], v[2]))
    ymin, ymax = sorted((v[1], v[3]))
    xmin = float(np.clip(xmin, 0.0, image_width))
    xmax = float(np.clip(xmax, 0.0, image_width))
    if image_height is not None:
        ymin = float(np.clip(ymin, 0.0, image_height))
        ymax = float(np.clip(ymax, 0.0, image_height))
    return BBox(xmin, ymin, xmax, ymax)


def gen_arc_trial(cfg: StaticArcConfig, noise: NoiseConfig, seed, trial):
    """One arc benchmark trial. Returns (gt QuadricParams, frames).

    The emitted camera poses and detection boxes carry the configured noise;
    features (surface samples with exact pixel/depth in the noisy frame's
    own camera geometry) and gt_objects stay exact.
    """
    k = cfg.intrinsics()
    rng_obj = rng_for(seed, trial, 0, 0)
    axes = rng_obj.uniform(cfg.axis_low, cfg.axis_high, size=3)
    yaw = np.deg2rad(rng_obj.uniform(-cfg.yaw_range_deg, cfg.yaw_range_deg))
    gt_pose = yaw_pose(yaw, np.zeros(3))
    gt = QuadricParams(axes, np.zeros(3), gt_pose.rotation)
    cams = arc_poses(cfg)
    noisy_cams = apply_pose_noise(cams, noise.pose_translation_pct, noise.rotation_pct,
                                  rng_for(seed, trial, 1, 0))
    surf = antipodal_surface_points(axes, cfg.n_surface_points)
    surf_w = gt_pose.apply(surf)
    boxes, valid = project_quadrics([gt] * len(cams), [Pose.identity()] * len(cams), cams, k)
    if not valid.all():
        raise DegenerateProjection("an arc camera does not see the ellipsoid as an ellipse")
    frames = []
    for f, (cam, noisy_cam) in enumerate(zip(cams, noisy_cams)):
        bbox = apply_bbox_noise(BBox.from_vector(boxes[f]), noise.bbox_pct, cfg.image_width,
                                rng_for(seed, trial, 2, f), cfg.image_height)
        p_cam = inverse(cam).apply(surf_w)
        uv = np.stack(
            [k.fx * p_cam[:, 0] / p_cam[:, 2] + k.cx, k.fy * p_cam[:, 1] / p_cam[:, 2] + k.cy],
            axis=1,
        )
        features = [
            Feature(id=j, u=float(uv[j, 0]), v=float(uv[j, 1]), depth_m=float(p_cam[j, 2]), instance=0)
            for j in range(len(surf_w))
            if p_cam[j, 2] > 0.1
        ]
        frames.append(
            FrameObservation(
                frame=f,
                time_s=float(f) * 0.1,
                intrinsics=k,
                pose_wc=noisy_cam,
                features=features,
                detections=[Detection(bbox=bbox, instance_gt=0)],
                gt_objects=[GtObject(id=0, pose_wo=gt_pose, axes_m=axes, dynamic=False)],
            )
        )
    return gt, frames


def gen_static_benchmark(cfg: StaticArcConfig, noise: NoiseConfig, seeds):
    """All trials of the arc benchmark: `ellipsoids_per_seed` per seed."""
    trials = []
    for seed in seeds:
        for trial in range(cfg.ellipsoids_per_seed):
            trials.append((seed, trial) + gen_arc_trial(cfg, noise, seed, trial))
    return trials


# --- dynamic scenes ------------------------------------------------------------------


@dataclass
class ObjectSpec:
    axes: np.ndarray
    start: Pose
    velocity: Twist  # world-frame twist per frame, T_{k+1} = exp(v) T_k
    n_surface_features: int = 24

    def is_dynamic(self) -> bool:
        return float(np.linalg.norm(self.velocity.vector())) > 1e-12


@dataclass
class DynamicSceneConfig:
    objects: list = field(default_factory=list)
    n_background_features: int = 60
    n_frames: int = 50
    camera_start: Pose = field(default_factory=Pose.identity)
    camera_velocity: Twist = field(default_factory=lambda: Twist(np.zeros(3), np.zeros(3)))
    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    image_width: int = 640
    image_height: int = 480
    feature_px_sigma: float = 0.0
    depth_noise_coeff: float = 0.0  # sigma_d = coeff * z^2
    background_box_low: tuple = (-8.0, -3.0, 14.0)
    background_box_high: tuple = (8.0, 3.0, 30.0)
    occlusions: list = field(default_factory=list)  # (object index, first frame, last frame)
    seed: int = 0
    time_step_s: float = 0.1

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.fx, self.fy, self.cx, self.cy)


def _occluded(cfg, obj_idx, frame):
    return any(o == obj_idx and a <= frame <= b for o, a, b in cfg.occlusions)


def gen_dynamic_scene(cfg: DynamicSceneConfig):
    """Per-frame observations of rigid constant-velocity objects.

    Object-frame surface features are fixed across frames (rigidity);
    feature ids are stable: background features are 0..n-1, object j's
    features start at 10000 + 1000 * j.
    """
    k = cfg.intrinsics()
    rng_bg = rng_for(cfg.seed, 0)
    low = np.asarray(cfg.background_box_low, dtype=float)
    high = np.asarray(cfg.background_box_high, dtype=float)
    background = rng_bg.uniform(low, high, size=(cfg.n_background_features, 3))
    surf = [antipodal_surface_points(o.axes, o.n_surface_features) for o in cfg.objects]
    # a noise-free scene draws nothing per feature, so it builds no streams
    noisy = cfg.feature_px_sigma > 0 or cfg.depth_noise_coeff > 0

    # one compose per frame: an object steps on the left, the camera on the right
    cam_step = se3_exp(cfg.camera_velocity)
    obj_steps = [se3_exp(o.velocity) for o in cfg.objects]
    cam = cfg.camera_start
    poses = [o.start for o in cfg.objects]
    quads = [QuadricParams(o.axes, np.zeros(3), np.eye(3)) for o in cfg.objects]
    frames = []
    for f in range(cfg.n_frames):
        if f:
            cam = compose(cam, cam_step)
            poses = [compose(step, pose) for step, pose in zip(obj_steps, poses)]
        cam_inv = inverse(cam)
        boxes, valid = project_quadrics(quads, poses, [cam] * len(poses), k)
        features = []
        detections = []
        gt_objects = []

        def emit(fid, p_w, instance, *stream):
            noise_rng = rng_for(cfg.seed, *stream) if noisy else None
            p_cam = cam_inv.apply(p_w)
            if p_cam[2] <= 0.1:
                return
            uv = project(k, p_cam)
            if cfg.feature_px_sigma > 0:
                uv = uv + noise_rng.normal(scale=cfg.feature_px_sigma, size=2)
            if not (0 <= uv[0] < cfg.image_width and 0 <= uv[1] < cfg.image_height):
                return
            depth = p_cam[2]
            if cfg.depth_noise_coeff > 0:
                depth = depth + noise_rng.normal(scale=cfg.depth_noise_coeff * p_cam[2] ** 2)
                if depth <= 0.05:
                    return
            features.append(
                Feature(id=fid, u=float(uv[0]), v=float(uv[1]), depth_m=float(depth), instance=instance)
            )

        for j, p_w in enumerate(background):
            emit(j, p_w, None, 1, f, j)

        for oi, (spec, pose) in enumerate(zip(cfg.objects, poses)):
            gt_objects.append(GtObject(id=oi, pose_wo=pose, axes_m=spec.axes, dynamic=spec.is_dynamic()))
            if _occluded(cfg, oi, f):
                continue
            base = 10000 + 1000 * oi
            for j, p_o in enumerate(surf[oi]):
                emit(base + j, pose.apply(p_o), oi, 2, f, base + j)
            if valid[oi]:
                detections.append(Detection(bbox=BBox.from_vector(boxes[oi]), instance_gt=oi))

        frames.append(
            FrameObservation(
                frame=f,
                time_s=f * cfg.time_step_s,
                intrinsics=k,
                pose_wc=cam,
                features=features,
                detections=detections,
                gt_objects=gt_objects,
            )
        )
    return frames


# --- canned dynamic scenarios ---------------------------------------------------------


def single_dynamic_object_config(seed=0, n_frames=100) -> DynamicSceneConfig:
    """One car-sized object driving at constant velocity across the view."""
    obj = ObjectSpec(
        axes=np.array([1.8, 1.0, 0.8]),
        start=Pose(np.eye(3), [-8.5, 0.5, 18.0]),
        velocity=Twist([0.17, 0.0, 0.0], [0.0, 0.0, 0.0]),
        n_surface_features=14,
    )
    return DynamicSceneConfig(objects=[obj], n_frames=n_frames, seed=seed,
                              n_background_features=16)


def crossing_objects_config(seed=0, n_frames=60) -> DynamicSceneConfig:
    """Three objects whose image tracks cross mid-sequence."""
    objs = [
        ObjectSpec(
            axes=np.array([1.5, 0.9, 0.7]),
            start=Pose(np.eye(3), [-6.0, -1.2, 20.0]),
            velocity=Twist([0.2, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ),
        ObjectSpec(
            axes=np.array([1.2, 1.2, 0.9]),
            start=Pose(np.eye(3), [6.0, 0.0, 22.0]),
            velocity=Twist([-0.2, 0.0, 0.0], [0.0, 0.0, 0.0]),
        ),
        ObjectSpec(
            axes=np.array([0.9, 0.8, 1.1]),
            start=Pose(np.eye(3), [0.0, 1.4, 24.0]),
            velocity=Twist([0.0, 0.0, -0.05], [0.0, 0.0, 0.0]),
        ),
    ]
    return DynamicSceneConfig(objects=objs, n_frames=n_frames, seed=seed,
                              n_background_features=50)


def localization_scene_config(seed=0, n_frames=50, feature_px_sigma=1.0,
                              with_static_object=True) -> DynamicSceneConfig:
    """Static scene with a slowly translating camera for ATE evaluation."""
    objs = []
    if with_static_object:
        objs.append(
            ObjectSpec(
                axes=np.array([1.6, 1.0, 0.8]),
                start=Pose(np.eye(3), [2.0, 1.0, 20.0]),
                velocity=Twist(np.zeros(3), np.zeros(3)),
                n_surface_features=20,
            )
        )
    # the feature corridor must cover the whole camera path so the visible
    # set stays dense to the last frame
    return DynamicSceneConfig(
        objects=objs,
        n_frames=n_frames,
        seed=seed,
        n_background_features=120,
        background_box_low=(-6.0, -3.0, 12.0),
        background_box_high=(11.0, 3.0, 32.0),
        camera_velocity=Twist([0.06, 0.0, 0.02], [0.0, 0.0, 0.0]),
        feature_px_sigma=feature_px_sigma,
        depth_noise_coeff=0.001,
    )
