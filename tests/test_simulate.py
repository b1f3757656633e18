import numpy as np
import pytest

from conftest import camera_pose_at, object_pose_at
from ellipslam import simulate
from ellipslam.dataio import dumps_canonical
from ellipslam.quadrics import BBox, QuadricParams, conic_to_bbox, project_quadric
from ellipslam.se3 import Pose, Twist, compose, inverse
from ellipslam.simulate import (
    DynamicSceneConfig,
    NoiseConfig,
    ObjectSpec,
    StaticArcConfig,
    antipodal_surface_points,
    apply_bbox_noise,
    apply_pose_noise,
    arc_poses,
    crossing_objects_config,
    gen_arc_trial,
    gen_dynamic_scene,
    gen_static_benchmark,
    localization_scene_config,
    rng_for,
    single_dynamic_object_config,
)


class TestRng:
    def test_reproducible(self):
        a = rng_for(3, 1, 2).normal(size=5)
        b = rng_for(3, 1, 2).normal(size=5)
        assert np.array_equal(a, b)

    def test_distinct_paths(self):
        a = rng_for(3, 1, 2).normal(size=5)
        b = rng_for(3, 1, 3).normal(size=5)
        assert not np.array_equal(a, b)


class TestSurfaceSampling:
    def test_antipodal_centroid_exact(self):
        pts = antipodal_surface_points([1.8, 1.0, 0.7], 40)
        assert np.allclose(pts.mean(axis=0), 0.0, atol=1e-15)

    def test_points_on_surface(self):
        axes = np.array([1.8, 1.0, 0.7])
        pts = antipodal_surface_points(axes, 40)
        r = np.linalg.norm(pts / axes, axis=1)
        assert np.allclose(r, 1.0, atol=1e-12)


class TestPoseNoise:
    def test_zero_pct_identity(self):
        poses = arc_poses(StaticArcConfig())
        out = apply_pose_noise(poses, 0.0, 0.0, rng_for(0, 0))
        for a, b in zip(poses, out):
            assert np.array_equal(a.matrix(), b.matrix())

    def test_translation_noise_statistics(self):
        # component std of the injected relative-translation noise must be
        # pct * |dt| / sqrt(3) within 5%
        poses = arc_poses(StaticArcConfig())
        rel = compose(inverse(poses[0]), poses[1])
        target = 0.2 * np.linalg.norm(rel.translation) / np.sqrt(3)
        rng = rng_for(1, 0)
        samples = []
        for _ in range(10_000):
            noisy = apply_pose_noise(poses[:2], 0.2, 0.0, rng)
            rel_n = compose(inverse(noisy[0]), noisy[1])
            samples.append(rel_n.translation - rel.translation)
        std = np.asarray(samples).std(axis=0)
        assert np.all(np.abs(std - target) < 0.05 * target)

    def test_reproducible(self):
        poses = arc_poses(StaticArcConfig())
        a = apply_pose_noise(poses, 0.1, 0.1, rng_for(5, 0))
        b = apply_pose_noise(poses, 0.1, 0.1, rng_for(5, 0))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.matrix(), pb.matrix())


class TestBBoxNoise:
    def test_zero_pct_identity(self):
        b = BBox(100, 100, 200, 200)
        assert apply_bbox_noise(b, 0.0, 640, rng_for(0, 0)) is b

    def test_output_valid_and_clamped(self):
        rng = rng_for(2, 0)
        for _ in range(500):
            out = apply_bbox_noise(BBox(10, 10, 30, 30), 0.1, 640, rng, 480)
            assert out.xmin <= out.xmax and out.ymin <= out.ymax
            assert 0 <= out.xmin and out.xmax <= 640
            assert 0 <= out.ymin and out.ymax <= 480

    def test_noise_statistics(self):
        rng = rng_for(3, 0)
        pct, width = 0.02, 640
        vals = []
        for _ in range(10_000):
            out = apply_bbox_noise(BBox(200, 200, 400, 400), pct, width, rng)
            vals.append(out.xmax - 400.0)
        std = np.std(vals)
        assert abs(std - pct * width) < 0.05 * pct * width


class TestArcBenchmark:
    def test_zero_noise_bboxes_match_projection(self):
        gt, frames = gen_arc_trial(StaticArcConfig(), NoiseConfig(), seed=0, trial=0)
        for frame, cam_gt in zip(frames, arc_poses(StaticArcConfig())):
            recomputed = conic_to_bbox(project_quadric(gt, Pose.identity(), cam_gt, frames[0].intrinsics))
            assert np.allclose(frame.detections[0].bbox.vector(), recomputed.vector(), atol=1e-9)

    def test_deterministic(self):
        a = gen_arc_trial(StaticArcConfig(), NoiseConfig(bbox_pct=0.02), seed=4, trial=7)
        b = gen_arc_trial(StaticArcConfig(), NoiseConfig(bbox_pct=0.02), seed=4, trial=7)
        assert dumps_canonical([f.to_json() for f in a[1]]) == dumps_canonical([f.to_json() for f in b[1]])

    def test_trial_count(self):
        trials = gen_static_benchmark(StaticArcConfig(), NoiseConfig(), seeds=range(10))
        assert len(trials) == 100

    def test_axes_within_range(self):
        cfg = StaticArcConfig()
        for seed in range(3):
            gt, _ = gen_arc_trial(cfg, NoiseConfig(), seed=seed, trial=0)
            assert np.all(gt.axes >= cfg.axis_low) and np.all(gt.axes <= cfg.axis_high)

    def test_features_have_exact_depth(self):
        gt, frames = gen_arc_trial(StaticArcConfig(), NoiseConfig(), seed=1, trial=0)
        cams = arc_poses(StaticArcConfig())
        surf_w = Pose(gt.rotation, gt.translation).apply(
            antipodal_surface_points(gt.axes, StaticArcConfig().n_surface_points)
        )
        f0 = frames[0]
        for feat in f0.features[:10]:
            p_cam = inverse(cams[0]).apply(surf_w[feat.id])
            assert abs(feat.depth_m - p_cam[2]) < 1e-12


class TestDynamicScene:
    def test_static_object_features_constant(self):
        cfg = DynamicSceneConfig(
            objects=[ObjectSpec(axes=np.array([1.0, 0.8, 0.6]), start=Pose(np.eye(3), [0, 0, 15.0]),
                                velocity=Twist(np.zeros(3), np.zeros(3)), n_surface_features=10)],
            n_frames=5,
            n_background_features=0,
        )
        frames = gen_dynamic_scene(cfg)
        first = {f.id: (f.u, f.v, f.depth_m) for f in frames[0].features}
        for fr in frames[1:]:
            for feat in fr.features:
                assert np.allclose(first[feat.id], (feat.u, feat.v, feat.depth_m), atol=1e-12)

    def test_constant_velocity_relative_motion(self):
        cfg = single_dynamic_object_config(seed=0, n_frames=10)
        spec = cfg.objects[0]
        h_ref = None
        for f in range(1, 10):
            h = compose(object_pose_at(spec, f), inverse(object_pose_at(spec, f - 1)))
            if h_ref is None:
                h_ref = h
            assert np.allclose(h.matrix(), h_ref.matrix(), atol=1e-12)

    def test_rigidity_invariant(self):
        cfg = single_dynamic_object_config(seed=0, n_frames=6)
        frames = gen_dynamic_scene(cfg)
        spec = cfg.objects[0]
        pts = antipodal_surface_points(spec.axes, spec.n_surface_features)
        for f, frame in enumerate(frames):
            pose = object_pose_at(spec, f)
            for feat in frame.features:
                if feat.instance != 0:
                    continue
                j = feat.id - 10000
                cam = camera_pose_at(cfg, f)
                p_w = cam.apply(
                    np.array(
                        [
                            (feat.u - cfg.cx) / cfg.fx * feat.depth_m,
                            (feat.v - cfg.cy) / cfg.fy * feat.depth_m,
                            feat.depth_m,
                        ]
                    )
                )
                back_to_obj = inverse(pose).apply(p_w)
                assert np.linalg.norm(back_to_obj - pts[j]) < 1e-9

    def test_feature_counts_with_occlusion(self):
        cfg = single_dynamic_object_config(seed=0, n_frames=8)
        cfg.occlusions = [(0, 3, 5)]
        frames = gen_dynamic_scene(cfg)
        n_obj = cfg.objects[0].n_surface_features
        for f, frame in enumerate(frames):
            obj_feats = [x for x in frame.features if x.instance == 0]
            if 3 <= f <= 5:
                assert len(obj_feats) == 0
                assert len(frame.detections) == 0
            else:
                assert len(obj_feats) == n_obj
                assert len(frame.detections) == 1

    def test_crossing_scene_has_three_objects(self):
        frames = gen_dynamic_scene(crossing_objects_config(n_frames=10))
        assert all(len(f.gt_objects) == 3 for f in frames)
        assert all(len(f.detections) == 3 for f in frames)

    def test_deterministic(self):
        a = gen_dynamic_scene(single_dynamic_object_config(seed=9, n_frames=5))
        b = gen_dynamic_scene(single_dynamic_object_config(seed=9, n_frames=5))
        assert dumps_canonical([f.to_json() for f in a]) == dumps_canonical([f.to_json() for f in b])

    def test_feature_noise_streams_only_in_noisy_scenes(self, monkeypatch):
        # one stream per emitted feature when features are noisy, none when
        # they are exact; the background placement stream is always drawn
        paths = []
        rng = simulate.rng_for

        def spy(seed, *path):
            paths.append(path)
            return rng(seed, *path)

        monkeypatch.setattr(simulate, "rng_for", spy)
        gen_dynamic_scene(crossing_objects_config(seed=1, n_frames=5))
        assert paths == [(0,)]
        paths.clear()
        cfg = localization_scene_config(seed=2, n_frames=5)
        gen_dynamic_scene(cfg)
        per_frame = cfg.n_background_features + sum(o.n_surface_features for o in cfg.objects)
        assert paths[0] == (0,)
        assert len(paths[1:]) == len(set(paths[1:])) == cfg.n_frames * per_frame
