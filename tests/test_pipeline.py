import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import camera_pose_at, object_pose_at
from ellipslam import pipeline
from ellipslam.dataio import FrameObservation
from ellipslam.errors import DivergedOptimization, SingularSystem
from ellipslam.initialization import RefineConfig
from ellipslam.metrics import MotAccumulator, ate_rmse, mota, motp
from ellipslam.pipeline import Backend, PipelineConfig, run_pipeline, solve_camera_pose
from ellipslam.quadrics import QuadricParams, conic_to_bbox, project_quadric
from ellipslam.se3 import Intrinsics, Pose, Twist, compose, inverse, se3_exp, se3_log, skew
from ellipslam.simulate import (
    crossing_objects_config,
    gen_dynamic_scene,
    localization_scene_config,
    single_dynamic_object_config,
)
from ellipslam.window import QuadricBBoxFactor, StatePriorFactor, _StatePriorBatch


@pytest.fixture(scope="module")
def results():
    cfg = single_dynamic_object_config(seed=0, n_frames=40)
    frames = gen_dynamic_scene(cfg)
    recs = run_pipeline(frames, PipelineConfig(camera_mode="given"))
    return cfg, recs


class TestDynamicObject:

    def test_track_exists_every_frame(self, results):
        _, recs = results
        assert all(len(r.tracks) == 1 for r in recs)
        assert len({r.tracks[0].id for r in recs}) == 1

    def test_relative_motion_accuracy(self, results):
        cfg, recs = results
        spec = cfg.objects[0]
        h_gt = compose(object_pose_at(spec, 1), inverse(object_pose_at(spec, 0)))
        for f in range(1, len(recs)):
            h_est = compose(recs[f].tracks[0].pose_wo, inverse(recs[f - 1].tracks[0].pose_wo))
            err = np.linalg.norm(se3_log(compose(h_est, inverse(h_gt))).vector())
            assert err < 1e-2

    def test_pose_translation_accuracy(self, results):
        cfg, recs = results
        spec = cfg.objects[0]
        for f, rec in enumerate(recs):
            err = np.linalg.norm(rec.tracks[0].pose_wo.translation - object_pose_at(spec, f).translation)
            assert err < 0.05

    def test_motion_label_dynamic_quickly(self, results):
        _, recs = results
        labels = [r.tracks[0].motion_label for r in recs]
        assert "dynamic" in labels[:10]
        assert all(l == "dynamic" for l in labels[10:])

    def test_velocity_estimate(self, results):
        cfg, recs = results
        # GT twist per frame 0.17 m in x at dt = 0.1 s -> 1.7 m/s
        v = recs[-1].tracks[0].velocity
        assert abs(v[0] - 1.7) < 0.05
        assert np.linalg.norm(v[1:]) < 0.05

    def test_quadric_reported(self, results):
        cfg, recs = results
        spec = cfg.objects[0]
        last = recs[-1].tracks[0]
        assert last.quadric_axes is not None
        assert np.linalg.norm(np.sort(last.quadric_axes) - np.sort(spec.axes)) < 0.5


def arrays_in(obj):
    """Every array reachable from `obj` through dataclass fields, lists,
    tuples and dict values."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_in(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from arrays_in(x)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from arrays_in(x)


def test_read_back_states_own_their_numbers(results):
    # the window's states are views into the solver's stacked arrays; a
    # record or a track landmark that kept such a view would keep the whole
    # stack alive
    backend = Backend(PipelineConfig(camera_mode="given"))
    recs = results[1] + [backend.process_frame(obs)
                         for obs in gen_dynamic_scene(single_dynamic_object_config(seed=0, n_frames=6))]
    arrays = list(arrays_in(recs)) + list(arrays_in([t.landmarks for t in backend.tracks.tracks]))
    assert len(arrays) > 5 * len(recs)
    for a in arrays:
        assert a.base is None or a.base.nbytes <= a.nbytes


def test_quadric_init_uses_the_configured_refinement(monkeypatch):
    """`Backend` hands `PipelineConfig.refine` to `refine_quadric` whole,
    fields beyond the bbox sigma and the prior weight included."""
    seen = []
    refine_quadric = pipeline.refine_quadric

    def spy(init, obs, prior, cfg, k):
        seen.append(cfg)
        return refine_quadric(init, obs, prior, cfg, k=k)

    monkeypatch.setattr(pipeline, "refine_quadric", spy)
    refine_cfg = RefineConfig(prior_size_weight=40.0)
    frames = gen_dynamic_scene(single_dynamic_object_config(seed=0, n_frames=6))
    run_pipeline(frames, PipelineConfig(camera_mode="given", refine=refine_cfg))
    assert seen and all(cfg is refine_cfg for cfg in seen)


def test_track_bookkeeping_read_from_the_track():
    """A track's first pose gets the one object anchor, its ellipsoid is
    initialized in its `init_min_frames`-th posed frame, and its quadric
    enters the window with one unary factor: a state prior on the inserted
    quadric whose log-axis weights add the size prior to the regularizer,
    so that at the reference its J^T J is the removed size prior's plus
    the regularizer's."""
    frames = gen_dynamic_scene(single_dynamic_object_config(seed=0, n_frames=8))
    backend = Backend(PipelineConfig(camera_mode="given"))
    for obs in frames:
        backend.process_frame(obs)
    (track,) = backend.tracks.tracks
    factors = backend.window.factors
    anchors = [f.key for f in factors if isinstance(f, StatePriorFactor) and f.key[0] == "obj"]
    assert anchors == [("obj", track.pose_history[0][0], track.id)]
    first_box = next(f for f in factors if isinstance(f, QuadricBBoxFactor))
    assert first_box.frame == track.pose_history[backend.cfg.init_min_frames - 1][0]
    (prior,) = [f for f in factors if len(f.keys()) == 1 and f.keys()[0][0] == "quad"]
    assert isinstance(prior, StatePriorFactor) and prior.key == ("quad", track.id)
    cfg = backend.cfg
    axes, reg = prior.reference.axes, np.asarray(cfg.quadric_reg_sqrt_info)
    assert np.array_equal(prior.sqrt_info[:3], np.hypot(reg[:3], axes / cfg.size_sigma_m))
    assert np.array_equal(prior.sqrt_info[3:], reg[3:])
    _, _, jac = _StatePriorBatch([prior]).eval({prior.key: prior.reference})
    jtj = jac[0].T @ jac[0]
    expected = np.diag(np.concatenate([axes / cfg.size_sigma_m, np.zeros(6)]) ** 2 + reg**2)
    np.testing.assert_allclose(jtj, expected, rtol=1e-12, atol=0)


class TestStaticObjectScene:
    def test_static_object_stays_static(self):
        cfg = single_dynamic_object_config(seed=3, n_frames=25)
        cfg.objects[0].velocity = type(cfg.objects[0].velocity)(np.zeros(3), np.zeros(3))
        cfg.objects[0].start = Pose(np.eye(3), [0.0, 0.5, 18.0])
        frames = gen_dynamic_scene(cfg)
        recs = run_pipeline(frames, PipelineConfig(camera_mode="given"))
        labels = [r.tracks[0].motion_label for r in recs if r.tracks]
        assert labels[-1] == "static"
        # pose stays put
        t0 = recs[5].tracks[0].pose_wo.translation
        t1 = recs[-1].tracks[0].pose_wo.translation
        assert np.linalg.norm(t1 - t0) < 0.02


class TestCrossingScene:
    def test_mot_perfect(self):
        cfg = crossing_objects_config(seed=1, n_frames=45)
        frames = gen_dynamic_scene(cfg)
        recs = run_pipeline(frames, PipelineConfig(camera_mode="given"))
        acc = MotAccumulator()
        for fr, rec in zip(frames, recs):
            gt_boxes = []
            for g in fr.gt_objects:
                q = QuadricParams(g.axes_m, np.zeros(3), np.eye(3))
                bbox = conic_to_bbox(project_quadric(q, g.pose_wo, fr.pose_wc, fr.intrinsics))
                gt_boxes.append((g.id, bbox))
            est_boxes = [(t.id, t.bbox) for t in rec.tracks if t.bbox is not None]
            acc.update(gt_boxes, est_boxes)
        assert mota(acc) == 1.0
        assert acc.mismatches == 0
        assert motp(acc) >= 0.95


class TestLocalization:
    def test_ate_under_noise(self):
        cfg = localization_scene_config(seed=2, n_frames=35, feature_px_sigma=1.0)
        frames = gen_dynamic_scene(cfg)
        recs = run_pipeline(frames, PipelineConfig(camera_mode="estimate"))
        gt = np.array([camera_pose_at(cfg, f).translation for f in range(len(frames))])
        est = np.array([r.camera_pose.translation for r in recs])
        assert ate_rmse(gt, est) < 0.05

    def test_points_only_run_keeps_no_quadric_state(self):
        # without quadric factors the ellipsoids are still initialized for
        # the records, but a quadric state would have no factor to hold it
        frames = gen_dynamic_scene(localization_scene_config(seed=2, n_frames=20))
        backend = Backend(PipelineConfig(camera_mode="estimate", enable_quadric_factors=False))
        for obs in frames:
            rec = backend.process_frame(obs)
            assert not [k for k in backend.window.values if k[0] == "quad"]
        assert any(t.quadric_axes is not None for t in rec.tracks)


def reference_solve_camera_pose(init, obs, k, depth_sigma, iters=10, huber_delta=2.447):
    """Oracle for `solve_camera_pose`: one observation at a time, with the
    1 mm depth gate, a depth row only where depth is given, a Huber weight
    per observation, at least three observations, a 1e-9 ridge and a
    1e-12 step stop."""
    pose = init
    for _ in range(iters):
        h = np.zeros((6, 6))
        g = np.zeros(6)
        n_used = 0
        for x_w, uv, depth in obs:
            p_cam = inverse(pose).apply(x_w)
            z = p_cam[2]
            if z <= 1e-3:
                continue
            jp = np.array([[k.fx / z, 0.0, -k.fx * p_cam[0] / z**2], [0.0, k.fy / z, -k.fy * p_cam[1] / z**2]])
            dp = np.hstack([-np.eye(3), skew(p_cam)])
            rr = [np.asarray(uv) - np.array([k.fx * p_cam[0] / z + k.cx, k.fy * p_cam[1] / z + k.cy])]
            jj = [-jp @ dp]
            if depth is not None:
                sd = depth_sigma(z)
                rr.append(np.array([(depth - z) / sd]))
                jj.append((-dp[2] / sd)[None, :])
            rr = np.concatenate(rr)
            jj = np.vstack(jj)
            norm = np.linalg.norm(rr)
            w = 1.0 if norm <= huber_delta else huber_delta / norm
            h += w * (jj.T @ jj)
            g += w * (jj.T @ rr)
            n_used += 1
        if n_used < 3:
            return pose
        delta = np.linalg.solve(h + 1e-9 * np.eye(6), -g)
        pose = compose(pose, se3_exp(Twist.from_vector(delta)))
        if np.linalg.norm(delta) < 1e-12:
            break
    return pose


class TestCameraPoseSolve:
    K = Intrinsics(500.0, 500.0, 320.0, 240.0)

    def observations(self, seed=7):
        """Landmarks seen from a known pose: some without depth, one behind
        the camera, one 0.5 mm in front of it, one with a 40 px outlier
        that the Huber weight reaches."""
        rng = np.random.default_rng(seed)
        truth = Pose(np.eye(3), [0.3, -0.1, 0.2])
        p_cam = rng.uniform([-2, -1.5, 3], [2, 1.5, 9], size=(12, 3))
        p_cam[5, 2] = -2.0
        p_cam[8, 2] = 5e-4
        obs = []
        for i, p in enumerate(p_cam):
            uv = np.array([self.K.fx * p[0] / p[2] + self.K.cx, self.K.fy * p[1] / p[2] + self.K.cy])
            uv += rng.normal(scale=0.5, size=2) + (40.0 if i == 3 else 0.0)
            depth = None if i % 3 == 0 else p[2] + rng.normal(scale=0.02)
            obs.append((truth.apply(p), uv, depth))
        init = compose(truth, se3_exp(Twist([0.05, -0.03, 0.04], [0.01, -0.02, 0.015])))
        return init, truth, obs

    def test_matches_per_observation_oracle(self):
        init, truth, obs = self.observations()
        sigma = PipelineConfig().depth_sigma
        # started at the true pose, the point 0.5 mm in front stays inside
        # the 1 mm gate through every iteration
        for start in (init, truth):
            pose = solve_camera_pose(start, obs, self.K, depth_sigma=sigma)
            ref = reference_solve_camera_pose(start, obs, self.K, sigma)
            assert np.abs(pose.matrix() - ref.matrix()).max() < 1e-9
            assert np.abs(pose.matrix() - start.matrix()).max() > 1e-6

    def test_fewer_than_three_usable_observations_keep_the_pose(self):
        init, _, obs = self.observations()
        behind = [(init.apply([0.1 * i, 0.0, -1.0]), np.array([320.0, 240.0]), None) for i in range(4)]
        assert solve_camera_pose(init, obs[:2] + behind, self.K) is init


class TestDegenerateInput:
    def test_empty_frames_no_failure(self):
        k = Intrinsics(500.0, 500.0, 320.0, 240.0)
        backend = Backend(PipelineConfig(camera_mode="given"))
        for f in range(5):
            obs = FrameObservation(frame=f, time_s=0.1 * f, intrinsics=k,
                                   pose_wc=Pose(np.eye(3), [0.1 * f, 0, 0]))
            rec = backend.process_frame(obs)
            assert rec.frame == f
            assert rec.tracks == []

    def test_occlusion_gap_recovers(self):
        cfg = single_dynamic_object_config(seed=4, n_frames=30)
        cfg.occlusions = [(0, 10, 13)]
        frames = gen_dynamic_scene(cfg)
        recs = run_pipeline(frames, PipelineConfig(camera_mode="given"))
        ids = {t.id for r in recs for t in r.tracks}
        assert ids == {0}  # survives the gap without an id switch
        spec = cfg.objects[0]
        err = np.linalg.norm(recs[-1].tracks[0].pose_wo.translation - object_pose_at(spec, 29).translation)
        assert err < 0.1


def dropout_stream(frames, seed, feature_drop, detection_drop, depth_drop):
    """The frames with each feature and each detection dropped, and each
    depth removed, with the given probabilities by a seeded RNG: what is
    left is still valid input."""
    rng = np.random.default_rng(seed)
    for obs in frames:
        feats = [dataclasses.replace(f, depth_m=None) if rng.random() < depth_drop else f
                 for f in obs.features if rng.random() >= feature_drop]
        dets = [d for d in obs.detections if rng.random() >= detection_drop]
        yield dataclasses.replace(obs, features=feats, detections=dets)


@pytest.fixture(scope="module")
def dropout_scenes():
    """20-frame scenes of the three presets, long enough that the 15-frame
    window marginalizes, with the camera mode each runs in."""
    return {"single": (gen_dynamic_scene(single_dynamic_object_config(seed=0, n_frames=20)), "given"),
            "crossing": (gen_dynamic_scene(crossing_objects_config(seed=1, n_frames=20)), "given"),
            "localization": (gen_dynamic_scene(localization_scene_config(seed=2, n_frames=20)), "estimate")}


class TestDropoutStreams:
    """A landmark or quadric seen again after the window dropped it must get
    a new state, not a factor on the removed one (DanglingFactor)."""

    @staticmethod
    def run(scene, seed, *drops):
        """Runs the stream; returns the frames processed until the back-end
        raised a numerical failure, the only error valid input may cause."""
        frames, mode = scene
        backend = Backend(PipelineConfig(camera_mode=mode))
        done = 0
        for obs in dropout_stream(frames, seed, *drops):
            try:
                rec = backend.process_frame(obs)
            except (SingularSystem, DivergedOptimization):
                break
            assert rec.frame == obs.frame
            done += 1
        return done

    @pytest.mark.parametrize("name, seed, drops", [("single", 0, (0.47, 0.36, 0.42)),
                                                   ("crossing", 13, (0.72, 0.05, 0.61))])
    def test_landmark_seen_again_after_marginalization(self, dropout_scenes, name, seed, drops):
        # these streams raised DanglingFactor when the window marginalized
        # only after the new states had been chosen
        assert self.run(dropout_scenes[name], seed, *drops) == 20

    @settings(max_examples=8, deadline=None)
    @given(name=st.sampled_from(["single", "crossing", "localization"]), seed=st.integers(0, 2**31 - 1),
           feature_drop=st.floats(0.0, 0.9), detection_drop=st.floats(0.0, 0.6), depth_drop=st.floats(0.0, 0.9))
    def test_every_frame_returns_a_record(self, dropout_scenes, name, seed, feature_drop, detection_drop,
                                          depth_drop):
        self.run(dropout_scenes[name], seed, feature_drop, detection_drop, depth_drop)
