import dataclasses

import numpy as np
import pytest
import scipy.linalg
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
from ellipslam.window import (
    MotionFactor,
    QuadricBBoxFactor,
    ReprojFactor,
    RobustConfig,
    StatePriorFactor,
    _StatePriorBatch,
)


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
    posed = [rec.frame for rec in map(backend.process_frame, frames) if rec.tracks]
    (track,) = backend.tracks.tracks
    assert track.n_posed == len(posed)
    factors = backend.window.factors
    anchors = [f.key for f in factors if isinstance(f, StatePriorFactor) and f.key[0] == "obj"]
    assert anchors == [("obj", posed[0], track.id)]
    first_box = next(f for f in factors if isinstance(f, QuadricBBoxFactor))
    assert first_box.frame == posed[backend.cfg.init_min_frames - 1]
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


def reference_solve_camera_pose(init, obs, k, depth_sigma, huber_delta=2.447):
    """Oracle for `solve_camera_pose`: Levenberg-Marquardt with the
    `SolverConfig()` defaults written out one observation at a time, with
    the 1 mm depth gate, a depth row only where depth is given, a Huber
    weight per observation and at least three observations kept at `init`.
    A step is accepted only when the cost falls and no kept observation is
    lost."""

    def linearized(pose):
        """Per kept observation its rows, Jacobian, Huber weight and cost;
        and the kept mask over all observations."""
        out, kept = [], []
        for x_w, uv, depth in obs:
            p_cam = inverse(pose).apply(x_w)
            z = p_cam[2]
            kept.append(z > 1e-3)
            if not kept[-1]:
                continue
            jp = np.array([[k.fx / z, 0.0, -k.fx * p_cam[0] / z**2], [0.0, k.fy / z, -k.fy * p_cam[1] / z**2]])
            dp = np.hstack([-np.eye(3), skew(p_cam)])
            rr = [np.asarray(uv) - np.array([k.fx * p_cam[0] / z + k.cx, k.fy * p_cam[1] / z + k.cy])]
            jj = [-jp @ dp]
            if depth is not None:
                sd = depth_sigma(z)
                rr.append(np.array([(depth - z) / sd]))
                jj.append((-dp[2] / sd)[None, :])
            rr, norm = np.concatenate(rr), np.linalg.norm(np.concatenate(rr))
            w = 1.0 if norm <= huber_delta else huber_delta / norm
            rho = norm**2 if norm <= huber_delta else 2.0 * huber_delta * norm - huber_delta**2
            out.append((rr, np.vstack(jj), w, rho))
        return out, np.array(kept)

    pose = init
    terms, kept = linearized(pose)
    if kept.sum() < 3:
        return pose
    cost = sum(rho for *_, rho in terms)
    lam, nu = 1e-3, 2.0
    for _ in range(50):
        if not np.isfinite(cost) or cost < 1e-16:
            break
        terms, kept = linearized(pose)
        h = sum(w * (jj.T @ jj) for _, jj, w, _ in terms)
        g = sum(w * (jj.T @ rr) for rr, jj, w, _ in terms)
        if np.max(np.abs(g)) < 1e-12:
            break
        for _ in range(12):
            delta = scipy.linalg.cho_solve(scipy.linalg.cho_factor(h + lam * np.eye(6), lower=True), -g)
            candidate = compose(pose, se3_exp(Twist.from_vector(delta)))
            new_terms, new_kept = linearized(candidate)
            new_cost = sum(rho for *_, rho in new_terms)
            if new_cost < cost and new_kept[kept].all():
                gain = (cost - new_cost) / (delta @ (lam * delta - g))
                lam, nu = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-15), 2.0
                break
            lam, nu = lam * nu, 2.0 * nu
        else:
            break
        pose, rel_decrease, cost = candidate, (cost - new_cost) / max(cost, 1e-300), new_cost
        if np.linalg.norm(delta) < 1e-8 or rel_decrease < 1e-9:
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
        for start in (init, truth):
            pose = solve_camera_pose(start, obs, self.K, sigma, RobustConfig())
            ref = reference_solve_camera_pose(start, obs, self.K, sigma)
            assert np.abs(pose.matrix() - ref.matrix()).max() < 1e-9
            assert np.abs(pose.matrix() - start.matrix()).max() > 1e-6
            # the point 0.5 mm in front of the true camera ends just short
            # of the 1 mm gate: a step past it adds that point's rows, whose
            # pixel residuals are huge at 1 mm depth, so the cost rises and
            # LM rejects the step (Gauss-Newton used to move 4 cm away)
            assert 0.99e-3 < inverse(pose).apply(obs[8][0])[2] <= 1e-3
        # started at the truth, the solve stays within 1 mm of it
        assert np.linalg.norm(pose.translation - truth.translation) < 1e-3

    def test_fewer_than_three_usable_observations_keep_the_pose(self):
        init, _, obs = self.observations()
        behind = [(init.apply([0.1 * i, 0.0, -1.0]), np.array([320.0, 240.0]), None) for i in range(4)]
        sigma = PipelineConfig().depth_sigma
        assert solve_camera_pose(init, obs[:2] + behind, self.K, sigma, RobustConfig()) is init


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


def test_detection_gap_breaks_the_constant_velocity_terms():
    """Across a five-frame detection gap no motion factor joins the poses on
    either side, and the written velocity divides the motion between the
    two poses by the time between them. A factor over frames (28, 29, 35)
    once pulled the object 37 mm off its track, and the velocity read 5.4
    against a true 1.7 m/s."""
    cfg = single_dynamic_object_config(seed=0, n_frames=45)
    cfg.occlusions = [(0, 30, 34)]
    backend = Backend(PipelineConfig(camera_mode="given"))
    posed = 0
    for obs in gen_dynamic_scene(cfg):
        rec = backend.process_frame(obs)
        frames = backend.window.frames
        for f in backend.window.factors:
            if isinstance(f, MotionFactor):
                start = frames.index(f.frames[0])
                assert f.frames == tuple(frames[start : start + 3])
        if rec.tracks:
            (track,) = rec.tracks
            posed += 1
            assert np.linalg.norm(track.pose_wo.translation - obs.gt_objects[0].pose_wo.translation) < 1e-3
            if obs.frame:
                assert np.linalg.norm(track.velocity - [1.7, 0, 0, 0, 0, 0]) < 0.05
    assert posed == 40


def assert_window_invariants(w):
    """The window is bounded, its fixed states and the prior's keys are
    live, and every landmark and quadric is referenced by a factor or
    held by the prior."""
    assert len(w.frames) <= w.capacity
    assert w.fixed <= set(w.values)
    held = set(w.prior.keys) if w.prior is not None else set()
    assert held <= set(w.values)
    referenced = {k for f in w.factors for k in f.keys()} | held
    assert all(k in referenced for k in w.values if k[0] in ("lm", "olm", "quad"))


class TestGivenCamerasHeldFixed:
    """In `given` mode a frame's camera pose is input: the window holds it
    fixed and keeps no background landmark for it. A frame without a pose
    gets a dead-reckoned camera, held by a prior and by its landmarks."""

    def test_posed_frames(self):
        backend = Backend(PipelineConfig(camera_mode="given"))
        for obs in gen_dynamic_scene(single_dynamic_object_config(seed=0, n_frames=100)):
            rec = backend.process_frame(obs)
            w = backend.window
            assert np.array_equal(rec.camera_pose.matrix(), obs.pose_wc.matrix())
            assert w.fixed == {("cam", f) for f in w.frames}
            assert not [k for k in w.values if k[0] == "lm"]
            assert not [f for f in w.factors if isinstance(f, StatePriorFactor) and f.key[0] == "cam"]
            assert_window_invariants(w)
        # the track keeps the poses its readers use, and a count of them all
        (track,) = backend.tracks.tracks
        assert len(track.pose_history) <= 6 and track.n_posed == 100

    def test_frame_without_a_pose(self):
        frames = gen_dynamic_scene(single_dynamic_object_config(seed=0, n_frames=30))
        frames[10] = dataclasses.replace(frames[10], pose_wc=None)
        backend = Backend(PipelineConfig(camera_mode="given"))
        for obs in frames:
            backend.process_frame(obs)
            w = backend.window
            lms = {k for k in w.values if k[0] == "lm"}
            assert_window_invariants(w)
            if obs.frame == 10:
                assert ("cam", 10) not in w.fixed
                assert [f.key for f in w.factors if isinstance(f, StatePriorFactor) and f.key[0] == "cam"] \
                    == [("cam", 10)]
                assert lms == {("lm", f.id) for f in obs.features if f.instance is None and f.depth_m is not None}
                assert lms and all(f.frame == 10 for f in w.factors if isinstance(f, ReprojFactor) and f.track is None)
            elif obs.frame < 10 or obs.frame >= 10 + w.capacity:
                # the frame that observed them has left the window
                assert not lms


def dropout_stream(frames, seed, feature_drop, detection_drop, depth_drop, pose_drop=0.0):
    """The frames with each feature and each detection dropped, and each
    depth and each camera pose removed, with the given probabilities by
    seeded RNGs: what is left is still valid input. The poses draw from an
    RNG of their own, so the other drops do not depend on `pose_drop`."""
    rng, pose_rng = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    for obs in frames:
        feats = [dataclasses.replace(f, depth_m=None) if rng.random() < depth_drop else f
                 for f in obs.features if rng.random() >= feature_drop]
        dets = [d for d in obs.detections if rng.random() >= detection_drop]
        pose = None if pose_rng.random() < pose_drop else obs.pose_wc
        yield dataclasses.replace(obs, features=feats, detections=dets, pose_wc=pose)


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
    def run(scene, seed, *drops, pose_drop=0.0):
        """Runs the stream, camera poses dropped only in `given` mode, and
        checks the window after every frame; returns the frames processed
        until the back-end raised a numerical failure, the only error valid
        input may cause."""
        frames, mode = scene
        backend = Backend(PipelineConfig(camera_mode=mode))
        done = 0
        for obs in dropout_stream(frames, seed, *drops, pose_drop if mode == "given" else 0.0):
            try:
                rec = backend.process_frame(obs)
            except (SingularSystem, DivergedOptimization):
                break
            assert rec.frame == obs.frame
            assert_window_invariants(backend.window)
            if mode == "given" and obs.pose_wc is not None:
                assert ("cam", obs.frame) in backend.window.fixed
                assert np.array_equal(rec.camera_pose.matrix(), obs.pose_wc.matrix())
            done += 1
        return done

    @pytest.mark.parametrize("name, seed, drops", [("single", 0, (0.47, 0.36, 0.42)),
                                                   ("crossing", 13, (0.72, 0.05, 0.61))])
    def test_landmark_seen_again_after_marginalization(self, dropout_scenes, name, seed, drops):
        # these streams raised DanglingFactor when the window marginalized
        # only after the new states had been chosen
        assert self.run(dropout_scenes[name], seed, *drops) == 20

    @pytest.mark.parametrize("name", ["single", "crossing"])
    @pytest.mark.parametrize("pose_drop", [0.1, 0.3, 0.6, 1.0])
    def test_fixed_and_free_cameras_mix(self, dropout_scenes, name, pose_drop):
        assert self.run(dropout_scenes[name], 5, 0.0, 0.0, 0.0, pose_drop=pose_drop) == 20

    @settings(max_examples=8, deadline=None)
    @given(name=st.sampled_from(["single", "crossing", "localization"]), seed=st.integers(0, 2**31 - 1),
           feature_drop=st.floats(0.0, 0.9), detection_drop=st.floats(0.0, 0.6), depth_drop=st.floats(0.0, 0.9),
           pose_drop=st.floats(0.0, 1.0))
    def test_every_frame_returns_a_record(self, dropout_scenes, name, seed, feature_drop, detection_drop,
                                          depth_drop, pose_drop):
        self.run(dropout_scenes[name], seed, feature_drop, detection_drop, depth_drop, pose_drop=pose_drop)
