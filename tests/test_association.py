import numpy as np

from conftest import brute_force_assignment_cost
from ellipslam.association import (
    AssignmentCostConfig,
    KfBoxState,
    MotionLabel,
    ObjectTrack,
    PointLabel,
    TrackManager,
    build_cost_matrix,
    classify_object_motion,
    hungarian_assign,
    kf_predict,
    kf_update,
    scene_flow_label,
    semantic_inlier_distance,
)
from ellipslam.quadrics import BBox
from ellipslam.se3 import Pose


class TestKalmanBox:
    def test_zero_velocity_keeps_bbox(self):
        s = KfBoxState.from_bbox(BBox(10, 20, 50, 60))
        _, pred = kf_predict(s)
        assert np.allclose(pred.vector(), [10, 20, 50, 60], atol=1e-9)

    def test_velocity_shifts_center(self):
        s = KfBoxState.from_bbox(BBox(10, 20, 50, 60))
        s.x[4] = 5.0
        _, pred = kf_predict(s)
        assert np.allclose(pred.center()[0], 35.0)

    def test_predict_grows_covariance(self):
        s = KfBoxState.from_bbox(BBox(10, 20, 50, 60))
        s2, _ = kf_predict(s)
        assert np.trace(s2.p) >= np.trace(s.p)

    def test_update_shrinks_covariance(self):
        s = KfBoxState.from_bbox(BBox(10, 20, 50, 60))
        s2 = kf_update(s, BBox(10, 20, 50, 60))
        assert np.trace(s2.p) < np.trace(s.p)

    def test_update_with_prediction_keeps_mean(self):
        s = KfBoxState.from_bbox(BBox(10, 20, 50, 60))
        s2 = kf_update(s, s.bbox())
        assert np.allclose(s2.x[:4], s.x[:4], atol=1e-9)

    def test_repeated_obs_converges(self):
        # gate-sized initial offset; repeated identical observations pull the
        # state onto the measurement
        s = KfBoxState.from_bbox(BBox(70, 80, 110, 100))
        target = BBox(100, 100, 140, 120)
        for _ in range(20):
            s, _ = kf_predict(s)
            s = kf_update(s, target)
        assert np.max(np.abs(s.bbox().vector() - target.vector())) < 0.1


class TestSemanticDistance:
    def test_identical(self):
        assert semantic_inlier_distance({1, 2, 3}, {1, 2, 3}) == 0.0

    def test_disjoint(self):
        assert semantic_inlier_distance({1, 2}, {3, 4}) == 1.0

    def test_half_overlap(self):
        prev = {1, 2, 3, 4}
        cur = {3, 4, 5, 6, 7, 8, 9, 10}
        # 2 of 8 current features tracked -> distance 0.75; use 4 of 8 for 0.5
        cur = {1, 2, 3, 4, 5, 6, 7, 8}
        assert semantic_inlier_distance(prev, cur) == 0.5


class TestCostMatrix:
    def make_track(self, bbox, feat_ids):
        t = ObjectTrack(id=0, kf=KfBoxState.from_bbox(bbox), last_bbox=bbox)
        t.feature_ids = set(feat_ids)
        return t

    def test_perfect_match_cost_zero(self):
        b = BBox(10, 10, 50, 50)
        track = self.make_track(b, {1, 2, 3})
        cost = build_cost_matrix([(b, {1, 2, 3})], [track])
        assert cost.shape == (1, 1)
        assert cost[0, 0] < 1e-9

    def test_no_overlap_cost_four(self):
        track = self.make_track(BBox(10, 10, 50, 50), {1, 2})
        cost = build_cost_matrix([(BBox(200, 200, 240, 240), {3, 4})], [track])
        assert abs(cost[0, 0] - 4.0) < 1e-9

    def test_components_sum(self):
        rng = np.random.default_rng(30)
        cfg = AssignmentCostConfig()
        tracks = []
        dets = []
        for i in range(3):
            x = rng.uniform(0, 400)
            y = rng.uniform(0, 300)
            b = BBox(x, y, x + rng.uniform(20, 80), y + rng.uniform(20, 80))
            tracks.append(self.make_track(b, set(range(i * 5, i * 5 + 5))))
            x = rng.uniform(0, 400)
            y = rng.uniform(0, 300)
            dets.append((BBox(x, y, x + rng.uniform(20, 80), y + rng.uniform(20, 80)),
                         set(range(i * 5, i * 5 + 5))))
        cost = build_cost_matrix(dets, tracks, cfg)
        from ellipslam.quadrics import bbox_iou

        for i, (db, dfeat) in enumerate(dets):
            for j, tr in enumerate(tracks):
                _, pred = kf_predict(tr.kf)
                expected = (
                    cfg.theta1 * semantic_inlier_distance(tr.feature_ids, dfeat)
                    + cfg.theta2 * (1.0 - bbox_iou(db, tr.last_bbox))
                    + cfg.theta3 * (1.0 - bbox_iou(db, pred))
                )
                assert abs(cost[i, j] - expected) < 1e-12


class TestHungarian:
    def test_identity_diagonal(self):
        cost = np.full((4, 4), 10.0)
        np.fill_diagonal(cost, 0.0)
        pairs, ur, uc = hungarian_assign(cost)
        assert sorted(pairs) == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert not ur and not uc

    def test_matches_brute_force_square_and_rect(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            m = rng.integers(1, 7)
            n = rng.integers(1, 7)
            cost = rng.uniform(0, 10, size=(m, n))
            pairs, _, _ = hungarian_assign(cost)
            total = sum(cost[i, j] for i, j in pairs)
            assert len(pairs) == min(m, n)
            assert abs(total - brute_force_assignment_cost(cost)) < 1e-9

    def test_matching_is_injective(self):
        rng = np.random.default_rng(32)
        cost = rng.uniform(0, 5, size=(5, 3))
        pairs, _, _ = hungarian_assign(cost)
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)

    def test_gate_removes_expensive_pairs(self):
        cost = np.array([[0.1, 9.0], [9.0, 0.2]])
        pairs, ur, uc = hungarian_assign(cost, gate=1.0)
        assert sorted(pairs) == [(0, 0), (1, 1)]
        cost = np.array([[5.0]])
        pairs, ur, uc = hungarian_assign(cost, gate=1.0)
        assert pairs == [] and ur == [0] and uc == [0]

    def test_deterministic_tie_break(self):
        cost = np.zeros((2, 2))
        pairs, _, _ = hungarian_assign(cost)
        assert sorted(pairs) == [(0, 0), (1, 1)]


class TestSceneFlow:
    def test_static_point(self):
        assert scene_flow_label([1, 2, 3], [1, 2, 3]) is PointLabel.STATIC

    def test_moving_point(self):
        assert scene_flow_label([0, 0, 0], [0.3, 0, 0]) is PointLabel.DYNAMIC

    def test_threshold_boundary_strict(self):
        assert scene_flow_label([0, 0, 0], [0.15, 0, 0]) is PointLabel.STATIC

    def test_compensated_rigid_motion(self):
        motion = Pose(np.eye(3), [0.5, 0.0, 0.0])
        assert scene_flow_label([1, 1, 1], [1.5, 1, 1], motion) is PointLabel.STATIC


class TestMotionClassification:
    def test_all_static_converges_static(self):
        track = ObjectTrack(id=0, kf=KfBoxState.from_bbox(BBox(0, 0, 1, 1)))
        for _ in range(10):
            classify_object_motion(track, [PointLabel.STATIC] * 10)
        assert track.motion_label is MotionLabel.STATIC

    def test_half_dynamic_reaches_dynamic_by_frame_4(self):
        track = ObjectTrack(id=0, kf=KfBoxState.from_bbox(BBox(0, 0, 1, 1)))
        track.dynamic_belief = 0.0
        labels = [PointLabel.DYNAMIC] * 5 + [PointLabel.STATIC] * 5
        for frame in range(1, 11):
            classify_object_motion(track, labels)
            if track.motion_label is MotionLabel.DYNAMIC:
                break
        assert frame <= 4
        assert track.motion_label is MotionLabel.DYNAMIC

    def test_alternating_votes_hysteresis(self):
        track = ObjectTrack(id=0, kf=KfBoxState.from_bbox(BBox(0, 0, 1, 1)))
        labels_by_parity = {0: [PointLabel.DYNAMIC] * 10, 1: [PointLabel.STATIC] * 10}
        seen = []
        for i in range(60):
            classify_object_motion(track, labels_by_parity[i % 2])
            seen.append(track.motion_label)
        assert len(set(seen[-20:])) == 1  # settled in the hysteresis band

    def test_pose_translation_triggers_dynamic(self):
        track = ObjectTrack(id=0, kf=KfBoxState.from_bbox(BBox(0, 0, 1, 1)))
        for f in range(12):
            track.pose_history.append((f, Pose(np.eye(3), [0.3 * f, 0.0, 0.0])))
            classify_object_motion(track, [])
        assert track.motion_label is MotionLabel.DYNAMIC


class TestLifecycle:
    def test_matched_every_frame_lives(self):
        mgr = TrackManager()
        b = BBox(10, 10, 50, 50)
        for _ in range(40):
            mgr.step([(b, None)])
        assert len(mgr.tracks) == 1
        assert mgr.tracks[0].frames_since_assoc == 0

    def test_dies_on_15th_miss(self):
        mgr = TrackManager()
        mgr.step([(BBox(10, 10, 50, 50), None)])
        for i in range(14):
            mgr.step([])
            assert len(mgr.tracks) == 1, f"died early at miss {i + 1}"
        mgr.step([])
        assert len(mgr.tracks) == 0

    def test_survives_14_misses_then_match(self):
        mgr = TrackManager()
        b = BBox(10, 10, 50, 50)
        mgr.step([(b, None)])
        for _ in range(14):
            mgr.step([])
        mgr.step([(b, None)])
        assert len(mgr.tracks) == 1
        assert mgr.tracks[0].frames_since_assoc == 0

    def test_ids_monotone(self):
        mgr = TrackManager()
        mgr.step([(BBox(0, 0, 10, 10), {1}), (BBox(100, 100, 120, 120), {2})])
        ids0 = sorted(t.id for t in mgr.tracks)
        mgr.step([(BBox(300, 300, 320, 320), {3})])
        ids1 = sorted(t.id for t in mgr.tracks)
        assert ids0 == [0, 1]
        assert max(ids1) == 2
