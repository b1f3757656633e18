import numpy as np
import pytest

from ellipslam.errors import AngleNearPi, BehindCamera, NonPositiveDepth
from ellipslam.se3 import (
    Intrinsics,
    Pose,
    Twist,
    back_project,
    compose,
    inverse,
    pose_from_wire,
    pose_to_wire,
    project,
    se3_exp,
    se3_log,
    se3_log_batch,
)


def random_twist(rng, max_angle=3.0):
    phi = rng.normal(size=3)
    n = np.linalg.norm(phi)
    phi = phi / n * rng.uniform(0, max_angle)
    return Twist(rng.normal(scale=2.0, size=3), phi)


def random_pose(rng, max_angle=3.0):
    return se3_exp(random_twist(rng, max_angle))


K = Intrinsics(500.0, 500.0, 320.0, 240.0)


class TestGroupOps:
    def test_identity_compose(self):
        i = Pose.identity()
        out = compose(i, i)
        assert np.allclose(out.matrix(), np.eye(4))

    def test_inverse_involution(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_pose(rng)
            q = inverse(inverse(p))
            assert np.linalg.norm(q.matrix() - p.matrix()) < 1e-12

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_pose(rng)
            assert np.linalg.norm(compose(p, inverse(p)).matrix() - np.eye(4)) < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = compose(compose(a, b), c).matrix()
            right = compose(a, compose(b, c)).matrix()
            assert np.linalg.norm(left - right) < 1e-12


class TestExpLog:
    def test_exp_zero(self):
        p = se3_exp(Twist(np.zeros(3), np.zeros(3)))
        assert np.allclose(p.matrix(), np.eye(4))

    def test_exp_pure_translation(self):
        p = se3_exp(Twist([1, 0, 0], [0, 0, 0]))
        assert np.allclose(p.rotation, np.eye(3))
        assert np.allclose(p.translation, [1, 0, 0])

    def test_exp_quarter_turn_z(self):
        # Rodrigues by hand for phi = (0, 0, pi/2)
        p = se3_exp(Twist([0, 0, 0], [0, 0, np.pi / 2]))
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(p.rotation, expected, atol=1e-12)

    def test_log_identity(self):
        x = se3_log(Pose.identity())
        assert np.allclose(x.vector(), 0)

    def test_log_pure_translation(self):
        x = se3_log(Pose(np.eye(3), [0, 0, 2]))
        assert np.allclose(x.rho, [0, 0, 2])
        assert np.allclose(x.phi, 0)

    def test_round_trip_1000_random(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(1000):
            x = random_twist(rng, max_angle=3.0)
            y = se3_log(se3_exp(x))
            worst = max(worst, np.linalg.norm(y.vector() - x.vector()))
        assert worst < 1e-9

    def test_round_trip_small_angles(self):
        rng = np.random.default_rng(4)
        for scale in (1e-12, 1e-9, 1e-7):
            x = Twist(rng.normal(size=3), rng.normal(size=3) * scale)
            y = se3_log(se3_exp(x))
            assert np.linalg.norm(y.vector() - x.vector()) < 1e-9

    def test_log_near_pi_raises(self):
        p = se3_exp(Twist(np.zeros(3), [np.pi - 1e-9, 0, 0]))
        with pytest.raises(AngleNearPi):
            se3_log(p)

    def test_log_batch_matches_log_and_flags_branch_cut(self):
        rng = np.random.default_rng(5)
        twists = [random_twist(rng, max_angle=3.0) for _ in range(200)]
        twists += [Twist(rng.normal(size=3), rng.normal(size=3) * 1e-12) for _ in range(5)]
        # large angles on both sides of the 1e-6 band below pi
        for angle in (3.0, np.pi - 1e-4, np.pi - 2e-6, np.pi - 5e-7, np.pi - 1e-9, np.pi):
            axis = rng.normal(size=3)
            twists.append(Twist(rng.normal(size=3), axis / np.linalg.norm(axis) * angle))
        poses = [se3_exp(x) for x in twists]
        logs, near_pi = se3_log_batch(np.stack([p.matrix() for p in poses]))
        assert np.all(np.isfinite(logs))
        flagged = []
        for p, row, near in zip(poses, logs, near_pi):
            try:
                expected = se3_log(p).vector()
            except AngleNearPi:
                flagged.append(True)
                continue
            flagged.append(False)
            np.testing.assert_allclose(row, expected, rtol=1e-9, atol=1e-12)
        assert near_pi.tolist() == flagged
        assert flagged[-6:] == [False, False, False, True, True, True]


class TestPinhole:
    def test_optical_axis(self):
        assert np.allclose(project(K, [0, 0, 5]), [320, 240])

    def test_offset_point(self):
        assert np.allclose(project(K, [1, 0, 5]), [420, 240])

    def test_behind_camera(self):
        with pytest.raises(BehindCamera):
            project(K, [0, 0, -1])

    def test_back_project_center(self):
        assert np.allclose(back_project(K, [320, 240], 5.0), [0, 0, 5])

    def test_back_project_offset(self):
        assert np.allclose(back_project(K, [420, 240], 5.0), [1, 0, 5])

    def test_back_project_nonpositive(self):
        with pytest.raises(NonPositiveDepth):
            back_project(K, [320, 240], 0.0)

    def test_round_trip_1000(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            uv = rng.uniform([0, 0], [640, 480])
            d = rng.uniform(0.1, 50.0)
            assert np.linalg.norm(project(K, back_project(K, uv, d)) - uv) < 1e-9


class TestWireFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            p = random_pose(rng)
            q = pose_from_wire(pose_to_wire(p))
            assert np.linalg.norm(q.matrix() - p.matrix()) < 1e-9

    def test_rejects_denormalized_quaternion(self):
        with pytest.raises(ValueError):
            pose_from_wire([0.5, 0, 0, 0.5, 0, 0, 0])

    def test_pose_validity(self):
        rng = np.random.default_rng(7)
        assert random_pose(rng).is_valid()
        assert not Pose(np.eye(3) * 2.0, np.zeros(3)).is_valid()
