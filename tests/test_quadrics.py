import numpy as np
import pytest

from conftest import arc_camera_poses, sample_ellipsoid_surface, yaw_rotation
from ellipslam.errors import (
    BehindCamera,
    DegenerateProjection,
    InsufficientViews,
    NotAnEllipsoid,
)
from ellipslam.quadrics import (
    BBox,
    DualConic,
    DualQuadric,
    QuadricParams,
    bbox_iou,
    bbox_to_tangent_planes,
    conic_to_bbox,
    dual_quadric_to_params,
    params_to_dual_quadric,
    plane_constraint_row,
    project_quadric,
    svd_closed_form_init,
    unvech,
)
from ellipslam.se3 import Intrinsics, Pose, se3_exp, Twist

K = Intrinsics(500.0, 500.0, 320.0, 240.0)


def vech(q):
    """Upper-triangular row-major vectorization of a symmetric 4x4 matrix,
    the inverse of `unvech`."""
    return q[np.triu_indices(4)]


def random_params(rng):
    axes = rng.uniform(0.5, 3.0, size=3)
    t = rng.normal(scale=5.0, size=3)
    r = se3_exp(Twist(np.zeros(3), rng.normal(size=3))).rotation
    return QuadricParams(axes, t, r)


class TestParamsMatrix:
    def test_unit_sphere(self):
        q = params_to_dual_quadric(QuadricParams([1, 1, 1], [0, 0, 0], np.eye(3)))
        assert np.allclose(q.q, np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_diagonal_axes(self):
        q = params_to_dual_quadric(QuadricParams([2, 1, 1], [0, 0, 0], np.eye(3)))
        assert np.allclose(q.q, np.diag([4.0, 1.0, 1.0, -1.0]))

    def test_translated_sphere_matches_direct_product(self):
        # oracle: the T diag(a^2,-1) T^T product computed independently
        t = np.array([3.0, 0.0, 0.0])
        tm = np.eye(4)
        tm[:3, 3] = t
        expected = tm @ np.diag([1.0, 1.0, 1.0, -1.0]) @ tm.T
        expected /= -expected[3, 3]
        q = params_to_dual_quadric(QuadricParams([1, 1, 1], t, np.eye(3)))
        assert np.allclose(q.q, expected, atol=1e-12)

    def test_round_trip_1000(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            p = random_params(rng)
            q = params_to_dual_quadric(p)
            p2 = dual_quadric_to_params(q)
            assert np.allclose(np.sort(p2.axes), np.sort(p.axes), atol=1e-9)
            assert np.allclose(p2.translation, p.translation, atol=1e-9)
            rdr_a = p.rotation @ np.diag(p.axes**2) @ p.rotation.T
            rdr_b = p2.rotation @ np.diag(p2.axes**2) @ p2.rotation.T
            assert np.allclose(rdr_a, rdr_b, atol=1e-9)
            assert np.linalg.det(p2.rotation) > 0

    def test_canonical_diag(self):
        p = dual_quadric_to_params(DualQuadric(np.diag([4.0, 1.0, 1.0, -1.0])))
        assert np.allclose(p.axes, [1.0, 1.0, 2.0])
        assert np.allclose(p.translation, 0.0)

    def test_degenerate_rejected(self):
        with pytest.raises(NotAnEllipsoid):
            dual_quadric_to_params(DualQuadric(np.diag([4.0, -1.0, 1.0, -1.0])))


class TestProjection:
    def test_sphere_silhouette(self):
        # unit sphere 5 m in front of an identity camera; tangent-cone geometry
        # gives half width f * r / sqrt(d^2 - r^2) = 500 / sqrt(24)
        q = QuadricParams([1, 1, 1], [0, 0, 5], np.eye(3))
        conic = project_quadric(q, Pose.identity(), Pose.identity(), K)
        # the dual conic's center is C[:2, 2] / C[2, 2]
        assert np.allclose(conic.c[:2, 2] / conic.c[2, 2], [320, 240], atol=1e-9)
        b = conic_to_bbox(conic)
        half = 500.0 / np.sqrt(24.0)
        assert np.allclose(b.vector(), [320 - half, 240 - half, 320 + half, 240 + half], atol=1e-6)

    def test_sphere_at_camera_center(self):
        q = QuadricParams([1, 1, 1], [0, 0, 0], np.eye(3))
        with pytest.raises((DegenerateProjection, BehindCamera)):
            project_quadric(q, Pose.identity(), Pose.identity(), K)

    def test_world_frame_invariance(self):
        rng = np.random.default_rng(11)
        q = QuadricParams([1.5, 1.0, 0.8], [0, 0, 0], np.eye(3))
        t_wo = Pose(yaw_rotation(20.0), np.array([0.5, -0.2, 10.0]))
        t_wc = Pose.identity()
        base = project_quadric(q, t_wo, t_wc, K).c
        for _ in range(20):
            g = se3_exp(Twist(rng.normal(size=3), rng.normal(size=3)))
            moved = project_quadric(
                q,
                Pose(g.rotation @ t_wo.rotation, g.rotation @ t_wo.translation + g.translation),
                Pose(g.rotation @ t_wc.rotation, g.rotation @ t_wc.translation + g.translation),
                K,
            ).c
            assert np.allclose(moved, base, atol=1e-8)

    def test_silhouette_bbox_matches_sampled_extremes(self):
        # tangent bbox vs axis-aligned extremes of 1e5 projected surface points
        rng = np.random.default_rng(12)
        q = QuadricParams([2.0, 1.2, 0.7], np.zeros(3), yaw_rotation(4.0))
        t_wo = Pose(np.eye(3), [0.3, -0.1, 11.0])
        bbox = conic_to_bbox(project_quadric(q, t_wo, Pose.identity(), K)).vector()
        pts = sample_ellipsoid_surface(q, 100_000, rng)
        pts = t_wo.apply(pts)
        uv = np.stack([500 * pts[:, 0] / pts[:, 2] + 320, 500 * pts[:, 1] / pts[:, 2] + 240], axis=1)
        sampled = np.array([uv[:, 0].min(), uv[:, 1].min(), uv[:, 0].max(), uv[:, 1].max()])
        assert np.max(np.abs(sampled - bbox)) < 0.5


class TestConicOps:
    def test_circle_bbox(self):
        c = DualConic(np.diag([9.0, 9.0, -1.0]))
        assert np.allclose(conic_to_bbox(c).vector(), [-3, -3, 3, 3])

    def test_scale_invariance(self):
        c = np.diag([9.0, 4.0, -1.0])
        c[0, 2] = c[2, 0] = -2.0
        for lam in (0.5, 3.0, 117.0):
            a = conic_to_bbox(DualConic(c)).vector()
            b = conic_to_bbox(DualConic(lam * c)).vector()
            assert np.allclose(a, b, atol=1e-9)


class TestTangentPlanes:
    def test_planes_contain_camera_center_and_edge_rays(self):
        # every back-projected bbox plane passes through the camera center and
        # through the viewing rays of the two corners on its bbox edge
        k = Intrinsics(1.0, 1.0, 0.0, 0.0)
        t_wc = Pose.identity()
        b = BBox(-1.0, -1.0, 1.0, 1.0)
        planes = bbox_to_tangent_planes(b, k, t_wc)
        corners = {
            0: [(-1, -1), (-1, 1)],
            1: [(1, -1), (1, 1)],
            2: [(-1, -1), (1, -1)],
            3: [(-1, 1), (1, 1)],
        }
        for i, pi in enumerate(planes):
            assert abs(pi @ np.array([0.0, 0.0, 0.0, 1.0])) < 1e-12
            for (u, v) in corners[i]:
                ray_point = np.array([u * 2.0, v * 2.0, 2.0, 1.0])
                assert abs(pi @ ray_point) < 1e-9

    def test_tangency_identity_on_ground_truth(self):
        rng = np.random.default_rng(13)
        q = QuadricParams([1.8, 1.1, 0.9], [0.0, 0.0, 0.0], yaw_rotation(-3.0))
        qw = params_to_dual_quadric(q).q
        for t_wc in arc_camera_poses():
            bbox = conic_to_bbox(project_quadric(q, Pose.identity(), t_wc, K))
            for pi in bbox_to_tangent_planes(bbox, K, t_wc):
                assert abs(pi @ qw @ pi) < 1e-6

    def test_zero_area_bbox(self):
        planes = bbox_to_tangent_planes(BBox(5.0, 7.0, 5.0, 7.0), K, Pose.identity())
        assert planes.shape == (4, 4)
        assert np.allclose(planes[0], planes[1])
        assert np.allclose(planes[2], planes[3])


class TestConstraintRow:
    def test_unit_plane(self):
        row = plane_constraint_row([1, 0, 0, 0])
        assert np.allclose(row, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0])

    def test_hand_expansion(self):
        row = plane_constraint_row([0, 0, 1, -2])
        assert np.allclose(row, [0, 0, 0, 0, 0, 0, 0, 1, -4, 4])

    def test_identity_against_quadratic_form(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            pi = rng.normal(size=4)
            m = rng.normal(size=(4, 4))
            q = m + m.T
            assert abs(plane_constraint_row(pi) @ vech(q) - pi @ q @ pi) < 1e-12

    def test_vech_unvech(self):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(4, 4))
        q = m + m.T
        assert np.allclose(unvech(vech(q)), q)


class TestSvdInit:
    def gt_and_obs(self, rng, noise_px=0.0):
        axes = rng.uniform(0.75, 2.25, size=3)
        q = QuadricParams(axes, np.zeros(3), yaw_rotation(rng.uniform(-5, 5)))
        obs = []
        for t_wc in arc_camera_poses():
            b = conic_to_bbox(project_quadric(q, Pose.identity(), t_wc, K)).vector()
            if noise_px > 0:
                b = b + rng.normal(scale=noise_px, size=4)
                b = np.array([min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]), max(b[1], b[3])])
            obs.append((BBox.from_vector(b), t_wc))
        return q, obs

    def test_noise_free_recovery(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            q, obs = self.gt_and_obs(rng)
            est = svd_closed_form_init(obs, K)
            assert np.linalg.norm(est.translation - q.translation) < 1e-3
            assert np.linalg.norm(np.sort(est.axes) - np.sort(q.axes)) < 1e-3

    def test_two_views_rejected(self):
        rng = np.random.default_rng(17)
        _, obs = self.gt_and_obs(rng)
        with pytest.raises(InsufficientViews):
            svd_closed_form_init(obs[:2], K)

    def test_heavy_bbox_noise_mostly_fails(self):
        # sigma = 4% of a 640 px image; the closed-form baseline should fail
        # to produce an ellipsoid for the majority of trials
        rng = np.random.default_rng(18)
        failures = 0
        trials = 50
        for _ in range(trials):
            _, obs = self.gt_and_obs(rng, noise_px=0.04 * 640)
            try:
                svd_closed_form_init(obs, K)
            except NotAnEllipsoid:
                failures += 1
        assert failures > trials // 2


class TestBBoxIoU:
    def test_identical(self):
        b = BBox(0, 0, 2, 2)
        assert bbox_iou(b, b) == 1.0

    def test_disjoint(self):
        assert bbox_iou(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)) == 0.0

    def test_hand_value(self):
        assert abs(bbox_iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) - 1.0 / 7.0) < 1e-12

    def test_zero_area(self):
        b = BBox(1, 1, 1, 1)
        assert bbox_iou(b, b) == 0.0
