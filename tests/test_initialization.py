import logging

import numpy as np
import pytest

from conftest import arc_camera_poses, look_at, yaw_rotation
from ellipslam.errors import DivergedOptimization, EmptyCloud, TooFewPoints
from ellipslam.initialization import (
    InitPrior,
    RefineConfig,
    centroid,
    fit_obb_ransac,
    init_sphere,
    refine_quadric,
)
from ellipslam.quadrics import (
    BBox,
    QuadricParams,
    batch_tangent_bboxes,
    bbox_iou,
    conic_to_bbox,
    params_to_dual_quadric,
    project_quadric,
    projection_matrix,
)
from ellipslam.se3 import Intrinsics, Pose, Twist, se3_exp, so3_exp
from ellipslam.simulate import NoiseConfig, StaticArcConfig, gen_arc_trial
from ellipslam.sweep import _world_points_from_frames

K = Intrinsics(500.0, 500.0, 320.0, 240.0)
log = logging.getLogger(__name__)


class TestCentroid:
    def test_single_point(self):
        assert np.allclose(centroid([[1.0, 2.0, 3.0]]), [1, 2, 3])

    def test_symmetric_pair(self):
        assert np.allclose(centroid([[1, 0, 0], [-1, 0, 0]]), [0, 0, 0])

    def test_uniform_ball_statistics(self):
        rng = np.random.default_rng(20)
        c = np.array([2.0, -1.0, 4.0])
        n = 1000
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pts = c + d * rng.uniform(0, 1, size=(n, 1)) ** (1 / 3)
        # component std of a uniform unit ball is sqrt(1/5)
        assert np.linalg.norm(centroid(pts) - c) < 3 * np.sqrt(1 / 5) / np.sqrt(n) * 3

    def test_empty(self):
        with pytest.raises(EmptyCloud):
            centroid([])


def box_surface_points(half, n_per_face=6):
    """Grid of points exactly on an axis-aligned box surface."""
    hx, hy, hz = half
    u = np.linspace(-1.0, 1.0, n_per_face)
    pts = []
    for s in (-1.0, 1.0):
        for a in u:
            for b in u:
                pts.append([s * hx, a * hy, b * hz])
                pts.append([a * hx, s * hy, b * hz])
                pts.append([a * hx, b * hy, s * hz])
    return np.asarray(pts)


class TestObbRansac:
    def test_exact_box(self):
        pts = box_surface_points([1.5, 1.0, 0.5])
        obb = fit_obb_ransac(pts, rng=np.random.default_rng(21))
        assert np.allclose(np.sort(obb.half_extents), [0.5, 1.0, 1.5], atol=1e-6)

    def test_rotation_invariance(self):
        pts = box_surface_points([1.5, 1.0, 0.5])
        r = yaw_rotation(30.0)
        obb = fit_obb_ransac(pts @ r.T, rng=np.random.default_rng(22))
        assert np.allclose(np.sort(obb.half_extents), [0.5, 1.0, 1.5], atol=1e-6)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_obb_ransac(np.zeros((7, 3)))


class TestInitSphere:
    def test_unit(self):
        q = init_sphere([0, 0, 0], InitPrior(radius=1.0))
        assert np.allclose(q.axes, 1.0)
        assert np.allclose(q.translation, 0.0)
        assert np.allclose(q.rotation, np.eye(3))

    def test_offset(self):
        q = init_sphere([0, 0, 10], InitPrior(radius=0.75))
        assert np.allclose(q.axes, 0.75)
        assert np.allclose(q.translation, [0, 0, 10])

    def test_dual_matrix(self):
        r = 0.75
        q = params_to_dual_quadric(init_sphere([0, 0, 10], InitPrior(radius=r))).q
        tm = np.eye(4)
        tm[2, 3] = 10.0
        expected = tm @ np.diag([r * r, r * r, r * r, -1.0]) @ tm.T
        expected /= -expected[3, 3]
        assert np.allclose(q, expected, atol=1e-12)


def arc_observations(gt: QuadricParams, noise_px=0.0, rng=None):
    obs = []
    for t_wc in arc_camera_poses():
        b = conic_to_bbox(project_quadric(gt, Pose.identity(), t_wc, K)).vector()
        if noise_px:
            b = b + rng.normal(scale=noise_px, size=4)
            b = np.array([min(b[0], b[2]), min(b[1], b[3]), max(b[0], b[2]), max(b[1], b[3])])
        from ellipslam.quadrics import BBox

        obs.append((BBox.from_vector(b), t_wc, Pose.identity()))
    return obs


def mean_iou_vs_gt(gt, est):
    vals = []
    for t_wc in arc_camera_poses():
        a = conic_to_bbox(project_quadric(gt, Pose.identity(), t_wc, K))
        b = conic_to_bbox(project_quadric(est, Pose.identity(), t_wc, K))
        vals.append(bbox_iou(a, b))
    return float(np.mean(vals))


class TestRefine:
    def test_noise_free_arc(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            axes = rng.uniform(0.75, 2.25, size=3)
            gt = QuadricParams(axes, np.zeros(3), yaw_rotation(rng.uniform(-5, 5)))
            obs = arc_observations(gt)
            prior = InitPrior(per_axis=np.sort(axes))
            est = refine_quadric(init_sphere(np.zeros(3), prior), obs, prior, k=K)
            assert np.linalg.norm(est.translation - gt.translation) < 0.05
            assert mean_iou_vs_gt(gt, est) > 0.95

    def test_zero_observations_prior_fixed_point(self):
        prior = InitPrior(radius=0.8)
        init = init_sphere([1.0, 2.0, 3.0], prior)
        out = refine_quadric(init, [], prior, k=K)
        assert np.allclose(out.axes, 0.8)
        assert np.allclose(out.translation, [1, 2, 3])

    def test_cost_never_increases(self):
        rng = np.random.default_rng(25)
        gt = QuadricParams([2.0, 1.0, 0.9], np.zeros(3), np.eye(3))
        obs = arc_observations(gt, noise_px=8.0, rng=rng)
        prior = InitPrior(per_axis=np.array([0.9, 1.0, 2.0]))
        init = init_sphere(np.array([0.1, 0.0, -0.2]), prior)
        cfg = RefineConfig()

        def cost_of(q):
            total = 0.0
            for bbox, t_wc, t_wo in obs:
                proj = conic_to_bbox(project_quadric(q, t_wo, t_wc, K))
                total += float(np.sum(((bbox.vector() - proj.vector()) / cfg.bbox_sigma_px) ** 2))
            total += float(np.sum(((np.sort(q.axes) - np.sort(prior.axes())) ** 2) * cfg.prior_size_weight))
            return total

        est = refine_quadric(init, obs, prior, cfg, k=K)
        assert cost_of(est) <= cost_of(init) + 1e-9

    def test_world_frame_equivariance(self):
        rng = np.random.default_rng(26)
        gt = QuadricParams([1.8, 1.2, 0.8], np.zeros(3), yaw_rotation(3.0))
        obs = arc_observations(gt, noise_px=5.0, rng=rng)
        prior = InitPrior(per_axis=np.array([0.8, 1.2, 1.8]))
        init = init_sphere(np.zeros(3), prior)
        est = refine_quadric(init, obs, prior, k=K)

        # transform every camera pose by a rigid G while keeping the object
        # pose the identity: the refined quadric must move by the same G
        g = se3_exp(Twist([4.0, -2.0, 1.0], [0.2, -0.1, 0.3]))
        obs_g = []
        for bbox, t_wc, t_wo in obs:
            t_wc_g = Pose(g.rotation @ t_wc.rotation, g.rotation @ t_wc.translation + g.translation)
            obs_g.append((bbox, t_wc_g, t_wo))
        init_g = QuadricParams(init.axes, g.apply(init.translation), g.rotation @ init.rotation)
        est_g = refine_quadric(init_g, obs_g, prior, k=K)
        assert np.linalg.norm(est_g.translation - g.apply(est.translation)) < 1e-6
        assert np.allclose(np.sort(est_g.axes), np.sort(est.axes), atol=1e-7)


def sweep_refine_inputs(seed, trial, bbox_pct=0.04):
    """The sphere_refine inputs of one trial of the bbox-noise arc sweep."""
    cfg = StaticArcConfig()
    _, frames = gen_arc_trial(cfg, NoiseConfig(bbox_pct=bbox_pct), seed, trial)
    pts = _world_points_from_frames(frames)
    obb = fit_obb_ransac(pts, rng=np.random.default_rng(seed * 1009 + trial))
    prior = InitPrior(per_axis=np.maximum(np.sort(obb.half_extents), 1e-6))
    obs = [(f.detections[0].bbox, f.pose_wc, Pose.identity()) for f in frames]
    return init_sphere(pts.mean(axis=0), prior), obs, prior, cfg.intrinsics()


def assert_matches_reference(init, obs, prior, k=K):
    """The batched refinement returns bit-identical parameters to the
    per-residual oracle."""
    ref = reference_refine_quadric(init, obs, prior, k=k)
    est = refine_quadric(init, obs, prior, k=k)
    assert np.array_equal(est.axes, ref.axes)
    assert np.array_equal(est.translation, ref.translation)
    assert np.array_equal(est.rotation, ref.rotation)


def tangent_box_valid(q: QuadricParams, t_wc: Pose) -> bool:
    mat = projection_matrix(t_wc, K)[None]
    z_row = np.linalg.inv(t_wc.matrix())[2][None]
    _, valid = batch_tangent_bboxes(q.axes[None], q.translation[None], q.rotation[None], mat, z_row)
    return bool(valid[0])


class TestRefineOracle:
    """`refine_quadric` evaluates each iteration and its finite-difference
    perturbations in one batched call; the results must equal those of the
    loop it replaced to the bit."""

    @staticmethod
    def noisy_arc():
        gt = QuadricParams([1.8, 1.2, 0.8], np.zeros(3), yaw_rotation(3.0))
        obs = arc_observations(gt, noise_px=5.0, rng=np.random.default_rng(26))
        prior = InitPrior(per_axis=np.array([0.8, 1.2, 1.8]))
        return init_sphere(np.zeros(3), prior), obs, prior

    def test_noise_free_arc(self):
        rng = np.random.default_rng(24)
        for _ in range(3):
            axes = rng.uniform(0.75, 2.25, size=3)
            gt = QuadricParams(axes, np.zeros(3), yaw_rotation(rng.uniform(-5, 5)))
            prior = InitPrior(per_axis=np.sort(axes))
            assert_matches_reference(init_sphere(np.zeros(3), prior), arc_observations(gt), prior)

    @pytest.mark.parametrize("seed,trial", [(0, t) for t in range(4)] + [(2, t) for t in range(4)])
    def test_noisy_sweep_trials(self, seed, trial):
        init, obs, prior, k = sweep_refine_inputs(seed, trial)
        assert_matches_reference(init, obs, prior, k=k)

    def test_observation_dropped_at_every_iterate(self, caplog):
        init, obs, prior = self.noisy_arc()
        eye = np.array([0.0, 0.0, -12.0])
        away = look_at(eye, 2.0 * eye)
        assert not tangent_box_valid(init, away)
        with caplog.at_level(logging.DEBUG, logger="ellipslam.initialization"):
            assert_matches_reference(init, obs + [(obs[0][0], away, Pose.identity())], prior)
        assert "dropped" in caplog.text

    def test_jacobian_columns_skipped(self):
        # a camera 1e-7 m outside the initial sphere: the iterate projects
        # to an ellipse, but stepping the translation towards the camera or
        # growing the axes by h puts the camera inside the quadric
        init, obs, prior = self.noisy_arc()
        cam = look_at(np.array([0.0, 0.0, -(init.axes[0] + 1e-7)]), np.zeros(3))
        assert tangent_box_valid(init, cam)
        stepped = QuadricParams(init.axes, init.translation - [0.0, 0.0, 1e-6], init.rotation)
        assert not tangent_box_valid(stepped, cam)
        grown = QuadricParams(init.axes * np.exp(1e-6), init.translation, init.rotation)
        assert not tangent_box_valid(grown, cam)
        assert_matches_reference(init, obs + [(obs[0][0], cam, Pose.identity())], prior)

    def test_both_raise_on_diverged_refinement(self):
        # a detection 1e200 px away makes the cost overflow to inf, so no
        # step can decrease it while the gradient of the rest stays finite
        init, obs, prior = self.noisy_arc()
        far = BBox(0.0, 0.0, 1e200, 1e200)
        bad = obs + [(far, obs[0][1], Pose.identity())]
        with np.errstate(over="ignore"):
            with pytest.raises(DivergedOptimization):
                reference_refine_quadric(init, bad, prior, k=K)
            with pytest.raises(DivergedOptimization):
                refine_quadric(init, bad, prior, k=K)


def _reference_batch_tangent_bboxes(axes, t, rot, cam_mats, z_rows):
    """Tangent bboxes of one quadric through precomputed 3x4 camera-object
    matrices. Returns (n, 4) bboxes and a per-observation validity mask."""
    n = len(cam_mats)
    return batch_tangent_bboxes(
        np.tile(np.asarray(axes, dtype=float), (n, 1)),
        np.tile(np.asarray(t, dtype=float), (n, 1)),
        np.tile(np.asarray(rot, dtype=float), (n, 1, 1)),
        cam_mats,
        z_rows,
    )


def reference_refine_quadric(
    init: QuadricParams,
    obs,
    prior: InitPrior,
    cfg: RefineConfig | None = None,
    k: Intrinsics | None = None,
) -> QuadricParams:
    """Oracle for `refine_quadric`: its loop before batching, one tangent-box
    call per residual and two per finite-difference Jacobian column.

    `obs` is a list of (BBox, camera pose T_wc, object pose T_wo) triples.
    The semi-axes are optimized in log space (positivity) and the rotation
    by right-multiplied axis-angle increments; damped Gauss-Newton steps are
    only accepted when they decrease the cost. The axis prior compares the
    sorted semi-axes so the ellipsoid's frame permutation symmetry cannot
    fight the data term. Observations whose projection degenerates at the
    current iterate are dropped for that iteration. With no observations the
    initial sphere is the prior fixed point and is returned as-is.
    """
    if cfg is None:
        cfg = RefineConfig()
    if k is None:
        raise ValueError("intrinsics required")
    prior_axes = np.sort(prior.axes())
    if len(obs) == 0:
        return init

    boxes_obs = np.stack([b.vector() for b, _, _ in obs])
    cam_mats = np.stack([projection_matrix(t_wc, k) @ t_wo.matrix() for _, t_wc, t_wo in obs])
    z_rows = np.stack(
        [(np.linalg.inv(t_wc.matrix()) @ t_wo.matrix())[2] for _, t_wc, t_wo in obs]
    )
    prior_w = np.sqrt(cfg.prior_size_weight)

    def residual(x9, rot_base, active):
        axes = np.exp(x9[:3])
        rot_m = rot_base @ so3_exp(x9[6:9])
        boxes, valid = _reference_batch_tangent_bboxes(axes, x9[3:6], rot_m, cam_mats, z_rows)
        if not np.all(valid[active]):
            return None
        rows = ((boxes_obs[active] - boxes[active]) / cfg.bbox_sigma_px).ravel()
        prior_row = (np.sort(axes) - prior_axes) * prior_w
        return np.concatenate([rows, prior_row])

    rot = init.rotation.copy()
    x = np.concatenate([np.log(init.axes), init.translation, np.zeros(3)])
    lam = cfg.lambda_init
    accepted_any = False
    dropped = 0
    for _ in range(cfg.max_iters):
        _, valid = _reference_batch_tangent_bboxes(np.exp(x[:3]), x[3:6], rot, cam_mats, z_rows)
        active = np.flatnonzero(valid)
        dropped += len(obs) - len(active)
        if len(active) == 0:
            log.warning("all %d bbox observations degenerate at the current iterate", len(obs))
            break
        r = residual(x, rot, active)
        cost = float(r @ r)
        if cost < cfg.cost_tol:
            break
        # numeric Jacobian; the fixed step keeps the linearization identical
        # under rigid changes of the world frame (equivariance)
        jac = np.zeros((len(r), 9))
        h = 1e-6
        for j in range(9):
            xp = x.copy()
            xp[j] += h
            xm = x.copy()
            xm[j] -= h
            rp = residual(xp, rot, active)
            rm = residual(xm, rot, active)
            if rp is None or rm is None:
                continue
            jac[:, j] = (rp - rm) / (2.0 * h)
        g = jac.T @ r
        if np.max(np.abs(g)) < cfg.grad_tol:
            break
        jtj = jac.T @ jac
        stepped = False
        delta = np.zeros(9)
        for _ in range(24):
            try:
                delta = np.linalg.solve(jtj + lam * np.eye(9), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            rot_new = rot @ so3_exp(delta[6:9])
            x_new = np.concatenate([x[:6] + delta[:6], np.zeros(3)])
            r_new = residual(x_new, rot_new, active)
            if r_new is not None and float(r_new @ r_new) < cost:
                x = x_new
                rot = rot_new
                lam = max(lam / 10.0, 1e-12)
                stepped = True
                accepted_any = True
                break
            lam *= 10.0
        if not stepped:
            if not accepted_any and np.max(np.abs(g)) > 1e-3:
                raise DivergedOptimization("no downhill step found from the initial guess")
            break
        if np.linalg.norm(delta) < cfg.step_tol:
            break
    if dropped:
        log.debug("refinement dropped %d degenerate observation evaluations", dropped)
    return QuadricParams(np.exp(x[:3]), x[3:6], rot)
