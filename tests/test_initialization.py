import logging

import numpy as np
import pytest
import scipy.linalg

from conftest import arc_camera_poses, look_at, yaw_rotation
from ellipslam import initialization
from ellipslam.errors import DegenerateCloud, DivergedOptimization, EmptyCloud, TooFewPoints
from ellipslam.initialization import (
    InitPrior,
    OrientedBBox,
    RefineConfig,
    centroid,
    fit_obb_ransac,
    init_sphere,
    initial_ellipsoid,
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
    tangent_bbox_jacobian,
)
from ellipslam.se3 import Intrinsics, Pose, Twist, se3_exp
from ellipslam.simulate import NoiseConfig, StaticArcConfig, gen_arc_trial
from ellipslam.sweep import _world_points_from_frames
from ellipslam.window import SolverConfig, retract

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


def _reference_pca_dirs(points):
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / len(points)
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] < 1e-12 * max(evals[-1], 1.0):
        raise DegenerateCloud(f"covariance eigenvalues {evals} rank deficient")
    if np.linalg.det(evecs) < 0:
        evecs[:, 0] = -evecs[:, 0]
    return evecs


def _reference_tight_obb(points, dirs):
    proj = points @ dirs
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    center_local = 0.5 * (lo + hi)
    return dirs @ center_local, 0.5 * (hi - lo)


def reference_fit_obb_ransac(points, max_iters=64, eps=0.05, rng=None) -> OrientedBBox:
    """Oracle for `fit_obb_ransac`: its loop before batching, one PCA box
    and one inlier count per hypothesis."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 8:
        raise TooFewPoints(f"OBB fit needs >= 8 points, got {len(pts)}")
    if rng is None:
        rng = np.random.default_rng(0)
    sample_size = max(8, len(pts) // 2)
    best_count = -1
    best_inliers = None
    for _ in range(max_iters):
        idx = rng.choice(len(pts), size=sample_size, replace=False)
        try:
            dirs = _reference_pca_dirs(pts[idx])
        except DegenerateCloud:
            continue
        center, extents = _reference_tight_obb(pts[idx], dirs)
        local = np.abs((pts - center) @ dirs)
        inside = np.all(local <= extents + eps, axis=1)
        count = int(inside.sum())
        if count > best_count:
            best_count = count
            best_inliers = inside
    if best_inliers is None or best_inliers.sum() < 8:
        raise DegenerateCloud("no consensus set found")
    dirs = _reference_pca_dirs(pts[best_inliers])
    center, extents = _reference_tight_obb(pts[best_inliers], dirs)
    return OrientedBBox(center=center, axes_dirs=dirs, half_extents=extents)


def coplanar_cloud(n_plane, off_plane, rng):
    """`n_plane` points on the plane z = 0 plus the points `off_plane`."""
    pts = np.column_stack([rng.uniform(-1.0, 1.0, size=(n_plane, 2)), np.zeros(n_plane)])
    return np.concatenate([pts, np.reshape(off_plane, (-1, 3))])


class TestObbRansacOracle:
    """`fit_obb_ransac` scores its hypotheses in one batch; it must make
    the same draws and return the same box, to the bit, as the loop it
    replaced."""

    @staticmethod
    def assert_matches_reference(pts, seed):
        rng_ref = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        ref = reference_fit_obb_ransac(pts, rng=rng_ref)
        obb = fit_obb_ransac(pts, rng=rng)
        assert np.array_equal(obb.center, ref.center)
        assert np.array_equal(obb.axes_dirs, ref.axes_dirs)
        assert np.array_equal(obb.half_extents, ref.half_extents)
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(10))
    def test_sweep_clouds(self, seed):
        _, frames = gen_arc_trial(StaticArcConfig(), NoiseConfig(bbox_pct=0.04), seed, 0)
        self.assert_matches_reference(_world_points_from_frames(frames), seed * 1009)

    def test_some_draws_rank_deficient(self):
        # the off-plane point lies within eps of the plane: a draw that
        # misses it is rank deficient, and its flat box would hold every
        # point, one more than the best valid box
        pts = coplanar_cloud(33, [0.2, -0.3, 0.04], np.random.default_rng(3))
        rng = np.random.default_rng(3)
        draws = [rng.choice(len(pts), size=len(pts) // 2, replace=False) for _ in range(64)]
        planar = sum(33 not in idx for idx in draws)
        assert 0 < planar < 64
        self.assert_matches_reference(pts, 3)

    def test_tied_best_hypotheses(self):
        # several hypotheses reach the best count with different inlier
        # sets: the first of them wins
        rng = np.random.default_rng(0)
        pts = np.concatenate([rng.normal(scale=0.3, size=(20, 3)), rng.uniform(-1.5, 1.5, size=(6, 3))])
        rng = np.random.default_rng(0)
        sets = []
        for _ in range(64):
            sub = pts[rng.choice(len(pts), size=len(pts) // 2, replace=False)]
            dirs = _reference_pca_dirs(sub)
            center, extents = _reference_tight_obb(sub, dirs)
            sets.append(np.all(np.abs((pts - center) @ dirs) <= extents + 0.05, axis=1))
        best = max(inside.sum() for inside in sets)
        assert len({inside.tobytes() for inside in sets if inside.sum() == best}) > 1
        self.assert_matches_reference(pts, 0)

    def test_every_draw_degenerate(self):
        pts = coplanar_cloud(60, np.empty((0, 3)), np.random.default_rng(29))
        rng_ref = np.random.default_rng(30)
        rng = np.random.default_rng(30)
        with pytest.raises(DegenerateCloud):
            reference_fit_obb_ransac(pts, rng=rng_ref)
        with pytest.raises(DegenerateCloud):
            fit_obb_ransac(pts, rng=rng)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


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


class TestInitialEllipsoid:
    def test_obb_prior_and_sphere_at_centroid(self):
        pts = box_surface_points([0.4, 0.9, 0.6]) + np.array([1.0, -2.0, 7.0])
        sphere, prior = initial_ellipsoid(pts, np.random.default_rng(5), fit_obb_ransac)
        obb = fit_obb_ransac(pts, rng=np.random.default_rng(5))
        assert np.array_equal(prior.per_axis, np.sort(obb.half_extents))
        assert np.array_equal(sphere.translation, pts.mean(axis=0))
        assert np.allclose(sphere.axes, np.mean(prior.per_axis))

    @pytest.mark.parametrize("n", [7, 12])
    def test_spread_radius_when_the_fit_fails(self, n):
        # 7 points are too few for the fit, 12 coplanar ones degenerate
        pts = np.random.default_rng(6).normal(size=(n, 3)) * [1.0, 0.5, 0.0 if n == 12 else 0.2]
        sphere, prior = initial_ellipsoid(pts, np.random.default_rng(6), fit_obb_ransac)
        assert prior.per_axis is None
        assert prior.radius == float(np.linalg.norm(pts.std(axis=0))) + 1e-3
        assert np.allclose(sphere.axes, prior.radius)

    def test_no_points(self):
        with pytest.raises(EmptyCloud):
            initial_ellipsoid(np.zeros((0, 3)), np.random.default_rng(7), fit_obb_ransac)


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


SWEEP_TRIALS = [(0, t) for t in range(4)] + [(2, t) for t in range(4)]


def sweep_refine_inputs(seed, trial, bbox_pct=0.04):
    """The sphere_refine inputs of one trial of the bbox-noise arc sweep."""
    cfg = StaticArcConfig()
    _, frames = gen_arc_trial(cfg, NoiseConfig(bbox_pct=bbox_pct), seed, trial)
    pts = _world_points_from_frames(frames)
    obb = fit_obb_ransac(pts, rng=np.random.default_rng(seed * 1009 + trial))
    prior = InitPrior(per_axis=np.maximum(np.sort(obb.half_extents), 1e-6))
    obs = [(f.detections[0].bbox, f.pose_wc, Pose.identity()) for f in frames]
    return init_sphere(pts.mean(axis=0), prior), obs, prior, cfg.intrinsics()


def assert_matches_reference(init, obs, prior, k=K, rel_cost_tol=1e-9):
    """The refinement through the shared LM loop returns bit-identical
    parameters to the plain-loop oracle."""
    ref = reference_refine_quadric(init, obs, prior, k=k, rel_cost_tol=rel_cost_tol)
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
    """`refine_quadric` runs the window's LM loop through closures over its
    observations; the results must equal those of the refinement written
    out as one plain loop to the bit."""

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

    @pytest.mark.parametrize("seed,trial", SWEEP_TRIALS)
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

    def test_step_invalidating_a_kept_box_rejected(self):
        # a camera 1e-7 m outside the initial sphere: the iterate projects
        # to an ellipse, but stepping the translation towards the camera or
        # growing the axes puts the camera inside the quadric, which a step
        # must not do to a kept observation
        init, obs, prior = self.noisy_arc()
        cam = look_at(np.array([0.0, 0.0, -(init.axes[0] + 1e-7)]), np.zeros(3))
        assert tangent_box_valid(init, cam)
        stepped = QuadricParams(init.axes, init.translation - [0.0, 0.0, 1e-6], init.rotation)
        assert not tangent_box_valid(stepped, cam)
        grown = QuadricParams(init.axes * np.exp(1e-6), init.translation, init.rotation)
        assert not tangent_box_valid(grown, cam)
        obs = obs + [(obs[0][0], cam, Pose.identity())]
        assert_matches_reference(init, obs, prior)
        assert tangent_box_valid(refine_quadric(init, obs, prior, k=K), cam)

    @pytest.mark.parametrize("seed,trial", SWEEP_TRIALS)
    def test_zero_rel_cost_tol_keeps_full_schedule(self, seed, trial, monkeypatch):
        monkeypatch.setattr(initialization, "SolverConfig", lambda: SolverConfig(rel_cost_tol=0.0))
        init, obs, prior, k = sweep_refine_inputs(seed, trial)
        assert_matches_reference(init, obs, prior, k=k, rel_cost_tol=0.0)

    def test_both_raise_on_diverged_refinement(self):
        # a detection 1e200 px away makes the cost overflow to inf: the
        # loop stops before a step is solved, let alone retracted
        init, obs, prior = self.noisy_arc()
        far = BBox(0.0, 0.0, 1e200, 1e200)
        bad = obs + [(far, obs[0][1], Pose.identity())]
        with np.errstate(over="ignore"):
            with pytest.raises(DivergedOptimization):
                reference_refine_quadric(init, bad, prior, k=K)
            with pytest.raises(DivergedOptimization):
                refine_quadric(init, bad, prior, k=K)


def refine_cost(q: QuadricParams, obs, prior: InitPrior, cfg: RefineConfig, k: Intrinsics) -> float:
    """The cost `refine_quadric` minimizes, with every observation active."""
    boxes, valid = _reference_batch_tangent_bboxes(
        q.axes,
        q.translation,
        q.rotation,
        np.stack([projection_matrix(t_wc, k) @ t_wo.matrix() for _, t_wc, t_wo in obs]),
        np.stack([(np.linalg.inv(t_wc.matrix()) @ t_wo.matrix())[2] for _, t_wc, t_wo in obs]),
    )
    assert valid.all()
    rows = (np.stack([b.vector() for b, _, _ in obs]) - boxes) / cfg.bbox_sigma_px
    prior_row = (np.sort(q.axes) - np.sort(prior.axes())) * np.sqrt(cfg.prior_size_weight)
    return float(np.sum(rows**2) + np.sum(prior_row**2))


def test_relative_cost_stop_ends_converged(monkeypatch):
    """The relative-cost stop ends within 1e-8 relative of the cost of the
    full schedule (`rel_cost_tol` 0), with no more tangent-box calls on any
    trial and fewer in total."""
    calls = []

    def spy(*args):
        calls.append(1)
        return batch_tangent_bboxes(*args)

    def refine_counted(seed, trial):
        init, obs, prior, k = sweep_refine_inputs(seed, trial)
        calls.clear()
        q = refine_quadric(init, obs, prior, k=k)
        return refine_cost(q, obs, prior, RefineConfig(), k), len(calls)

    monkeypatch.setattr(initialization, "batch_tangent_bboxes", spy)
    stopped = {st: refine_counted(*st) for st in SWEEP_TRIALS}
    monkeypatch.setattr(initialization, "SolverConfig", lambda: SolverConfig(rel_cost_tol=0.0))
    full = {st: refine_counted(*st) for st in SWEEP_TRIALS}
    for st in SWEEP_TRIALS:
        (cost, n), (cost_full, n_full) = stopped[st], full[st]
        assert n <= n_full
        assert cost_full <= cost <= cost_full * (1.0 + 1e-8)
    assert sum(n for _, n in stopped.values()) < sum(n for _, n in full.values())


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
    rel_cost_tol: float = 1e-9,
) -> QuadricParams:
    """Oracle for `refine_quadric`: the refinement written out as one plain
    Levenberg-Marquardt loop with `SolverConfig()` defaults and the
    window's `retract` (tested against its own oracle), and with the
    residuals, Jacobian, damping, Nielsen update, validity guard and stops
    inline. It stops once an accepted step lowers the cost by less than
    `rel_cost_tol` relative; 0 runs the full schedule of 50 iterations.
    """
    if cfg is None:
        cfg = RefineConfig()
    if k is None:
        raise ValueError("intrinsics required")
    if len(obs) == 0:
        return init
    prior_axes = np.sort(prior.axes())
    boxes_obs = np.stack([b.vector() for b, _, _ in obs])
    k0 = np.tile(np.pad(k.matrix(), ((0, 0), (0, 1))), (len(obs), 1, 1))
    a_co = np.stack([np.linalg.inv(t_wc.matrix()) @ t_wo.matrix() for _, t_wc, t_wo in obs])
    cam_mats = k0 @ a_co

    def rows(q):
        boxes, valid = _reference_batch_tangent_bboxes(q.axes, q.translation, q.rotation, cam_mats, a_co[:, 2])
        order = np.argsort(q.axes)
        box_rows = ((boxes_obs[valid] - boxes[valid]) / cfg.bbox_sigma_px).ravel()
        prior_rows = (q.axes[order] - prior_axes) * np.sqrt(cfg.prior_size_weight)
        return np.concatenate([box_rows, prior_rows]), valid, order

    q = init
    r, valid, order = rows(q)
    cost = float(r @ r)
    lam, nu = 1e-3, 2.0
    accepted = 0
    for it in range(50):
        if not np.isfinite(cost):
            raise DivergedOptimization("non-finite cost")
        if cost < 1e-16:
            break
        if it:
            r, valid, order = rows(q)
        if not valid.any():
            log.warning("all %d bbox observations degenerate at the current iterate", len(obs))
            break
        n = len(obs)
        box_jac = tangent_bbox_jacobian(
            np.tile(q.axes, (n, 1))[valid], np.tile(q.translation, (n, 1))[valid],
            np.tile(q.rotation, (n, 1, 1))[valid], k0[valid], a_co[valid])
        jac = np.zeros((len(r), 9))
        jac[:-3] = -box_jac[:, :, :9].reshape(-1, 9) / cfg.bbox_sigma_px
        jac[np.arange(len(r) - 3, len(r)), order] = q.axes[order] * np.sqrt(cfg.prior_size_weight)
        g = jac.T @ r
        h = jac.T @ jac
        if np.max(np.abs(g)) < 1e-12:
            break
        for _ in range(12):
            try:
                # the upper triangle of H + lam I, as the solver factors it
                delta = scipy.linalg.cho_solve(scipy.linalg.cho_factor(h.T + lam * np.eye(9), lower=True), -g)
            except scipy.linalg.LinAlgError:
                delta = None
            if delta is not None:
                candidate = retract(q, delta)
                r_new, valid_new, _ = rows(candidate)
                new_cost = float(r_new @ r_new)
                if new_cost < cost and valid_new[valid].all():
                    gain = (cost - new_cost) / (delta @ (lam * delta - g))
                    lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-15)
                    nu = 2.0
                    break
            lam *= nu
            nu *= 2.0
        else:
            if not accepted:
                raise DivergedOptimization("no downhill step from the initial guess")
            break
        q, accepted = candidate, accepted + 1
        rel_decrease = (cost - new_cost) / max(cost, 1e-300)
        cost = new_cost
        if np.linalg.norm(delta) < 1e-8 or rel_decrease < rel_cost_tol:
            break
    return q
