"""Residual and Jacobian checks of the kernels the solver linearizes with:
`_ReprojBatch`, `_BBoxBatch`, `_MotionBatch` (also against their per-factor
reference loops), `_StatePriorBatch` (against the scalar local
coordinates), the window's table order and the robust weights."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    local_coords,
    look_at,
    reference_bbox_eval,
    reference_motion_eval,
    so3_exp,
    split_factors,
    yaw_rotation,
)
from ellipslam.pipeline import Backend, PipelineConfig
from ellipslam.quadrics import QuadricParams, project_quadric
from ellipslam.se3 import Intrinsics, Pose, Twist, compose, se3_exp, project, inverse
from ellipslam.simulate import crossing_objects_config, gen_dynamic_scene, localization_scene_config
from ellipslam.window import (
    MotionFactor,
    QuadricBBoxFactor,
    ReprojFactor,
    RobustConfig,
    StatePriorFactor,
    _BBoxBatch,
    _MotionBatch,
    _ReprojBatch,
    _StatePriorBatch,
    retract,
    robust_kernel,
)

K = Intrinsics(500.0, 500.0, 320.0, 240.0)


def random_pose(rng, t_scale=1.0):
    return se3_exp(Twist(rng.normal(scale=t_scale, size=3), rng.normal(scale=0.5, size=3)))


def fd_jacobian(residual, values, keys, dim, h=1e-6):
    """Central differences of residual(values) w.r.t. the local increment
    (`retract`) of the states in `keys`, all perturbed at once: each
    residual row must depend on at most one of them."""
    cols = []
    for col in range(dim):
        d = np.zeros(dim)
        d[col] = h
        plus = {**values, **{k: retract(values[k], d) for k in keys}}
        minus = {**values, **{k: retract(values[k], -d) for k in keys}}
        cols.append((residual(plus) - residual(minus)) / (2 * h))
    return np.stack(cols, axis=-1)


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-6)
    return np.max(np.abs(a - b)) / denom


def reproj_batch(cams, points, z_px, objects=None, depth=None):
    """One observation per frame: camera i sees point i, a world point or,
    with `objects`, an object-frame point through object pose i. With
    `depth`, every observation carries that depth at sigma 0.1 m."""
    values, factors = {}, []
    for i, (cam, pt, z) in enumerate(zip(cams, points, z_px)):
        values[("cam", i)] = cam
        if objects is None:
            values[("lm", i)] = np.asarray(pt, dtype=float)
        else:
            values[("obj", i, 7)] = objects[i]
            values[("olm", 7, i)] = np.asarray(pt, dtype=float)
        factors.append(
            ReprojFactor(frame=i, lm_id=i, z_px=np.asarray(z, dtype=float), k=K,
                         track=None if objects is None else 7,
                         depth=depth, sigma_depth=None if depth is None else 0.1)
        )
    return _ReprojBatch(factors), values


def assert_reproj_jacobians(batch, values, n_rows, blocks):
    """The batch's J, block by block of (keys, dim) in column order, against
    central differences of its residual, row by row (observation by
    observation) over the first n_rows kept rows."""
    def residual(v):
        return batch.eval(v, with_jacobians=False)[1]

    _, _, jac = batch.eval(values)
    start = 0
    for keys, dim in blocks:
        fd = fd_jacobian(residual, values, keys, dim)
        for i in range(n_rows):
            assert rel_err(jac[i, :, start : start + dim], fd[i]) < 1e-4
        start += dim
    assert start == jac.shape[2]


def bbox_scene():
    q = QuadricParams([1.8, 1.1, 0.9], [0, 0, 0], yaw_rotation(3.0))
    t_wo = Pose(np.eye(3), [0, 0, 0])
    t_wc = look_at([0, 0, -12], [0, 0, 0])
    b = project_quadric(q, t_wo, t_wc, K)
    return q, t_wo, t_wc, b


def bbox_eval(b, q, t_wo, t_wc, with_jacobians=True):
    values = {("quad", 0): q, ("obj", 0, 0): t_wo, ("cam", 0): t_wc}
    factor = QuadricBBoxFactor(frame=0, track=0, bbox=b, k=K)
    kept, r, jac = _BBoxBatch([factor]).eval(values, with_jacobians)
    assert kept.tolist() == [0]
    jacs = None if jac is None else dict(zip(factor.keys(), np.split(jac[0], [9, 15], axis=1)))
    return r[0], jacs


def motion_eval(t0, t1, t2, with_jacobians=True):
    values = {("obj", f, 0): t for f, t in enumerate((t0, t1, t2))}
    factor = MotionFactor(track=0, frames=(0, 1, 2), sqrt_info=np.ones(6))
    kept, r, jac = _MotionBatch([factor]).eval(values, with_jacobians)
    assert kept.tolist() == [0]
    jacs = None if jac is None else dict(zip(factor.keys(), np.split(jac[0], [6, 12], axis=1)))
    return r[0], jacs, values, factor


class TestStaticReproj:
    def test_zero_on_ground_truth(self):
        t_wc = look_at([0, 0, -8], [0, 0, 0])
        x_w = np.array([0.5, -0.3, 1.0])
        p_cam = inverse(t_wc).apply(x_w)
        for depth in (None, p_cam[2]):
            batch, values = reproj_batch([t_wc], [x_w], [project(K, p_cam)], depth=depth)
            kept, r, _ = batch.eval(values)
            assert kept.tolist() == [0]
            assert np.max(np.abs(r)) < 1e-12

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(40)
        cams, points, z_px = [], [], []
        for _ in range(100):
            t_wc = random_pose(rng, t_scale=2.0)
            cams.append(t_wc)
            points.append(t_wc.apply(np.array([rng.normal(), rng.normal(), rng.uniform(2, 10)])))
            z_px.append(rng.uniform([0, 0], [640, 480]))
        for depth in (None, 5.0):
            batch, values = reproj_batch(cams, points, z_px, depth=depth)
            kept, r, jac = batch.eval(values)
            assert len(kept) == 100
            assert r.shape == (100, 3) and jac.shape == (100, 3, 9)
            # without a depth, the depth row is zero
            assert (depth is None) == (not r[:, 2].any() and not jac[:, 2].any())
            assert_reproj_jacobians(batch, values, 100, [
                ([("cam", i) for i in range(100)], 6),
                ([("lm", i) for i in range(100)], 3),
            ])

    def test_taylor_first_order(self):
        t_wc = look_at([0, 0, -8], [0, 0, 0])
        x_w = np.array([0.5, -0.3, 1.0])
        z = project(K, inverse(t_wc).apply(x_w))
        batch, values = reproj_batch([t_wc], [x_w], [z])
        _, r0, jac = batch.eval(values)
        j_point = jac[..., 6:]
        eps = 1e-4
        d = np.array([eps, 0, 0])
        _, r1, _ = batch.eval({**values, ("lm", 0): x_w + d}, with_jacobians=False)
        assert np.max(np.abs(r1[0] - (r0[0] + j_point[0] @ d))) < 10 * eps**2 * 500

    def test_behind_camera(self):
        # a point behind the camera is a dropped row, not an error, and
        # leaves the other rows of the batch alone
        batch, values = reproj_batch([Pose.identity()] * 2, [[0, 0, -1], [0, 0, 2]], [[320, 240]] * 2)
        kept, r, jac = batch.eval(values)
        assert kept.tolist() == [1]
        assert r.shape == (1, 3) and np.max(np.abs(r)) < 1e-12
        assert jac.shape == (1, 3, 9) and np.all(np.isfinite(jac))
        kept, r_only, _ = batch.eval(values, with_jacobians=False)
        assert kept.tolist() == [1] and np.array_equal(r_only, r)


class TestDynamicReproj:
    def test_zero_on_ground_truth(self):
        t_wc = look_at([0, 0, -8], [0, 0, 0])
        t_wo = Pose(yaw_rotation(10.0), [1.0, 0.0, 2.0])
        f_o = np.array([0.3, 0.2, -0.1])
        p_cam = inverse(t_wc).apply(t_wo.apply(f_o))
        for depth in (None, p_cam[2]):
            batch, values = reproj_batch([t_wc], [f_o], [project(K, p_cam)], objects=[t_wo], depth=depth)
            kept, r, _ = batch.eval(values)
            assert kept.tolist() == [0]
            assert np.max(np.abs(r)) < 1e-12

    def test_reduces_to_static_at_identity_object(self):
        t_wc = look_at([0, 0, -8], [0, 0, 0])
        x = np.array([0.4, -0.2, 0.5])
        z = np.array([300.0, 250.0])
        for depth in (None, 7.0):
            dyn, v_dyn = reproj_batch([t_wc], [x], [z], objects=[Pose.identity()], depth=depth)
            st, v_st = reproj_batch([t_wc], [x], [z], depth=depth)
            _, r_dyn, j_dyn = dyn.eval(v_dyn)
            _, r_st, j_st = st.eval(v_st)
            assert np.allclose(r_dyn, r_st)
            # columns [cam | obj | olm] against [cam | lm]
            assert np.allclose(j_dyn[..., :6], j_st[..., :6])
            assert np.allclose(j_dyn[..., 12:], j_st[..., 6:])

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(41)
        cams, objects, points, z_px = [], [], [], []
        for _ in range(250):
            cams.append(random_pose(rng, t_scale=2.0))
            objects.append(random_pose(rng, t_scale=2.0))
            points.append(rng.normal(scale=0.5, size=3))
            z_px.append(rng.uniform([0, 0], [640, 480]))
        for depth in (None, 5.0):
            batch, values = reproj_batch(cams, points, z_px, objects=objects, depth=depth)
            kept, _, _ = batch.eval(values)
            assert len(kept) >= 100
            n = len(cams)
            assert_reproj_jacobians(batch, values, 100, [
                ([("cam", i) for i in range(n)], 6),
                ([("obj", i, 7) for i in range(n)], 6),
                ([("olm", 7, i) for i in range(n)], 3),
            ])


class TestMotionModel:
    def test_constant_velocity_zero(self):
        v = se3_exp(Twist([0.5, 0, 0], [0, 0.02, 0]))
        t0 = Pose(yaw_rotation(5.0), [1, 0, 10])
        t1 = compose(v, t0)
        t2 = compose(v, t1)
        r, *_ = motion_eval(t0, t1, t2, with_jacobians=False)
        assert np.max(np.abs(r)) < 1e-12

    def test_stationary_zero(self):
        t = Pose(np.eye(3), [2, 2, 2])
        r, *_ = motion_eval(t, t, t, with_jacobians=False)
        assert np.max(np.abs(r)) < 1e-12

    def test_velocity_jump_magnitude(self):
        t0 = Pose.identity()
        t1 = Pose(np.eye(3), [0.5, 0, 0])
        t2 = Pose(np.eye(3), [1.1, 0, 0])  # 0.1 m/frame jump in x
        r, *_ = motion_eval(t0, t1, t2, with_jacobians=False)
        assert abs(np.linalg.norm(r) - 0.1) < 1e-9

    def test_numeric_jacobians_consistent(self):
        # the batch's Jacobians are central differences at h = 1e-6; an
        # independent evaluation at h = 1e-5 must agree to O(h^2)
        rng = np.random.default_rng(42)
        t0, t1, t2 = (random_pose(rng) for _ in range(3))
        _, jacs, values, f = motion_eval(t0, t1, t2)

        def residual(v):
            return motion_eval(*(v[k] for k in f.keys()), with_jacobians=False)[0]

        for key in f.keys():
            assert rel_err(jacs[key], fd_jacobian(residual, values, [key], 6, h=1e-5)) < 1e-4


class TestQuadricBBox:
    def test_zero_on_ground_truth(self):
        q, t_wo, t_wc, b = bbox_scene()
        r, _ = bbox_eval(b, q, t_wo, t_wc, with_jacobians=False)
        assert np.max(np.abs(r)) < 1e-9

    def test_axis_growth_monotonicity(self):
        # widening the x semi-axis must widen the projected bbox for a
        # fronto-parallel view: r_xmin > 0 and r_xmax < 0
        q, t_wo, t_wc, b = bbox_scene()
        grown = QuadricParams(q.axes + np.array([0.3, 0, 0]), q.translation, q.rotation)
        r, _ = bbox_eval(b, grown, t_wo, t_wc, with_jacobians=False)
        assert r[0] > 0 and r[2] < 0

    def test_richardson_step_halving(self):
        # halving the fd step must shrink the Jacobian error ~4x; compare
        # J(h) against J(h/2) extrapolation consistency
        q, t_wo, t_wc, b = bbox_scene()
        b_off = type(b).from_vector(b.vector() + np.array([2.0, -1.0, 1.5, 0.5]))

        def residual(v):
            return bbox_eval(b_off, v[("quad", 0)], t_wo, t_wc, with_jacobians=False)[0]

        values = {("quad", 0): q}
        j1, j2, j3 = (fd_jacobian(residual, values, [("quad", 0)], 9, h=h)[:, :3] for h in (1e-3, 5e-4, 2.5e-4))
        e1 = np.max(np.abs(j1 - j3))
        e2 = np.max(np.abs(j2 - j3))
        # O(h^2) scaling: error ratio close to 4 (j3 ~ truth)
        assert e1 / max(e2, 1e-14) > 2.5

    def test_returned_jacobian_matches_independent_fd(self):
        q, t_wo, t_wc, b = bbox_scene()
        b_off = type(b).from_vector(b.vector() + np.array([2.0, -1.0, 1.5, 0.5]))
        _, jacs = bbox_eval(b_off, q, t_wo, t_wc)
        values = {("quad", 0): q, ("obj", 0, 0): t_wo, ("cam", 0): t_wc}

        def residual(v):
            return bbox_eval(b_off, v[("quad", 0)], v[("obj", 0, 0)], v[("cam", 0)], with_jacobians=False)[0]

        for key, dim in ((("quad", 0), 9), (("obj", 0, 0), 6), (("cam", 0), 6)):
            assert rel_err(jacs[key], fd_jacobian(residual, values, [key], dim, h=1e-5)) < 1e-3


@pytest.fixture(scope="module")
def crossing_window():
    """The window after 20 frames of the criterion-07 crossing scene."""
    backend = Backend(PipelineConfig(camera_mode="given"))
    for obs in gen_dynamic_scene(crossing_objects_config(seed=1, n_frames=20)):
        backend.process_frame(obs)
    return backend.window


@pytest.fixture(scope="module")
def estimate_windows():
    """The windows after 20 frames of the criterion-08 localization scene in
    `estimate` mode: with depth, without (`use_depth=False`), and with the
    depth of odd background features dropped in odd frames, so that their
    landmarks, made in even frames, are also seen without depth."""
    windows = {}
    for name, use_depth, drop in (("estimate", True, False), ("estimate_no_depth", False, False),
                                  ("estimate_mixed_depth", True, True)):
        backend = Backend(PipelineConfig(camera_mode="estimate", use_depth=use_depth))
        for obs in gen_dynamic_scene(localization_scene_config(seed=2, n_frames=20)):
            if drop and obs.frame % 2:
                obs.features = [dataclasses.replace(f, depth_m=None) if f.instance is None and f.id % 2 else f
                                for f in obs.features]
            backend.process_frame(obs)
        windows[name] = backend.window
    return windows


class TestBatchedKernelsMatchReference:
    @staticmethod
    def assert_matches(batch, values, reference, jac_tol=1e-9):
        """The batch keeps the reference loop's factors and gives its r and
        J, with and without Jacobians; returns the kept indices."""
        for with_jacobians in (True, False):
            kept, r, jac = batch.eval(values, with_jacobians)
            ref = reference(batch.factors, values, with_jacobians)
            assert [id(batch.factors[i]) for i in kept] == [id(f) for f, _, _ in ref]
            for i, (f, r_ref, jacs) in enumerate(ref):
                assert rel_err(r[i], r_ref) < 1e-9
                if with_jacobians:
                    assert rel_err(jac[i], np.hstack([jacs[k] for k in f.keys()])) < jac_tol
        return kept

    def test_eval_modes_agree_bitwise(self, crossing_window, estimate_windows):
        # the solver takes its cost from the assembly's residuals, so every
        # family keeps the same rows and residuals with and without Jacobians.
        # The crossing window holds given cameras and so no background
        # point; each estimate-mode window holds one static reprojection
        # table, whose rows have depth, have none, or are mixed. A row
        # without depth has a zero depth row
        static_forms = {"crossing": [], "estimate": [{True}], "estimate_no_depth": [{False}],
                        "estimate_mixed_depth": [{True, False}]}
        for name, window in {"crossing": crossing_window, **estimate_windows}.items():
            batches = window._batches()
            assert {type(b) for b in batches} == {_ReprojBatch, _BBoxBatch, _MotionBatch, _StatePriorBatch}
            static = [b for b in batches if isinstance(b, _ReprojBatch) and not b.dynamic]
            assert [set(np.isfinite(b.sigma_depth).tolist()) for b in static] == static_forms[name]
            for batch in batches:
                kept, r, jac = batch.eval(window.values, with_jacobians=True)
                kept_only, r_only, _ = batch.eval(window.values, with_jacobians=False)
                assert np.array_equal(kept, kept_only) and np.array_equal(r, r_only)
                assert jac.shape == (len(kept), r.shape[1], sum(batch.dims))
                if isinstance(batch, _ReprojBatch):
                    bare = ~np.isfinite(batch.sigma_depth[kept])
                    assert not r[bare, 2].any() and not jac[bare, 2].any() and r[~bare, 2].all()

    def test_bbox_batch(self, crossing_window):
        # every bbox factor of the window, plus one whose ellipsoid is behind
        # a camera turned about: that one is dropped
        values = dict(crossing_window.values)
        factors = [f for f in crossing_window.factors if isinstance(f, QuadricBBoxFactor)]
        f0 = factors[0]
        cam = values[("cam", f0.frame)]
        values[("cam", -1)] = Pose(cam.rotation @ np.diag([-1.0, 1.0, -1.0]), cam.translation)
        values[("obj", -1, f0.track)] = values[("obj", f0.frame, f0.track)]
        behind = QuadricBBoxFactor(frame=-1, track=f0.track, bbox=f0.bbox, k=f0.k)
        factors.insert(1, behind)
        assert len(factors) > 40
        # closed-form J against central differences, whose error is ~2e-9
        kept = self.assert_matches(_BBoxBatch(factors), values, reference_bbox_eval, jac_tol=1e-8)
        assert 1 not in kept and len(kept) == len(factors) - 1

    def test_motion_batch(self, crossing_window):
        # every motion factor of the window, plus one whose relative
        # rotation is a half turn: that one is dropped
        values = dict(crossing_window.values)
        factors = [f for f in crossing_window.factors if isinstance(f, MotionFactor)]
        track = factors[0].track
        values[("obj", -3, track)] = Pose(so3_exp([0.0, 0.0, np.pi]), [0.1, 0.0, 0.0])
        values[("obj", -2, track)] = values[("obj", -1, track)] = Pose.identity()
        factors.insert(1, MotionFactor(track=track, frames=(-3, -2, -1), sqrt_info=np.full(6, 3.0)))
        assert len(factors) > 30
        kept = self.assert_matches(_MotionBatch(factors), values, reference_motion_eval)
        assert 1 not in kept and len(kept) == len(factors) - 1


class TestStatePrior:
    def test_matches_local_coords_and_drops_branch_cut(self):
        # bit for bit against local_coords(x, ref) * sqrt_info on cam, obj
        # and quad keys; the pose half a turn from its reference is dropped
        rng = np.random.default_rng(44)
        values, factors = {}, []
        for key in [("cam", 0), ("obj", 0, 3), ("cam", 1), ("obj", 1, 3)]:
            values[key] = random_pose(rng)
            factors.append(StatePriorFactor(key, random_pose(rng), rng.uniform(0.5, 2.0, 6)))
        values[("cam", 2)] = Pose(so3_exp([0.0, 0.0, np.pi]), [0.1, 0.0, 0.0])
        factors.insert(2, StatePriorFactor(("cam", 2), Pose.identity(), np.ones(6)))
        for t in range(2):
            values[("quad", t)] = QuadricParams(rng.uniform(0.5, 2.5, 3), rng.normal(size=3), yaw_rotation(20.0 * t))
            ref = QuadricParams(rng.uniform(0.5, 2.5, 3), rng.normal(size=3), yaw_rotation(5.0 + 20.0 * t))
            factors.append(StatePriorFactor(("quad", t), ref, rng.uniform(0.1, 1.0, 9)))
        poses, quads = _StatePriorBatch(factors[:5]), _StatePriorBatch(factors[5:])
        assert poses.dims == (6,) and quads.dims == (9,)
        for batch, dropped in ((poses, [2]), (quads, [])):
            for with_jacobians in (True, False):
                kept, r, jac = batch.eval(values, with_jacobians)
                assert kept.tolist() == [i for i in range(len(batch.factors)) if i not in dropped]
                for row, i in enumerate(kept):
                    f = batch.factors[i]
                    assert np.array_equal(r[row], local_coords(values[f.key], f.reference) * f.sqrt_info)
                    if with_jacobians:
                        assert np.array_equal(jac[row], np.diag(f.sqrt_info))
                assert (jac is None) == (not with_jacobians)


def test_split_factors_order(crossing_window):
    # reprojection, bbox, motion, state prior: each family's
    # tables side by side, state priors one per state dimension, in the
    # order of the from-scratch rebuild. Given cameras are held fixed, not
    # tied by priors, and the 20 frames hold no object anchor: only the
    # quadric priors are left
    batches = crossing_window._batches()
    assert [(type(b), b.dims) for b in batches] == [(type(b), b.dims) for b in split_factors(crossing_window.factors)]
    order = [_ReprojBatch, _BBoxBatch, _MotionBatch, _StatePriorBatch]
    ranks = [order.index(type(b)) for b in batches]
    assert ranks == sorted(ranks) and set(ranks) == set(range(4))
    assert sorted(b.dims for b in batches if isinstance(b, _StatePriorBatch)) == [(9,)]
    assert not [f for f in crossing_window.factors if isinstance(f, StatePriorFactor) and f.key[0] == "cam"]
    assert sum(len(b.factors) for b in batches) == len(crossing_window.factors)


class TestRobustWeight:
    def test_zero_residual(self):
        for kernel in ("huber", "tstudent", None):
            cost, w = robust_kernel(np.zeros(1), kernel, RobustConfig())
            assert cost == 0.0 and w[0] == 1.0

    def test_huber_at_two_delta(self):
        cfg = RobustConfig(huber_delta=1.5)
        cost, w = robust_kernel(np.array([3.0]), "huber", cfg)
        assert abs(w[0] - 0.5) < 1e-12 and abs(cost - (2.0 * 1.5 * 3.0 - 1.5**2)) < 1e-12

    def test_monotone_grid(self):
        grid = np.linspace(0, 20, 200)
        for kernel in ("huber", "tstudent"):
            w = robust_kernel(grid, kernel, RobustConfig())[1]
            assert np.all(np.diff(w) <= 1e-12)
            assert np.all((w > 0) & (w <= 1))

    def test_cost_sums_the_kernel_per_norm(self):
        # the summed cost of a grid is the sum of each norm's own cost, and
        # its slope is 2 w n: the IRLS weight is rho'(n) / (2 n)
        grid, h = np.linspace(0.1, 20, 50), 1e-6
        for kernel in ("huber", "tstudent", None):
            cfg = RobustConfig()
            cost, w = robust_kernel(grid, kernel, cfg)
            per_norm = [robust_kernel(np.array([n]), kernel, cfg)[0] for n in grid]
            assert abs(cost - sum(per_norm)) <= 1e-12 * cost
            slope = [(robust_kernel(np.array([n + h]), kernel, cfg)[0]
                      - robust_kernel(np.array([n - h]), kernel, cfg)[0]) / (2 * h) for n in grid]
            np.testing.assert_allclose(slope, 2.0 * w * grid, rtol=1e-6)
