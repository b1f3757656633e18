import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import (
    local_coords,
    look_at,
    reference_local_coords,
    reference_marginalize_oldest,
    reference_retract,
    so3_exp,
    split_factors,
)
from ellipslam.errors import AngleNearPi, DanglingFactor, EllipslamError, NonMonotoneFrameId, SingularSystem
from ellipslam.pipeline import Backend, PipelineConfig
from ellipslam.quadrics import QuadricParams, project_quadric
from ellipslam.se3 import Intrinsics, Pose, Twist, compose, inverse, project, se3_exp
from ellipslam.simulate import gen_dynamic_scene, localization_scene_config, single_dynamic_object_config
from ellipslam.window import (
    GaussianPrior,
    MotionFactor,
    QuadricBBoxFactor,
    ReprojFactor,
    RobustConfig,
    SolveReport,
    SolverConfig,
    StatePriorFactor,
    WindowState,
    _columns,
    _local_coords_rows,
    _Plan,
    _ref_stack,
    _retract_rows,
    _solve_damped,
    retract,
    state_dim,
)

K = Intrinsics(500.0, 500.0, 320.0, 240.0)


def make_static_scene(n_frames=4, n_points=12, seed=50, depth_rows=True):
    """Cameras on a short path observing a fixed cloud; exact measurements.
    `depth_rows` "alternate" gives every other factor a depth."""
    rng = np.random.default_rng(seed)
    points = rng.uniform([-3, -2, 4], [3, 2, 10], size=(n_points, 3))
    cams = [look_at([0.3 * i, 0.02 * i, -6.0], [0, 0, 6.0]) for i in range(n_frames)]
    w = WindowState(capacity=15)
    for f, cam in enumerate(cams):
        lms = {j: points[j] for j in range(n_points)} if f == 0 else None
        w.add_frame(f, cam, landmarks=lms)
        for j in range(n_points):
            p_cam = inverse(cam).apply(points[j])
            z = project(K, p_cam)
            depth = (f + j) % 2 == 0 if depth_rows == "alternate" else depth_rows
            w.add_factor(
                ReprojFactor(
                    frame=f, lm_id=j, z_px=z, k=K,
                    depth=p_cam[2] if depth else None,
                    sigma_depth=0.1 if depth else None,
                )
            )
    return w, cams, points


def scalar_irls_weight(r_norm, kernel, cfg):
    """The oracle's own IRLS weight of one whitened residual norm."""
    if kernel == "huber":
        return 1.0 if r_norm <= cfg.huber_delta else cfg.huber_delta / r_norm
    if kernel == "tstudent":
        return cfg.nu / (cfg.nu + r_norm**2)
    return 1.0


# the robust kernel of each factor family; the others have none
KERNELS = {ReprojFactor: "tstudent", QuadricBBoxFactor: "huber"}


def reference_normal_equations(values, prior, batches, offsets, n, robust_cfg):
    """Oracle for the normal equations of `_Plan.evaluate`: the per-key-pair
    scatter it replaced, one small J_a^T J_b product per pair of live keys
    of every factor, plus the prior's H and H d - b block by block. Every
    batch's kept factors are split into their keys' Jacobians by `dims`, one
    factor at a time (the kernels themselves are checked in test_factors.py)."""
    h_mat = np.zeros((n, n))
    g = np.zeros(n)
    evaluated = []
    for batch in batches:
        kept, r, jac = batch.eval(values)
        for i, f_idx in enumerate(kept):
            f = batch.factors[f_idx]
            evaluated.append((f, r[i], dict(zip(f.keys(), np.split(jac[i], np.cumsum(batch.dims)[:-1], axis=1)))))
    weighted = [
        (scalar_irls_weight(np.linalg.norm(r), KERNELS.get(type(f)), robust_cfg), r, jacs)
        for f, r, jacs in evaluated
    ]
    for w, r, jacs in weighted:
        items = [(k, j) for k, j in jacs.items() if k in offsets]
        for k1, j1 in items:
            o1 = offsets[k1]
            s1 = slice(o1, o1 + j1.shape[1])
            g[s1] += j1.T @ (w * r)
            for k2, j2 in items:
                o2 = offsets[k2]
                h_mat[s1, o2 : o2 + j2.shape[1]] += w * (j1.T @ j2)
    if prior is not None:
        # information form: H over each pair of live keys, H d - b on each
        grad = prior.info @ prior.delta(values) - prior.b
        po = np.cumsum([0] + [state_dim(k) for k in prior.keys])
        for k1, p1 in zip(prior.keys, po):
            if k1 not in offsets:
                continue
            d1 = state_dim(k1)
            g[offsets[k1] : offsets[k1] + d1] += grad[p1 : p1 + d1]
            for k2, p2 in zip(prior.keys, po):
                if k2 in offsets:
                    d2 = state_dim(k2)
                    h_mat[offsets[k1] : offsets[k1] + d1, offsets[k2] : offsets[k2] + d2] += (
                        prior.info[p1 : p1 + d1, p2 : p2 + d2]
                    )
    return h_mat, g


def reference_sqrt_prior(h, b):
    """Oracle for `GaussianPrior`: the square-root form it replaced,
    r = A d - rhs, from an eigendecomposition with eigenvalues clamped at
    zero and those <= 1e-12 dropped. Returns A and rhs."""
    h = 0.5 * (h + h.T)
    evals, evecs = np.linalg.eigh(h)
    evals = np.clip(evals, 0.0, None)
    keep = evals > 1e-12
    a = np.sqrt(evals[keep])[:, None] * evecs[:, keep].T
    rhs = (evecs[:, keep].T @ b) / np.sqrt(evals[keep])
    return a, rhs


def sqrt_prior_terms(a, rhs, d):
    """Energy, gradient (J^T r) and Hessian (J^T J) of the square-root prior."""
    r = a @ d - rhs
    return float(r @ r), a.T @ r, a.T @ a


def prior_energy(prior, values):
    """The energy of an information-form prior as the solver evaluates it."""
    return _Plan(prior.keys, [], prior, RobustConfig()).evaluate(values, False)[0]


def info_prior_terms(prior, values):
    """The same three terms as the window takes them from an information-form
    prior."""
    d = prior.delta(values)
    return prior_energy(prior, values), prior.info @ d - prior.b, prior.info


def landmark_prior(h, b):
    """An information-form prior over landmark keys, linearized at 0, and a
    function giving the window values at local coordinates d."""
    keys = [("lm", i) for i in range(len(b) // 3)]
    prior = GaussianPrior.from_information(keys, {k: np.zeros(3) for k in keys}, h, b)
    return prior, lambda d: {k: d[3 * i : 3 * i + 3] for i, k in enumerate(keys)}


@pytest.fixture
def eigh_calls(monkeypatch):
    """Counts calls of np.linalg.eigh."""
    calls = []
    eigh = np.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def copied(out):
    """An evaluation's (H, g, active) with H copied out of the plan's buffer,
    which the next evaluation of the same solve overwrites."""
    _, active, h_mat, g = out
    return h_mat.copy(), g.copy(), active


def oracle(plan, values, robust_cfg=None):
    """`reference_normal_equations` of what `plan` evaluates at `values`."""
    return reference_normal_equations(values, plan.prior, plan.batches, plan.offsets, plan.n,
                                      robust_cfg or plan.robust)


@pytest.fixture
def assembly_calls(monkeypatch):
    """Records (assembled, oracle) pairs for every normal-equation assembly,
    the oracle evaluated at the same state as the call."""
    calls = []
    evaluate = _Plan.evaluate

    def spy(plan, values, with_jacobians):
        out = evaluate(plan, values, with_jacobians)
        if with_jacobians:
            calls.append((copied(out), oracle(plan, values)))
        return out

    monkeypatch.setattr(_Plan, "evaluate", spy)
    return calls


@pytest.fixture(scope="module")
def object_window():
    """A full window after 10 frames of the single-object scene: prior,
    motion, bbox and reprojection factors. Frame 8 comes without a camera
    pose, so besides the fixed given cameras the window holds a free one
    with its pose prior and background landmarks."""
    frames = gen_dynamic_scene(single_dynamic_object_config(seed=0, n_frames=10))
    frames[8] = dataclasses.replace(frames[8], pose_wc=None)
    backend = Backend(PipelineConfig(camera_mode="given", window_capacity=6))
    for obs in frames:
        backend.process_frame(obs)
    return backend.window


class TestBookkeeping:
    def test_add_to_empty(self):
        w = WindowState()
        w.add_frame(0, Pose.identity())
        assert w.frames == [0]

    def test_non_monotone_rejected(self):
        w = WindowState()
        w.add_frame(3, Pose.identity())
        with pytest.raises(NonMonotoneFrameId):
            w.add_frame(3, Pose.identity())

    def test_dangling_factor_rejected(self):
        w = WindowState()
        w.add_frame(0, Pose.identity())
        with pytest.raises(DanglingFactor):
            w.add_factor(ReprojFactor(frame=0, lm_id=99, z_px=np.zeros(2), k=K))

    def test_capacity_keeps_window_bounded_and_creates_prior(self):
        w, _, _ = make_static_scene(n_frames=4)
        w.capacity = 4
        w.fixed.add(("cam", 0))
        cam = look_at([1.5, 0.1, -6.0], [0, 0, 6.0])
        w.add_frame(4, cam)
        assert len(w.frames) == 4
        assert w.frames[0] == 1
        assert w.prior is not None

    def test_zero_factor_guard(self):
        w = WindowState()
        w.add_frame(0, Pose.identity())
        with pytest.raises(ValueError):
            w.lm_solve()


class TestLmSolve:
    def test_recovers_ground_truth_from_perturbation(self):
        rng = np.random.default_rng(51)
        w, cams, points = make_static_scene()
        w.fixed.add(("cam", 0))
        for f in range(1, len(cams)):
            noise = Twist(rng.normal(scale=0.1, size=3), rng.normal(scale=np.deg2rad(2.0), size=3))
            w.values[("cam", f)] = compose(w.values[("cam", f)], se3_exp(noise))
        for j in range(len(points)):
            w.values[("lm", j)] = w.values[("lm", j)] + rng.normal(scale=0.05, size=3)
        report = w.lm_solve()
        assert report.final_cost < 1e-12
        for f in range(len(cams)):
            err = np.linalg.norm(w.values[("cam", f)].translation - cams[f].translation)
            assert err < 1e-4
        for j in range(len(points)):
            assert np.linalg.norm(w.values[("lm", j)] - points[j]) < 1e-4

    def test_already_optimal_zero_accepted(self):
        w, _, _ = make_static_scene()
        w.fixed.add(("cam", 0))
        report = w.lm_solve()
        assert report.accepted_steps == 0
        assert abs(report.final_cost - report.initial_cost) < 1e-12

    def test_cost_never_increases(self):
        rng = np.random.default_rng(52)
        w, cams, _ = make_static_scene()
        w.fixed.add(("cam", 0))
        for f in range(1, len(cams)):
            w.values[("cam", f)] = compose(
                w.values[("cam", f)], se3_exp(Twist(rng.normal(scale=0.2, size=3), rng.normal(scale=0.1, size=3)))
            )
        report = w.lm_solve()
        assert report.final_cost <= report.initial_cost

    def test_deterministic_reports(self):
        def run():
            rng = np.random.default_rng(53)
            w, cams, _ = make_static_scene()
            w.fixed.add(("cam", 0))
            for f in range(1, len(cams)):
                w.values[("cam", f)] = compose(
                    w.values[("cam", f)],
                    se3_exp(Twist(rng.normal(scale=0.1, size=3), rng.normal(scale=0.05, size=3))),
                )
            rep = w.lm_solve()
            return rep, w.values[("cam", 2)].matrix().copy()

        r1, m1 = run()
        r2, m2 = run()
        assert r1 == r2
        assert np.array_equal(m1, m2)

    def test_pose_prior_at_pi_is_skipped(self):
        # the only factor sits on the log branch cut: it is switched off,
        # not raised
        w = WindowState()
        w.add_frame(0, Pose(np.diag([-1.0, -1.0, 1.0]), np.zeros(3)))
        w.add_factor(StatePriorFactor(key=("cam", 0), reference=Pose.identity(), sqrt_info=np.ones(6)))
        report = w.lm_solve()
        assert isinstance(report, SolveReport)
        assert report.accepted_steps == 0


    def test_step_that_drops_a_kept_row_is_rejected(self):
        # camera 0 sees the landmark 1 m ahead; camera 1, 3 m further along
        # the axis and facing back, measures its depth as 6 m, which puts it
        # 3 m behind camera 0. The first Gauss-Newton step goes there, where
        # camera 0's row is left out and the cost reads as lower; the solver
        # must reject that step and keep the point in front of camera 0
        point = np.array([0.0, 0.0, 1.0])
        cams = [Pose.identity(), look_at(np.array([0.0, 0.0, 3.0]), np.zeros(3))]
        w = WindowState()
        w.add_frame(0, cams[0], landmarks={0: point})
        w.add_frame(1, cams[1])
        w.fixed |= {("cam", 0), ("cam", 1)}
        w.add_factor(ReprojFactor(frame=0, lm_id=0, z_px=project(K, point), k=K))
        w.add_factor(ReprojFactor(frame=1, lm_id=0, z_px=project(K, inverse(cams[1]).apply(point)), k=K,
                                  depth=6.0, sigma_depth=0.1))
        report = w.lm_solve()
        assert report.accepted_steps > 0
        assert report.final_cost < report.initial_cost
        assert w.values[("lm", 0)][2] > 0.0


class TestDampedSolve:
    @staticmethod
    def system(seed=66, n=30, unsupported=4):
        """A symmetric positive semi-definite H whose first `unsupported`
        states have no factor (zero rows, columns and diagonal), and g."""
        rng = np.random.default_rng(seed)
        j = rng.normal(size=(2 * n, n))
        j[:, :unsupported] = 0.0
        return j.T @ j, rng.normal(size=n)

    def test_lambda_retries_leave_h_and_match_dense_solve(self):
        h, g = self.system()
        before = h.copy()
        work = np.empty(h.shape, order="F")
        for lam in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e-4):
            step = _solve_damped(h, g, lam, work)
            assert h.tobytes() == before.tobytes()
            # lam I damping also holds the unsupported states
            expected = np.linalg.solve(h + lam * np.eye(len(g)), -g)
            assert np.linalg.norm(step - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_indefinite_system_raises_singular(self, monkeypatch):
        # positive diagonal, eigenvalues (2n - 1) 1e20 and -1e20: damping
        # below 1e20 leaves it indefinite, a failed factorization counts as a
        # rejected step, and lm_solve stops when the last of its 12 tries
        # (lam 1e-3 2^66, about 7e16) fails too
        n = 5
        indefinite = 1e20 * (2.0 * np.ones((n, n)) - np.eye(n))
        assert _solve_damped(indefinite, np.ones(n), 1e-3, np.empty((n, n), order="F")) is None
        w, _, _ = make_static_scene()
        w.fixed.add(("cam", 0))
        w.values[("cam", 1)] = retract(w.values[("cam", 1)], np.full(6, 0.02))

        def evaluate(plan, values, with_jacobians):
            return 1.0, np.ones(1, bool), 1e20 * (2.0 * np.ones((plan.n, plan.n)) - np.eye(plan.n)), np.ones(plan.n)

        monkeypatch.setattr(_Plan, "evaluate", evaluate)
        with pytest.raises(SingularSystem):
            w.lm_solve()


class TestAssembly:
    def test_window_has_every_factor_family(self, object_window):
        kinds = {type(f) for f in object_window.factors}
        assert {ReprojFactor, StatePriorFactor, MotionFactor, QuadricBBoxFactor} <= kinds
        cams = {k for k in object_window.values if k[0] == "cam"}
        assert cams - object_window.fixed == {("cam", 8)}
        assert [k for k in object_window.values if k[0] == "lm"]
        assert object_window.prior is not None
        assert len(object_window.frames) == object_window.capacity

    @staticmethod
    def assert_matches_oracle(calls):
        # summation order differs, so entries that cancel to near zero get
        # an absolute floor far below any entry that carries information
        assert calls
        for (h_mat, g, _), (h_ref, g_ref) in calls:
            np.testing.assert_allclose(h_mat, h_ref, rtol=1e-10, atol=1e-12 * np.abs(h_ref).max())
            np.testing.assert_allclose(g, g_ref, rtol=1e-10, atol=1e-12 * np.abs(g_ref).max())

    @staticmethod
    def with_inflated_quadric(window):
        # 30% larger axes push the bbox residuals past the Huber threshold,
        # so the robust weights differ from 1
        w = copy.deepcopy(window)
        key = next(k for k in w.values if k[0] == "quad")
        w.values[key] = retract(w.values[key], np.r_[np.full(3, np.log(1.3)), np.zeros(6)])
        return w

    def test_lm_iteration_matches_oracle(self, object_window, assembly_calls):
        # the first iteration: later ones have g cancelled down to round-off
        w = self.with_inflated_quadric(object_window)
        w.lm_solve()
        self.assert_matches_oracle(assembly_calls[:1])

    def test_lm_iteration_with_fixed_prior_key_matches_oracle(self, object_window, assembly_calls):
        # a fixed prior state drops out of the solve; the prior adds only
        # its live rows and columns
        w = self.with_inflated_quadric(object_window)
        w.fixed.add(w.prior.keys[0])
        w.lm_solve()
        (h_mat, _, _), _ = assembly_calls[0]
        assert h_mat.shape[0] == sum(state_dim(k) for k in w._free_keys())
        self.assert_matches_oracle(assembly_calls[:1])

    def test_absorb_into_prior_matches_oracle(self, object_window, assembly_calls):
        w = self.with_inflated_quadric(object_window)
        prior_keys = set(w.prior.keys)
        w.marginalize_oldest()
        assert len(assembly_calls) == 1
        self.assert_matches_oracle(assembly_calls)
        # the assembled system spans the old prior's states and the frame
        (h_mat, _, _), _ = assembly_calls[0]
        assert h_mat.shape[0] >= sum(state_dim(k) for k in prior_keys - w.fixed)

    def test_mixed_depth_table_matches_oracle(self):
        # one static table holds the factors with depth and those without;
        # a factor without depth costs only its two pixel rows
        w, _, _ = make_static_scene(depth_rows="alternate")
        rng = np.random.default_rng(67)
        for key in [k for k in w.values if k[0] == "lm"]:
            w.values[key] = w.values[key] + rng.normal(scale=0.05, size=3)
        (table,) = w._batches()
        assert set(np.isfinite(table.sigma_depth).tolist()) == {True, False}
        plan = _Plan(w._free_keys(), [table], None, RobustConfig())
        out = plan.evaluate(w.values, True)
        self.assert_matches_oracle([(copied(out), oracle(plan, w.values))])
        nu, expected = RobustConfig().nu, 0.0
        for f in w.factors:
            p_cam = inverse(w.values[("cam", f.frame)]).apply(w.values[("lm", f.lm_id)])
            r = list((f.z_px - project(K, p_cam)) / f.sigma_px)
            if f.depth is not None:
                r.append((f.depth - p_cam[2]) / f.sigma_depth)
            expected += nu * np.log1p(np.dot(r, r) / nu)
        assert abs(out[0] - expected) <= 1e-12 * expected
        assert plan.evaluate(w.values, False)[0] == out[0]

    @settings(max_examples=30, deadline=None)
    @given(shares=st.tuples(*[st.floats(0.0, 1.0)] * 5), seed=st.integers(0, 2**31 - 1))
    def test_random_fixed_subsets_match_oracle(self, object_window, shares, seed):
        # the scenes fix only cameras, so only here do fixed columns of
        # every state kind reach the masked scatter of every factor family
        w = self.with_inflated_quadric(object_window)
        rng = np.random.default_rng(seed)
        share = dict(zip(("cam", "obj", "lm", "olm", "quad"), shares))
        w.fixed = {k for k in w.values if rng.random() < share[k[0]]}
        keys = w._free_keys()
        assume(keys)
        plan = _Plan(keys, split_factors(w.factors), w.prior, RobustConfig())
        self.assert_matches_oracle([(copied(plan.evaluate(w.values, True)), oracle(plan, w.values))])

    def test_marginalization_uses_solver_robust_kernel(self, object_window, monkeypatch):
        w = copy.deepcopy(object_window)
        assert WindowState().robust == RobustConfig()
        tight = RobustConfig(huber_delta=0.5)
        w.lm_solve(SolverConfig(robust=tight))
        # re-inflate after the solve so the absorbed bbox residuals exceed
        # both thresholds, by different factors
        w = self.with_inflated_quadric(w)
        calls = []
        evaluate = _Plan.evaluate

        def spy(plan, values, with_jacobians):
            out = evaluate(plan, values, with_jacobians)
            calls.append((copied(out), [oracle(plan, values, c) for c in (tight, RobustConfig())]))
            return out

        monkeypatch.setattr(_Plan, "evaluate", spy)
        w.marginalize_oldest()
        assert len(calls) == 1
        (h_mat, g, _), (tight_ref, default_ref) = calls[0]
        self.assert_matches_oracle([((h_mat, g, None), tight_ref)])
        # the kernel matters here: the default one gives another system
        assert not np.allclose(tight_ref[0], default_ref[0], rtol=1e-6)
        # and the prior is the Schur complement of the tight-kernel system
        # over its survivor states, which the assembly orders last
        h_ref = tight_ref[0]
        n_e = len(h_ref) - w.prior.dim()
        hee_inv = np.linalg.pinv(h_ref[:n_e, :n_e], rcond=1e-12)
        schur = h_ref[n_e:, n_e:] - h_ref[n_e:, :n_e] @ hee_inv @ h_ref[:n_e, n_e:]
        info = w.prior.info
        np.testing.assert_allclose(info, schur, rtol=1e-6, atol=1e-8 * np.abs(schur).max())


class TestObjectStates:
    def test_dynamic_object_recovery(self):
        # constant-velocity object with exact observations; perturb poses
        rng = np.random.default_rng(55)
        vel = se3_exp(Twist([0.25, 0, 0], [0, 0.01, 0]))
        t0 = Pose(np.eye(3), [0, 0, 8.0])
        f_o = rng.uniform(-0.8, 0.8, size=(10, 3))
        cams = [look_at([0.1 * i, 0, -6.0], [0, 0, 6.0]) for i in range(4)]
        poses = [t0]
        for _ in range(3):
            poses.append(compose(vel, poses[-1]))
        w = WindowState()
        for f, cam in enumerate(cams):
            w.add_frame(
                f,
                cam,
                object_poses={7: poses[f]},
                object_landmarks={(7, j): f_o[j] for j in range(10)} if f == 0 else None,
            )
            w.fixed.add(("cam", f))
            for j in range(10):
                p_cam = inverse(cam).apply(poses[f].apply(f_o[j]))
                w.add_factor(
                    ReprojFactor(
                        frame=f, lm_id=j, z_px=project(K, p_cam), k=K, track=7,
                        depth=p_cam[2], sigma_depth=0.1,
                    )
                )
        w.add_factor(MotionFactor(track=7, frames=(0, 1, 2), sqrt_info=np.full(6, 3.0)))
        w.add_factor(MotionFactor(track=7, frames=(1, 2, 3), sqrt_info=np.full(6, 3.0)))
        # anchor the object-frame gauge: pose and landmarks share a free
        # rigid transform that observations cannot pin down
        w.fixed.add(("obj", 0, 7))
        for f in range(1, 4):
            w.values[("obj", f, 7)] = compose(
                w.values[("obj", f, 7)],
                se3_exp(Twist(rng.normal(scale=0.05, size=3), rng.normal(scale=0.02, size=3))),
            )
        report = w.lm_solve()
        assert report.final_cost < 1e-10
        for f in range(4):
            err = np.linalg.norm(w.values[("obj", f, 7)].translation - poses[f].translation)
            assert err < 1e-4


class TestMotionBranchCut:
    @staticmethod
    def window(factor_frames, angle=np.pi):
        """Object poses of track 7 at frames 0-3: the triple (0, 1, 2)
        turns by 0.1 rad, the triple (1, 2, 3) by `angle` about z."""
        poses = [
            Pose(so3_exp([0.0, 0.1, 0.0]), [0.2, 0.0, 8.0]),
            Pose.identity(),
            Pose.identity(),
            Pose(so3_exp([0.0, 0.0, angle]), [0.1, 0.0, 0.0]),
        ]
        w = WindowState()
        for f, pose in enumerate(poses):
            w.add_frame(f, Pose.identity(), object_poses={7: pose})
            w.fixed.add(("cam", f))
        for frames in factor_frames:
            w.add_factor(MotionFactor(track=7, frames=frames, sqrt_info=np.full(6, 3.0)))
        return w

    @staticmethod
    def evaluate(w, with_jacobians):
        """The window's evaluation over all its states, from tables rebuilt
        from its factors."""
        keys = w._free_keys()
        return _Plan(keys, split_factors(w.factors), None, RobustConfig()).evaluate(w.values, with_jacobians)

    def test_factor_on_cut_is_switched_off(self):
        both = self.window([(0, 1, 2), (1, 2, 3)])
        alone = self.window([(0, 1, 2)])
        _, _, h_both, g_both = self.evaluate(both, True)
        _, _, h_alone, g_alone = self.evaluate(alone, True)
        assert np.abs(g_alone).max() > 0
        assert np.array_equal(h_both, h_alone)
        assert np.array_equal(g_both, g_alone)
        cost_both = self.evaluate(both, False)[0]
        assert cost_both == self.evaluate(alone, False)[0]
        assert cost_both > 0
        both.lm_solve()

    def test_factor_with_perturbed_rows_on_cut_is_switched_off(self):
        # 1.5e-6 below pi the residual itself is defined, but the +-1e-6
        # turns about z of its last pose reach the cut: the factor counts
        # in the cost and is left out of the linearization
        angle = np.pi - 1.5e-6
        both = self.window([(0, 1, 2), (1, 2, 3)], angle)
        alone = self.window([(0, 1, 2)], angle)
        _, _, h_both, g_both = self.evaluate(both, True)
        _, _, h_alone, g_alone = self.evaluate(alone, True)
        assert np.array_equal(h_both, h_alone)
        assert np.array_equal(g_both, g_alone)
        assert self.evaluate(both, False)[0] > self.evaluate(alone, False)[0] + 1.0


class TestMarginalization:
    def test_below_capacity_noop(self):
        w, _, _ = make_static_scene(n_frames=3)
        w.capacity = 15
        n_factors = len(w.factors)
        w.marginalize_oldest()
        assert len(w.frames) == 3
        assert len(w.factors) == n_factors

    def test_independence_oracle(self):
        # frame 0 observes a private landmark set; marginalizing must equal
        # simply dropping the frame
        def build(drop_instead):
            rng = np.random.default_rng(56)
            pts_a = rng.uniform([-2, -1, 5], [0, 1, 8], size=(6, 3))
            pts_b = rng.uniform([0, -1, 5], [2, 1, 8], size=(6, 3))
            cams = [look_at([0.2 * i, 0, -6.0], [0, 0, 6.0]) for i in range(4)]
            w = WindowState(capacity=4)
            for f, cam in enumerate(cams):
                w.add_frame(f, cam)
                w.fixed.add(("cam", f))
            for j, p in enumerate(pts_a):
                w.values[("lm", j)] = p.copy()
                p_cam = inverse(cams[0]).apply(p)
                if not drop_instead:  # the oracle never sees frame 0's factors
                    w.add_factor(ReprojFactor(frame=0, lm_id=j, z_px=project(K, p_cam), k=K,
                                              depth=p_cam[2], sigma_depth=0.1))
            for j, p in enumerate(pts_b):
                lid = 100 + j
                w.values[("lm", lid)] = p.copy()
                for f in (1, 2, 3):
                    p_cam = inverse(cams[f]).apply(p)
                    w.add_factor(ReprojFactor(frame=f, lm_id=lid, z_px=project(K, p_cam), k=K,
                                              depth=p_cam[2], sigma_depth=0.1))
            if drop_instead:
                for j in range(6):
                    w.values.pop(("lm", j))
                w.frames.pop(0)
                w.values.pop(("cam", 0))
            else:
                w.marginalize_oldest()
            rng2 = np.random.default_rng(57)
            for j in range(6):
                w.values[("lm", 100 + j)] = w.values[("lm", 100 + j)] + rng2.normal(scale=0.05, size=3)
            w.lm_solve()
            return w

        w_marg = build(False)
        w_drop = build(True)
        assert w_marg.prior is None or w_marg.prior.dim() == 0
        for j in range(6):
            d = np.linalg.norm(w_marg.values[("lm", 100 + j)] - w_drop.values[("lm", 100 + j)])
            assert d < 1e-8

    def test_prior_carries_information(self):
        # landmark observed in frames 0..3; after marginalizing frame 0 the
        # prior must still anchor the shared landmark
        w, cams, points = make_static_scene(n_frames=4)
        w.capacity = 4
        w.fixed.add(("cam", 0))
        cam4 = look_at([1.2, 0.08, -6.0], [0, 0, 6.0])
        w.add_frame(4, cam4)
        for j in range(len(points)):
            p_cam = inverse(cam4).apply(points[j])
            w.add_factor(ReprojFactor(frame=4, lm_id=j, z_px=project(K, p_cam), k=K,
                                      depth=p_cam[2], sigma_depth=0.1))
        assert w.prior is not None
        info = w.prior.info
        evals = np.linalg.eigvalsh(info)
        assert evals.min() > -1e-9
        report = w.lm_solve()
        assert report.final_cost < 1e-9

    def test_prior_psd_over_rolling_run(self):
        rng = np.random.default_rng(58)
        points = rng.uniform([-3, -2, 4], [3, 2, 10], size=(10, 3))
        w = WindowState(capacity=5)
        for f in range(20):
            cam = look_at([0.15 * f, 0.0, -6.0], [0, 0, 6.0])
            w.add_frame(f, cam)
            if f == 0:
                w.fixed.add(("cam", 0))
                for j, p in enumerate(points):
                    w.values[("lm", j)] = p.copy()
            for j, p in enumerate(points):
                p_cam = inverse(cam).apply(p)
                if p_cam[2] <= 0.5:
                    continue
                w.add_factor(ReprojFactor(frame=f, lm_id=j, z_px=project(K, p_cam), k=K,
                                          depth=p_cam[2], sigma_depth=0.1))
            if w.prior is not None:
                assert np.linalg.eigvalsh(w.prior.info).min() > -1e-9
            w.lm_solve()

    def test_feature_churn_keeps_prior_consistent(self):
        # a fast camera turns the visible landmarks over every few frames:
        # a landmark the prior holds ends up observed only in the oldest
        # frame, and must be eliminated rather than dropped
        cfg = localization_scene_config(seed=0, n_frames=12)
        cfg.camera_velocity = Twist([0.5, 0.0, 0.0], [0.0, 0.0, 0.0])
        backend = Backend(PipelineConfig(camera_mode="estimate", window_capacity=4))
        for obs in gen_dynamic_scene(cfg):
            backend.process_frame(obs)
            w = backend.window
            assert len(w.frames) <= w.capacity
            if w.prior is not None:
                assert set(w.prior.keys) <= set(w.values)
                evals = np.linalg.eigvalsh(w.prior.info)
                assert evals.min() >= -1e-12 * max(1.0, evals.max())
        assert backend.window.prior is not None


    def test_retired_track_states_leave_window_and_prior(self):
        # the object vanishes at frame 20: its track is pruned after 15
        # misses, and the next marginalization eliminates the quadric and
        # object landmarks that then only the prior holds
        frames = gen_dynamic_scene(single_dynamic_object_config(seed=0, n_frames=80))
        backend = Backend(PipelineConfig(camera_mode="given"))
        retired_at = None
        for obs in frames:
            if obs.frame >= 20:
                obs.detections = []
                obs.features = [f for f in obs.features if f.instance is None]
            backend.process_frame(obs)
            w = backend.window
            track_keys = {k for k in w.values if k[0] in ("quad", "olm")}
            if retired_at is None and not backend.tracks.tracks:
                retired_at = obs.frame
                assert track_keys and track_keys <= set(w.prior.keys)
            elif retired_at is not None:
                assert not track_keys
                # with the track gone only fixed cameras are left, and no prior
                assert not any(k[0] in ("quad", "olm") for k in (w.prior.keys if w.prior is not None else ()))
            if w.prior is not None:
                assert set(w.prior.keys) <= set(w.values)
        assert retired_at is not None and retired_at < 70

    def test_frame_states_held_only_by_prior_stay(self):
        # marginalizing frame 0 puts the object poses of frames 1 and 2 into
        # the prior through the motion factor; no other factor touches them,
        # but while their frames are in the window they must stay
        w = WindowState(capacity=3)
        vel = se3_exp(Twist([0.2, 0, 0], [0, 0.01, 0]))
        pose = Pose(np.eye(3), [0, 0, 8.0])
        for f in range(5):
            w.add_frame(f, look_at([0.1 * f, 0, -6.0], [0, 0, 6.0]), object_poses={7: pose})
            w.fixed.add(("cam", f))
            pose = compose(vel, pose)
            if f == 0:
                w.add_factor(StatePriorFactor(key=("obj", 0, 7), reference=w.values[("obj", 0, 7)],
                                             sqrt_info=np.ones(6)))
            if f == 2:
                w.add_factor(MotionFactor(track=7, frames=(0, 1, 2), sqrt_info=np.ones(6)))
            if f == 3:
                assert set(w.prior.keys) == {("obj", 1, 7), ("obj", 2, 7)}
        assert w.frames == [2, 3, 4]
        assert set(w.prior.keys) == {("obj", 2, 7)}
        assert {("cam", f) for f in w.frames} | set(w.prior.keys) <= set(w.values)
        w.lm_solve()

    def test_raise_on_the_prior_leaves_the_window_as_it_was(self):
        # a prior-held object pose half a turn from its linearization point:
        # marginalizing frame 1 raises AngleNearPi and leaves the frames,
        # states, factors and prior of the window untouched
        w = WindowState(capacity=3)
        vel = se3_exp(Twist([0.2, 0, 0], [0, 0.01, 0]))
        pose = Pose(np.eye(3), [0, 0, 8.0])
        for f in range(4):
            cam = look_at([0.1 * f, 0, -6.0], [0, 0, 6.0])
            w.add_frame(f, cam, object_poses={7: pose})
            w.add_factor(StatePriorFactor(key=("cam", f), reference=cam, sqrt_info=np.full(6, 1e2)))
            pose = compose(vel, pose)
            if f == 0:
                w.add_factor(StatePriorFactor(key=("obj", 0, 7), reference=pose, sqrt_info=np.ones(6)))
            if f >= 2:
                w.add_factor(MotionFactor(track=7, frames=(f - 2, f - 1, f), sqrt_info=np.ones(6)))
        assert w.frames == [1, 2, 3] and set(w.prior.keys) == {("obj", 1, 7), ("obj", 2, 7)}
        key = ("obj", 1, 7)
        w.values[key] = compose(w.prior.lin_points[key], Pose(so3_exp([0.0, 0.0, np.pi]), np.zeros(3)))
        frames, values, factors, prior = list(w.frames), dict(w.values), w.factors, w.prior
        info, b = prior.info.copy(), prior.b.copy()
        with pytest.raises(AngleNearPi):
            w.marginalize_oldest()
        assert w.frames == frames and w.values == values
        assert [id(f) for f in w.factors] == [id(f) for f in factors]
        assert w.prior is prior and np.array_equal(prior.info, info) and np.array_equal(prior.b, b)


class TestOneLeaveRule:
    """`marginalize_oldest` against the three-rule oracle on windows where
    each old rule fires: a landmark seen only in the oldest frame (dropped
    by the oracle, eliminated now), the same landmark held by the prior,
    and a retired track's states held only by the prior."""

    @staticmethod
    def assert_matches_oracle(w, marginalize=WindowState.marginalize_oldest):
        """Marginalizes `w` by `marginalize` (by default the method itself,
        also while a spy replaces it) and a copy by the oracle: the same
        states, frames and prior keys, and the prior's H, b and c within
        1e-10 of their largest entry."""
        ref = copy.deepcopy(w)
        reference_marginalize_oldest(ref)
        marginalize(w)
        assert set(w.values) == set(ref.values)
        assert w.frames == ref.frames
        assert w.prior.keys == ref.prior.keys
        for got, want in ((w.prior.info, ref.prior.info), (w.prior.b, ref.prior.b), (w.prior.c, ref.prior.c)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())

    @staticmethod
    def window(lone_frames, depth):
        """A full 3-frame window on 8 shared landmarks plus landmark 99,
        which only `lone_frames` observe (with or without a depth row);
        noisy pixels and depths, so the prior's c is not 0."""
        rng = np.random.default_rng(59)
        points = rng.uniform([-3, -2, 4], [3, 2, 10], size=(8, 3))
        lone = np.array([0.5, -0.4, 6.0])
        w = WindowState(capacity=3)
        for f in range(4):
            cam = look_at([0.3 * f, 0.05 * f, -6.0], [0, 0, 6.0])
            w.add_frame(f, cam, landmarks={j: points[j] for j in range(8)} if f == 0 else None)
            if f == 0:
                w.values[("lm", 99)] = lone + rng.normal(scale=0.05, size=3)
            w.add_factor(StatePriorFactor(("cam", f), cam, np.full(6, 1e2)))
            seen = [(j, p, True) for j, p in enumerate(points)]
            if f in lone_frames:
                seen.append((99, lone, depth))
            for j, p, with_depth in seen:
                p_cam = inverse(cam).apply(p)
                w.add_factor(ReprojFactor(
                    frame=f, lm_id=j, z_px=project(K, p_cam) + rng.normal(scale=0.5, size=2), k=K,
                    depth=p_cam[2] + rng.normal(scale=0.05) if with_depth else None,
                    sigma_depth=0.1 if with_depth else None))
            if f == 2:
                return w
            w.lm_solve()

    @pytest.mark.parametrize("depth", [True, False])
    def test_landmark_seen_only_in_oldest_frame(self, depth):
        w = self.window(lone_frames=(0,), depth=depth)
        w.lm_solve()
        self.assert_matches_oracle(w)
        assert ("lm", 99) not in w.values

    @pytest.mark.parametrize("depth", [True, False])
    def test_landmark_seen_only_in_oldest_frame_held_by_prior(self, depth):
        w = self.window(lone_frames=(0, 1), depth=depth)
        w.marginalize_oldest()
        w.add_frame(3, look_at([0.9, 0.15, -6.0], [0, 0, 6.0]))
        w.add_factor(StatePriorFactor(("cam", 3), w.values[("cam", 3)], np.full(6, 1e2)))
        w.lm_solve()
        assert w.frames[0] == 1 and ("lm", 99) in w.prior.keys
        self.assert_matches_oracle(w)
        assert ("lm", 99) not in w.values and ("lm", 99) not in w.prior.keys

    def test_retired_track_states_held_only_by_prior(self, object_window):
        w = copy.deepcopy(object_window)
        w.retire_tracks(alive=set())
        held = {k for k in w.values if k[0] in ("quad", "olm")}
        assert ("quad", 0) in held and any(k[0] == "olm" for k in held)
        assert held <= set(w.prior.keys) and not any(k in held for t in w._batches() for s in t.slot_keys for k in s)
        self.assert_matches_oracle(w)
        assert not {k for k in w.values if k[0] in ("quad", "olm")}

    def test_states_without_factors_leave_with_the_oldest_frame(self):
        # a landmark and a quadric that add_frame inserts without a factor
        # (at the parent both lingered until a factor or the end)
        w = self.window(lone_frames=(), depth=True)
        w.values[("lm", 50)] = np.array([0.0, 0.0, 7.0])
        w.values[("quad", 3)] = QuadricParams(np.ones(3), np.zeros(3), np.eye(3))
        w.marginalize_oldest()
        assert ("lm", 50) not in w.values and ("quad", 3) not in w.values
        assert ("lm", 99) not in w.values  # never observed
        assert not {("lm", 50), ("quad", 3)} & set(w.prior.keys)

    def test_churn_stream_matches_oracle_at_every_marginalization(self, monkeypatch):
        # the churn scene of TestMarginalization with a third of the
        # background features dropped per frame: landmarks leave the view
        # every few frames or are seen once, so the old drop and prior
        # rules both fire
        rng = np.random.default_rng(60)
        cfg = localization_scene_config(seed=0, n_frames=12)
        cfg.camera_velocity = Twist([0.5, 0.0, 0.0], [0.0, 0.0, 0.0])
        backend = Backend(PipelineConfig(camera_mode="estimate", window_capacity=4))
        marginalize, fired = WindowState.marginalize_oldest, []

        def spy(w):
            if len(w.frames) < w.capacity:
                return marginalize(w)
            held = set(w.prior.keys) if w.prior is not None else set()
            before = {k for k in w.values if k[0] == "lm"}
            self.assert_matches_oracle(w)
            fired.append(["held" if k in held else "dropped" for k in before - set(w.values)])

        monkeypatch.setattr(WindowState, "marginalize_oldest", spy)
        for obs in gen_dynamic_scene(cfg):
            obs.features = [f for f in obs.features if f.instance is not None or rng.random() > 1 / 3]
            backend.process_frame(obs)
        assert len(fired) == 12 - 4
        assert {"held", "dropped"} <= {rule for rules in fired for rule in rules}


class TestInformationPrior:
    @staticmethod
    def assert_matches_sqrt_oracle(prior, values_at, h, b, ds):
        a, rhs = reference_sqrt_prior(h, b)
        assert np.array_equal(prior.info, prior.info.T)
        for d in ds:
            e, grad, hess = info_prior_terms(prior, values_at(d))
            e_ref, grad_ref, hess_ref = sqrt_prior_terms(a, rhs, prior.delta(values_at(d)))
            scale = np.abs(hess_ref).max()
            np.testing.assert_allclose(hess, hess_ref, rtol=1e-9, atol=1e-12 * scale)
            np.testing.assert_allclose(grad, grad_ref, rtol=1e-9, atol=1e-10 * np.abs(grad_ref).max())
            # the energy loses digits to cancellation near its minimum, in
            # proportion to the terms that cancel
            assert abs(e - e_ref) <= 1e-10 * (e_ref + prior.c + 1.0)

    def test_full_rank_matches_sqrt_oracle(self, eigh_calls):
        rng = np.random.default_rng(61)
        j = rng.normal(size=(30, 12))
        h, b = j.T @ j, j.T @ rng.normal(size=30)
        h += 1e-9 * np.triu(rng.normal(size=(12, 12)), 1)  # round-off asymmetry
        prior, values_at = landmark_prior(h, b)
        assert not eigh_calls
        np.testing.assert_allclose(prior.c, b @ np.linalg.solve(h, b), rtol=1e-10)
        self.assert_matches_sqrt_oracle(prior, values_at, h, b, [np.zeros(12), *rng.normal(size=(3, 12))])

    def test_rank_deficient_repair_matches_sqrt_oracle(self, eigh_calls):
        # 4 zero and 2 slightly negative eigenvalues make the Cholesky fail;
        # b has parts along those directions, which the repair drops
        rng = np.random.default_rng(62)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        evals = np.r_[rng.uniform(0.5, 50.0, size=6), np.zeros(4), -1e-13, -1e-14]
        h = (q * evals) @ q.T
        b = q @ rng.normal(size=12)
        prior, values_at = landmark_prior(h, b)
        assert len(eigh_calls) == 1
        assert np.linalg.matrix_rank(prior.info, tol=1e-9) == 6
        np.testing.assert_allclose(prior.b, q[:, :6] @ (q[:, :6].T @ b), atol=1e-12)
        self.assert_matches_sqrt_oracle(prior, values_at, h, b, [np.zeros(12), *rng.normal(size=(3, 12))])

    def test_absorb_into_prior_matches_sqrt_oracle(self, object_window, monkeypatch):
        w = copy.deepcopy(object_window)
        seen = []
        build = GaussianPrior.from_information

        def spy(keys, lin_points, h, b):
            seen.append((h.copy(), b.copy()))
            return build(keys, lin_points, h, b)

        monkeypatch.setattr(GaussianPrior, "from_information", staticmethod(spy))
        w.marginalize_oldest()
        ((h, b),) = seen
        rng = np.random.default_rng(63)
        keys = w.prior.keys

        def values_at(d):
            out = dict(w.values)
            off = 0
            for k in keys:
                out[k] = retract(w.prior.lin_points[k], d[off : off + state_dim(k)])
                off += state_dim(k)
            return out

        n = w.prior.dim()
        self.assert_matches_sqrt_oracle(w.prior, values_at, h, b, [np.zeros(n), *rng.normal(scale=1e-2, size=(2, n))])

    def test_full_rank_marginalization_skips_eigh(self, eigh_calls):
        # every survivor landmark has pixel and depth rows in the
        # marginalized frame, so the prior is full rank
        w, _, _ = make_static_scene(n_frames=4)
        w.capacity = 4
        w.fixed.add(("cam", 0))
        w.lm_solve()
        w.add_frame(4, look_at([1.5, 0.1, -6.0], [0, 0, 6.0]))
        assert w.prior is not None and w.prior.dim() == 3 * 12
        assert not eigh_calls
        assert np.linalg.eigvalsh(w.prior.info).min() > 0

    @settings(max_examples=60, deadline=None)
    @given(
        n_keys=st.integers(1, 5),
        rank_share=st.floats(0.0, 1.0),
        log_scale=st.floats(-3.0, 6.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_random_psd_systems(self, n_keys, rank_share, log_scale, seed):
        rng = np.random.default_rng(seed)
        n = 3 * n_keys
        rank = int(round(rank_share * n))
        j = np.sqrt(10.0**log_scale) * rng.normal(size=(rank, n))
        h, b = j.T @ j, j.T @ rng.normal(size=rank)
        prior, values_at = landmark_prior(h, b)
        info = prior.info
        assert np.array_equal(info, info.T)
        evals = np.linalg.eigvalsh(info)
        assert evals.min() >= -1e-12 * max(np.abs(evals).max(), 1e-300)
        assert prior.c >= 0.0
        d_min = np.linalg.lstsq(info, prior.b, rcond=None)[0] if rank else np.zeros(n)
        for d in (np.zeros(n), d_min, *rng.normal(size=(3, n))):
            d_h_d = float(d @ info @ d)
            terms = d_h_d + 2.0 * abs(float(d @ prior.b)) + prior.c
            assert prior_energy(prior, values_at(d)) >= -1e-10 * terms


class TestLocalCoords:
    def test_retract_roundtrip_pose(self):
        rng = np.random.default_rng(59)
        p = se3_exp(Twist(rng.normal(size=3), rng.normal(scale=0.5, size=3)))
        d = rng.normal(scale=0.1, size=6)
        q = retract(p, d)
        assert np.allclose(local_coords(q, p), d, atol=1e-9)

    def test_retract_roundtrip_quadric(self):
        rng = np.random.default_rng(60)
        q = QuadricParams([1.0, 2.0, 0.5], [1, 2, 3], np.eye(3))
        d = rng.normal(scale=0.1, size=9)
        q2 = retract(q, d)
        assert np.allclose(local_coords(q2, q), d, atol=1e-9)

    def test_batched_state_arithmetic_matches_scalar_reference(self):
        # retract and local coordinates of several states of each kind in one
        # batch against the per-state loop they replaced, equal up to float64
        # round-off (both branches of the exp and log series); a rotation on
        # the log branch cut is flagged where the loop raises
        rng = np.random.default_rng(64)
        kinds = {
            ("cam", 6): [se3_exp(Twist(rng.normal(size=3), rng.normal(scale=s, size=3))) for s in (1e-10, 0.5, 2.0)],
            ("quad", 9): [QuadricParams(rng.uniform(0.3, 2.0, 3), rng.normal(size=3), so3_exp(rng.normal(size=3)))
                          for _ in range(3)],
            ("lm", 3): list(rng.normal(size=(3, 3))),
        }

        def flat(x):
            return np.concatenate([np.ravel(getattr(x, a)) for a in ("axes", "translation", "rotation") if hasattr(x, a)]
                                  or [x])

        keys, lin, values = [], {}, {}
        for (kind, dim), states in kinds.items():
            deltas = rng.normal(scale=0.3, size=(len(states), dim))
            deltas[0] *= 1e-10
            moved = _retract_rows(states, deltas)
            for x, d, y in zip(states, deltas, moved):
                np.testing.assert_allclose(flat(y), flat(reference_retract(x, d)), rtol=0, atol=1e-12)
            d, cut = _local_coords_rows(moved, _ref_stack(states))
            assert not cut.any()
            for x, y, row in zip(states, moved, d):
                np.testing.assert_allclose(row, reference_local_coords(y, x), rtol=0, atol=1e-12)
            for i, (x, y) in enumerate(zip(states, moved)):
                keys.append((kind, i))
                lin[(kind, i)], values[(kind, i)] = x, y
        # the prior's delta batches its keys by kind and keeps their order
        n = sum(state_dim(k) for k in keys)
        prior = GaussianPrior(keys, lin, np.eye(n), np.zeros(n), 0.0)
        expected = np.concatenate([reference_local_coords(values[k], lin[k]) for k in keys])
        np.testing.assert_allclose(prior.delta(values), expected, rtol=0, atol=1e-12)
        half = Pose(so3_exp([0.0, 0.0, np.pi]), [0.1, 0.0, 0.0])
        assert _local_coords_rows([half, half], _ref_stack([Pose.identity(), half]))[1].tolist() == [True, False]
        for coords in (local_coords, reference_local_coords):
            with pytest.raises(AngleNearPi):
                coords(half, Pose.identity())

    def test_state_dims(self):
        assert state_dim(("cam", 0)) == 6
        assert state_dim(("obj", 0, 1)) == 6
        assert state_dim(("lm", 0)) == 3
        assert state_dim(("quad", 0)) == 9


class WindowMachine(RuleBasedStateMachine):
    """Random sequences of add_frame, add_factor, lm_solve,
    marginalize_oldest and track retirement on a 3-frame window of objects
    and landmarks. A new frame observes every landmark and object like the
    pipeline does; add_factor adds one more factor of a drawn family on
    drawn states. Measurements are projections plus noise. Only an
    EllipslamError may escape a step, and the window invariants hold after
    every step."""

    def __init__(self):
        super().__init__()
        self.w = WindowState(capacity=3)
        self.frame = -1
        self.n_lm = 0
        self.tracks: set = set()
        self.next_track = 0

    def step(self, fn, *args):
        """Runs fn; False when it raised an EllipslamError."""
        try:
            fn(*args)
        except EllipslamError:
            return False
        return True

    def keys(self, kind, frame=None):
        return sorted(k for k in self.w.values if k[0] == kind and (frame is None or k[1] == frame))

    def factor(self, rng, kind, frame, key=None, obj=None):
        """A factor of family `kind` in `frame` on landmark `key` (drawn
        when None) and object pose `obj`, or None where the states do not
        allow one."""
        cam = self.w.values[("cam", frame)]
        if kind in ("lm", "olm"):
            if key is None:
                lms = [k for k in self.keys(kind) if kind == "lm" or (obj is not None and k[1] == obj[2])]
                if not lms:
                    return None
                key = lms[int(rng.integers(len(lms)))]
            p_w = self.w.values[key] if kind == "lm" else self.w.values[obj].apply(self.w.values[key])
            p_cam = inverse(cam).apply(p_w)
            if p_cam[2] < 0.5:
                return None
            depth = rng.random() < 0.7
            return ReprojFactor(
                frame=frame, lm_id=key[-1], z_px=project(K, p_cam) + rng.normal(scale=0.5, size=2), k=K,
                track=None if kind == "lm" else obj[2], depth=p_cam[2] + rng.normal(scale=0.05) if depth else None,
                sigma_depth=0.1 if depth else None,
            )
        if obj is None or ("quad", obj[2]) not in self.w.values:
            return None
        if kind == "bbox":
            try:
                box = project_quadric(self.w.values[("quad", obj[2])], self.w.values[obj], cam, K)
            except EllipslamError:
                return None
            return QuadricBBoxFactor(frame=frame, track=obj[2], bbox=type(box).from_vector(
                box.vector() + rng.normal(scale=0.5, size=4)), k=K)
        if kind == "motion":
            frames = [g for g in self.w.frames if ("obj", g, obj[2]) in self.w.values]
            if len(frames) < 3:
                return None
            return MotionFactor(track=obj[2], frames=tuple(frames[-3:]), sqrt_info=np.full(6, 3.0))
        reference = QuadricParams(rng.uniform(0.3, 0.8, 3), rng.normal(scale=0.05, size=3),
                                  so3_exp(rng.normal(scale=0.2, size=3)))
        return StatePriorFactor(("quad", obj[2]), reference, rng.uniform(0.1, 2.0, 9))

    @rule(seed=st.integers(0, 2**32 - 1), new_track=st.booleans())
    def add_frame(self, seed, new_track):
        rng = np.random.default_rng(seed)
        self.frame += 1 + int(rng.integers(0, 2))
        f = self.frame
        object_landmarks, quadrics = {}, {}
        if new_track:
            tid = self.next_track
            self.next_track += 1
            self.tracks.add(tid)
            object_landmarks = {(tid, 100 * tid + j): rng.uniform(-0.5, 0.5, 3) for j in range(4)}
            quadrics = {tid: QuadricParams(rng.uniform(0.3, 0.8, 3), rng.normal(scale=0.05, size=3),
                                           so3_exp(rng.normal(scale=0.2, size=3)))}
        landmarks = {self.n_lm + j: rng.uniform([-3, -2, 4], [3, 2, 10]) for j in range(int(rng.integers(0, 4)))}
        self.n_lm += len(landmarks)
        poses = {t: Pose(so3_exp(rng.normal(scale=0.05, size=3)), [0.4 * t - 0.5, 0.1 * f, 8.0]) for t in self.tracks}
        cam = look_at([0.2 * f, 0.05 * f, -6.0], [0, 0, 6.0])
        self.step(self.w.add_frame, f, cam, poses, landmarks, object_landmarks, quadrics)
        if ("cam", f) not in self.w.values:
            return
        factors = [StatePriorFactor(("cam", f), cam, np.full(6, 1e3))]
        factors += [self.factor(rng, "lm", f, key) for key in self.keys("lm") if rng.random() < 0.8]
        for obj in self.keys("obj", f):
            factors += [self.factor(rng, "olm", f, key, obj) for key in self.keys("olm") if key[1] == obj[2]]
            factors += [self.factor(rng, kind, f, obj=obj) for kind in ("bbox", "motion")]
            if obj[2] in quadrics:
                factors += [StatePriorFactor(("quad", obj[2]), quadrics[obj[2]], np.full(9, 0.5)),
                            StatePriorFactor(obj, poses[obj[2]], np.full(6, 1e2))]
        for factor in factors:
            if factor is not None:
                self.step(self.w.add_factor, factor)

    @precondition(lambda self: self.w.frames)
    @rule(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["lm", "olm", "bbox", "motion", "quad"]))
    def add_factor(self, seed, kind):
        rng = np.random.default_rng(seed)
        f = self.w.frames[int(rng.integers(len(self.w.frames)))]
        objs = self.keys("obj", f)
        factor = self.factor(rng, kind, f, obj=objs[int(rng.integers(len(objs)))] if objs else None)
        if factor is not None:
            self.step(self.w.add_factor, factor)

    @precondition(lambda self: self.w.factors or self.w.prior is not None)
    @rule()
    def lm_solve(self):
        # the solve's first assembly against the oracle on tables and offsets
        # rebuilt from the window as it is, so a plan that missed an earlier
        # add_factor, marginalize_oldest or retire_tracks would show
        calls = []
        evaluate = _Plan.evaluate
        w = self.w

        def spy(plan, values, with_jacobians):
            out = evaluate(plan, values, with_jacobians)
            if not calls:
                keys = w._free_keys()
                dims = [state_dim(k) for k in keys]
                offsets = dict(zip(keys, np.cumsum([0] + dims).tolist()))
                calls.append((copied(out), reference_normal_equations(
                    values, w.prior, split_factors(w.factors), offsets, sum(dims), plan.robust)))
            return out

        with mock.patch.object(_Plan, "evaluate", spy):
            self.step(self.w.lm_solve, SolverConfig(max_iters=3))
        if calls:
            # H at TestAssembly's tolerance; g uses the same columns, but a
            # solve may start near the optimum, where g has cancelled down to
            # round-off that no relative tolerance bounds
            (h_mat, _, _), (h_ref, _) = calls[0]
            np.testing.assert_allclose(h_mat, h_ref, rtol=1e-10, atol=1e-12 * np.abs(h_ref).max())

    @rule()
    def marginalize_oldest(self):
        full = len(self.w.frames) >= self.w.capacity
        if self.step(self.w.marginalize_oldest) and full:
            # one leave rule: no landmark or quadric outlives its last factor
            referenced = {k for t in self.w._batches() for slot in t.slot_keys for k in slot}
            assert all(k in referenced for k in self.w.values if k[0] in ("lm", "olm", "quad"))

    @precondition(lambda self: self.tracks)
    @rule(data=st.data())
    def retire_track(self, data):
        self.tracks.discard(data.draw(st.sampled_from(sorted(self.tracks))))
        self.step(self.w.retire_tracks, self.tracks)

    @invariant()
    def prior_keys_are_live_states(self):
        if self.w.prior is not None:
            assert set(self.w.prior.keys) <= set(self.w.values)

    @invariant()
    def prior_is_psd(self):
        if self.w.prior is not None:
            evals = np.linalg.eigvalsh(self.w.prior.info)
            assert evals.min() >= -1e-9 * max(1.0, evals.max())

    @invariant()
    def window_is_bounded(self):
        assert len(self.w.frames) <= self.w.capacity
        assert all(k[1] in self.w.frames for k in self.w.values if k[0] in ("cam", "obj"))

    @invariant()
    def tables_match_rebuild(self):
        batches = self.w._batches()
        rebuilt = split_factors(self.w.factors)
        assert [type(b) for b in batches] == [type(b) for b in rebuilt]
        keys = self.w._free_keys()
        offsets = dict(zip(keys, np.cumsum([0] + [state_dim(k) for k in keys]).tolist()))
        for batch, ref in zip(batches, rebuilt):
            assert [id(f) for f in batch.factors] == [id(f) for f in ref.factors]
            for with_jacobians in (True, False):
                (kept, r, jac), (kept_ref, r_ref, jac_ref) = (
                    b.eval(self.w.values, with_jacobians) for b in (batch, ref))
                assert np.array_equal(kept, kept_ref) and np.array_equal(r, r_ref)
                assert (jac is None and jac_ref is None) or np.array_equal(jac, jac_ref)
            assert np.array_equal(_columns(batch, offsets), _columns(ref, offsets))


WindowMachine.TestCase.settings = settings(max_examples=10, stateful_step_count=30, deadline=None)
TestWindowMachine = WindowMachine.TestCase
