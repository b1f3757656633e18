"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values once its assertions hold.

Sweep cells use the fixed seed set 0..9 with 10 ellipsoids per seed (100
trials per cell), so every number asserted here is deterministic.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import brute_force_assignment_cost, camera_pose_at, look_at, object_pose_at
from ellipslam.association import hungarian_assign
from ellipslam.cli import main as cli_main
from ellipslam.initialization import InitPrior, fit_obb_ransac, init_sphere, refine_quadric
from ellipslam.metrics import (
    MotAccumulator,
    ate_rmse,
    e_axe,
    e_trans,
    iou_2d_metric,
    monte_carlo_3d_iou,
    mota,
    motp,
)
from ellipslam.pipeline import PipelineConfig, run_pipeline
from ellipslam.quadrics import (
    QuadricParams,
    conic_to_bbox,
    project_quadric,
    svd_closed_form_init,
)
from ellipslam.se3 import Intrinsics, Pose, Twist, compose, inverse, project, se3_exp, se3_log
from ellipslam.simulate import (
    NoiseConfig,
    StaticArcConfig,
    arc_poses,
    crossing_objects_config,
    gen_arc_trial,
    gen_dynamic_scene,
    localization_scene_config,
    single_dynamic_object_config,
)
from ellipslam.sweep import run_sweep
from ellipslam.window import ReprojFactor, WindowState, _ReprojBatch

SEEDS = range(10)
ARC = StaticArcConfig()
K = ARC.intrinsics()

TRANSLATION_GRID = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
ROTATION_GRID = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
BBOX_GRID = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


@pytest.fixture(scope="module")
def refine_sweep():
    """Full noise grid for the sphere+refinement method, 100 trials/cell."""
    rows = {}
    for axis, grid in [("translation", TRANSLATION_GRID), ("rotation", ROTATION_GRID), ("bbox", BBOX_GRID)]:
        rows[axis] = run_sweep(axis, grid, SEEDS, ARC, methods=("sphere_refine",))
    return rows


@pytest.fixture(scope="module")
def svd_cells():
    """SVD baseline at the two criterion-3 noise points."""
    out = {}
    out["translation_15"] = run_sweep("translation", [0.15], SEEDS, ARC, methods=("svd",))[0]
    out["bbox_4"] = run_sweep("bbox", [0.04], SEEDS, ARC, methods=("svd",))[0]
    return out


def arc_trials_noise_free():
    for seed in SEEDS:
        for trial in range(ARC.ellipsoids_per_seed):
            yield gen_arc_trial(ARC, NoiseConfig(), seed, trial)


def test_criterion_01_zero_noise_svd_exactness():
    views = arc_poses(ARC)
    elapsed = 0.0
    worst_t = worst_a = 0.0
    worst_iou = 1.0
    for gt, frames in arc_trials_noise_free():
        obs = [(f.detections[0].bbox, f.pose_wc) for f in frames]
        t0 = time.monotonic()
        est = svd_closed_form_init(obs, K)
        elapsed += time.monotonic() - t0
        worst_t = max(worst_t, e_trans(gt.translation, est.translation))
        worst_a = max(worst_a, e_axe(gt.axes, est.axes))
        worst_iou = min(worst_iou, iou_2d_metric(gt, est, views, K))
    assert worst_t < 1e-3
    assert worst_a < 1e-3
    assert worst_iou > 0.99
    assert elapsed < 5.0
    report("01 zero-noise SVD exactness",
           f"max e_trans {worst_t:.2e} m, max e_axe {worst_a:.2e} m, "
           f"min IoU {worst_iou:.4f}, runtime {elapsed:.2f}s")


def test_criterion_02_zero_noise_refinement():
    from ellipslam.se3 import back_project

    views = arc_poses(ARC)
    elapsed = 0.0
    ious = []
    etrs = []
    for gt, frames in arc_trials_noise_free():
        pts = []
        for fr in frames:
            for feat in fr.features:
                pts.append(fr.pose_wc.apply(back_project(K, [feat.u, feat.v], feat.depth_m)))
        pts = np.asarray(pts)
        obs = [(fr.detections[0].bbox, fr.pose_wc, Pose.identity()) for fr in frames]
        t0 = time.monotonic()
        obb = fit_obb_ransac(pts, rng=np.random.default_rng(11))
        prior = InitPrior(per_axis=np.maximum(np.sort(obb.half_extents), 1e-6))
        est = refine_quadric(init_sphere(pts.mean(axis=0), prior), obs, prior, k=K)
        elapsed += time.monotonic() - t0
        ious.append(iou_2d_metric(gt, est, views, K))
        etrs.append(e_trans(gt.translation, est.translation))
    mean_iou = float(np.mean(ious))
    mean_et = float(np.mean(etrs))
    assert mean_iou > 0.95
    assert mean_et < 0.05
    assert elapsed < 30.0
    report("02 zero-noise sphere+refine",
           f"mean IoU {mean_iou:.4f}, mean e_trans {mean_et:.4f} m, runtime {elapsed:.1f}s")


def test_criterion_03_noise_robustness_ordering(refine_sweep, svd_cells):
    ref_t15 = next(r for r in refine_sweep["translation"] if abs(r["level"] - 0.15) < 1e-9)
    ref_b4 = next(r for r in refine_sweep["bbox"] if abs(r["level"] - 0.04) < 1e-9)
    svd_t15 = svd_cells["translation_15"]
    svd_b4 = svd_cells["bbox_4"]
    assert ref_t15["sr"] - svd_t15["sr"] >= 0.3
    assert svd_b4["sr"] < 0.5
    assert ref_b4["sr"] > 0.8
    report("03 noise-robustness ordering",
           f"trans15 SR {ref_t15['sr']:.2f} vs SVD {svd_t15['sr']:.2f}; "
           f"bbox4 SR {ref_b4['sr']:.2f} vs SVD {svd_b4['sr']:.2f}")


def test_criterion_04_error_envelope(refine_sweep):
    worst_ea = max(r["e_axe_mean"] for rows in refine_sweep.values() for r in rows)
    worst_et = max(r["e_trans_mean"] for rows in refine_sweep.values() for r in rows)
    assert worst_ea <= 1.0
    assert worst_et <= 2.5
    report("04 error-magnitude envelope",
           f"worst mean e_axe {worst_ea:.3f} m <= 1.0, worst mean e_trans {worst_et:.3f} m <= 2.5")


def test_criterion_05_monotone_degradation(refine_sweep):
    checked = 0
    for axis, rows in refine_sweep.items():
        rows = sorted(rows, key=lambda r: r["level"])
        for metric in ("e_trans_mean", "e_axe_mean"):
            vals = [r[metric] for r in rows]
            for a, b in zip(vals[:-1], vals[1:]):
                assert b >= 0.9 * a, f"{axis} {metric}: {b:.3f} < 0.9 * {a:.3f}"
                checked += 1
    report("05 monotone degradation", f"{checked} adjacent grid pairs within 10% tolerance")


def test_criterion_06_dynamic_tracking():
    cfg = single_dynamic_object_config(seed=0, n_frames=100)
    frames = gen_dynamic_scene(cfg)
    t0 = time.monotonic()
    recs = run_pipeline(frames, PipelineConfig(camera_mode="given"))
    elapsed = time.monotonic() - t0
    spec = cfg.objects[0]
    h_gt = compose(object_pose_at(spec, 1), inverse(object_pose_at(spec, 0)))
    h_errs = []
    t_errs = []
    first_dynamic = None
    for f, rec in enumerate(recs):
        assert rec.tracks, f"track lost at frame {f}"
        tr = rec.tracks[0]
        if f >= 1:
            h_est = compose(tr.pose_wo, inverse(recs[f - 1].tracks[0].pose_wo))
            h_errs.append(np.linalg.norm(se3_log(compose(h_est, inverse(h_gt))).vector()))
        t_errs.append(np.linalg.norm(tr.pose_wo.translation - object_pose_at(spec, f).translation))
        if first_dynamic is None and tr.motion_label == "dynamic":
            first_dynamic = f
    assert max(h_errs) < 1e-2
    assert max(t_errs) < 0.05
    assert first_dynamic is not None and first_dynamic <= 10
    assert elapsed < 10.0
    report("06 dynamic tracking",
           f"max |log(H Hgt^-1)| {max(h_errs):.2e}, max e_t {max(t_errs):.2e} m, "
           f"dynamic at frame {first_dynamic}, runtime {elapsed:.1f}s")


def test_criterion_07_multi_object_tracking():
    cfg = crossing_objects_config(seed=1, n_frames=60)
    frames = gen_dynamic_scene(cfg)
    recs = run_pipeline(frames, PipelineConfig(camera_mode="given"))
    acc = MotAccumulator()
    for fr, rec in zip(frames, recs):
        gt_boxes = []
        for g in fr.gt_objects:
            q = QuadricParams(g.axes_m, np.zeros(3), np.eye(3))
            gt_boxes.append((g.id, conic_to_bbox(project_quadric(q, g.pose_wo, fr.pose_wc, fr.intrinsics))))
        est_boxes = [(t.id, t.bbox) for t in rec.tracks if t.bbox is not None]
        acc.update(gt_boxes, est_boxes)
    m = mota(acc)
    p = motp(acc)
    assert m == 1.0
    assert acc.mismatches == 0
    assert p >= 0.95
    report("07 multi-object tracking", f"MOTA {m:.3f}, id switches {acc.mismatches}, MOTP {p:.3f}")


def test_criterion_08_localization():
    def run(enable_quadrics):
        cfg = localization_scene_config(seed=2, n_frames=50, feature_px_sigma=1.0)
        frames = gen_dynamic_scene(cfg)
        pc = PipelineConfig(camera_mode="estimate", enable_quadric_factors=enable_quadrics)
        recs = run_pipeline(frames, pc)
        gt = np.array([camera_pose_at(cfg, f).translation for f in range(len(frames))])
        est = np.array([r.camera_pose.translation for r in recs])
        return ate_rmse(gt, est)

    ate_points = run(False)
    ate_quadrics = run(True)
    assert ate_points < 0.05
    assert ate_quadrics <= ate_points * 1.1
    report("08 localization sanity",
           f"points-only ATE {ate_points:.4f} m, with quadrics {ate_quadrics:.4f} m")


def test_criterion_09_oracle_equivalences():
    # Hungarian vs exhaustive permutations, all sizes <= 6
    rng = np.random.default_rng(90)
    for _ in range(10_000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        cost = rng.uniform(0.0, 10.0, size=(m, n))
        pairs, _, _ = hungarian_assign(cost)
        total = sum(cost[i, j] for i, j in pairs)
        assert abs(total - brute_force_assignment_cost(cost)) < 1e-9

    # tangent bbox vs sampled silhouette
    from conftest import sample_ellipsoid_surface

    q = QuadricParams([2.0, 1.2, 0.7], np.zeros(3), np.eye(3))
    t_wo = Pose(np.eye(3), [0.4, -0.2, 11.0])
    bbox = conic_to_bbox(project_quadric(q, t_wo, Pose.identity(), K)).vector()
    pts = t_wo.apply(sample_ellipsoid_surface(q, 100_000, np.random.default_rng(91)))
    uv = np.stack([K.fx * pts[:, 0] / pts[:, 2] + K.cx, K.fy * pts[:, 1] / pts[:, 2] + K.cy], axis=1)
    sampled = np.array([uv[:, 0].min(), uv[:, 1].min(), uv[:, 0].max(), uv[:, 1].max()])
    silhouette_err = float(np.max(np.abs(sampled - bbox)))
    assert silhouette_err < 0.5

    # the solver's analytic reprojection camera Jacobian vs central
    # differences of its residual; one observation per camera, so all
    # cameras are perturbed at once
    rng = np.random.default_rng(92)
    values, factors = {}, []
    for i in range(100):
        t_wc = se3_exp(Twist(rng.normal(scale=2.0, size=3), rng.normal(scale=0.5, size=3)))
        values[("cam", i)] = t_wc
        values[("lm", i)] = t_wc.apply(np.array([rng.normal(), rng.normal(), rng.uniform(2, 10)]))
        factors.append(ReprojFactor(frame=i, lm_id=i, z_px=rng.uniform([0, 0], [640, 480]), k=K))
    batch = _ReprojBatch(factors)
    kept, _, jac = batch.eval(values)
    assert len(kept) == 100
    j_cam = jac[..., :6]
    h = 1e-6
    fd = np.zeros_like(j_cam)
    for col in range(6):
        d = np.zeros(6)
        d[col] = h
        r_pm = [
            batch.eval({**values, **{("cam", i): compose(values[("cam", i)], se3_exp(Twist.from_vector(s * d)))
                                     for i in range(100)}}, with_jacobians=False)[1]
            for s in (1.0, -1.0)
        ]
        fd[:, :, col] = (r_pm[0] - r_pm[1]) / (2 * h)
    denom = np.maximum(np.abs(fd).max(axis=(1, 2)), 1e-6)
    worst_rel = float(np.max(np.abs(j_cam - fd).max(axis=(1, 2)) / denom))
    assert worst_rel < 1e-4

    # exp/log round trip
    rng = np.random.default_rng(93)
    worst_rt = 0.0
    for _ in range(1000):
        phi = rng.normal(size=3)
        phi = phi / np.linalg.norm(phi) * rng.uniform(0, 3.0)
        x = Twist(rng.normal(scale=2.0, size=3), phi)
        worst_rt = max(worst_rt, float(np.linalg.norm(se3_log(se3_exp(x)).vector() - x.vector())))
    assert worst_rt < 1e-9

    # Monte-Carlo 3D IoU of nested spheres vs the analytic 1/8
    inner = QuadricParams([1, 1, 1], np.zeros(3), np.eye(3))
    outer = QuadricParams([2, 2, 2], np.zeros(3), np.eye(3))
    iou, se = monte_carlo_3d_iou(inner, outer, n_samples=200_000, seed=94)
    assert abs(iou - 0.125) <= 3 * se
    report("09 oracle equivalences",
           f"hungarian 1e4 ok, silhouette err {silhouette_err:.3f} px, "
           f"jacobian rel err {worst_rel:.2e}, exp/log {worst_rt:.2e}, "
           f"3D IoU {iou:.4f} vs 0.125 (se {se:.4f})")


def test_criterion_10_marginalization():
    # independence oracle: a frame whose landmarks are private marginalizes
    # to exactly the same optimum as dropping it
    def build(drop_instead):
        rng = np.random.default_rng(95)
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
        rng2 = np.random.default_rng(96)
        for j in range(6):
            w.values[("lm", 100 + j)] = w.values[("lm", 100 + j)] + rng2.normal(scale=0.05, size=3)
        w.lm_solve()
        return w

    w_marg = build(False)
    w_drop = build(True)
    max_delta = 0.0
    for j in range(6):
        max_delta = max(max_delta, float(np.linalg.norm(
            w_marg.values[("lm", 100 + j)] - w_drop.values[("lm", 100 + j)])))
    assert max_delta < 1e-8

    # PSD prior across a 100-frame rolling-window run
    rng = np.random.default_rng(97)
    points = rng.uniform([-3, -2, 4], [3, 2, 10], size=(12, 3))
    w = WindowState(capacity=6)
    min_eig = np.inf
    n_checks = 0
    for f in range(100):
        cam = look_at([0.08 * f, 0.0, -6.0], [0, 0, 6.0])
        w.add_frame(f, cam)
        if f == 0:
            w.fixed.add(("cam", 0))
            for j, p in enumerate(points):
                w.values[("lm", j)] = p.copy()
        for j, p in enumerate(points):
            if ("lm", j) not in w.values:
                continue
            p_cam = inverse(cam).apply(p)
            if p_cam[2] <= 0.5:
                continue
            w.add_factor(ReprojFactor(frame=f, lm_id=j, z_px=project(K, p_cam), k=K,
                                      depth=p_cam[2], sigma_depth=0.1))
        if w.prior is not None:
            min_eig = min(min_eig, float(np.linalg.eigvalsh(w.prior.info).min()))
            n_checks += 1
        w.lm_solve()
    assert n_checks > 80
    assert min_eig > -1e-9
    report("10 marginalization",
           f"independence delta {max_delta:.2e}, prior min eigenvalue {min_eig:.2e} over {n_checks} frames")


def test_criterion_11_cli_determinism(tmp_path):
    def twice(name, args):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}{suffix[name]}"
            code = cli_main(args + ["--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"{name} output not byte-identical"
        return tmp_path / f"{name}_a{suffix[name]}"

    suffix = {"simdyn": ".jsonl", "simarc": ".jsonl", "run": ".jsonl", "eval": ".json",
              "sweep": ".csv", "plot": ".svg"}
    data = twice("simdyn", ["simulate", "--scenario", "dynamic", "--seed", "5",
                            "--set", "scene.n_frames=10"])
    twice("simarc", ["simulate", "--scenario", "static-arc", "--seed", "0",
                     "--set", "arc.ellipsoids_per_seed=2"])
    est = twice("run", ["run", "--in", str(data), "--camera-mode", "given"])
    twice("eval", ["eval", "--est", str(est), "--gt", str(data)])
    csv = twice("sweep", ["sweep", "--axis", "bbox", "--levels", "0.0,0.02",
                          "--trials", "2", "--seeds", "0"])
    twice("plot", ["plot", "--in", str(csv)])
    report("11 CLI determinism", "simulate/run/eval/sweep/plot byte-identical across repeat runs")
