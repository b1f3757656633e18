"""Command-line surface.

Subcommands:
    simulate   write a synthetic dataset (static arc benchmark or dynamic scene)
    run        run the back-end over a dataset, write per-frame estimates
    eval       compare estimates against dataset ground truth
    sweep      noise sweep over the arc benchmark, CSV output
    plot       render a sweep CSV as a deterministic SVG

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Configuration is a flat `key = value` file; any key can be overridden with
`--set key=value`.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import dataio
from .association import AssignmentCostConfig, MotionDetectorConfig
from .errors import DataError, EllipslamError, SingularSystem, DivergedOptimization
from .initialization import RefineConfig
from .metrics import (
    MotAccumulator,
    ate_rmse,
    e_axe,
    e_trans,
    iou_2d_metric,
    match_quadrics_to_gt,
    monte_carlo_3d_iou,
    mota,
    motp,
)
from .pipeline import PipelineConfig, run_pipeline
from .quadrics import QuadricParams, conic_to_bbox, project_quadric
from .simulate import (
    DynamicSceneConfig,
    NoiseConfig,
    StaticArcConfig,
    crossing_objects_config,
    gen_dynamic_scene,
    gen_static_benchmark,
    localization_scene_config,
    single_dynamic_object_config,
)
from .sweep import METHODS, csv_to_rows, plot_sweep, rows_to_csv, run_sweep
from .window import SolverConfig

log = logging.getLogger("ellipslam")


def _setup_logging(verbose):
    level = logging.DEBUG if verbose else logging.INFO
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def pipeline_config_from(cfg: dict, camera_mode=None) -> PipelineConfig:
    pc = PipelineConfig()
    pc.camera_mode = camera_mode or cfg.get("pipeline.camera_mode", pc.camera_mode)
    pc.window_capacity = int(cfg.get("optimizer.window", pc.window_capacity))
    pc.enable_quadric_factors = bool(cfg.get("optimizer.quadric_factors", pc.enable_quadric_factors))
    pc.enable_motion_factors = bool(cfg.get("optimizer.motion_factors", pc.enable_motion_factors))
    pc.use_depth = bool(cfg.get("optimizer.use_depth", pc.use_depth))
    pc.feature_sigma_px = float(cfg.get("factors.feature_sigma_px", pc.feature_sigma_px))
    pc.bbox_sigma_px = float(cfg.get("factors.bbox_sigma_px", pc.bbox_sigma_px))
    pc.size_sigma_m = float(cfg.get("factors.size_sigma_m", pc.size_sigma_m))
    pc.init_min_frames = int(cfg.get("init.min_frames", pc.init_min_frames))
    pc.init_min_points = int(cfg.get("init.min_points", pc.init_min_points))
    pc.solver = SolverConfig(
        max_iters=int(cfg.get("solver.max_iters", pc.solver.max_iters)),
        lambda_init=float(cfg.get("solver.lambda_init", pc.solver.lambda_init)),
        rel_cost_tol=float(cfg.get("solver.rel_cost_tol", pc.solver.rel_cost_tol)),
    )
    pc.refine = RefineConfig(
        bbox_sigma_px=pc.bbox_sigma_px,
        prior_size_weight=float(cfg.get("init.prior_size_weight", RefineConfig().prior_size_weight)),
    )
    pc.assoc = AssignmentCostConfig(
        theta1=float(cfg.get("assoc.theta1", pc.assoc.theta1)),
        theta2=float(cfg.get("assoc.theta2", pc.assoc.theta2)),
        theta3=float(cfg.get("assoc.theta3", pc.assoc.theta3)),
        gate=float(cfg.get("assoc.gate", pc.assoc.gate)),
    )
    pc.motion = MotionDetectorConfig(
        scene_flow_thresh=float(cfg.get("motion.scene_flow_thresh", pc.motion.scene_flow_thresh)),
        dynamic_ratio=float(cfg.get("motion.dynamic_ratio", pc.motion.dynamic_ratio)),
    )
    return pc


# --- simulate -------------------------------------------------------------------


def _dynamic_config_from(cfg: dict, seed) -> DynamicSceneConfig:
    preset = cfg.get("scene.preset", "single")
    n_frames = int(cfg.get("scene.n_frames", 0)) or None
    if preset == "crossing":
        out = crossing_objects_config(seed=seed, n_frames=n_frames or 60)
    elif preset == "localization":
        out = localization_scene_config(
            seed=seed,
            n_frames=n_frames or 50,
            feature_px_sigma=float(cfg.get("scene.feature_px_sigma", 1.0)),
        )
    else:
        out = single_dynamic_object_config(seed=seed, n_frames=n_frames or 100)
    if "scene.feature_px_sigma" in cfg and preset != "localization":
        out.feature_px_sigma = float(cfg["scene.feature_px_sigma"])
    if "scene.depth_noise_coeff" in cfg:
        out.depth_noise_coeff = float(cfg["scene.depth_noise_coeff"])
    return out


def cmd_simulate(args):
    cfg = dataio.load_config(args.config, args.set)
    if args.scenario == "static-arc":
        arc = StaticArcConfig(
            n_cameras=int(cfg.get("arc.n_cameras", 5)),
            arc_degrees=float(cfg.get("arc.arc_degrees", 18.0)),
            radius=float(cfg.get("arc.radius", 12.0)),
            ellipsoids_per_seed=int(cfg.get("arc.ellipsoids_per_seed", 10)),
        )
        noise = NoiseConfig(
            pose_translation_pct=float(cfg.get("noise.pose_translation_pct", 0.0)),
            rotation_pct=float(cfg.get("noise.rotation_pct", 0.0)),
            bbox_pct=float(cfg.get("noise.bbox_pct", 0.0)),
        )
        trials = gen_static_benchmark(arc, noise, seeds=[args.seed])
        frames = []
        offset = 0
        for _, _, _, trial_frames in trials:
            for fr in trial_frames:
                fr.frame += offset
                frames.append(fr)
            offset = frames[-1].frame + 1
        dataio.write_dataset(args.out, frames)
    else:
        scene = _dynamic_config_from(cfg, args.seed)
        dataio.write_dataset(args.out, gen_dynamic_scene(scene))
    log.info("wrote %s", args.out)
    return 0


def cmd_run(args):
    cfg = dataio.load_config(args.config, args.set)
    pc = pipeline_config_from(cfg, camera_mode=args.camera_mode)
    frames = list(dataio.read_dataset(args.in_path))
    records = run_pipeline(frames, pc)
    dataio.write_estimates(args.out, records)
    log.info("wrote %s (%d frames)", args.out, len(records))
    return 0


# --- eval ------------------------------------------------------------------------


def evaluate_files(gt_path, est_path, mc_samples=50_000):
    """All metrics comparing an estimate file against dataset ground truth."""
    gt_frames = list(dataio.read_dataset(gt_path))
    est_records = {r.frame: r for r in dataio.read_estimates(est_path)}

    cam_gt = []
    cam_est = []
    acc = MotAccumulator()
    gt_boxes_any = False
    last_quadrics = {}  # est track id -> (axes, world pose)
    gt_objects = {}
    views = []
    intrinsics = None
    for fr in gt_frames:
        intrinsics = fr.intrinsics
        if fr.pose_wc is not None:
            views.append(fr.pose_wc)
        rec = est_records.get(fr.frame)
        for g in fr.gt_objects:
            gt_objects[g.id] = g
        if fr.pose_wc is not None and rec is not None:
            cam_gt.append(fr.pose_wc.translation)
            cam_est.append(rec.camera_pose.translation)
        gt_boxes = []
        for g in fr.gt_objects:
            if fr.pose_wc is None:
                break
            q = QuadricParams(g.axes_m, np.zeros(3), np.eye(3))
            try:
                bbox = conic_to_bbox(project_quadric(q, g.pose_wo, fr.pose_wc, fr.intrinsics))
            except EllipslamError:
                continue
            gt_boxes.append((g.id, bbox))
        est_boxes = []
        if rec is not None:
            for t in rec.tracks:
                if t.bbox is not None:
                    est_boxes.append((t.id, t.bbox))
        if gt_boxes:
            gt_boxes_any = True
            acc.update(gt_boxes, est_boxes)
        if rec is not None:
            for t in rec.tracks:
                if t.quadric_axes is not None:
                    last_quadrics[t.id] = (t.quadric_axes, t.quadric_pose)

    out = {}
    if len(cam_gt) >= 3:
        out["ate_rmse_m"] = ate_rmse(np.asarray(cam_gt), np.asarray(cam_est))
    if gt_boxes_any:
        out["mota"] = mota(acc)
        out["motp"] = motp(acc) if acc.match_count else 0.0
        out["id_switches"] = acc.mismatches
        out["misses"] = acc.misses
        out["false_positives"] = acc.false_positives

    # quadric metrics against the last GT state of each object
    gt_list = []
    for gid, g in sorted(gt_objects.items()):
        gt_list.append((g.pose_wo.translation, gid))
    est_list = [(pose.translation, tid) for tid, (axes, pose) in sorted(last_quadrics.items())]
    pairs = match_quadrics_to_gt(gt_list, est_list)
    per_object = []
    iou3ds = []
    for gid, tid in pairs:
        g = gt_objects[gid]
        axes, pose = last_quadrics[tid]
        gt_q = QuadricParams(g.axes_m, np.zeros(3), np.eye(3))
        est_q = QuadricParams(axes, np.zeros(3), np.eye(3))
        entry = {
            "gt_id": gid,
            "track_id": tid,
            "e_trans_m": e_trans(g.pose_wo.translation, pose.translation),
            "e_axe_m": e_axe(g.axes_m, axes),
        }
        if views:
            try:
                entry["iou_2d"] = iou_2d_metric(
                    gt_q, est_q, views[:: max(1, len(views) // 8)], intrinsics,
                    gt_pose=g.pose_wo, est_pose=pose,
                )
            except EllipslamError:
                pass
        iou3d, stderr = monte_carlo_3d_iou(gt_q, est_q, n_samples=mc_samples, seed=7,
                                           pose1=g.pose_wo, pose2=pose)
        entry["iou_3d"] = iou3d
        entry["iou_3d_stderr"] = stderr
        iou3ds.append(iou3d)
        per_object.append(entry)
    if per_object:
        out["objects"] = per_object
        out["mean_e_trans_m"] = float(np.mean([o["e_trans_m"] for o in per_object]))
        out["mean_e_axe_m"] = float(np.mean([o["e_axe_m"] for o in per_object]))
        out["mean_iou_3d"] = float(np.mean(iou3ds))
        out["success_rate"] = sum(
            1 for o in per_object if o.get("iou_2d", 0.0) > 0.5
        ) / max(1, len(gt_objects))
    return out


def cmd_eval(args):
    metrics = evaluate_files(args.gt, args.est)
    text = dataio.dumps_canonical(metrics)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")
    print(text)
    return 0


def cmd_sweep(args):
    levels = [float(x) for x in args.levels.split(",")]
    seeds = [int(x) for x in args.seeds.split(",")]
    cfg = StaticArcConfig(ellipsoids_per_seed=args.trials)
    rows = run_sweep(args.axis, levels, seeds, cfg, methods=args.methods, jobs=args.jobs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows))
    log.info("wrote %s (%d rows)", args.out, len(rows))
    return 0


def cmd_plot(args):
    with open(args.in_path, "r", encoding="utf-8") as fh:
        rows = csv_to_rows(fh.read())
    svg = plot_sweep(rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    log.info("wrote %s", args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="ellipslam", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--scenario", choices=["static-arc", "dynamic"], required=True)
    sim.add_argument("--config", default=None)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sim.set_defaults(func=cmd_simulate)

    run = sub.add_parser("run", help="run the back-end over a dataset")
    run.add_argument("--in", dest="in_path", required=True)
    run.add_argument("--config", default=None)
    run.add_argument("--camera-mode", choices=["estimate", "given"], default=None)
    run.add_argument("--out", required=True)
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="evaluate estimates against ground truth")
    ev.add_argument("--est", required=True)
    ev.add_argument("--gt", required=True)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="noise sweep over the arc benchmark")
    sw.add_argument("--axis", choices=["translation", "rotation", "bbox"], required=True)
    sw.add_argument("--levels", required=True, help="comma-separated noise levels")
    sw.add_argument("--trials", type=int, default=10, help="ellipsoids per seed")
    sw.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    sw.add_argument("--methods", nargs="+", default=list(METHODS), choices=list(METHODS))
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--out", required=True)
    sw.set_defaults(func=cmd_sweep)

    pl = sub.add_parser("plot", help="render a sweep CSV as SVG")
    pl.add_argument("--in", dest="in_path", required=True)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _setup_logging(args.verbose)
    try:
        return args.func(args)
    except DataError as exc:
        log.error("data error: %s", exc)
        return 3
    except (SingularSystem, DivergedOptimization, np.linalg.LinAlgError) as exc:
        log.error("numerical failure: %s", exc)
        return 4
    except EllipslamError as exc:
        log.error("%s", exc)
        return 4
    except OSError as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
