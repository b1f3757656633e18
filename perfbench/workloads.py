"""The four workloads of the ellipslam benchmark, their inputs, timed loops
and correctness gates.

Why each workload exists:

- single: the criterion-06 scene (one constant-velocity object, camera mode
  `given`). The window stays small (about 61 states, prior dimension 111),
  so per-call overhead weighs more than matrix size: a change that buys
  scaling with per-solve set-up shows its cost here.
- crossing: the criterion-07 scene (three objects whose image tracks cross,
  mode `given`). The window is large (about 185 states, 1,935 factors, prior
  dimension 429); every factor family is present and association has to
  keep three crossing tracks apart. There is no camera-pose solve.
- localization: the criterion-08 scene (static scene, mode `estimate`). The
  only workload that runs `pipeline.solve_camera_pose`; its window is heavy
  on background landmarks (prior dimension about 430), so marginalization
  drops and absorbs many landmarks every frame.
- arc_sweep: `sweep.run_sweep` on the `bbox` noise axis at criterion 03's
  0.04 level, both initialization methods, `jobs=1`. It never touches
  `window` or `pipeline`; `initialization.refine_quadric` dominates.

Deferred, and why:

- A churn workload (1,000+ frames with features leaving the view) waits on
  two program fixes: `ObjectSpec.pose_at` / `camera_pose_at` recompose from
  frame 0 (O(n^2) scene generation), and marginalization raises a
  `KeyError` on `('lm', id)` under churn.
- Per-factor-family linearization, H/g assembly and damped-solve timings
  need spans inside `window.lm_solve`; the benchmark only wraps module entry
  points from outside, so these wait for in-program spans.

Scene workloads time steady-state frames only: each pass over a scene first
fills the sliding window (the first `window_capacity` frames, untimed), then
every frame after that is timed until `seconds` of frame time have been
measured. Window-filling frames are cheaper by an order of magnitude, and a
run that mixed them in would put the median on the boundary between the two
populations. When a scene ends before the time is up, the next pass runs a
new scene whose seed is derived from the workload seed.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ellipslam import cli, dataio, simulate
from ellipslam.cli import evaluate_files
from ellipslam.pipeline import Backend, PipelineConfig
from ellipslam.se3 import compose, inverse, se3_log
from ellipslam.simulate import StaticArcConfig
from ellipslam.sweep import rows_to_csv, run_sweep
from ellipslam.window import state_dim

SETUP_REPS = 3
WARMUP_FRAMES = PipelineConfig().window_capacity
# seed of pass i > 0 of a scene workload; pass 0 uses the workload seed, so
# --seed 0 / 1 / 2 reproduce the scenes of criteria 06 / 07 / 08 exactly
PASS_SEED_STRIDE = 100_003
ARC_AXIS = "bbox"
ARC_LEVEL = 0.04
ARC_METHODS = ("sphere_refine", "svd")
ARC_SEED_STRIDE = 1_000_003
ARC_REPLAY_CALLS = 3


@dataclass
class Result:
    """What one run measured; `run.py` turns it into the printed metrics."""

    step_times: list  # wall seconds per timed step (frame or run_sweep call)
    step_refs: list  # reference-kernel seconds measured just before each step
    items: int  # frames, or trials counting both methods
    setup_s: list  # per set-up repetition, imports excluded
    attempted: int
    failed: int
    success_rate: float
    gate_failures: list
    info: dict = field(default_factory=dict)
    window_sizes: list = field(default_factory=list)  # (states, factors, prior dim, tangent dim)
    frame_loop_s: float = 0.0  # every frame's wall time, warm-up included


def _span(rec, name):
    return rec.span(name) if rec is not None else nullcontext()


def _untraced(rec):
    return rec.pause() if rec is not None else nullcontext()


# --- scene workloads ------------------------------------------------------------------


def _gate_single(frames, records, ev):
    """Criterion 06 over the frames processed: the track is never lost, the
    per-frame object motion and the object translation are accurate, and
    the object is labelled dynamic by frame 10."""
    fails = []
    gt = [fr.gt_objects[0].pose_wo for fr in frames[: len(records)]]
    h_gt = compose(gt[1], inverse(gt[0]))
    h_errs, t_errs = [], []
    first_dynamic = None
    for f, rec in enumerate(records):
        if not rec.tracks:
            return [f"track lost at frame {f}"]
        tr = rec.tracks[0]
        if f >= 1:
            h_est = compose(tr.pose_wo, inverse(records[f - 1].tracks[0].pose_wo))
            h_errs.append(np.linalg.norm(se3_log(compose(h_est, inverse(h_gt))).vector()))
        t_errs.append(np.linalg.norm(tr.pose_wo.translation - gt[f].translation))
        if first_dynamic is None and tr.motion_label == "dynamic":
            first_dynamic = f
    if max(h_errs) >= 1e-2:
        fails.append(f"max |log(H Hgt^-1)| {max(h_errs):.3e} >= 1e-2")
    if max(t_errs) >= 0.05:
        fails.append(f"max object translation error {max(t_errs):.3e} m >= 0.05")
    if len(records) > 10 and (first_dynamic is None or first_dynamic > 10):
        fails.append(f"object labelled dynamic at frame {first_dynamic}, not by frame 10")
    return fails


def _gate_crossing(frames, records, ev):
    """Criterion 07 over the frames processed: perfect MOTA, no identity
    switches, MOTP >= 0.95."""
    fails = []
    if ev.get("mota") != 1.0:
        fails.append(f"MOTA {ev.get('mota')} != 1")
    if ev.get("id_switches") != 0:
        fails.append(f"{ev.get('id_switches')} identity switches")
    if ev.get("motp", 0.0) < 0.95:
        fails.append(f"MOTP {ev.get('motp')} < 0.95")
    return fails


def _gate_localization(frames, records, ev):
    """Criterion 08's absolute bound over the frames processed. Its second
    check (quadrics within 10% of a points-only run) needs a second pipeline
    run per pass and is left to the acceptance suite."""
    ate = ev.get("ate_rmse_m")
    if ate is None or ate >= 0.05:
        return [f"camera ATE {ate} m not < 0.05"]
    return []


@dataclass(frozen=True)
class SceneWorkload:
    name: str
    make_config: Callable
    camera_mode: str
    gate: Callable


SCENES = {
    w.name: w
    for w in (
        SceneWorkload("single", lambda s: simulate.single_dynamic_object_config(seed=s, n_frames=100),
                      "given", _gate_single),
        SceneWorkload("crossing", lambda s: simulate.crossing_objects_config(seed=s, n_frames=60),
                      "given", _gate_crossing),
        SceneWorkload("localization",
                      lambda s: simulate.localization_scene_config(seed=s, n_frames=50, feature_px_sigma=1.0),
                      "estimate", _gate_localization),
    )
}


def _scene_inputs(w: SceneWorkload, seed, path: Path, rec):
    """Generate the scene and round-trip it through the JSONL dataset format:
    the back-end sees exactly what `ellipslam run` would read."""
    with _span(rec, "simulate.gen"):
        frames = simulate.gen_dynamic_scene(w.make_config(seed))
    dataio.write_dataset(path, frames)
    with _span(rec, "dataio.read_dataset"):
        return list(dataio.read_dataset(path))


def _estimates_bytes(path: Path, records) -> bytes:
    dataio.write_estimates(path, records)
    return path.read_bytes()


def evaluate_pass(w: SceneWorkload, frames, records, work_dir: Path):
    """`ellipslam eval` metrics and the workload's gate over the frames a
    pass processed."""
    if not records:
        return {}, ["no frame processed"]
    gt_path = work_dir / "gt_prefix.jsonl"
    est_path = work_dir / "est_prefix.jsonl"
    dataio.write_dataset(gt_path, frames[: len(records)])
    dataio.write_estimates(est_path, records)
    ev = evaluate_files(gt_path, est_path)
    fails = w.gate(frames, records, ev)
    if "mean_e_trans_m" not in ev:
        fails.append("no ellipsoid estimated for any object")
    return ev, fails


def replay_differs(pc, frames, records, work_dir: Path):
    """Determinism: a fresh back-end replaying a pass through its first
    marginalization writes byte-identical estimates."""
    n = min(len(records), WARMUP_FRAMES + 1)
    backend = Backend(pc)
    replay = [backend.process_frame(fr) for fr in frames[:n]]
    if _estimates_bytes(work_dir / "est_a.jsonl", records[:n]) != _estimates_bytes(work_dir / "est_b.jsonl", replay):
        return [f"estimates of the first {n} frames differ between two runs of one seed"]
    return []


def run_scene(w: SceneWorkload, seed, seconds, work_dir: Path, probe, rec=None) -> Result:
    pc = PipelineConfig(camera_mode=w.camera_mode)
    setup = []
    for _ in range(SETUP_REPS):
        probe.sample()
        t0 = time.perf_counter()
        frames = _scene_inputs(w, seed, work_dir / "scene.jsonl", rec)
        backend = Backend(pc)
        setup.append(time.perf_counter() - t0)

    frame_loop_s = 0.0
    window_sizes = []
    passes = []
    pass_steps = []  # per pass: (wall seconds, kernel seconds) of its timed frames
    attempted = failed = 0
    crash = None
    timed = 0.0
    pass_idx = 0
    while timed < seconds and crash is None:
        if pass_idx:
            frames = _scene_inputs(w, seed + PASS_SEED_STRIDE * pass_idx, work_dir / "scene.jsonl", rec)
            backend = Backend(pc)
        records = []
        steps = []
        for n, fr in enumerate(frames):
            attempted += 1
            ref = probe.current() if n >= WARMUP_FRAMES else None
            t0 = time.perf_counter()
            try:
                records.append(backend.process_frame(fr))
            except Exception as exc:  # a crashed back-end fails the rest of its scene
                failed += len(frames) - n
                attempted += len(frames) - n - 1
                crash = f"pass {pass_idx} frame {fr.frame}: {type(exc).__name__}: {exc}"
                break
            dt = time.perf_counter() - t0
            frame_loop_s += dt
            if rec is not None:
                win = backend.window
                window_sizes.append((
                    len(win.values), len(win.factors), win.prior.dim() if win.prior is not None else 0,
                    sum(state_dim(k) for k in win.values if k not in win.fixed),
                ))
            if ref is not None:
                steps.append((dt, ref))
                timed += dt
                if timed >= seconds:
                    break
        passes.append((frames, records))
        pass_steps.append(steps)
        pass_idx += 1

    # statistics over whole scenes when at least one completed: a partial
    # last pass would tilt the frame mix towards the costlier frames just
    # after the window fills, by an amount that depends on machine speed
    complete = [st for (fr, rc), st in zip(passes, pass_steps) if len(rc) == len(fr)]
    timed_steps = [x for st in (complete or pass_steps) for x in st]
    step_times = [dt for dt, _ in timed_steps]

    gate_failures = [crash] if crash else []
    with _untraced(rec):
        per_pass = []
        for i, (frames, records) in enumerate(passes):
            ev, fails = evaluate_pass(w, frames, records, work_dir)
            per_pass.append(ev)
            gate_failures += [f"pass {i}: {msg}" for msg in fails]
        gate_failures += replay_differs(pc, *passes[0], work_dir)

    def mean_of(key):
        vals = [ev[key] for ev in per_pass if key in ev]
        return float(np.mean(vals)) if vals else 0.0

    info = {
        "centroid_err_m": mean_of("mean_e_trans_m"),
        "passes": len(passes),
        "frames_per_pass": [len(r) for _, r in passes],
        "ate_rmse_m": mean_of("ate_rmse_m"),
        "mota": mean_of("mota"),
        "motp": mean_of("motp"),
        "id_switches": sum(ev.get("id_switches", 0) for ev in per_pass),
    }
    return Result(step_times, [ref for _, ref in timed_steps], len(step_times), setup, attempted, failed,
                  mean_of("success_rate"), gate_failures, info, window_sizes, frame_loop_s)


# --- arc sweep --------------------------------------------------------------------------


def _arc_call(trial_seed):
    """One step: one arc trial solved by both methods through the sweep API."""
    return run_sweep(ARC_AXIS, [ARC_LEVEL], [trial_seed], StaticArcConfig(ellipsoids_per_seed=1),
                     methods=ARC_METHODS, jobs=1)


def gate_arc(sr):
    """Criterion 03 at bbox noise 0.04: refinement succeeds on more than 80%
    of the trials and the SVD baseline on fewer than 50%."""
    fails = []
    if sr["sphere_refine"] <= 0.8:
        fails.append(f"sphere_refine SR {sr['sphere_refine']:.3f} <= 0.8")
    if sr["svd"] >= 0.5:
        fails.append(f"svd SR {sr['svd']:.3f} >= 0.5")
    return fails


def run_arc(seed, seconds, work_dir: Path, probe, rec=None) -> Result:
    setup = []
    for _ in range(SETUP_REPS):
        # what a user pays before a sweep: the seed's static-arc dataset as
        # `ellipslam simulate --scenario static-arc` writes and reads it.
        # run_sweep generates its trials itself, inside the timed steps.
        probe.sample()
        t0 = time.perf_counter()
        with _span(rec, "simulate.gen"):
            code = cli.main(["simulate", "--scenario", "static-arc", "--seed", str(seed),
                             "--set", f"noise.bbox_pct={ARC_LEVEL}", "--out", str(work_dir / "arc.jsonl")])
        if code != 0:
            raise RuntimeError(f"ellipslam simulate exited with {code}")
        with _span(rec, "dataio.read_dataset"):
            list(dataio.read_dataset(work_dir / "arc.jsonl"))
        setup.append(time.perf_counter() - t0)

    step_times = []
    step_refs = []
    calls = []  # (trial seed, sweep rows) per completed step
    attempted = failed = 0
    gate_failures = []
    timed = 0.0
    trial_seed = seed * ARC_SEED_STRIDE
    while timed < seconds:
        trial_seed += 1
        attempted += len(ARC_METHODS)
        ref = probe.current()
        t0 = time.perf_counter()
        try:
            out = _arc_call(trial_seed)
        except Exception as exc:  # run_sweep itself maps init failures to rows
            failed += len(ARC_METHODS)
            gate_failures.append(f"trial seed {trial_seed}: {type(exc).__name__}: {exc}")
            timed += time.perf_counter() - t0
            continue
        dt = time.perf_counter() - t0
        step_times.append(dt)
        step_refs.append(ref)
        timed += dt
        calls.append((trial_seed, out))

    rows = {m: [r for _, out in calls for r in out if r["method"] == m] for m in ARC_METHODS}
    sr = {m: float(np.mean([r["sr"] for r in rs])) if rs else 0.0 for m, rs in rows.items()}
    gate_failures += gate_arc(sr)

    # determinism: the first trials solved again give byte-identical rows
    with _untraced(rec):
        for trial_seed, out in calls[:ARC_REPLAY_CALLS]:
            if rows_to_csv(_arc_call(trial_seed)) != rows_to_csv(out):
                gate_failures.append(f"sweep rows of trial seed {trial_seed} differ between two runs")

    e_trans = [r["e_trans_mean"] for r in rows["sphere_refine"] if np.isfinite(r["e_trans_mean"])]
    info = {
        "centroid_err_m": float(np.mean(e_trans)) if e_trans else 0.0,
        "trials_per_method": {m: len(rs) for m, rs in rows.items()},
        "sr": sr,
    }
    return Result(step_times, step_refs, len(ARC_METHODS) * len(step_times), setup, attempted, failed,
                  sr["sphere_refine"], gate_failures, info)


def run_workload(name, seed, seconds, work_dir: Path, probe, rec=None) -> Result:
    """Run one workload; `probe` (a speed.SpeedProbe) is sampled between
    steps, `rec` (a spans.Recorder) is given on traced runs."""
    if name == "arc_sweep":
        return run_arc(seed, seconds, work_dir, probe, rec)
    return run_scene(SCENES[name], seed, seconds, work_dir, probe, rec)


def tail(step_times):
    """(value, percentile): the latency at the highest percentile that
    still has at least ten steps above it, and that percentile. Below the
    median that is no tail, so with 20 steps or fewer the median is
    reported at 50."""
    xs = sorted(step_times)
    if len(xs) <= 20:
        return median(xs), 50.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def median(xs):
    """Median, or 0 when a crash left nothing timed."""
    return statistics.median(xs) if xs else 0.0
