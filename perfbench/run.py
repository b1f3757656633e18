"""Benchmark of the ellipslam back-end: one workload, one run.

    python3 perfbench/run.py --workload crossing --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The run pins OpenBLAS/OpenMP/MKL to one thread before numpy loads
and records that setting. It prints one `record` line with the environment,
the gates and supporting numbers, then, as its last line, a JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
the metrics are the end-to-end metrics of BENCHMARK.json; with `--trace 1`
the run wraps every ellipslam layer in spans and reports the per-layer
metrics instead. Metric names and units are read from BENCHMARK.json.

Exit status: 0 when a result was printed (`correct` tells whether the
program's output passed its checks), 2 when the program's sources are
missing, non-zero otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INFO_SECONDS_SHARE = 0.25  # of --seconds, for the default-threading run of `single`

# traced span -> (self-time metric, call-count metric)
SPAN_METRICS = {
    "pipeline.process_frame": ("pipeline.process_frame_self_s", "pipeline.process_frame_calls"),
    "pipeline.solve_camera_pose": ("pipeline.solve_camera_pose_s", "pipeline.solve_camera_pose_calls"),
    "association.step": ("association.step_s", "association.step_calls"),
    "window.add_frame": ("window.add_frame_self_s", "window.add_frame_calls"),
    "window.marginalize": ("window.marginalize_s", "window.marginalize_calls"),
    "window.lm_solve": ("window.lm_solve_s", "window.lm_solve_calls"),
    "initialization.refine_quadric": ("initialization.refine_quadric_s", "initialization.refine_quadric_calls"),
    "initialization.fit_obb_ransac": ("initialization.fit_obb_ransac_s", "initialization.fit_obb_ransac_calls"),
    "quadrics.project_quadric": ("quadrics.project_quadric_s", "quadrics.project_quadric_calls"),
    "quadrics.svd_closed_form_init": ("quadrics.svd_closed_form_init_s", "quadrics.svd_closed_form_init_calls"),
    "metrics.iou_2d": ("metrics.iou_2d_s", "metrics.iou_2d_calls"),
    "simulate.gen": ("simulate.gen_s", "simulate.gen_calls"),
    "dataio.read_dataset": ("dataio.read_dataset_s", "dataio.read_dataset_calls"),
}
TRIAL_SPANS = {m: "sweep.run_trial." + m for m in ("sphere_refine", "svd")}
# root spans that make up one step's work
STEP_ROOTS = {"pipeline.process_frame", *TRIAL_SPANS.values()}


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(spec, argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--default-blas", action="store_true",
                   help="leave BLAS threading at its default instead of one thread")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ellipslam").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def environment(args, numpy, scipy):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(res, steps, import_s, k, wl):
    """End-to-end metrics from the scaled step times `steps`; `k` scales
    the run's other wall seconds to reference seconds (see speed.py)."""
    tail_value, _ = wl.tail(steps)
    return {
        "step_p50_ms": 1000.0 * wl.median(steps),
        "step_tail_ms": 1000.0 * tail_value,
        "throughput_per_s": res.items / sum(steps) if res.items else 0.0,
        "setup_s": k * (import_s + wl.median(res.setup_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": res.success_rate,
    }


def default_blas_single_p50(args, original_env, k):
    """Wall p50 of `single` in a child process under default BLAS threading,
    scaled by this run's `k`: the child's own reference kernel would run
    multi-threaded. Information only."""
    env = {name: value for name, value in original_env.items() if name not in BLAS_VARS}
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "single", "--seed", str(args.seed),
           "--seconds", str(max(1.0, INFO_SECONDS_SHARE * args.seconds)), "--trace", "0", "--default-blas"]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"default-threading run of single failed: {out.stderr[-2000:]}")
    return k * json.loads(out.stdout.strip().splitlines()[-2])["record"]["wall_step_p50_ms"]


def per_layer(rec, res, steps, run_wall_s, span_cost_s, k, wl):
    """Per-layer metrics of a traced run; times are scaled by `k` like the
    end-to-end ones."""
    st = rec.self_times()
    out = {}
    for span, (time_metric, calls_metric) in SPAN_METRICS.items():
        self_s, calls = st.get(span, (0.0, 0))
        out[time_metric] = k * self_s
        out[calls_metric] = calls
    c = rec.counts
    out["window.lm_iters"] = c["window.lm_iters"]
    out["window.accept_ratio"] = c["window.lm_accepted"] / c["window.lm_iters"] if c["window.lm_iters"] else 0.0
    out["window.no_downhill"] = c["window.no_downhill"]
    sizes = res.window_sizes or [(0, 0, 0, 0)]
    out["window.states_max"] = max(s[0] for s in sizes)
    out["window.factors_max"] = max(s[1] for s in sizes)
    out["window.prior_dim_max"] = max(s[2] for s in sizes)
    out["window.tangent_dim_mean"] = sum(s[3] for s in sizes) / len(sizes)
    out["association.matched"] = c["association.matched"]
    out["association.tracks_live"] = c["association.tracks_live_max"]
    out["initialization.refine_quadric_raised"] = c["initialization.refine_quadric.raised"]
    out["sweep.run_trial_self_s"] = k * sum(st.get(s, (0.0, 0))[0] for s in TRIAL_SPANS.values())
    for method, span in TRIAL_SPANS.items():
        durations = rec.durations(span)
        out[f"sweep.{method}_trials_per_s"] = len(durations) / (k * sum(durations)) if durations else 0.0
    loop_s = res.frame_loop_s or sum(res.step_times)
    step_root_s = sum(s.end - s.start for s in rec.spans if s.parent < 0 and s.name in STEP_ROOTS)
    out["trace.accounted_share"] = step_root_s / loop_s if loop_s else 0.0
    out["trace.spans"] = len(rec.spans)
    out["trace.span_cost_us"] = 1e6 * k * span_cost_s
    out["trace.overhead_share"] = len(rec.spans) * span_cost_s / run_wall_s
    out["trace.step_p50_ms"] = 1000.0 * wl.median(steps)
    out["trace.throughput_per_s"] = res.items / sum(steps) if res.items else 0.0
    return out


def main(argv=None):
    spec = load_spec()
    args = parse_args(spec, argv)
    if not (SRC / "ellipslam" / "__init__.py").is_file():
        print(f"error: ellipslam sources not found under {SRC}", file=sys.stderr)
        return 2
    original_env = dict(os.environ)
    if not args.default_blas:
        for var in BLAS_VARS:
            os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    # the program's third-party dependencies load untimed: their import time
    # is the same for every version of the program and swings with the page
    # cache
    t0 = time.perf_counter()
    import concurrent.futures  # noqa: F401
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401

    deps_import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    import ellipslam
    import workloads as wl
    from spans import Recorder, instrumented, span_cost_s
    from speed import SpeedProbe

    import_s = time.perf_counter() - t0

    if Path(ellipslam.__file__).resolve().parent != SRC / "ellipslam":
        print(f"error: imported ellipslam from {ellipslam.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        record = environment(args, numpy, scipy)
        probe = SpeedProbe()
        if args.trace:
            rec = Recorder()
            t0 = time.perf_counter()
            with instrumented(rec):
                res = wl.run_workload(args.workload, args.seed, args.seconds, work_dir, probe, rec)
            run_wall_s = time.perf_counter() - t0
            k = probe.scale()
            steps = probe.scaled(res.step_times, res.step_refs)
            metrics = per_layer(rec, res, steps, run_wall_s, span_cost_s(), k, wl)
            metrics["info.single_default_blas_p50_ms"] = default_blas_single_p50(args, original_env, k)
            names = spec["per_layer"]
        else:
            res = wl.run_workload(args.workload, args.seed, args.seconds, work_dir, probe)
            k = probe.scale()
            metrics = end_to_end(res, probe.scaled(res.step_times, res.step_refs), import_s, k, wl)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    _, tail_pct = wl.tail(res.step_times)
    record.update({
        "ref_kernel_ms": 1000.0 * statistics.median(probe.samples),
        "ref_kernel_samples": len(probe.samples),
        "wall_step_p50_ms": 1000.0 * wl.median(res.step_times),
        "steps_timed": len(res.step_times),
        "tail_percentile": tail_pct,
        "setup_reps_s": res.setup_s,
        "import_s": import_s,
        "deps_import_s": deps_import_s,
        "gate_failures": res.gate_failures,
        **res.info,
    })
    print(json.dumps({"record": record}, default=float))
    if set(metrics) != {m["name"] for m in names}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    result = {
        "correct": not res.gate_failures,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
