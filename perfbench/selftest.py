"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that:

- a tiny run of every workload, untraced and traced, prints a record line
  and a last line with exactly the keys `correct`, `attempted`, `failed` and
  `metrics`, and that every metric BENCHMARK.json names is printed, by name,
  with its unit and a finite value;
- each workload's correctness gate passes on the program's own estimates
  and fails once an estimate is corrupted, and the determinism check fails
  when a replayed estimate differs;
- in a directory holding only BENCHMARK.json and the benchmark, a run exits
  non-zero without printing a result.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SECONDS = "0.5"
RECORD_KEYS = {"nproc", "blas_threads", "python", "numpy", "scipy", "git_sha", "src_sha256", "seed"}

failures = []


def check(ok, msg):
    print(("ok    " if ok else "FAIL  ") + msg, flush=True)
    if not ok:
        failures.append(msg)


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def check_printed_metrics():
    for w in SPEC["workloads"]:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            tag = f"{w['name']} --trace {trace}"
            out = run_bench(["--workload", w["name"], "--seed", "0", "--seconds", TINY_SECONDS, "--trace", trace])
            check(out.returncode == 0, f"{tag}: exit code 0")
            if out.returncode != 0:
                print(out.stderr[-2000:])
                continue
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted >= 1")
            check(isinstance(result["failed"], int), f"{tag}: failed is a whole number")
            check(RECORD_KEYS <= set(record), f"{tag}: record has {sorted(RECORD_KEYS)}")
            check(set(record["blas_threads"].values()) == {"1"}, f"{tag}: BLAS pinned to one thread")
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            printed = result["metrics"]
            check(set(printed) == set(expected), f"{tag}: prints exactly the {group} metrics")
            for name, unit in expected.items():
                entry = printed.get(name, {})
                check(entry.get("unit") == unit and isinstance(entry.get("value"), float)
                      and math.isfinite(entry["value"]), f"{tag}: {name} printed in {unit}")


def check_gates():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl
    from ellipslam import simulate
    from ellipslam.pipeline import Backend, PipelineConfig
    from ellipslam.se3 import Pose

    work_dir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        n_frames = wl.WARMUP_FRAMES + 2
        for name, w in wl.SCENES.items():
            frames = simulate.gen_dynamic_scene(w.make_config(0))[:n_frames]
            pc = PipelineConfig(camera_mode=w.camera_mode)
            backend = Backend(pc)
            records = [backend.process_frame(fr) for fr in frames]
            _, fails = wl.evaluate_pass(w, frames, records, work_dir)
            check(not fails, f"{name}: gate passes on the program's estimates {fails}")
            check(not wl.replay_differs(pc, frames, records, work_dir), f"{name}: replay is byte-identical")

            bad = copy.deepcopy(records)
            last = bad[-1]
            if name == "localization":
                last.camera_pose = Pose(last.camera_pose.rotation, last.camera_pose.translation + 1.0)
            elif name == "crossing":
                ids = [t.id for t in last.tracks]
                for t, new_id in zip(last.tracks, ids[1:] + ids[:1]):
                    t.id = new_id
            else:
                t = last.tracks[0]
                t.pose_wo = Pose(t.pose_wo.rotation, t.pose_wo.translation + 0.5)
            _, fails = wl.evaluate_pass(w, frames, bad, work_dir)
            check(bool(fails), f"{name}: gate fails on a corrupted estimate {fails}")
            shifted = copy.deepcopy(records)
            shifted[0].camera_pose = Pose(shifted[0].camera_pose.rotation, shifted[0].camera_pose.translation + 1e-6)
            check(bool(wl.replay_differs(pc, frames, shifted, work_dir)),
                  f"{name}: determinism check fails when one estimate differs by 1 um")
        check(not wl.gate_arc({"sphere_refine": 0.9, "svd": 0.1}), "arc_sweep: gate passes on SR 0.9 / 0.1")
        check(bool(wl.gate_arc({"sphere_refine": 0.7, "svd": 0.1})), "arc_sweep: gate fails on refine SR 0.7")
        check(bool(wl.gate_arc({"sphere_refine": 0.9, "svd": 0.6})), "arc_sweep: gate fails on SVD SR 0.6")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def check_bare_directory():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(["--workload", "single", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
        check(out.returncode != 0 and '"metrics"' not in out.stdout,
              f"without src/: exit code {out.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    check_gates()
    check_bare_directory()
    check_printed_metrics()
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
