import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ellipslam.cli import main, pipeline_config_from
from ellipslam.dataio import load_config, read_dataset, read_estimates
from ellipslam.pipeline import PipelineConfig


def run_cli(args):
    return main(args)


class TestSimulate:
    def test_dynamic_deterministic(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            code = run_cli(["simulate", "--scenario", "dynamic", "--seed", "3",
                            "--set", "scene.n_frames=6", "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_static_arc(self, tmp_path):
        out = tmp_path / "arc.jsonl"
        code = run_cli(["simulate", "--scenario", "static-arc", "--seed", "0",
                        "--set", "arc.ellipsoids_per_seed=2", "--out", str(out)])
        assert code == 0
        frames = list(read_dataset(out))
        assert len(frames) == 10  # 2 trials x 5 cameras
        ids = [f.frame for f in frames]
        assert ids == sorted(ids)


class TestRunAndEval:
    @pytest.fixture()
    def small_scene(self, tmp_path):
        data = tmp_path / "data.jsonl"
        run_cli(["simulate", "--scenario", "dynamic", "--seed", "1",
                 "--set", "scene.n_frames=12", "--out", str(data)])
        return data

    def test_run_given_mode(self, small_scene, tmp_path):
        est = tmp_path / "est.jsonl"
        code = run_cli(["run", "--in", str(small_scene), "--camera-mode", "given",
                        "--out", str(est)])
        assert code == 0
        records = list(read_estimates(est))
        assert len(records) == 12
        assert records[-1].tracks

    def test_run_deterministic(self, small_scene, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli(["run", "--in", str(small_scene), "--camera-mode", "given",
                            "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_estimate_mode_deterministic(self, tmp_path):
        # estimate mode solves the camera pose every frame, and 18 frames
        # overflow the 15-frame window, so landmarks are marginalized too
        data = tmp_path / "loc.jsonl"
        assert run_cli(["simulate", "--scenario", "dynamic", "--seed", "3",
                        "--set", "scene.preset=localization", "--set", "scene.n_frames=18",
                        "--out", str(data)]) == 0
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli(["run", "--in", str(data), "--camera-mode", "estimate",
                            "--out", str(out)]) == 0
        assert len(list(read_estimates(a))) == 18
        assert a.read_bytes() == b.read_bytes()

    def test_eval_outputs_metrics(self, small_scene, tmp_path):
        est = tmp_path / "est.jsonl"
        run_cli(["run", "--in", str(small_scene), "--camera-mode", "given", "--out", str(est)])
        metrics_path = tmp_path / "metrics.json"
        code = run_cli(["eval", "--est", str(est), "--gt", str(small_scene),
                        "--out", str(metrics_path)])
        assert code == 0
        metrics = json.loads(metrics_path.read_text())
        assert "mota" in metrics and "ate_rmse_m" in metrics
        assert metrics["mota"] > 0.8

    def test_missing_file_exit_3(self, tmp_path):
        code = run_cli(["run", "--in", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.jsonl")])
        assert code == 3

    def test_malformed_data_exit_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        code = run_cli(["run", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")])
        assert code == 3

    def test_zero_depth_exit_3(self, small_scene, tmp_path, caplog):
        # a non-positive depth is a data error at read time, with its line
        lines = small_scene.read_text().splitlines()
        rec = json.loads(lines[2])
        next(f for f in rec["features"] if "depth_m" in f)["depth_m"] = 0
        lines[2] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli(["run", "--in", str(bad), "--camera-mode", "given", "--out", str(tmp_path / "o.jsonl")])
        assert code == 3
        assert "line 3: depth_m 0.0 not positive" in caplog.text

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["run", "--bogus"])
        assert err.value.code == 2


class TestPipelineConfig:
    def test_camera_mode_flag_wins_over_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("pipeline.camera_mode = estimate\n")
        cfg = load_config(str(path))
        assert pipeline_config_from(cfg).camera_mode == "estimate"
        assert pipeline_config_from(cfg, camera_mode="given").camera_mode == "given"
        assert pipeline_config_from({}, camera_mode="estimate").camera_mode == "estimate"

    def test_unset_keys_keep_the_config_defaults(self):
        assert pipeline_config_from({}) == PipelineConfig()


class TestBlasThreads:
    def test_run_bytes_independent_of_blas_threads(self, tmp_path):
        # under default OpenBLAS threading the crossing window's dense
        # products sum in another order unless the back-end pins one thread
        data = tmp_path / "data.jsonl"
        assert run_cli(["simulate", "--scenario", "dynamic", "--seed", "1", "--set", "scene.preset=crossing",
                        "--set", "scene.n_frames=8", "--out", str(data)]) == 0
        outputs = []
        for threads in (None, "1"):
            env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"est_{threads}.jsonl"
            proc = subprocess.run(
                [sys.executable, "-m", "ellipslam.cli", "run", "--in", str(data), "--camera-mode", "given",
                 "--out", str(out)],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestSweepAndPlot:
    def test_sweep_csv_and_plot(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code = run_cli(["sweep", "--axis", "bbox", "--levels", "0.0,0.02", "--trials", "2",
                        "--seeds", "0", "--out", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + levels x methods
        assert lines[0].startswith("method,axis,level")
        zero_rows = [l for l in lines[1:] if float(l.split(",")[2]) == 0.0]
        assert len(zero_rows) == 2
        for row in zero_rows:
            assert float(row.split(",")[4]) == 1.0  # SR at zero noise for both methods

        svg_path = tmp_path / "sweep.svg"
        assert run_cli(["plot", "--in", str(csv_path), "--out", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_sweep_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run_cli(["sweep", "--axis", "translation", "--levels", "0.1", "--trials", "2",
                     "--seeds", "0,1", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_plot_deterministic(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        run_cli(["sweep", "--axis", "bbox", "--levels", "0.01", "--trials", "1",
                 "--seeds", "0", "--out", str(csv_path)])
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for out in (a, b):
            run_cli(["plot", "--in", str(csv_path), "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_plot_empty_table_exit_3(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("method,axis,level\n")
        assert run_cli(["plot", "--in", str(empty), "--out", str(tmp_path / "o.svg")]) == 3


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "d.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "ellipslam.cli", "simulate", "--scenario", "dynamic",
             "--seed", "0", "--set", "scene.n_frames=3", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()
