import dataclasses

import numpy as np
import pytest

from ellipslam import sweep
from ellipslam.dataio import Feature
from ellipslam.errors import EmptyTable, NonPositiveDepth
from ellipslam.se3 import back_project
from ellipslam.simulate import NoiseConfig, StaticArcConfig, gen_arc_trial
from ellipslam.sweep import (
    TrialResult,
    _world_points_from_frames,
    csv_to_rows,
    plot_sweep,
    rows_to_csv,
    run_sweep,
    run_trial,
    summarize,
)


class TestTrials:
    def test_zero_noise_both_methods_succeed(self):
        cfg = StaticArcConfig()
        for method in ("svd", "sphere_refine"):
            r = run_trial(method, cfg, NoiseConfig(), seed=0, trial=0)
            assert r.initialized
            assert r.iou2d > 0.95
            assert r.e_trans < 0.05

    def test_svd_fails_under_heavy_bbox_noise(self):
        cfg = StaticArcConfig()
        fails = 0
        for trial in range(10):
            r = run_trial("svd", cfg, NoiseConfig(bbox_pct=0.04), seed=0, trial=trial)
            fails += not r.initialized or r.iou2d <= 0.5
        assert fails >= 5

    def test_summarize_counts_failures_in_sr(self):
        results = [
            TrialResult("m", 0, 0, True, iou2d=0.9, e_trans=0.1, e_axe=0.1),
            TrialResult("m", 0, 1, True, iou2d=0.4, e_trans=1.0, e_axe=1.0),
            TrialResult("m", 0, 2, False),
        ]
        s = summarize(results)
        assert s["n_trials"] == 3
        assert abs(s["sr"] - 1 / 3) < 1e-12
        assert abs(s["e_trans_mean"] - 0.55) < 1e-12

    def test_trial_without_points_fails_to_initialize(self, monkeypatch):
        # no feature with a depth: the sphere+refine trial counts as an
        # initialization failure instead of raising
        monkeypatch.setattr(sweep, "_world_points_from_frames", lambda frames: np.asarray([]))
        r = run_trial("sphere_refine", StaticArcConfig(), NoiseConfig(), seed=0, trial=0)
        assert not r.initialized


def reference_world_points_from_frames(frames):
    """Oracle for `_world_points_from_frames`: its loop before batching, one
    back-projection and one pose transform per feature."""
    pts = []
    for frame in frames:
        cam = frame.pose_wc
        for feat in frame.features:
            if feat.depth_m is None:
                continue
            pts.append(cam.apply(back_project(frame.intrinsics, [feat.u, feat.v], feat.depth_m)))
    return np.asarray(pts)


class TestWorldPointsOracle:
    """The per-frame array back-projection returns the points of the
    per-feature loop it replaced, to the bit."""

    @staticmethod
    def assert_matches_reference(frames):
        ref = reference_world_points_from_frames(frames)
        pts = _world_points_from_frames(frames)
        assert pts.shape == ref.shape
        assert np.array_equal(pts, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_trials(self, seed):
        cfg = StaticArcConfig()
        for trial in range(cfg.ellipsoids_per_seed):
            noise = NoiseConfig(bbox_pct=0.04, pose_translation_pct=0.02, rotation_pct=0.05)
            _, frames = gen_arc_trial(cfg, noise, seed, trial)
            self.assert_matches_reference(frames)

    def test_missing_depths_and_empty_frame(self):
        _, frames = gen_arc_trial(StaticArcConfig(), NoiseConfig(rotation_pct=0.05), 0, 0)
        no_depth = [dataclasses.replace(f, depth_m=None) for f in frames[1].features]
        some_depth = [dataclasses.replace(f, depth_m=None) if i % 3 else f for i, f in enumerate(frames[2].features)]
        mixed = [
            frames[0],
            dataclasses.replace(frames[1], features=no_depth),
            dataclasses.replace(frames[2], features=some_depth),
            dataclasses.replace(frames[3], features=[]),
        ]
        self.assert_matches_reference(mixed)

    def test_no_points(self):
        _, frames = gen_arc_trial(StaticArcConfig(), NoiseConfig(), 0, 0)
        blind = [dataclasses.replace(frames[0], features=[Feature(id=0, u=1.0, v=2.0)])]
        for case in ([], blind):
            self.assert_matches_reference(case)
            assert _world_points_from_frames(case).shape == (0,)

    def test_non_positive_depth_raises(self):
        _, frames = gen_arc_trial(StaticArcConfig(), NoiseConfig(), 0, 0)
        bad = frames[:2] + [dataclasses.replace(frames[2], features=frames[2].features[:3] + [
            Feature(id=99, u=1.0, v=2.0, depth_m=0.0)])]
        with pytest.raises(NonPositiveDepth):
            reference_world_points_from_frames(bad)
        with pytest.raises(NonPositiveDepth):
            _world_points_from_frames(bad)


class TestCsv:
    def test_round_trip(self):
        rows = run_sweep("bbox", [0.0, 0.02], seeds=[0], cfg=StaticArcConfig(ellipsoids_per_seed=2))
        text = rows_to_csv(rows)
        back = csv_to_rows(text)
        assert len(back) == len(rows)
        for a, b in zip(sorted(rows, key=lambda r: (r["method"], r["level"])),
                        sorted(back, key=lambda r: (r["method"], r["level"]))):
            assert a["method"] == b["method"]
            assert abs(a["sr"] - b["sr"]) < 1e-9

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            csv_to_rows("method,axis,level\n")


class TestPlot:
    def test_series_per_method(self):
        rows = [
            {"method": "svd", "axis": "bbox", "level": 0.0, "n_trials": 1, "sr": 1.0,
             "e_trans_mean": 0.1, "e_trans_std": 0.0, "e_axe_mean": 0.1, "e_axe_std": 0.0,
             "iou2d_mean": 0.9, "iou2d_std": 0.0},
            {"method": "sphere_refine", "axis": "bbox", "level": 0.0, "n_trials": 1, "sr": 1.0,
             "e_trans_mean": 0.2, "e_trans_std": 0.0, "e_axe_mean": 0.2, "e_axe_std": 0.0,
             "iou2d_mean": 0.95, "iou2d_std": 0.0},
        ]
        svg = plot_sweep(rows)
        assert svg.count("<polyline") == 8  # 4 charts x 2 methods
        assert "sphere_refine" in svg and "svd" in svg

    def test_single_row_single_point(self):
        rows = [
            {"method": "svd", "axis": "bbox", "level": 0.02, "n_trials": 1, "sr": 0.5,
             "e_trans_mean": 0.1, "e_trans_std": 0.0, "e_axe_mean": 0.1, "e_axe_std": 0.0,
             "iou2d_mean": 0.9, "iou2d_std": 0.0},
        ]
        svg = plot_sweep(rows)
        assert "<circle" in svg

    def test_empty_rows(self):
        with pytest.raises(EmptyTable):
            plot_sweep([])

    def test_nan_rows_skipped(self):
        rows = [
            {"method": "svd", "axis": "bbox", "level": 0.02, "n_trials": 1, "sr": 0.0,
             "e_trans_mean": float("nan"), "e_trans_std": float("nan"),
             "e_axe_mean": float("nan"), "e_axe_std": float("nan"),
             "iou2d_mean": float("nan"), "iou2d_std": float("nan")},
        ]
        svg = plot_sweep(rows)
        assert svg.startswith("<svg")
