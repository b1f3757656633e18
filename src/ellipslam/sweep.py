"""Noise-sweep orchestration over the static arc benchmark and the
deterministic SVG charts summarizing it.

Two initialization methods compete per trial: the closed-form SVD solution
from stacked tangent-plane constraints ("svd") and the sphere-plus-
refinement path ("sphere_refine"). Per (method, level) the sweep reports
mean/std of the centroid error, axis error and projected IoU plus the
success rate.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import (
    BehindCamera,
    DegenerateProjection,
    DivergedOptimization,
    EmptyCloud,
    EmptyTable,
    InsufficientViews,
    MalformedLine,
    NotAnEllipse,
    NotAnEllipsoid,
    SingularSystem,
)
from .initialization import fit_obb_ransac, initial_ellipsoid, refine_quadric
from .metrics import e_axe, e_trans, iou_2d_metric, success_rate
from .quadrics import svd_closed_form_init
from .se3 import Pose, back_project
from .simulate import NoiseConfig, StaticArcConfig, arc_poses, gen_arc_trial

METHODS = ("sphere_refine", "svd")
CSV_COLUMNS = [
    "method",
    "axis",
    "level",
    "n_trials",
    "sr",
    "e_trans_mean",
    "e_trans_std",
    "e_axe_mean",
    "e_axe_std",
    "iou2d_mean",
    "iou2d_std",
]

_INIT_FAILURES = (
    NotAnEllipsoid,
    NotAnEllipse,
    InsufficientViews,
    DegenerateProjection,
    BehindCamera,
    DivergedOptimization,
    SingularSystem,
    EmptyCloud,
    np.linalg.LinAlgError,
)


@dataclass
class TrialResult:
    method: str
    seed: int
    trial: int
    initialized: bool
    iou2d: float = 0.0
    e_trans: float = float("nan")
    e_axe: float = float("nan")


def _world_points_from_frames(frames):
    """Object surface points back-projected through the (noisy) camera poses,
    one array per frame; shape (0,) when no feature has a depth."""
    pts = []
    for frame in frames:
        feats = [f for f in frame.features if f.depth_m is not None]
        if not feats:
            continue
        cam_pts = back_project(frame.intrinsics, [(f.u, f.v) for f in feats], [f.depth_m for f in feats])
        pts.append(frame.pose_wc.apply_rows(cam_pts))
    return np.concatenate(pts) if pts else np.asarray([])


@blas.single_thread()
def run_trial(method, cfg: StaticArcConfig, noise: NoiseConfig, seed, trial) -> TrialResult:
    gt, frames = gen_arc_trial(cfg, noise, seed, trial)
    k = cfg.intrinsics()
    obs_bbox_cam = [(f.detections[0].bbox, f.pose_wc) for f in frames]
    try:
        if method == "svd":
            est = svd_closed_form_init(obs_bbox_cam, k)
        elif method == "sphere_refine":
            pts = _world_points_from_frames(frames)
            sphere, prior = initial_ellipsoid(pts, np.random.default_rng(seed * 1009 + trial), fit_obb_ransac)
            obs = [(b, c, Pose.identity()) for b, c in obs_bbox_cam]
            est = refine_quadric(sphere, obs, prior, k=k)
        else:
            raise ValueError(f"unknown method {method!r}")
    except _INIT_FAILURES:
        return TrialResult(method, seed, trial, initialized=False)
    views = arc_poses(cfg)
    try:
        iou = iou_2d_metric(gt, est, views, k)
    except Exception:
        return TrialResult(method, seed, trial, initialized=False)
    return TrialResult(
        method,
        seed,
        trial,
        initialized=True,
        iou2d=iou,
        e_trans=e_trans(gt.translation, est.translation),
        e_axe=e_axe(gt.axes, est.axes),
    )


def _noise_for(axis, level) -> NoiseConfig:
    if axis == "translation":
        return NoiseConfig(pose_translation_pct=level)
    if axis == "rotation":
        return NoiseConfig(rotation_pct=level)
    if axis == "bbox":
        return NoiseConfig(bbox_pct=level)
    raise ValueError(f"unknown noise axis {axis!r}")


def _run_cell(args):
    method, axis, level, seeds, cfg = args
    noise = _noise_for(axis, level)
    results = []
    for seed in seeds:
        for trial in range(cfg.ellipsoids_per_seed):
            results.append(run_trial(method, cfg, noise, seed, trial))
    return method, axis, level, results


def summarize(results) -> dict:
    ok = [r for r in results if r.initialized]
    fields = {"n_trials": len(results), "sr": success_rate([(r.initialized, r.iou2d) for r in results])}
    for name in ("e_trans", "e_axe", "iou2d"):
        vals = np.array([getattr(r, name) for r in ok], dtype=float)
        vals = vals[np.isfinite(vals)]
        fields[f"{name}_mean"] = float(vals.mean()) if len(vals) else float("nan")
        fields[f"{name}_std"] = float(vals.std()) if len(vals) else float("nan")
    return fields


def run_sweep(axis, levels, seeds, cfg: StaticArcConfig | None = None, methods=METHODS, jobs=1):
    """Sweep one noise axis over the grid. Returns rows ordered by
    (method, level); each row is a dict with the CSV columns."""
    if cfg is None:
        cfg = StaticArcConfig()
    cells = [(m, axis, float(lv), tuple(seeds), cfg) for m in methods for lv in levels]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(_run_cell, cells))
    else:
        outputs = [_run_cell(c) for c in cells]
    rows = []
    for method, ax, level, results in outputs:
        row = {"method": method, "axis": ax, "level": level}
        row.update(summarize(results))
        rows.append(row)
    rows.sort(key=lambda r: (r["method"], r["level"]))
    return rows


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            v = row[col]
            if isinstance(v, float):
                cells.append(f"{v:.9g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_CSV_TYPES = {"method": str, "axis": str, "n_trials": int}  # every other column is a float


def csv_to_rows(text):
    """Rows of a sweep CSV as `rows_to_csv` writes it. Raises EmptyTable
    without data rows, MalformedLine for a missing column or cell, or a
    number that does not parse."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(lines) < 2:
        raise EmptyTable("sweep CSV has no data rows")
    header = lines[0][1].split(",")
    if missing := [c for c in CSV_COLUMNS if c not in header]:
        raise MalformedLine(lines[0][0], f"missing columns {', '.join(missing)}")
    rows = []
    for no, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise MalformedLine(no, f"{len(parts)} cells for {len(header)} columns")
        try:
            rows.append({key: _CSV_TYPES.get(key, float)(val) for key, val in zip(header, parts)})
        except ValueError as exc:
            raise MalformedLine(no, str(exc)) from None
    return rows


# --- deterministic SVG charts ---------------------------------------------------


_CHART_METRICS = [
    ("e_trans_mean", "centroid error (m)"),
    ("e_axe_mean", "axis error (m)"),
    ("iou2d_mean", "projected IoU"),
    ("sr", "success rate"),
]
_SERIES_COLORS = {"sphere_refine": "#1f77b4", "svd": "#d62728"}
_CHART_W = 380
_CHART_H = 280
_MARGIN = 48


def _fmt(x) -> str:
    return f"{x:.2f}"


def _chart(rows, metric, label, x0, y0):
    methods = sorted({r["method"] for r in rows})
    levels = sorted({r["level"] for r in rows})
    pts = {
        m: [(r["level"], r[metric]) for r in rows if r["method"] == m and math.isfinite(r[metric])]
        for m in methods
    }
    all_y = [y for series in pts.values() for _, y in series]
    if not all_y:
        all_y = [0.0, 1.0]
    ymin = min(0.0, min(all_y))
    ymax = max(all_y) * 1.05 if max(all_y) > 0 else 1.0
    xmin, xmax = min(levels), max(levels)
    if xmax == xmin:
        xmax = xmin + 1.0
    plot_w = _CHART_W - 2 * _MARGIN
    plot_h = _CHART_H - 2 * _MARGIN

    def sx(x):
        return x0 + _MARGIN + (x - xmin) / (xmax - xmin) * plot_w

    def sy(y):
        return y0 + _CHART_H - _MARGIN - (y - ymin) / (ymax - ymin) * plot_h

    parts = [
        f'<rect x="{_fmt(x0 + _MARGIN)}" y="{_fmt(y0 + _MARGIN)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#888" stroke-width="1"/>',
        f'<text x="{_fmt(x0 + _CHART_W / 2)}" y="{_fmt(y0 + 20)}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{label}</text>',
        f'<text x="{_fmt(x0 + _CHART_W / 2)}" y="{_fmt(y0 + _CHART_H - 8)}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">noise level</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        yv = ymin + frac * (ymax - ymin)
        parts.append(
            f'<text x="{_fmt(x0 + _MARGIN - 4)}" y="{_fmt(sy(yv) + 4)}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{yv:.3g}</text>'
        )
        xv = xmin + frac * (xmax - xmin)
        parts.append(
            f'<text x="{_fmt(sx(xv))}" y="{_fmt(y0 + _CHART_H - _MARGIN + 14)}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{xv:.3g}</text>'
        )
    for m in methods:
        series = pts[m]
        if not series:
            continue
        color = _SERIES_COLORS.get(m, "#2ca02c")
        path = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in series)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in series:
            parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}"/>')
    return parts


def plot_sweep(rows) -> str:
    """Deterministic 2x2 SVG chart grid (one chart per metric, one series
    per method)."""
    if not rows:
        raise EmptyTable("no sweep rows to plot")
    width = 2 * _CHART_W
    height = 2 * _CHART_H + 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, (metric, label) in enumerate(_CHART_METRICS):
        x0 = (i % 2) * _CHART_W
        y0 = (i // 2) * _CHART_H
        parts.extend(_chart(rows, metric, label, x0, y0))
    methods = sorted({r["method"] for r in rows})
    for j, m in enumerate(methods):
        color = _SERIES_COLORS.get(m, "#2ca02c")
        lx = 40 + j * 220
        ly = 2 * _CHART_H + 18
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="18" height="4" fill="{color}"/>')
        parts.append(
            f'<text x="{lx + 24}" y="{ly - 3}" font-size="12" font-family="sans-serif">{m}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
