"""In-memory span recorder and the outside-in instrumentation of ellipslam.

The traced run wraps the public entry points of each ellipslam module from
the benchmark side; no code under src/ is touched. Every wrapped call records
one span (name, start, end, parent) in memory; self times and counts
are computed once the run ends. A span's self time is its duration minus the
time its direct children cover (calls are nested on one thread, so children
never overlap each other).
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Recorder.spans, -1 for a root: a frame or trial


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    paused: bool = False  # while set, wrapped calls run without a span
    _stack: list = field(default_factory=list)

    def open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        if self.paused:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name, fn, on_result=None):
        """`fn` timed as span `name`; `on_result(args, result)` may count
        what the call returned. A raised exception is counted as
        `<name>.raised` and propagates unchanged."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    @contextmanager
    def pause(self):
        """Run the block untraced: the benchmark's own output checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def self_times(self):
        """name -> (self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {}
        for i, s in enumerate(self.spans):
            total, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (total + (s.end - s.start) - child[i], calls + 1)
        return out

    def durations(self, name):
        return [s.end - s.start for s in self.spans if s.name == name]


def span_cost_s(n=20000):
    """Measured cost of one recorded span around an empty call: the
    per-call tracing overhead in this interpreter."""
    rec = Recorder()
    fn = rec.wrap("calibrate", lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n


@contextmanager
def instrumented(rec: Recorder):
    """Wrap the entry points of every ellipslam layer for the duration of
    the block and restore the originals afterwards.

    Names imported with `from .x import f` are looked up in the importing
    module at call time, so those are patched where they are used.
    """
    from ellipslam import association, pipeline, sweep, window

    def lm_report(_args, report):
        rec.counts["window.lm_iters"] += report.iterations
        rec.counts["window.lm_accepted"] += report.accepted_steps
        rec.counts["window.no_downhill"] += report.termination == "no downhill step"

    def assoc_result(args, matched):
        rec.counts["association.matched"] += len(matched)
        rec.counts["association.tracks_live_max"] = max(
            rec.counts["association.tracks_live_max"], len(args[0].tracks))

    run_trial = sweep.run_trial

    def traced_trial(method, *args, **kwargs):
        with rec.span("sweep.run_trial." + method):
            return run_trial(method, *args, **kwargs)

    targets = [
        (pipeline.Backend, "process_frame", "pipeline.process_frame", None),
        (pipeline, "solve_camera_pose", "pipeline.solve_camera_pose", None),
        (pipeline, "refine_quadric", "initialization.refine_quadric", None),
        (pipeline, "fit_obb_ransac", "initialization.fit_obb_ransac", None),
        (pipeline, "project_quadric", "quadrics.project_quadric", None),
        (association.TrackManager, "step", "association.step", assoc_result),
        (window.WindowState, "add_frame", "window.add_frame", None),
        (window.WindowState, "marginalize_oldest", "window.marginalize", None),
        (window.WindowState, "lm_solve", "window.lm_solve", lm_report),
        (sweep, "refine_quadric", "initialization.refine_quadric", None),
        (sweep, "fit_obb_ransac", "initialization.fit_obb_ransac", None),
        (sweep, "svd_closed_form_init", "quadrics.svd_closed_form_init", None),
        (sweep, "iou_2d_metric", "metrics.iou_2d", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    saved.append((sweep, "run_trial", run_trial))
    try:
        for owner, attr, name, on_result in targets:
            setattr(owner, attr, rec.wrap(name, getattr(owner, attr), on_result))
        sweep.run_trial = traced_trial
        yield rec
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
