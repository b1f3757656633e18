"""Line-delimited JSON dataset/estimate formats and flat config files.

Every float is canonicalized to 9 significant digits before writing, which
makes write(read(write(x))) byte-stable. Unknown fields on records survive a
read/write round trip untouched.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedLine, NonMonotoneFrame, UsageError
from .quadrics import BBox
from .se3 import Intrinsics, Pose, pose_from_wire, pose_to_wire


def round9(x):
    """Canonicalize floats to 9 significant digits, recursively."""
    if isinstance(x, float):
        if not math.isfinite(x):
            return x
        return float(f"{x:.9g}")
    if isinstance(x, np.floating):
        return round9(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [round9(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: round9(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [round9(v) for v in x]
    return x


def dumps_canonical(obj) -> str:
    return json.dumps(round9(obj), separators=(",", ":"), allow_nan=True)


@dataclass
class Feature:
    id: int
    u: float
    v: float
    depth_m: float | None = None
    instance: int | None = None

    def to_json(self):
        d = {"id": self.id, "u": self.u, "v": self.v}
        if self.depth_m is not None:
            d["depth_m"] = self.depth_m
        if self.instance is not None:
            d["instance"] = self.instance
        return d


@dataclass
class Detection:
    bbox: BBox
    score: float = 1.0
    cls: str = "object"
    instance_gt: int | None = None

    def to_json(self):
        d = {"bbox": list(self.bbox.vector()), "score": self.score, "class": self.cls}
        if self.instance_gt is not None:
            d["instance_gt"] = self.instance_gt
        return d


@dataclass
class GtObject:
    id: int
    pose_wo: Pose
    axes_m: np.ndarray
    dynamic: bool = False

    def to_json(self):
        return {
            "id": self.id,
            "pose_wo": pose_to_wire(self.pose_wo),
            "axes_m": [float(a) for a in self.axes_m],
            "dynamic": self.dynamic,
        }


@dataclass
class FrameObservation:
    frame: int
    time_s: float
    intrinsics: Intrinsics
    pose_wc: Pose | None = None
    features: list = field(default_factory=list)
    detections: list = field(default_factory=list)
    gt_objects: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json(self):
        cam = {"intrinsics": self.intrinsics.to_list()}
        if self.pose_wc is not None:
            cam["pose_wc"] = pose_to_wire(self.pose_wc)
        d = {
            "frame": self.frame,
            "time_s": self.time_s,
            "camera": cam,
            "features": [f.to_json() for f in self.features],
            "detections": [det.to_json() for det in self.detections],
            "gt_objects": [g.to_json() for g in self.gt_objects],
        }
        d.update(self.extra)
        return d


_KNOWN_FRAME_KEYS = {"frame", "time_s", "camera", "features", "detections", "gt_objects"}


def _finite(values, what):
    """`values` as floats; ValueError if one is NaN or infinite."""
    out = [float(x) for x in values]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"non-finite {what} {out}")
    return out


def _parse_frame(obj, line_no) -> FrameObservation:
    try:
        frame = int(obj["frame"])
        (time_s,) = _finite([obj.get("time_s", 0.0)], "time_s")
        cam = obj["camera"]
        intr = Intrinsics.from_list(_finite(cam["intrinsics"], "intrinsics"))
        pose = pose_from_wire(_finite(cam["pose_wc"], "pose_wc")) if cam.get("pose_wc") is not None else None
        features = []
        for f in obj.get("features", []):
            u, v = float(f["u"]), float(f["v"])
            if not (math.isfinite(u) and math.isfinite(v)):
                raise ValueError(f"non-finite feature pixel ({u}, {v})")
            depth = float(f["depth_m"]) if "depth_m" in f else None
            if depth is not None and not 0.0 < depth < math.inf:
                raise ValueError(f"depth_m {depth} not positive and finite")
            features.append(
                Feature(
                    id=int(f["id"]),
                    u=u,
                    v=v,
                    depth_m=depth,
                    instance=int(f["instance"]) if "instance" in f else None,
                )
            )
        detections = []
        for det in obj.get("detections", []):
            b = _finite(det["bbox"], "bbox")
            if b[0] > b[2] or b[1] > b[3]:
                raise ValueError(f"invalid bbox {b}")
            detections.append(
                Detection(
                    bbox=BBox.from_vector(b),
                    score=float(det.get("score", 1.0)),
                    cls=str(det.get("class", "object")),
                    instance_gt=int(det["instance_gt"]) if "instance_gt" in det else None,
                )
            )
        gt_objects = []
        for g in obj.get("gt_objects", []):
            axes = _finite(g["axes_m"], "axes_m")
            if min(axes) <= 0:
                raise ValueError(f"axes_m {axes} not positive")
            gt_objects.append(
                GtObject(
                    id=int(g["id"]),
                    pose_wo=pose_from_wire(_finite(g["pose_wo"], "pose_wo")),
                    axes_m=np.array(axes),
                    dynamic=bool(g.get("dynamic", False)),
                )
            )
        extra = {k: v for k, v in obj.items() if k not in _KNOWN_FRAME_KEYS}
        return FrameObservation(
            frame=frame,
            time_s=time_s,
            intrinsics=intr,
            pose_wc=pose,
            features=features,
            detections=detections,
            gt_objects=gt_objects,
            extra=extra,
        )
    except MalformedLine:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedLine(line_no, str(exc)) from exc


def _read_jsonl(path, parse):
    """Yield `parse(obj, line_no)` for each non-blank line of `path`; the
    records' frame ids must strictly increase."""
    last = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(line_no, f"invalid JSON: {exc}") from exc
            rec = parse(obj, line_no)
            if last is not None and rec.frame <= last:
                raise NonMonotoneFrame(f"line {line_no}: frame {rec.frame} after {last}")
            last = rec.frame
            yield rec


def _write_jsonl(path, records):
    """One canonical JSON line per record's `to_json()`."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(dumps_canonical(rec.to_json()))
            fh.write("\n")


def read_dataset(path):
    """Yield FrameObservation records; frame ids must strictly increase."""
    return _read_jsonl(path, _parse_frame)


write_dataset = write_estimates = _write_jsonl


@dataclass
class TrackEstimate:
    id: int
    pose_wo: Pose
    velocity: np.ndarray  # twist / s, 6-vector
    motion_label: str
    quadric_axes: np.ndarray | None = None
    quadric_pose: Pose | None = None
    bbox: BBox | None = None

    def to_json(self):
        d = {
            "id": self.id,
            "pose_wo": pose_to_wire(self.pose_wo),
            "velocity": [float(v) for v in self.velocity],
            "motion_label": self.motion_label,
        }
        if self.quadric_axes is not None and self.quadric_pose is not None:
            d["quadric"] = {
                "axes": [float(a) for a in self.quadric_axes],
                "pose": pose_to_wire(self.quadric_pose),
            }
        if self.bbox is not None:
            d["bbox"] = list(self.bbox.vector())
        return d


@dataclass
class EstimateRecord:
    frame: int
    camera_pose: Pose
    tracks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_json(self):
        d = {
            "frame": self.frame,
            "camera_pose": pose_to_wire(self.camera_pose),
            "tracks": [t.to_json() for t in self.tracks],
        }
        d.update(self.extra)
        return d


_KNOWN_EST_KEYS = {"frame", "camera_pose", "tracks"}


def _parse_estimate(obj, line_no) -> EstimateRecord:
    try:
        tracks = []
        for t in obj.get("tracks", []):
            quad = t.get("quadric")
            tracks.append(
                TrackEstimate(
                    id=int(t["id"]),
                    pose_wo=pose_from_wire(t["pose_wo"]),
                    velocity=np.array([float(v) for v in t["velocity"]]),
                    motion_label=str(t["motion_label"]),
                    quadric_axes=np.array([float(a) for a in quad["axes"]]) if quad else None,
                    quadric_pose=pose_from_wire(quad["pose"]) if quad else None,
                    bbox=BBox.from_vector(t["bbox"]) if "bbox" in t else None,
                )
            )
        return EstimateRecord(
            frame=int(obj["frame"]),
            camera_pose=pose_from_wire(obj["camera_pose"]),
            tracks=tracks,
            extra={k: v for k, v in obj.items() if k not in _KNOWN_EST_KEYS},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedLine(line_no, str(exc)) from exc


def read_estimates(path):
    """Yield EstimateRecord records; frame ids must strictly increase."""
    return _read_jsonl(path, _parse_estimate)


# --- flat key = value config ------------------------------------------------------


def parse_config_text(text) -> dict:
    """Flat `key = value` lines with dotted namespaces; '#' comments."""
    out = {}
    for raw_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedLine(raw_no, f"expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = _coerce(value.strip())
    return out


def _coerce(s: str):
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    if "," in s:
        return [_coerce(p.strip()) for p in s.split(",")]
    return s


def load_config(path=None, overrides=None) -> dict:
    cfg = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            cfg.update(parse_config_text(fh.read()))
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg[key.strip()] = _coerce(value.strip())
    return cfg
