import json

import numpy as np
import pytest

from ellipslam.dataio import (
    Detection,
    EstimateRecord,
    Feature,
    FrameObservation,
    GtObject,
    TrackEstimate,
    dumps_canonical,
    load_config,
    parse_config_text,
    read_dataset,
    read_estimates,
    round9,
    write_dataset,
    write_estimates,
)
from ellipslam.errors import MalformedLine, NonMonotoneFrame
from ellipslam.quadrics import BBox
from ellipslam.se3 import Intrinsics, Pose
from ellipslam.simulate import (
    crossing_objects_config,
    gen_dynamic_scene,
    localization_scene_config,
    single_dynamic_object_config,
)

NAN, INF = float("nan"), float("inf")


def sample_frames():
    k = Intrinsics(500.0, 500.0, 320.0, 240.0)
    out = []
    for f in range(3):
        out.append(
            FrameObservation(
                frame=f,
                time_s=0.1 * f,
                intrinsics=k,
                pose_wc=Pose(np.eye(3), [0.1 * f, 0.0, 0.0]),
                features=[Feature(id=1, u=100.5, v=200.25, depth_m=5.0, instance=0),
                          Feature(id=2, u=300.0, v=100.0)],
                detections=[Detection(bbox=BBox(10, 20, 110, 90), instance_gt=0)],
                gt_objects=[GtObject(id=0, pose_wo=Pose(np.eye(3), [0, 0, 10.0]),
                                     axes_m=np.array([1.5, 1.0, 0.5]), dynamic=True)],
            )
        )
    return out


class TestDatasetRoundTrip:
    def test_write_read_write_byte_stable(self, tmp_path):
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_dataset(p1, sample_frames())
        frames = list(read_dataset(p1))
        write_dataset(p2, frames)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fields_survive(self, tmp_path):
        p = tmp_path / "a.jsonl"
        write_dataset(p, sample_frames())
        frames = list(read_dataset(p))
        assert len(frames) == 3
        f0 = frames[0]
        assert f0.features[0].depth_m == 5.0
        assert f0.features[1].depth_m is None
        assert f0.detections[0].instance_gt == 0
        assert f0.gt_objects[0].dynamic is True
        assert np.allclose(f0.gt_objects[0].axes_m, [1.5, 1.0, 0.5])

    def test_unknown_fields_preserved(self, tmp_path):
        p = tmp_path / "a.jsonl"
        frames = sample_frames()
        frames[0].extra["custom_tag"] = {"a": 1}
        write_dataset(p, frames)
        back = list(read_dataset(p))
        assert back[0].extra["custom_tag"] == {"a": 1}
        p2 = tmp_path / "b.jsonl"
        write_dataset(p2, back)
        assert "custom_tag" in p2.read_text()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert list(read_dataset(p)) == []

    def test_invalid_bbox_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        rec = sample_frames()[0].to_json()
        rec["detections"][0]["bbox"] = [100, 20, 10, 90]  # xmin > xmax
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(MalformedLine) as err:
            list(read_dataset(p))
        assert err.value.line_no == 1

    def test_invalid_json_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        good = json.dumps(sample_frames()[0].to_json())
        p.write_text(good + "\n{not json\n")
        with pytest.raises(MalformedLine) as err:
            list(read_dataset(p))
        assert err.value.line_no == 2

    def test_non_monotone_frames(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        frames = sample_frames()
        frames[1].frame = 0
        with open(p, "w") as fh:
            for fr in frames[:2]:
                fh.write(dumps_canonical(fr.to_json()) + "\n")
        with pytest.raises(NonMonotoneFrame):
            list(read_dataset(p))

    @pytest.mark.parametrize("path, value", [
        (("time_s",), NAN),
        (("camera", "intrinsics", 0), INF),
        (("camera", "pose_wc", 4), NAN),
        (("features", 0, "u"), NAN),
        (("features", 0, "v"), -INF),
        (("features", 0, "depth_m"), NAN),
        (("features", 0, "depth_m"), 0.0),
        (("features", 0, "depth_m"), -1.0),
        (("detections", 0, "bbox", 2), INF),
        (("gt_objects", 0, "pose_wo", 5), NAN),
        (("gt_objects", 0, "axes_m", 1), NAN),
        (("gt_objects", 0, "axes_m", 1), 0.0),
    ])
    def test_bad_number_rejected_with_line(self, tmp_path, path, value):
        # Python's json reads NaN and Infinity; the reader must not
        recs = [fr.to_json() for fr in sample_frames()[:2]]
        node = recs[1]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / "bad.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in recs))
        with pytest.raises(MalformedLine) as err:
            list(read_dataset(p))
        assert err.value.line_no == 2

    def test_simulated_scenes_read(self, tmp_path):
        p = tmp_path / "scene.jsonl"
        for cfg in (single_dynamic_object_config(seed=1, n_frames=5), crossing_objects_config(seed=1, n_frames=5),
                    localization_scene_config(seed=2, n_frames=5)):
            frames = list(gen_dynamic_scene(cfg))
            write_dataset(p, frames)
            assert len(list(read_dataset(p))) == len(frames) == 5

    def test_denormalized_quaternion_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        rec = sample_frames()[0].to_json()
        rec["camera"]["pose_wc"] = [0.5, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(MalformedLine):
            list(read_dataset(p))


class TestEstimates:
    def make_records(self):
        return [
            EstimateRecord(
                frame=f,
                camera_pose=Pose(np.eye(3), [0.1 * f, 0, 0]),
                tracks=[
                    TrackEstimate(
                        id=0,
                        pose_wo=Pose(np.eye(3), [1.0, 0, 10.0]),
                        velocity=np.array([0.1, 0, 0, 0, 0, 0]),
                        motion_label="dynamic",
                        quadric_axes=np.array([1.5, 1.0, 0.5]),
                        quadric_pose=Pose(np.eye(3), [1.0, 0, 10.0]),
                        bbox=BBox(10, 20, 110, 90),
                    )
                ],
            )
            for f in range(3)
        ]

    def test_round_trip(self, tmp_path):
        p1 = tmp_path / "est.jsonl"
        p2 = tmp_path / "est2.jsonl"
        write_estimates(p1, self.make_records())
        back = list(read_estimates(p1))
        write_estimates(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        assert back[0].tracks[0].motion_label == "dynamic"
        assert np.allclose(back[0].tracks[0].quadric_axes, [1.5, 1.0, 0.5])
        assert back[0].tracks[0].bbox.vector().tolist() == [10, 20, 110, 90]


class TestRound9:
    def test_values(self):
        assert round9(0.1 + 0.2) == 0.3
        assert round9(123456789.123) == 123456789.0
        assert round9([1.0, {"a": 2.0000000001}]) == [1.0, {"a": 2.0}]

    def test_canonical_json_stable(self):
        a = dumps_canonical({"x": 0.1 + 0.2, "y": [1e-17, 3.0]})
        b = dumps_canonical({"x": 0.3, "y": [1.0000000000000002e-17, 3.0]})
        assert a == b


class TestConfig:
    def test_parse_types(self):
        cfg = parse_config_text(
            """
            # comment
            optimizer.window = 15
            solver.lambda_init = 1e-3
            pipeline.camera_mode = given
            optimizer.use_depth = true
            arc.levels = 0.1, 0.2, 0.3
            """
        )
        assert cfg["optimizer.window"] == 15
        assert cfg["solver.lambda_init"] == 1e-3
        assert cfg["pipeline.camera_mode"] == "given"
        assert cfg["optimizer.use_depth"] is True
        assert cfg["arc.levels"] == [0.1, 0.2, 0.3]

    def test_overrides(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("optimizer.window = 15\n")
        cfg = load_config(str(p), overrides=["optimizer.window=7", "new.key=hi"])
        assert cfg["optimizer.window"] == 7
        assert cfg["new.key"] == "hi"

    def test_malformed_line(self):
        with pytest.raises(MalformedLine):
            parse_config_text("this is not a config line")
