import json
import math
from pathlib import Path

import numpy as np
import pytest

from mocapsynth.cli import render_sequence
from mocapsynth.dataset.preprocess import MotionSequence
from mocapsynth.errors import ContractError, DataError, DegenerateBoneError, StateError
from mocapsynth.markers import HEAD, MARKER_NAMES, N_FEATURES, WAIST
from mocapsynth.render import (
    BOWL_RADIUS,
    CYLINDER_RADIUS,
    DEFAULT_BONES,
    SPHERE_RADIUS,
    SkeletonTopology,
    build_geometry,
    cylinder_between,
    default_topology,
    export_jsonl,
    export_svg_ortho,
    load_topology,
)
from mocapsynth.seeding import derive_rng

from pins import pinned_on
from toys import demo_sequence

GOLDEN = Path(__file__).parent / "golden"


def constant_pose_sequence():
    rng = derive_rng(0, "pose")
    frame = rng.normal(size=N_FEATURES)
    return MotionSequence(np.tile(frame, (32, 1)), normalized=False, name="pose")


# ------------------------------------------------------------- cylinders


def test_cylinder_between_axis_aligned():
    center, axis, length = cylinder_between((0, 0, 0), (0, 0, 2))
    assert np.array_equal(center, [0, 0, 1])
    assert np.array_equal(axis, [0, 0, 1])
    assert length == 2.0


def test_cylinder_between_rejects_coincident_points():
    with pytest.raises(DegenerateBoneError):
        cylinder_between((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


def test_cylinder_between_matches_vector_algebra():
    rng = derive_rng(1, "cyl")
    for _ in range(200):
        p1, p2 = rng.normal(size=(2, 3))
        center, axis, length = cylinder_between(p1, p2)
        want_len = math.sqrt(sum((b - a) ** 2 for a, b in zip(p1, p2)))
        assert abs(length - want_len) < 1e-12
        assert np.max(np.abs(center - (p1 + p2) / 2)) < 1e-12
        assert np.max(np.abs(axis * length - (p2 - p1))) < 1e-12
        assert abs(np.linalg.norm(axis) - 1.0) < 1e-9


# -------------------------------------------------------------- topology


def test_default_topology_is_valid_and_round_trips(tmp_path):
    topo = default_topology()
    assert topo.bones == DEFAULT_BONES
    text = json.dumps(topo.to_dict(), indent=2) + "\n"
    assert SkeletonTopology.from_json(text) == topo
    (tmp_path / "topo.json").write_text(text)
    assert load_topology(tmp_path / "topo.json") == topo


def test_topology_rejects_bad_endpoints():
    with pytest.raises(ContractError):
        SkeletonTopology((("head_fl", "elbow_l"),))
    with pytest.raises(ContractError):
        SkeletonTopology((("c7", "c7"),))
    with pytest.raises(ContractError):
        SkeletonTopology.from_json("{}")


def test_topology_may_reference_inferred_nodes_and_bowl():
    SkeletonTopology((("bowl", "hand_l"), ("pelvis", "head_center")))


# -------------------------------------------------------------- geometry


def test_constant_pose_yields_identical_frames():
    frames = build_geometry(constant_pose_sequence())
    assert len(frames) == 32
    first = frames[0]
    assert [f.frame_index for f in frames] == list(range(32))
    for f in frames[1:]:
        assert len(f.spheres) == len(first.spheres)
        assert len(f.cylinders) == len(first.cylinders)
        for a, b in zip(f.spheres, first.spheres):
            assert np.array_equal(a.center, b.center) and a.tag == b.tag
        for a, b in zip(f.cylinders, first.cylinders):
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.axis, b.axis)
            assert a.length == b.length


def test_eighteen_spheres_per_frame():
    frames = build_geometry(demo_sequence())
    for f in frames:
        assert len(f.spheres) == 18
        tags = [s.tag for s in f.spheres]
        assert tags[:15] == list(MARKER_NAMES[:15])
        assert tags[15:] == ["pelvis", "head_center", "bowl"]
        for s in f.spheres:
            assert s.radius == (BOWL_RADIUS if s.tag == "bowl" else SPHERE_RADIUS)


def test_inferred_nodes_are_centroids():
    seq = demo_sequence()
    frames = build_geometry(seq)
    pts = seq.points()
    for t, f in enumerate(frames):
        pelvis = next(s for s in f.spheres if s.tag == "pelvis")
        head = next(s for s in f.spheres if s.tag == "head_center")
        assert np.max(np.abs(pelvis.center - pts[t, list(WAIST)].mean(axis=0))) < 1e-12
        assert np.max(np.abs(head.center - pts[t, list(HEAD)].mean(axis=0))) < 1e-12


def test_cylinder_lengths_equal_marker_distances():
    seq = demo_sequence()
    topo = default_topology()
    frames = build_geometry(seq, topo)
    for f in frames:
        assert len(f.cylinders) == len(topo.bones)
        for cyl in f.cylinders:
            assert abs(np.linalg.norm(cyl.axis) - 1.0) < 1e-9
            assert cyl.length >= 0.0
            assert cyl.radius == CYLINDER_RADIUS


def test_degenerate_bone_warns_and_skips():
    seq = constant_pose_sequence()
    data = seq.data.copy()
    # collapse hand_l onto shoulder_l in every frame
    data[:, 33:36] = data[:, 12:15]
    broken = MotionSequence(data, normalized=False, name="broken")
    with pytest.warns(UserWarning, match="hand_l-shoulder_l"):
        frames = build_geometry(broken)
    assert len(frames) == 32
    assert all(len(f.cylinders) == len(DEFAULT_BONES) - 1 for f in frames)


def test_build_geometry_rejects_normalized_input():
    seq = constant_pose_sequence()
    normalized = MotionSequence(seq.data, normalized=True, name="z")
    with pytest.raises(StateError):
        build_geometry(normalized)


def test_translation_equivariance():
    seq = demo_sequence()
    shift = np.array([0.7, -1.3, 0.25])
    moved = MotionSequence(
        seq.data + np.tile(shift, 16)[None, :], normalized=False, name="moved"
    )
    base = build_geometry(seq)
    trans = build_geometry(moved)
    for f0, f1 in zip(base, trans):
        for a, b in zip(f0.spheres, f1.spheres):
            assert np.max(np.abs(b.center - (a.center + shift))) < 1e-9
        for a, b in zip(f0.cylinders, f1.cylinders):
            assert np.max(np.abs(b.center - (a.center + shift))) < 1e-9
            assert np.max(np.abs(b.axis - a.axis)) < 1e-9
            assert abs(b.length - a.length) < 1e-9


# ---------------------------------------------------------------- export


def test_jsonl_schema_and_round_trip(tmp_path):
    frames = build_geometry(demo_sequence())
    path = export_jsonl(frames, tmp_path / "frames.jsonl")
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(docs) == 32
    for t, doc in enumerate(docs):
        assert set(doc) == {"frame", "spheres", "cylinders"}
        assert doc["frame"] == t
        assert len(doc["spheres"]) == 18
        for s in doc["spheres"]:
            assert set(s) == {"c", "r", "tag"}
        for c in doc["cylinders"]:
            assert set(c) == {"c", "axis", "len", "r"}
    # coordinates survive the round trip
    for t, doc in enumerate(docs):
        for s_doc, s in zip(doc["spheres"], frames[t].spheres):
            assert np.max(np.abs(np.array(s_doc["c"]) - s.center)) < 1e-9
        for c_doc, c in zip(doc["cylinders"], frames[t].cylinders):
            assert np.max(np.abs(np.array(c_doc["c"]) - c.center)) < 1e-9
            assert abs(c_doc["len"] - c.length) < 1e-9


def test_svg_files_and_naming(tmp_path):
    frames = build_geometry(demo_sequence())
    paths = export_svg_ortho(frames, tmp_path / "svg")
    names = sorted(p.name for p in paths)
    assert names[0] == "frame_000.svg" and names[-1] == "frame_031.svg"
    assert len(names) == 32
    text = paths[0].read_text()
    assert text.startswith("<?xml")
    assert "scale_px_per_m" in text
    assert text.count("<circle") == 18


def test_exports_are_deterministic(tmp_path):
    frames = build_geometry(demo_sequence())
    a = export_jsonl(frames, tmp_path / "a.jsonl").read_bytes()
    b = export_jsonl(frames, tmp_path / "b.jsonl").read_bytes()
    assert a == b
    s1 = export_svg_ortho(frames, tmp_path / "s1")
    s2 = export_svg_ortho(frames, tmp_path / "s2")
    for p1, p2 in zip(s1, s2):
        assert p1.read_bytes() == p2.read_bytes()


def test_export_dispatch_and_errors(tmp_path):
    seq = demo_sequence()
    with pytest.raises(DataError):
        export_jsonl([], tmp_path / "x.jsonl")
    with pytest.raises(DataError):
        export_svg_ortho([], tmp_path)
    with pytest.raises(ContractError):
        render_sequence(seq, "obj", tmp_path)
    assert render_sequence(seq, "jsonl", tmp_path) == 1
    assert (tmp_path / f"{seq.name}.jsonl").exists()


def test_golden_fixtures_are_reproduced(tmp_path):
    """Byte-identical regeneration of checked-in exports of the demo pose."""
    frames = build_geometry(demo_sequence())
    jsonl = export_jsonl(frames, tmp_path / "demo.jsonl")
    assert jsonl.read_bytes() == (GOLDEN / "demo.jsonl").read_bytes(), pinned_on()
    svgs = export_svg_ortho(frames, tmp_path / "svg")
    assert svgs[0].read_bytes() == (GOLDEN / "frame_000.svg").read_bytes(), pinned_on()
    assert svgs[17].read_bytes() == (GOLDEN / "frame_017.svg").read_bytes(), pinned_on()
