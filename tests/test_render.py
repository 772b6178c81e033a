import json
import math
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mocapsynth.cli import render_sequence
from mocapsynth.dataset.preprocess import MotionSequence
from mocapsynth.errors import ContractError, DataError, DegenerateBoneError, StateError
from mocapsynth.markers import HEAD, MARKER_NAMES, N_FEATURES, WAIST
from mocapsynth.render import (
    BOWL_RADIUS,
    CYLINDER_RADIUS,
    DEFAULT_BONES,
    SPHERE_RADII,
    SPHERE_RADIUS,
    SPHERE_TAGS,
    Geometry,
    SkeletonTopology,
    build_geometry,
    cylinder_between,
    default_topology,
    export_jsonl,
    export_svg_ortho,
    load_topology,
)
from mocapsynth.seeding import derive_rng

from oracles import cylinder_by_norm, render_files_by_frame, render_nodes_by_frame, same_bits
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


def jsonl_docs(geometry, path):
    return [json.loads(line) for line in export_jsonl(geometry, path).read_text().splitlines()]


def test_constant_pose_yields_identical_frames():
    geometry = build_geometry(constant_pose_sequence())
    n_bones = len(DEFAULT_BONES)
    assert geometry.spheres.shape == (32, 18, 3)
    assert geometry.centers.shape == geometry.axes.shape == (32, n_bones, 3)
    assert geometry.lengths.shape == (32, n_bones)
    assert geometry.bones == DEFAULT_BONES
    for block in (geometry.spheres, geometry.centers, geometry.axes, geometry.lengths):
        for frame in block[1:]:
            assert np.array_equal(frame, block[0])


def test_eighteen_spheres_per_frame(tmp_path):
    geometry = build_geometry(demo_sequence())
    assert geometry.spheres.shape == (32, 18, 3)
    assert SPHERE_TAGS[:15] == tuple(MARKER_NAMES[:15])
    assert SPHERE_TAGS[15:] == ("pelvis", "head_center", "bowl")
    assert SPHERE_RADII == tuple(BOWL_RADIUS if tag == "bowl" else SPHERE_RADIUS for tag in SPHERE_TAGS)
    for doc in jsonl_docs(geometry, tmp_path / "g.jsonl"):
        assert [s["tag"] for s in doc["spheres"]] == list(SPHERE_TAGS)
        for s in doc["spheres"]:
            assert s["r"] == (BOWL_RADIUS if s["tag"] == "bowl" else SPHERE_RADIUS)


def test_inferred_nodes_are_centroids():
    seq = demo_sequence()
    geometry = build_geometry(seq)
    pts = seq.points()
    pelvis = geometry.spheres[:, SPHERE_TAGS.index("pelvis")]
    head = geometry.spheres[:, SPHERE_TAGS.index("head_center")]
    assert np.max(np.abs(pelvis - pts[:, list(WAIST)].mean(axis=1))) < 1e-12
    assert np.max(np.abs(head - pts[:, list(HEAD)].mean(axis=1))) < 1e-12


def test_cylinder_lengths_equal_marker_distances(tmp_path):
    seq = demo_sequence()
    topo = default_topology()
    geometry = build_geometry(seq, topo)
    assert geometry.lengths.shape == (32, len(topo.bones))
    assert np.max(np.abs(np.linalg.norm(geometry.axes, axis=-1) - 1.0)) < 1e-9
    assert (geometry.lengths >= 0.0).all()
    for t, frame in enumerate(seq.points()):
        nodes = render_nodes_by_frame(frame)
        want = [np.linalg.norm(nodes[b] - nodes[a]) for a, b in topo.bones]
        assert np.max(np.abs(geometry.lengths[t] - want)) < 1e-12
    for doc in jsonl_docs(geometry, tmp_path / "g.jsonl"):
        assert len(doc["cylinders"]) == len(topo.bones)
        assert all(c["r"] == CYLINDER_RADIUS for c in doc["cylinders"])


def test_degenerate_bone_warns_and_skips(tmp_path):
    seq = constant_pose_sequence()
    data = seq.data.copy()
    # collapse hand_l onto shoulder_l in every frame
    data[:, 33:36] = data[:, 12:15]
    broken = MotionSequence(data, normalized=False, name="broken")
    with pytest.warns(UserWarning, match="hand_l-shoulder_l"):
        geometry = build_geometry(broken)
    bone = DEFAULT_BONES.index(("hand_l", "shoulder_l"))
    assert geometry.lengths.shape == (32, len(DEFAULT_BONES))
    assert np.array_equal(np.flatnonzero(geometry.lengths.min(axis=0) == 0.0), [bone])
    assert (geometry.lengths[:, bone] == 0.0).all()
    docs = jsonl_docs(geometry, tmp_path / "g.jsonl")
    assert len(docs) == 32
    assert all(len(doc["cylinders"]) == len(DEFAULT_BONES) - 1 for doc in docs)
    svgs = export_svg_ortho(geometry, tmp_path / "svg")
    assert all(p.read_text().count("<line") == len(DEFAULT_BONES) - 1 for p in svgs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_geometry_has_the_bits_of_the_per_frame_oracle(seed):
    rng = derive_rng(seed, "world")
    data = rng.uniform(-4.0, 4.0, size=(32, N_FEATURES)) * rng.choice([1.0, 1e-3, 1e3])
    topo = SkeletonTopology(DEFAULT_BONES + (("bowl", "hand_l"), ("pelvis", "head_center")))
    geometry = build_geometry(MotionSequence(data, normalized=False, name="w"), topo)
    assert geometry.bones == topo.bones and geometry.lengths.dtype == np.float64
    for t in range(32):
        nodes = render_nodes_by_frame(data[t].reshape(16, 3))
        for sphere, tag in zip(geometry.spheres[t], SPHERE_TAGS, strict=True):
            assert same_bits(sphere, nodes[tag]), (t, tag)
        cylinders = zip(topo.bones, geometry.centers[t], geometry.axes[t], geometry.lengths[t], strict=True)
        for (a, b), got_center, got_axis, got_length in cylinders:
            center, axis, length = cylinder_by_norm(nodes[a], nodes[b])
            assert same_bits(got_center, center) and same_bits(got_axis, axis), (t, a, b)
            assert same_bits(got_length, length), (t, a, b)


def test_a_topology_without_bones_gives_spheres_only(tmp_path):
    geometry = build_geometry(demo_sequence(), SkeletonTopology.from_json('{"bones": []}'))
    assert geometry.spheres.shape == (32, 18, 3)
    assert geometry.centers.shape == geometry.axes.shape == (32, 0, 3) and geometry.lengths.shape == (32, 0)
    docs = jsonl_docs(geometry, tmp_path / "g.jsonl")
    assert len(docs) == 32
    assert all(len(doc["spheres"]) == 18 and doc["cylinders"] == [] for doc in docs)


def test_a_bone_collapsed_in_one_frame_is_skipped_in_that_frame_only(tmp_path):
    data = demo_sequence().data.copy()
    data[17, 33:36] = data[17, 12:15]  # hand_l onto shoulder_l in frame 17 alone
    with pytest.warns(UserWarning) as caught:
        geometry = build_geometry(MotionSequence(data, normalized=False, name="one"))
    assert [str(w.message) for w in caught] == ["frame 17: bone hand_l-shoulder_l has coincident endpoints, skipped"]
    whole = build_geometry(demo_sequence())
    bone = DEFAULT_BONES.index(("hand_l", "shoulder_l"))
    assert np.argwhere(geometry.lengths == 0.0).tolist() == [[17, bone]]
    others = np.ones(geometry.lengths.shape, dtype=bool)
    others[17, bone] = False
    assert same_bits(geometry.centers[others], whole.centers[others])
    assert same_bits(geometry.axes[others], whole.axes[others])
    assert np.array_equal(geometry.lengths[others], whole.lengths[others])
    docs, whole_docs = jsonl_docs(geometry, tmp_path / "one.jsonl"), jsonl_docs(whole, tmp_path / "whole.jsonl")
    for t, (doc, full) in enumerate(zip(docs, whole_docs, strict=True)):
        want = [c for (a, b), c in zip(DEFAULT_BONES, full["cylinders"]) if t != 17 or (a, b) != ("hand_l", "shoulder_l")]
        assert doc["cylinders"] == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_coordinate_is_refused_naming_the_frame(bad):
    data = demo_sequence().data.copy()
    data[9, 40] = bad
    data[20, 3] = bad
    with pytest.raises(DataError, match="'odd': frame 9 "):
        build_geometry(MotionSequence(data, normalized=False, name="odd"))


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
    assert np.max(np.abs(trans.spheres - (base.spheres + shift))) < 1e-9
    assert np.max(np.abs(trans.centers - (base.centers + shift))) < 1e-9
    assert np.max(np.abs(trans.axes - base.axes)) < 1e-9
    assert np.max(np.abs(trans.lengths - base.lengths)) < 1e-9


# ---------------------------------------------------------------- export


def test_jsonl_schema_and_round_trip(tmp_path):
    geometry = build_geometry(demo_sequence())
    docs = jsonl_docs(geometry, tmp_path / "frames.jsonl")
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
        assert np.max(np.abs(np.array([s["c"] for s in doc["spheres"]]) - geometry.spheres[t])) < 1e-9
        assert len(doc["cylinders"]) == len(DEFAULT_BONES)
        assert np.max(np.abs(np.array([c["c"] for c in doc["cylinders"]]) - geometry.centers[t])) < 1e-9
        assert np.max(np.abs(np.array([c["len"] for c in doc["cylinders"]]) - geometry.lengths[t])) < 1e-9


def test_svg_files_and_naming(tmp_path):
    geometry = build_geometry(demo_sequence())
    paths = export_svg_ortho(geometry, tmp_path / "svg")
    names = sorted(p.name for p in paths)
    assert names[0] == "frame_000.svg" and names[-1] == "frame_031.svg"
    assert len(names) == 32
    text = paths[0].read_text()
    assert text.startswith("<?xml")
    assert "scale_px_per_m" in text
    assert text.count("<circle") == 18


def test_exports_are_deterministic(tmp_path):
    geometry = build_geometry(demo_sequence())
    a = export_jsonl(geometry, tmp_path / "a.jsonl").read_bytes()
    b = export_jsonl(geometry, tmp_path / "b.jsonl").read_bytes()
    assert a == b
    s1 = export_svg_ortho(geometry, tmp_path / "s1")
    s2 = export_svg_ortho(geometry, tmp_path / "s2")
    for p1, p2 in zip(s1, s2):
        assert p1.read_bytes() == p2.read_bytes()


def world_sequence(seed, scale):
    data = derive_rng(seed, "export").uniform(-4.0, 4.0, size=(32, N_FEATURES)) * scale
    return MotionSequence(data, normalized=False, name="w")


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
@pytest.mark.parametrize("case", ["random", "collapsed", "boneless"])
def test_exports_have_the_bytes_of_the_per_frame_writer(tmp_path, case, scale):
    seqs = [world_sequence(seed, scale) for seed in range(4)]
    topo = SkeletonTopology(()) if case == "boneless" else None
    if case == "collapsed":
        for t, seq in zip((0, 17, 31), seqs):
            seq.data[t, 33:36] = seq.data[t, 12:15]  # hand_l onto shoulder_l in frame t alone
    for i, seq in enumerate(seqs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            geometry = build_geometry(seq, topo)
        jsonl, svgs = render_files_by_frame(geometry)
        assert export_jsonl(geometry, tmp_path / f"{i}.jsonl").read_bytes() == jsonl.encode()
        paths = export_svg_ortho(geometry, tmp_path / f"{i}")
        assert [p.name for p in paths] == [f"frame_{t:03d}.svg" for t in range(32)]
        for path, svg in zip(paths, svgs, strict=True):
            assert path.read_bytes() == svg.encode(), (i, path.name)


# signed zeros, subnormals, and magnitudes whose lengths and centers overflow or underflow
EXPORT_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308, 0.5, -1.25,
                 1.0 / 3.0, 2.0**52 + 1, 123456.789]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, (32, N_FEATURES), elements=st.sampled_from(EXPORT_VALUES)), st.integers(0, 31))
def test_jsonl_has_the_bytes_of_json_dumps_on_any_floats(tmp_path_factory, data, collapsed):
    data[collapsed, 33:36] = data[collapsed, 12:15]  # hand_l onto shoulder_l: a bone of length 0 in that frame
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        geometry = build_geometry(MotionSequence(data, normalized=False, name="h"))
        jsonl, _ = render_files_by_frame(geometry)
    path = export_jsonl(geometry, tmp_path_factory.mktemp("jsonl") / "h.jsonl")
    assert path.read_bytes() == jsonl.encode()


def test_export_dispatch_and_errors(tmp_path):
    seq = demo_sequence()
    geometry = build_geometry(seq)
    empty = Geometry(geometry.spheres[:0], geometry.centers[:0], geometry.axes[:0], geometry.lengths[:0], geometry.bones)
    with pytest.raises(DataError):
        export_jsonl(empty, tmp_path / "x.jsonl")
    with pytest.raises(DataError):
        export_svg_ortho(empty, tmp_path)
    with pytest.raises(ContractError):
        render_sequence(seq, "obj", tmp_path)
    assert render_sequence(seq, "jsonl", tmp_path) == 1
    assert (tmp_path / f"{seq.name}.jsonl").exists()


def test_golden_fixtures_are_reproduced(tmp_path):
    """Byte-identical regeneration of checked-in exports of the demo pose."""
    geometry = build_geometry(demo_sequence())
    jsonl = export_jsonl(geometry, tmp_path / "demo.jsonl")
    assert jsonl.read_bytes() == (GOLDEN / "demo.jsonl").read_bytes(), pinned_on()
    svgs = export_svg_ortho(geometry, tmp_path / "svg")
    assert svgs[0].read_bytes() == (GOLDEN / "frame_000.svg").read_bytes(), pinned_on()
    assert svgs[17].read_bytes() == (GOLDEN / "frame_017.svg").read_bytes(), pinned_on()
