"""Geometric augmentation: isometries, scaling exactness, dataset arithmetic."""

import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from mocapsynth.augment import AugmentSpec, augment_dataset
from mocapsynth.dataset import MotionSequence, SequenceSet, TrialMeta, load_sequences, save_sequences
from mocapsynth.errors import ContractError, SettingError, StateError
from mocapsynth.markers import BOWL, SHOULDERS, WAIST
from mocapsynth.seeding import derive_rng

from oracles import augmented_copy_by_broadcasting, pairwise_distances, rotate_xy_about, same_bits
from pins import pinned_on
from toys import rotate_about_bowl_start, scale_about_torso, torso_centers, translate_xy


def meta(**overrides) -> TrialMeta:
    base = dict(
        participant="p03",
        bowl_size="large",
        weight_g=1640,
        balance="unbalanced",
        orientation="left",
        strategy="G",
        frame_rate=119.88,
    )
    base.update(overrides)
    return TrialMeta(**base)


def world_sequence(rng) -> MotionSequence:
    return MotionSequence(rng.uniform(-2, 2, size=(32, 48)), normalized=False, meta=meta())


# -- translate -------------------------------------------------------------------


def test_translate_zero_is_identity():
    rng = np.random.default_rng(0)
    seq = world_sequence(rng)
    out = translate_xy(seq, 0.0, 0.0)
    npt.assert_array_equal(out.data, seq.data)


def test_translate_shifts_x_exactly():
    rng = np.random.default_rng(1)
    seq = world_sequence(rng)
    out = translate_xy(seq, 0.2, 0.0)
    pts0, pts1 = seq.points(), out.points()
    npt.assert_allclose(pts1[:, :, 0] - pts0[:, :, 0], 0.2, atol=1e-15)
    npt.assert_array_equal(pts1[:, :, 1:], pts0[:, :, 1:])
    npt.assert_array_equal(out.data[:, 2::3], seq.data[:, 2::3])


def test_translate_preserves_pairwise_distances():
    rng = np.random.default_rng(2)
    seq = world_sequence(rng)
    out = translate_xy(seq, rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
    for f in (0, 13, 31):
        d0 = pairwise_distances(seq.points()[f])
        d1 = pairwise_distances(out.points()[f])
        npt.assert_allclose(d1, d0, atol=1e-12)


# -- scale -----------------------------------------------------------------------


def test_scale_one_is_identity():
    rng = np.random.default_rng(3)
    seq = world_sequence(rng)
    npt.assert_allclose(scale_about_torso(seq, 1.0).data, seq.data, atol=1e-15)


def test_scale_marker_to_center_distances():
    rng = np.random.default_rng(4)
    seq = world_sequence(rng)
    out = scale_about_torso(seq, 0.85)
    centers = torso_centers(seq)
    for f in (0, 17, 31):
        d0 = np.linalg.norm(seq.points()[f] - centers[f], axis=1)
        d1 = np.linalg.norm(out.points()[f] - centers[f], axis=1)
        npt.assert_allclose(d1, 0.85 * d0, atol=1e-12)


def test_scale_includes_bowl():
    rng = np.random.default_rng(5)
    seq = world_sequence(rng)
    out = scale_about_torso(seq, 0.5)
    assert not np.allclose(out.points()[:, BOWL], seq.points()[:, BOWL])


def test_scale_keeps_symmetric_pairs_symmetric():
    seq = MotionSequence(np.zeros((32, 48)), meta=meta())
    pts = seq.points()
    pts[:, :, :] = 1.0
    c = torso_centers(seq)[0]
    pts[:, 0] = c + [0.3, 0.1, 0.2]
    pts[:, 1] = c - [0.3, 0.1, 0.2]
    # markers 0 and 1 now sit symmetric about the torso center of frame 0;
    # other markers are all at 1.0 so the center stays fixed
    out = scale_about_torso(MotionSequence(pts.reshape(32, 48), meta=meta()), 1.3)
    c_after = torso_centers(seq)[0]
    npt.assert_allclose(out.points()[0, 0] - c_after, -(out.points()[0, 1] - c_after), atol=1e-12)


def test_scale_inverse_recovers_original():
    rng = np.random.default_rng(6)
    seq = world_sequence(rng)
    out = scale_about_torso(scale_about_torso(seq, 1.15), 1.0 / 1.15)
    npt.assert_allclose(out.data, seq.data, atol=1e-9)


def test_scale_rejects_nonpositive_factor():
    # augment_dataset draws every scale factor from [scale_lo, scale_hi]
    with pytest.raises(SettingError):
        AugmentSpec(scale_lo=0.0)
    with pytest.raises(SettingError):
        AugmentSpec(scale_lo=-1.0)


# -- rotate ----------------------------------------------------------------------


def test_rotate_zero_is_identity():
    rng = np.random.default_rng(8)
    seq = world_sequence(rng)
    npt.assert_allclose(rotate_about_bowl_start(seq, 0.0).data, seq.data, atol=1e-15)
    npt.assert_allclose(rotate_about_bowl_start(seq, 360.0).data, seq.data, atol=1e-15)


def test_rotate_fixes_bowl_start():
    rng = np.random.default_rng(9)
    seq = world_sequence(rng)
    pivot = seq.points()[0, BOWL, :2].copy()
    for angle in (10.0, 90.0, 183.7, 270.0):
        out = rotate_about_bowl_start(seq, angle)
        npt.assert_allclose(out.points()[0, BOWL, :2], pivot, atol=1e-12)
        # z of every marker untouched
        npt.assert_array_equal(out.points()[:, :, 2], seq.points()[:, :, 2])


def test_rotate_east_to_north():
    # a point 1 m east of the pivot lands 1 m north after 90 degrees CCW
    seq = MotionSequence(np.zeros((32, 48)), meta=meta())
    pts = seq.points()
    pts[:, BOWL] = [2.0, 3.0, 0.0]  # pivot at (2, 3)
    pts[:, 0] = [3.0, 3.0, 0.5]  # 1 m east
    out = rotate_about_bowl_start(MotionSequence(pts.reshape(32, 48), meta=meta()), 90.0)
    npt.assert_allclose(out.points()[0, 0], [2.0, 4.0, 0.5], atol=1e-12)


def test_rotate_matches_rotation_matrix_oracle():
    rng = np.random.default_rng(10)
    for _ in range(20):
        seq = world_sequence(rng)
        angle = rng.uniform(0, 360)
        out = rotate_about_bowl_start(seq, angle)
        pivot = np.append(seq.points()[0, BOWL, :2], 0.0)
        for f in (0, 31):
            want = rotate_xy_about(seq.points()[f], math.radians(angle), pivot)
            npt.assert_allclose(out.points()[f], want, atol=1e-12)


def test_rotate_preserves_pairwise_distances():
    rng = np.random.default_rng(11)
    seq = world_sequence(rng)
    out = rotate_about_bowl_start(seq, 47.3)
    for f in (0, 15, 31):
        npt.assert_allclose(
            pairwise_distances(out.points()[f]), pairwise_distances(seq.points()[f]), atol=1e-12
        )


# -- dataset expansion --------------------------------------------------------------


def test_world_space_required_everywhere():
    seq = MotionSequence(np.zeros((32, 48)), normalized=True, meta=meta())
    # a factor of 1 copies nothing, but an archive of its output would lack the norm stats
    for spec in (AugmentSpec(factor=1), AugmentSpec(factor=2)):
        with pytest.raises(StateError):
            augment_dataset([seq], spec)
        with pytest.raises(StateError):
            augment_dataset(SequenceSet.of([seq, seq]), spec)


def test_augment_counts():
    rng = np.random.default_rng(12)
    seqs_386 = [world_sequence(rng) for _ in range(386)]
    assert len(augment_dataset(seqs_386, AugmentSpec(factor=10, seed=1))) == 3860
    seqs_795 = [world_sequence(rng) for _ in range(795)]
    assert len(augment_dataset(seqs_795, AugmentSpec(factor=27, seed=1))) == 21465


def test_augment_factor_one_is_input():
    rng = np.random.default_rng(13)
    seqs = SequenceSet.of([world_sequence(rng) for _ in range(5)])
    out = augment_dataset(seqs, AugmentSpec(factor=1, seed=0))
    assert out is seqs


def test_augment_zeroed_ranges_reproduce_input_data():
    rng = np.random.default_rng(14)
    seqs = [world_sequence(rng) for _ in range(3)]
    spec = AugmentSpec(translate_m=0.0, scale_lo=1.0, scale_hi=1.0, rotate_lo_deg=0.0, rotate_hi_deg=0.0, factor=4, seed=0)
    out = augment_dataset(seqs, spec)
    assert len(out) == 12
    for i, seq in enumerate(seqs):
        for j in range(4):
            npt.assert_allclose(out[4 * i + j].data, seq.data, atol=1e-12)


def test_augment_originals_first_and_labels_verbatim():
    rng = np.random.default_rng(15)
    seqs = [world_sequence(rng) for _ in range(4)]
    out = augment_dataset(seqs, AugmentSpec(factor=3, seed=7))
    for i, seq in enumerate(seqs):
        assert np.array_equal(out[3 * i].data, seq.data) and out[3 * i].name == seq.name
        for j in range(3):
            assert out[3 * i + j].meta == seq.meta


def test_augment_deterministic_under_seed():
    rng = np.random.default_rng(16)
    seqs = [world_sequence(rng) for _ in range(6)]
    a = augment_dataset(seqs, AugmentSpec(factor=5, seed=42))
    b = augment_dataset(seqs, AugmentSpec(factor=5, seed=42))
    c = augment_dataset(seqs, AugmentSpec(factor=5, seed=43))
    assert len(a) == len(b) == len(c) == 30
    for x, y in zip(a, b):
        npt.assert_array_equal(x.data, y.data)
        assert x.name == y.name
    assert any(not np.array_equal(x.data, y.data) for x, y in zip(a, c))


@pytest.mark.parametrize("seed", [0, 42, 2**32 + 5])
def test_augment_dataset_equals_the_public_transforms_composed(seed):
    # each copy of the block must be bit-identical to rotate -> scale -> translate
    # made one copy at a time from the same stream
    rng = np.random.default_rng(18)
    seqs = [world_sequence(rng) for _ in range(4)]
    spec = AugmentSpec(factor=5, seed=seed)
    out = augment_dataset(seqs, spec)
    for i, seq in enumerate(seqs):
        for j in range(1, 5):
            draw = derive_rng(seed, "augment", i, j)
            angle = draw.uniform(spec.rotate_lo_deg, spec.rotate_hi_deg)
            factor = draw.uniform(spec.scale_lo, spec.scale_hi)
            dx = draw.uniform(-spec.translate_m, spec.translate_m)
            dy = draw.uniform(-spec.translate_m, spec.translate_m)
            want = translate_xy(scale_about_torso(rotate_about_bowl_start(seq, angle), factor), dx, dy)
            got = out[5 * i + j]
            assert np.array_equal(got.data, want.data)
            assert got.name == f"{seq.name}+a{j}"


def world_points_with_zeros(rng, n, unit):
    """n world-space sequences (32, 16, 3) in metres times unit, with exact zeros of both signs.

    The zeros sit in the frame-0 bowl (the pivot), in whole torso
    columns (so a centre adds -0.0 to -0.0) and at random elsewhere.
    """
    pts = rng.uniform(-4.0, 4.0, size=(n, 32, 16, 3)) * unit
    pts[..., 2] = rng.uniform(0.0, 2.0, size=(n, 32, 16)) * unit
    pts[0, 0, BOWL, :2] = 0.0
    pts[1, 0, BOWL, :2] = -0.0
    pts[0, :, list(SHOULDERS), 0] = -0.0
    pts[1, :, list(WAIST), 2] = -0.0
    pts[2, :, list(SHOULDERS) + list(WAIST), 1] = -0.0
    pts[rng.uniform(size=pts.shape) < 0.05] = -0.0
    pts[rng.uniform(size=pts.shape) < 0.05] = 0.0
    return pts


@pytest.mark.parametrize("factor", [2, 27])
@pytest.mark.parametrize("unit", [1.0, 1000.0], ids=["m", "mm"])
@pytest.mark.parametrize("ranges", [
    {},
    dict(rotate_lo_deg=-720.0, rotate_hi_deg=720.0, scale_lo=0.5, scale_hi=2.0, translate_m=3.0),
    dict(rotate_lo_deg=0.0, rotate_hi_deg=0.0, scale_lo=1.0, scale_hi=1.0, translate_m=0.0),
], ids=["default", "wide", "identity"])
def test_the_block_kernels_have_the_bits_of_the_per_copy_oracle(factor, unit, ranges):
    pts = world_points_with_zeros(np.random.default_rng(23), 4, unit)
    spec = AugmentSpec(factor=factor, seed=31, **ranges)
    out = augment_dataset([MotionSequence(p.reshape(32, 48)) for p in pts], spec)
    for i in range(len(pts)):
        assert same_bits(out[factor * i].data, pts[i].reshape(32, 48))
        for j in range(1, factor):
            draw = derive_rng(spec.seed, "augment", i, j)
            angle = draw.uniform(spec.rotate_lo_deg, spec.rotate_hi_deg)
            scale = draw.uniform(spec.scale_lo, spec.scale_hi)
            dx = draw.uniform(-spec.translate_m, spec.translate_m)
            dy = draw.uniform(-spec.translate_m, spec.translate_m)
            want = augmented_copy_by_broadcasting(pts[i], angle, scale, dx, dy)
            assert same_bits(out[factor * i + j].data, want.reshape(32, 48)), (i, j)


def test_augment_dataset_bytes_are_pinned():
    # the composition test above cannot see a change of arithmetic order that the
    # single-copy transforms share with the block; the digest was taken from an
    # implementation that transformed one copy at a time
    rng = np.random.default_rng(19)
    seqs = [MotionSequence(rng.uniform(-2, 2, size=(32, 48))) for _ in range(3)]
    out = augment_dataset(seqs, AugmentSpec(factor=4, seed=11))
    digest = hashlib.sha256(b"".join(s.data.tobytes() for s in out)).hexdigest()
    assert digest == "b8c3ac34906d5be9b1b6215068b937a737e481be8dec2d7b3305826a4e786955", pinned_on()


@pytest.mark.parametrize("factor", [1, 3, 27])
def test_ranges_of_rows_augmented_into_one_buffer_are_the_rows_of_the_whole(factor):
    rng = np.random.default_rng(21)
    seqs = SequenceSet.of([world_sequence(rng) for _ in range(13)])
    spec = AugmentSpec(factor=factor, seed=5)
    whole = augment_dataset(seqs, spec)
    buffer = np.empty((5 * factor, 32, 48))
    for lo in range(0, 13, 5):
        part = augment_dataset(seqs, spec, range(lo, min(lo + 5, 13)), out=buffer)
        assert np.shares_memory(part.data, buffer)
        assert np.array_equal(part.data, whole.data[lo * factor : (lo + 5) * factor])
        assert part.names == whole.names[lo * factor : (lo + 5) * factor]
        assert part.labels == whole.labels[lo * factor : (lo + 5) * factor]


@pytest.mark.parametrize("rows", [range(0, 4, 2), range(2, 5), range(3, 2)])
def test_rows_outside_the_input_are_refused(rows):
    seqs = [world_sequence(np.random.default_rng(22)) for _ in range(4)]
    with pytest.raises(ContractError):
        augment_dataset(seqs, AugmentSpec(factor=2), rows)


def _read_only(block):
    block.flags.writeable = False
    return block


@pytest.mark.parametrize("make_out", [
    lambda: np.empty((4, 48, 32)).transpose(0, 2, 1),  # a reshape of it would copy
    lambda: np.empty((8, 32, 48))[::2],
    lambda: np.empty((3, 32, 48)),  # too short for 2 inputs x 2 copies
    lambda: np.empty((4, 48, 32)),
    lambda: np.empty((4, 32, 48), dtype=np.float32),
    lambda: _read_only(np.empty((4, 32, 48))),
    lambda: [[0.0] * 48] * 32,
], ids=["transposed", "strided", "short", "row-shape", "float32", "read-only", "list"])
def test_out_blocks_that_cannot_take_the_copies_are_refused(make_out):
    seqs = [world_sequence(np.random.default_rng(23)) for _ in range(4)]
    with pytest.raises(ContractError, match="out must be"):
        augment_dataset(seqs, AugmentSpec(factor=2), range(1, 3), out=make_out())


def test_augment_and_save_hold_about_one_copy_of_the_output(tmp_path, traced_peak):
    # tracemalloc sees numpy's buffers, so the bound counts copies of the data
    # and does not depend on the machine; a list of views plus a stacked copy
    # for the write would peak near 2x
    rng = np.random.default_rng(20)
    seqs = [world_sequence(rng) for _ in range(40)]
    with traced_peak() as traced:
        out = augment_dataset(seqs, AugmentSpec(factor=9, seed=2))
        save_sequences(tmp_path / "augmented.bin", out)
    assert len(out) == 360
    assert traced.peak <= 1.5 * out.data.nbytes, f"peak {traced.peak / out.data.nbytes:.2f}x the output block"


def test_a_loaded_augmented_archive_holds_one_label_per_source(tmp_path, traced_peak):
    # the archive lists a label per row; loaded, the copies of a source share
    # one TrialMeta, so beyond its block the set holds little but the names
    # (about 90 B a row, where a TrialMeta per row adds about 400 B)
    rng = np.random.default_rng(21)
    n, factor = 20, 50
    seqs = [MotionSequence(rng.uniform(-2, 2, size=(32, 48)), meta=meta(participant=f"p{i:02d}"), name=f"s{i:02d}")
            for i in range(n)]
    save_sequences(tmp_path / "augmented.bin", augment_dataset(seqs, AugmentSpec(factor=factor, seed=2)))
    with traced_peak() as traced:
        loaded, _, _ = load_sequences(tmp_path / "augmented.bin")
    held = traced.held
    assert len(loaded) == n * factor and len({id(m) for m in loaded.labels}) == n
    assert held - loaded.data.nbytes <= 200 * len(loaded), f"{(held - loaded.data.nbytes) / len(loaded):.0f} B a row"


def test_augmented_samples_differ_from_original():
    rng = np.random.default_rng(17)
    seqs = [world_sequence(rng)]
    out = augment_dataset(seqs, AugmentSpec(factor=8, seed=3))
    distinct = {out[j].data.tobytes() for j in range(8)}
    assert len(distinct) == 8


def test_spec_validation_and_json_round_trip():
    with pytest.raises(SettingError):
        AugmentSpec(factor=0)
    with pytest.raises(SettingError):
        AugmentSpec(scale_lo=-0.1)
    with pytest.raises(SettingError):
        AugmentSpec(scale_lo=1.2, scale_hi=0.8)
    for bad in (dict(translate_m=-0.1), dict(rotate_lo_deg=50.0, rotate_hi_deg=10.0), dict(translate_m=math.inf),
                dict(rotate_lo_deg=-1e308, rotate_hi_deg=1e308), dict(scale_hi=math.nan)):
        with pytest.raises(SettingError):
            AugmentSpec(**bad)
    spec = AugmentSpec(translate_m=0.1, factor=3, seed=9)
    assert AugmentSpec.from_dict(spec.to_dict()) == spec
