"""Trial I/O, motion trimming, resampling, normalization, cluster split."""

import json
from collections import Counter

import hypothesis.extra.numpy as hnp
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import csv_bytes_per_value, csv_rows_per_value

from mocapsynth.classifier import BRANCH_COLUMNS, cluster_views
from mocapsynth.dataset import (
    MotionSequence,
    SequenceSet,
    NormStats,
    Trial,
    TrialMeta,
    apply_zscore,
    centered_indices,
    fit_normalizer,
    invert_zscore,
    load_trial,
    load_trials,
    read_sequence_csv,
    resample_centered,
    resample_uniform,
    save_trial,
    trim_to_motion,
    uniform_indices,
    write_sequence_csv,
)
from mocapsynth.dataset.preprocess import NORMALIZE_CHUNK_FRAMES, SEQUENCE_LENGTH
from mocapsynth.dataset.synthetic import (
    CORPUS_STRATEGY_COUNTS,
    CORPUS_WEIGHT_COUNTS,
    make_corpus,
    make_trial,
    write_corpus,
)
from mocapsynth.dataset.trials import _write_csv_rows
from mocapsynth.errors import (
    ContractError,
    DegenerateFeatureError,
    NoMotionError,
    StateError,
    TooShortError,
    TrialFormatError,
)
from mocapsynth.markers import BOWL, C7, CLUSTERS, CSV_COLUMNS, CSV_COLUMNS_NO_C7, N_BODY_MARKERS, N_FEATURES, N_MARKERS


def meta(**overrides) -> TrialMeta:
    base = dict(
        participant="p01",
        bowl_size="medium",
        weight_g=1140,
        balance="balanced",
        orientation="facing",
        strategy="B",
        frame_rate=119.88,
    )
    base.update(overrides)
    return TrialMeta(**base)


def bowl_path_trial(positions, name="t") -> Trial:
    """Trial where only the bowl moves along `positions` ((N, 3) array)."""
    positions = np.asarray(positions, dtype=float)
    coords = np.tile(np.arange(48, dtype=float) * 0.01, (len(positions), 1))
    coords[:, 3 * BOWL : 3 * BOWL + 3] = positions
    return Trial(name, coords, meta())


def random_sequence(rng, normalized=False) -> MotionSequence:
    return MotionSequence(rng.normal(size=(32, 48)), normalized=normalized, meta=meta())


# -- metadata and file format ---------------------------------------------------


def test_csv_column_layout():
    assert CSV_COLUMNS[0] == "marker0_x"
    assert CSV_COLUMNS[-1] == "bowl_z"
    assert len(CSV_COLUMNS) == 48


def test_meta_rejects_unknown_enum_naming_field():
    with pytest.raises(TrialFormatError, match="strategy"):
        meta(strategy="Z")
    with pytest.raises(TrialFormatError, match="bowl_size"):
        meta(bowl_size="huge")
    with pytest.raises(TrialFormatError, match="weight_g"):
        meta(weight_g=500)


def test_largest_bowl_never_light():
    with pytest.raises(TrialFormatError):
        meta(bowl_size="largest", weight_g=640)
    meta(bowl_size="largest", weight_g=1640)  # fine


def test_trial_rejects_bad_coords():
    with pytest.raises(TrialFormatError):
        Trial("t", np.ones((10, 47)), meta())
    bad = np.ones((10, 48))
    bad[3, 7] = np.nan
    with pytest.raises(TrialFormatError):
        Trial("t", bad, meta())


def test_save_load_round_trip_three_fixtures(tmp_path):
    rng = np.random.default_rng(0)
    originals = []
    for i, strat in enumerate("ABC"):
        t = Trial(f"fx{i}", rng.uniform(-2, 2, size=(40, 48)).round(4), meta(strategy=strat))
        save_trial(tmp_path, t)
        originals.append(t)
    result = load_trials(tmp_path)
    assert len(result.trials) == 3 and result.skipped_missing_c7 == 0
    for orig, back in zip(originals, result.trials):
        assert back.name == orig.name
        assert back.meta == orig.meta
        npt.assert_array_equal(back.coords, orig.coords)


def test_reserialization_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    t = Trial("canon", rng.uniform(-2, 2, size=(12, 48)), meta())
    csv_path, json_path = save_trial(tmp_path, t)
    first_csv, first_json = csv_path.read_bytes(), json_path.read_bytes()
    back = load_trial(csv_path)
    out = tmp_path / "again"
    csv2, json2 = save_trial(out, back)
    assert csv2.read_bytes() == first_csv
    assert json2.read_bytes() == first_json


def test_malformed_row_names_file_and_line(tmp_path):
    t = Trial("bad", np.zeros((4, 48)), meta())
    csv_path, _ = save_trial(tmp_path, t)
    lines = csv_path.read_text().split("\n")
    lines[3] = lines[3].rsplit(",", 1)[0]  # drop one value from row 2 (line 4)
    csv_path.write_text("\n".join(lines))
    with pytest.raises(TrialFormatError, match="line 4"):
        load_trial(csv_path)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, database=None)
@given(rows=hnp.arrays(np.float64, st.tuples(st.integers(0, 4), st.just(48)), elements=finite))
@example(rows=np.array([[-0.0, 5e-7, -5e-7, 1e300, 4.9999995e-7, -1e-300] * 8]))
def test_writer_bytes_match_per_value_formatting(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "written.csv"
    write_sequence_csv(rows, path)
    assert path.read_bytes() == csv_bytes_per_value(CSV_COLUMNS, rows)
    no_c7 = rows[:, 3:]
    _write_csv_rows(CSV_COLUMNS_NO_C7, no_c7, path)
    assert path.read_bytes() == csv_bytes_per_value(CSV_COLUMNS_NO_C7, no_c7)


# fields float() and np.loadtxt may read differently, or only one of them reads
ODD_FIELDS = ["", " ", "#", "#1", "1_0", "1__0", "_1", " 1.5 ", "1\r", "\r", "nan", "-nan", "NaN", "inf",
              "-Infinity", "1e400", "-1e-400", "0x1p3", "1d3", "+.5", "5.", "\x1c1", "1\x1f", "\x0b1",
              "\u30001", "\u0661", "1\u2028", "1,2", "1\n", "1\r2", '"1"', "1j", "\x00"]
canonical_row = st.lists(finite.map(lambda v: f"{v:.6f}"), min_size=48, max_size=48)
odd_row = st.tuples(canonical_row, st.integers(0, 47), st.sampled_from(ODD_FIELDS) | st.text(max_size=3),
                    st.integers(-1, 1))


def _odd_line(parts):
    fields, at, odd, extra = parts
    fields = fields[:at] + [odd] + fields[at + 1 :]
    if extra < 0:
        fields = fields[:-1]
    elif extra > 0:
        fields = fields + ["0.0"]
    return ",".join(fields)


csv_line = canonical_row.map(",".join) | odd_row.map(_odd_line) | st.sampled_from(["", " ", "#", "\r"])


ZERO_ROW = ",".join(["0.000000"] * 48)


@settings(derandomize=True, database=None, max_examples=300)
@example(lines=[ZERO_ROW, "", ZERO_ROW], head_end="\n", newline="\n", tail="\n")
@example(lines=[ZERO_ROW + "\r" + ZERO_ROW, ""], head_end="\n", newline="\n", tail="\n")
@example(lines=[ZERO_ROW.replace("0.000000", "1_0", 1)], head_end="\n", newline="\n", tail="\n")
@example(lines=[ZERO_ROW.replace("0.000000", "\x1c1", 1)], head_end="\n", newline="\n", tail="\n")
@example(lines=[ZERO_ROW.replace("0.000000", "1\x1f", 1)], head_end="\n", newline="\n", tail="")
@given(lines=st.lists(csv_line, max_size=4), head_end=st.sampled_from(["\n", "\r\n"]),
       newline=st.sampled_from(["\n", "\r\n"]), tail=st.sampled_from(["", "\n", "\n\n"]))
def test_reader_matches_per_value_float(tmp_path_factory, lines, head_end, newline, tail):
    path = tmp_path_factory.getbasetemp() / "read.csv"
    text = ",".join(CSV_COLUMNS) + head_end + newline.join(lines) + tail
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        want = csv_rows_per_value(path, CSV_COLUMNS, TrialFormatError)
    except (TrialFormatError, UnicodeDecodeError) as exc:
        with pytest.raises(type(exc)) as got:
            read_sequence_csv(path)
        assert str(got.value) == str(exc)
        return
    got = read_sequence_csv(path)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_missing_sidecar_and_bad_json(tmp_path):
    t = Trial("solo", np.zeros((4, 48)), meta())
    csv_path, json_path = save_trial(tmp_path, t)
    json_path.write_text("{not json")
    with pytest.raises(TrialFormatError, match="JSON"):
        load_trial(csv_path)
    json_path.unlink()
    with pytest.raises(TrialFormatError, match="sidecar"):
        load_trial(csv_path)


@pytest.mark.parametrize(
    "edit, key",
    [
        (5, "JSON object"),
        ([], "JSON object"),
        ({"frame_rate": "fast"}, "frame_rate"),
        ({"frame_rate": True}, "frame_rate"),
        ({"frame_rate": 0}, "frame_rate"),
        ({"frame_rate": -119.88}, "frame_rate"),
        ({"frame_rate": float("inf")}, "frame_rate"),
        ({"frame_rate": float("nan")}, "frame_rate"),
        ({"weight_g": 1140.0}, "weight_g"),
        ({"weight_g": True}, "weight_g"),
        ({"weight_g": "1140"}, "weight_g"),
        ({"participant": 1}, "participant"),
        ({"strategy": ["A"]}, "strategy"),
        ({"bowl_size": None}, "bowl_size"),
    ],
)
def test_sidecar_values_must_have_their_types(tmp_path, edit, key):
    csv_path, json_path = save_trial(tmp_path, Trial("typed", np.zeros((4, 48)), meta()))
    doc = {**json.loads(json_path.read_text()), **edit} if isinstance(edit, dict) else edit
    json_path.write_text(json.dumps(doc))
    with pytest.raises(TrialFormatError, match=key):
        load_trial(csv_path)


def test_sidecar_frame_rate_may_be_a_whole_number(tmp_path):
    csv_path, json_path = save_trial(tmp_path, Trial("whole", np.zeros((4, 48)), meta()))
    json_path.write_text(json.dumps({**json.loads(json_path.read_text()), "frame_rate": 120}))
    assert load_trial(csv_path).meta.frame_rate == 120


def test_empty_directory_loads_nothing(tmp_path):
    result = load_trials(tmp_path)
    assert result.trials == [] and result.skipped_missing_c7 == 0


def test_corpus_load_skips_c7_less_files(tmp_path):
    write_corpus(tmp_path, seed=3)
    assert len(list(tmp_path.glob("*.csv"))) == 858
    result = load_trials(tmp_path)
    assert len(result.trials) == 805
    assert result.skipped_missing_c7 == 53


def test_corpus_label_frequencies():
    trials = make_corpus(seed=2, carry=40)
    assert Counter(t.meta.strategy for t in trials) == Counter(CORPUS_STRATEGY_COUNTS)
    assert Counter(t.meta.weight_g for t in trials) == Counter(CORPUS_WEIGHT_COUNTS)
    assert not any(t.meta.bowl_size == "largest" and t.meta.weight_g == 640 for t in trials)
    assert len({t.meta.participant for t in trials}) == 13


# -- motion trimming -------------------------------------------------------------


def test_trim_known_motion_window():
    # static frames 0..100, constant-speed motion 101..500, static after
    n = 600
    pos = np.zeros((n, 3))
    step = 0.002  # 0.24 m/s at 119.88 Hz
    for i in range(101, 501):
        pos[i] = pos[i - 1] + [step, 0, 0]
    for i in range(501, n):
        pos[i] = pos[500]
    trimmed = trim_to_motion(bowl_path_trial(pos), speed_threshold=0.05, hold_frames=12)
    assert trimmed.n_frames == 400
    npt.assert_array_equal(trimmed.coords, bowl_path_trial(pos).coords[101:501])


def test_trim_always_moving_is_identity():
    n = 80
    pos = np.cumsum(np.full((n, 3), 0.002), axis=0)
    t = bowl_path_trial(pos)
    trimmed = trim_to_motion(t)
    npt.assert_array_equal(trimmed.coords, t.coords)


def test_trim_static_raises_no_motion():
    with pytest.raises(NoMotionError):
        trim_to_motion(bowl_path_trial(np.zeros((100, 3))))


def test_trim_brief_spike_is_not_sustained():
    pos = np.zeros((100, 3))
    pos[50] = [0.5, 0, 0]  # single-frame twitch
    pos[51:] = 0.0
    with pytest.raises(NoMotionError):
        trim_to_motion(bowl_path_trial(pos), hold_frames=12)


def test_trim_short_motion_raises_too_short():
    pos = np.zeros((100, 3))
    for i in range(40, 60):
        pos[i] = pos[i - 1] + [0.002, 0, 0]
    pos[60:] = pos[59]
    with pytest.raises(TooShortError):
        trim_to_motion(bowl_path_trial(pos), hold_frames=12)


def test_trim_synthetic_corpus_trial():
    t = make_trial("s", meta(), np.random.default_rng(5), lead_in=25, carry=120, lead_out=25)
    trimmed = trim_to_motion(t)
    assert 32 <= trimmed.n_frames <= 120


# -- resampling -------------------------------------------------------------------


def test_centered_indices_long_trial():
    idx = centered_indices(1199)
    assert len(idx) == 32
    assert np.all(np.diff(idx) == 12)
    # the strided window is centered on the midpoint frame 599
    assert (idx[0] + idx[-1]) / 2 == 599
    npt.assert_array_equal(idx, 413 + 12 * np.arange(32))


def test_centered_indices_500_frames():
    # brute-force expectation: stride 12 spans 372, centered on 250
    want = 64 + 12 * np.arange(32)
    npt.assert_array_equal(centered_indices(500), want)
    assert want[-1] == 436


def test_centered_indices_exactly_32_is_identity():
    npt.assert_array_equal(centered_indices(32), np.arange(32))


@pytest.mark.parametrize("stride", [0, -50])
def test_centered_indices_rejects_a_stride_below_one(stride):
    with pytest.raises(ContractError):
        centered_indices(500, stride)


def test_centered_indices_short_trials_shrink_stride():
    for n in range(32, 380):
        idx = centered_indices(n)
        assert len(idx) == 32
        assert idx[0] >= 0 and idx[-1] < n
        assert np.all(np.diff(idx) >= 1)
        stride = idx[1] - idx[0]
        if n >= 373:
            assert stride == 12
        else:
            assert stride == max(1, (n - 1) // 31)


def test_uniform_indices_examples():
    npt.assert_array_equal(uniform_indices(32), np.arange(32))
    npt.assert_array_equal(uniform_indices(63), np.arange(0, 63, 2))
    idx = uniform_indices(1199)
    assert idx[0] == 0 and idx[-1] == 1198
    assert idx[1] == 39 and idx[2] == 77
    # brute-force rounding oracle
    want = [int(round(i * 1198 / 31)) for i in range(32)]
    npt.assert_array_equal(idx, want)


def test_both_resamplers_return_strictly_increasing_in_range():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(32, 2000))
        for idx in (centered_indices(n), uniform_indices(n)):
            assert len(idx) == 32
            assert np.all(np.diff(idx) > 0) or (n == 32 or np.all(np.diff(idx) >= 1))
            assert idx[0] >= 0 and idx[-1] < n
            assert np.all(np.diff(idx) >= 1)


def test_resample_too_short_raises():
    t = bowl_path_trial(np.zeros((31, 3)))
    with pytest.raises(TooShortError):
        resample_centered(t)
    with pytest.raises(TooShortError):
        resample_uniform(t)


def test_resample_returns_motion_sequences():
    rng = np.random.default_rng(7)
    t = Trial("r", rng.normal(size=(200, 48)), meta())
    for seq in (resample_centered(t), resample_uniform(t)):
        assert seq.data.shape == (32, 48)
        assert not seq.normalized
        assert seq.meta == t.meta


# -- normalization ----------------------------------------------------------------


def test_fit_normalizer_flags_constant_feature():
    rng = np.random.default_rng(8)
    seqs = [random_sequence(rng) for _ in range(4)]
    for s in seqs:
        s.data[:, 0] = 5.0
    with pytest.raises(DegenerateFeatureError) as exc:
        fit_normalizer(seqs)
    assert exc.value.feature_index == 0
    assert str(exc.value) == "feature 0 (head_fl_x) has zero variance"
    for s in seqs:
        s.data[:, 0] = np.arange(32)
        s.data[:, 47] = 1.5
    with pytest.raises(DegenerateFeatureError) as exc:
        fit_normalizer(SequenceSet.of(seqs))
    assert exc.value.feature_index == 47
    assert str(exc.value) == "feature 47 (bowl_z) has zero variance"


def test_fit_normalizer_standard_normal_statistics():
    rng = np.random.default_rng(9)
    seqs = [random_sequence(rng) for _ in range(100)]
    stats = fit_normalizer(seqs)
    assert np.all(np.abs(stats.mean) < 0.08)
    assert np.all(np.abs(stats.std - 1.0) < 0.08)


def test_fit_normalizer_two_sequence_hand_computed():
    a = np.zeros((32, 48))
    b = np.ones((32, 48)) * 3.0
    a[:, 5] = -1.0
    b[:, 5] = 5.0
    seqs = [MotionSequence(a), MotionSequence(b)]
    stats = fit_normalizer(seqs)
    npt.assert_allclose(stats.mean[0], 1.5, atol=1e-12)
    npt.assert_allclose(stats.std[0], 1.5, atol=1e-12)
    npt.assert_allclose(stats.mean[5], 2.0, atol=1e-12)
    npt.assert_allclose(stats.std[5], 3.0, atol=1e-12)


def test_zscore_arithmetic_and_round_trip():
    stats = NormStats(np.full(48, 1.0), np.full(48, 2.0))
    seq = SequenceSet.of([MotionSequence(np.full((32, 48), 5.0))])
    z = apply_zscore(seq, stats)
    npt.assert_allclose(z.data, 2.0)
    assert z.normalized
    back = invert_zscore(z, stats)
    npt.assert_allclose(back.data, seq.data, atol=1e-9)
    assert not back.normalized


def test_zscore_state_errors():
    stats = NormStats(np.zeros(48), np.ones(48))
    seq = SequenceSet.of([MotionSequence(np.zeros((32, 48)))])
    z = apply_zscore(seq, stats)
    with pytest.raises(StateError):
        apply_zscore(z, stats)
    with pytest.raises(StateError):
        invert_zscore(seq, stats)


def test_normalized_training_set_is_standard():
    rng = np.random.default_rng(10)
    seqs = [MotionSequence(rng.normal(loc=3, scale=7, size=(32, 48))) for _ in range(20)]
    stats = fit_normalizer(seqs)
    z = apply_zscore(SequenceSet.of(seqs), stats).data.reshape(-1, 48)
    assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-9)


CHUNK_SEQUENCES = NORMALIZE_CHUNK_FRAMES // SEQUENCE_LENGTH


def float_bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    # 32 frames; one below, exactly and one above a chunk; several chunks
    n=st.sampled_from([1, CHUNK_SEQUENCES - 1, CHUNK_SEQUENCES, CHUNK_SEQUENCES + 1, 3 * CHUNK_SEQUENCES + 5]),
    scale_exp=st.integers(-3, 6),
    offset=st.sampled_from([0.0, 1.0, -37.5, 2.5e4, -3e6, 1e9]),
    constant=st.none() | st.integers(0, N_FEATURES - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_normalizer_is_numpys_mean_and_std_bit_for_bit(n, scale_exp, offset, constant, seed):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** (scale_exp + rng.uniform(-1, 1, size=N_FEATURES))
    data = offset * rng.uniform(0.5, 1.0, size=N_FEATURES) + scales * rng.normal(size=(n, 32, N_FEATURES))
    if constant is not None:
        data[:, :, constant] = offset + 0.1
    frames = data.reshape(-1, N_FEATURES)
    mean, std = frames.mean(axis=0), frames.std(axis=0)
    degenerate = np.flatnonzero(std <= 1e-12 * np.maximum(1.0, np.abs(mean)))
    seqs = SequenceSet(data, [f"s{i}" for i in range(n)], [None] * n)
    if degenerate.size:
        with pytest.raises(DegenerateFeatureError) as exc:
            fit_normalizer(seqs)
        assert exc.value.feature_index == degenerate[0]
    else:
        stats = fit_normalizer(seqs)
        npt.assert_array_equal(float_bits(stats.mean), float_bits(mean))
        npt.assert_array_equal(float_bits(stats.std), float_bits(std))


def standardish_set(n: int, seed: int) -> SequenceSet:
    rng = np.random.default_rng(seed)
    return SequenceSet.of([MotionSequence(rng.normal(loc=3, scale=7, size=(32, 48))) for _ in range(n)])


def test_zscore_into_a_block_is_the_copying_result_bit_for_bit():
    seqs = standardish_set(5, 12)
    stats = fit_normalizer(seqs)
    source = seqs.data.copy()
    copied = apply_zscore(seqs, stats)
    npt.assert_array_equal(float_bits(seqs.data), float_bits(source))  # the copying path leaves its input alone
    out = np.empty((5, 32, 48))
    into = apply_zscore(seqs, stats, out=out)
    assert np.shares_memory(into.data, out) and into.normalized
    npt.assert_array_equal(float_bits(out), float_bits(copied.data))
    in_place = apply_zscore(seqs, stats, out=seqs.data)
    assert np.shares_memory(in_place.data, seqs.data)
    npt.assert_array_equal(float_bits(seqs.data), float_bits(copied.data))
    assert in_place.names == seqs.names and in_place.labels == seqs.labels


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("make_out", [
    lambda: np.full((4, 48, 32), 7.0).transpose(0, 2, 1),
    lambda: np.full((8, 32, 48), 7.0)[::2],
    lambda: np.full((3, 32, 48), 7.0),
    lambda: np.full((4, 32, 47), 7.0),
    lambda: np.full((4, 32, 48), 7.0, dtype=np.float32),
    lambda: _read_only(np.full((4, 32, 48), 7.0)),
    lambda: [[[7.0] * 48] * 32] * 4,
], ids=["transposed", "strided", "short", "row-shape", "float32", "read-only", "list"])
def test_zscore_refuses_an_out_it_cannot_fill_and_writes_nothing(make_out):
    seqs = standardish_set(4, 13)
    stats = fit_normalizer(seqs)
    out = make_out()
    with pytest.raises(ContractError, match="out must be"):
        apply_zscore(seqs, stats, out=out)
    assert np.all(np.asarray(out) == 7.0)


def test_fit_normalizer_rejects_empty_and_normalized():
    with pytest.raises(StateError):
        fit_normalizer([])
    rng = np.random.default_rng(11)
    with pytest.raises(StateError):
        fit_normalizer([random_sequence(rng, normalized=True)])


# -- cluster split ----------------------------------------------------------------


def one_view(seq):
    """The three branch views of one sequence, each (32, width)."""
    return tuple(v[0] for v in cluster_views(seq.data[None]))


def test_cluster_widths():
    rng = np.random.default_rng(12)
    cluster1, cluster2, cluster3 = one_view(random_sequence(rng, normalized=True))
    assert cluster1.shape == (32, 21)
    assert cluster2.shape == (32, 15)
    assert cluster3.shape == (32, 21)


def test_c7_identical_across_clusters():
    rng = np.random.default_rng(13)
    seq = random_sequence(rng, normalized=True)
    cluster1, cluster2, cluster3 = one_view(seq)
    c7 = seq.data[:, 3 * C7 : 3 * C7 + 3]
    npt.assert_array_equal(cluster1[:, -3:], c7)  # C7 is last in cluster 1
    npt.assert_array_equal(cluster2[:, 6:9], c7)  # after two shoulders
    npt.assert_array_equal(cluster3[:, 12:15], c7)  # after four waist markers


def test_sentinel_marker_appears_in_exactly_its_clusters():
    for marker in range(N_MARKERS):
        seq = MotionSequence(np.zeros((32, 48)), normalized=True)
        seq.data[:, 3 * marker : 3 * marker + 3] = 77.0
        hits = [np.any(c == 77.0) for c in one_view(seq)]
        want = [marker in cl for cl in CLUSTERS]
        assert hits == want, f"marker {marker}"


def test_cluster_union_recovers_body_markers():
    markers = set()
    for cl in BRANCH_COLUMNS:
        assert len(cl) in (21, 15)
        markers.update(c // 3 for c in cl)
    assert markers == set(range(N_BODY_MARKERS))
    assert BOWL not in markers
