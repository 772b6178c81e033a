"""End-to-end exercises of the command line front end.

Shared module-scoped fixtures run each pipeline stage once; individual
tests assert on exit codes, artifact contents, and the resolved-config
snapshots.
"""

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mocapsynth.augment import AugmentSpec, augment_dataset
from mocapsynth.classifier import TASKS, HierarchicalClassifier, HierarchicalNetSpec
from mocapsynth import cli
from mocapsynth.cli import AUGMENT_CHUNK_ROWS, COMMANDS, UsageError, _resolve, build_parser, main
from mocapsynth.container import read_container, write_container
from mocapsynth.dataset import (ArchiveRows, MotionSequence, NormStats, load_sequences, load_trials,
                                read_sequence_csv, save_sequences, write_sequence_csv)
from mocapsynth.dataset.preprocess import NORMALIZE_CHUNK_FRAMES
from mocapsynth.dataset.synthetic import make_trial
from mocapsynth.dataset.trials import Trial, TrialMeta, _write_csv_rows, save_trial
from mocapsynth.markers import CSV_COLUMNS_NO_C7
from mocapsynth.seeding import derive_rng

from pins import pinned_on

WEIGHTS = (640, 1140, 1640)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    for i in range(12):
        meta = TrialMeta(
            participant=f"p{i % 3:02d}",
            bowl_size="medium",
            weight_g=WEIGHTS[i % 3],
            balance=("balanced", "unbalanced")[i % 2],
            orientation="facing",
            strategy="ABC"[i % 3],
            frame_rate=119.88,
        )
        save_trial(directory, make_trial(f"t{i:03d}", meta, derive_rng(99, "cli", i), carry=120))
    return directory


@pytest.fixture(scope="module")
def archive(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("ingest")
    assert main(["ingest", "--input", str(corpus_dir), "--out", str(out), "--seed", "1"]) == 0
    return out / "sequences.bin"


@pytest.fixture(scope="module")
def augmented(archive, tmp_path_factory):
    out = tmp_path_factory.mktemp("augment")
    rc = main(["augment", "--input", str(archive), "--out", str(out), "--factor", "3", "--seed", "1"])
    assert rc == 0
    return out / "sequences.bin"


@pytest.fixture(scope="module")
def gan_dir(augmented, tmp_path_factory):
    out = tmp_path_factory.mktemp("gan")
    rc = main([
        "train-gan", "--input", str(augmented), "--out", str(out),
        "--kind", "wgan-gp", "--epochs", "1", "--batch", "4",
        "--critic-steps", "2", "--seed", "5",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def cond_gan_dir(augmented, tmp_path_factory):
    out = tmp_path_factory.mktemp("cgan")
    rc = main([
        "train-gan", "--input", str(augmented), "--out", str(out),
        "--kind", "cond-wgan-gp", "--epochs", "1", "--batch", "4",
        "--critic-steps", "2", "--seed", "5",
    ])
    assert rc == 0
    return out


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["ingest"]) == 2
    assert "--input is required" in capsys.readouterr().err


def test_nonexistent_input_is_runtime_error(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("sidecar, key", [("5", "JSON object"), ('{"frame_rate": "fast"}', "frame_rate")])
def test_ingest_refuses_a_sidecar_of_the_wrong_type(corpus_dir, tmp_path, capsys, sidecar, key):
    trials = tmp_path / "trials"
    trials.mkdir()
    (trials / "t000.csv").write_bytes((corpus_dir / "t000.csv").read_bytes())
    doc = json.loads(sidecar)
    if isinstance(doc, dict):
        doc = {**json.loads((corpus_dir / "t000.json").read_text()), **doc}
    (trials / "t000.json").write_text(json.dumps(doc))
    rc = main(["ingest", "--input", str(trials), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert key in one_error_line(capsys)


@pytest.mark.parametrize("flags, doc", [(["--stride", "0"], None), (["--stride", "-50"], None), ([], {"stride": 0})],
                         ids=["flag-0", "flag-minus-50", "config-0"])
def test_ingest_rejects_a_stride_below_one(corpus_dir, tmp_path, capsys, flags, doc):
    if doc is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        flags = ["--config", str(tmp_path / "cfg.json")]
    rc = main(["ingest", "--input", str(corpus_dir), "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert "--stride" in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [("--hold-frames", "0"), ("--speed-threshold", "-1")])
def test_ingest_checks_its_trim_settings_before_reading_a_trial(corpus_dir, tmp_path, capsys, flag, value):
    # an empty directory, and one whose first trial holds a NaN, would
    # otherwise fail as data errors before any trial reaches trimming
    (tmp_path / "empty").mkdir()
    (tmp_path / "nan").mkdir()
    lines = (corpus_dir / "t000.csv").read_text().split("\n")
    lines[1] = "nan" + lines[1][lines[1].index(","):]
    (tmp_path / "nan" / "t000.csv").write_text("\n".join(lines))
    (tmp_path / "nan" / "t000.json").write_bytes((corpus_dir / "t000.json").read_bytes())
    for directory in ("empty", "nan"):
        rc = main(["ingest", "--input", str(tmp_path / directory), "--out", str(tmp_path / "o"), flag, value])
        assert rc == 2
        assert flag in one_error_line(capsys)
        assert not (tmp_path / "o").exists()


def test_ingest_holds_one_parsed_trial_at_a_time(tmp_path, capsys, traced_peak):
    # tracemalloc sees numpy's buffers. Each trial has 640 frames (240 KB of
    # coordinates), of which ingest keeps one 32-frame row (12 KB) in a block
    # of a row per file, so its peak grows by the rows, not by the trials
    meta = TrialMeta("p00", "medium", 1140, "balanced", "facing", "B")
    peaks = {}
    for n in (8, 40):
        for i in range(n):
            save_trial(tmp_path / str(n), make_trial(f"t{i:03d}", meta, derive_rng(4, "long", i), carry=600))
        with traced_peak() as traced:
            rc = main(["ingest", "--input", str(tmp_path / str(n)), "--out", str(tmp_path / f"o{n}")])
        peaks[n] = traced.peak
        assert rc == 0
    rows_bytes = (40 - 8) * 32 * 48 * 8
    assert peaks[40] - peaks[8] <= 1.5 * rows_bytes + 64 * 1024, f"grew {(peaks[40] - peaks[8]) / rows_bytes:.2f}x the rows"


@pytest.mark.parametrize("flags", [["--translate", "-0.1"], ["--rotate-lo", "50", "--rotate-hi", "10"],
                                   ["--translate", "inf"]], ids=["negative-translate", "reversed-rotation", "infinite"])
def test_augment_refuses_a_range_it_cannot_draw_from(tmp_path, capsys, flags):
    # the spec is checked before the archive is opened: the input does not exist
    rc = main(["augment", "--input", str(tmp_path / "missing.bin"), "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert "range" in one_error_line(capsys)


def test_ingest_writes_archive_and_snapshot(archive):
    sequences, stats, extra = load_sequences(archive)
    assert len(sequences) == 12
    assert all(s.data.shape == (32, 48) for s in sequences)
    assert all(not s.normalized for s in sequences)
    assert stats is None
    assert extra["skipped_missing_c7"] == 0
    snapshot = json.loads((archive.parent / "resolved-config.json").read_text())
    assert snapshot["subcommand"] == "ingest"
    assert snapshot["seed"] == 1
    assert snapshot["resample"] == "centered"


def test_stats_table_matches_corpus(corpus_dir, tmp_path, capsys):
    assert main(["stats", "--input", str(corpus_dir), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "records: 12" in out
    for name in ("heavy", "heavier", "heaviest"):
        assert f"{name}: 4" in out
    assert "balanced: 6" in out
    assert "participants: 3" in out
    # taken while stats still held every parsed trial
    digest = hashlib.sha256((tmp_path / "stats.json").read_bytes()).hexdigest()
    assert digest == "4f4f3cd0d84b519beb43ace1218ae11262733c4dc7b83bec089e23c181be1dfc", pinned_on()


def test_stats_json_on_archive(archive, tmp_path, capsys):
    assert main(["stats", "--input", str(archive), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "stats.json").read_text())
    assert doc["records"] == 12
    assert doc["weight"] == {"heavy": 4, "heavier": 4, "heaviest": 4}
    assert doc["strategy"] == {"A": 4, "B": 4, "C": 4}


def test_stats_reads_no_row_of_an_archive(archive, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("stats read a row")

    monkeypatch.setattr(ArchiveRows, "_read", refuse)  # every row read goes through it
    assert main(["stats", "--input", str(archive)]) == 0
    assert "records: 12" in capsys.readouterr().out


def test_augment_expands_and_keeps_labels(augmented):
    sequences, _, extra = load_sequences(augmented)
    assert len(sequences) == 36
    assert all(s.meta is not None for s in sequences)
    assert "augment" in extra


def test_augment_reports_a_truncated_archive(archive, tmp_path, capsys):
    cut = tmp_path / "cut.bin"
    cut.write_bytes(archive.read_bytes()[:100])
    rc = main(["augment", "--input", str(cut), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def source_archive(path, n, normalized=False):
    """n random sequences, every third unlabelled, saved with a provenance note (and stats when normalized)."""
    rng = np.random.default_rng(n)
    seqs = []
    for i in range(n):
        meta = None if i % 3 == 2 else TrialMeta(
            participant=f"p{i % 4:02d}", bowl_size="small", weight_g=WEIGHTS[i % 3], balance="balanced",
            orientation="facing", strategy="ABC"[i % 3], frame_rate=119.88)
        seqs.append(MotionSequence(rng.uniform(-2, 2, size=(32, 48)), normalized, meta, f"s{i:04d}"))
    stats = NormStats(np.zeros(48), np.ones(48)) if normalized else None
    save_sequences(path, seqs, stats=stats, extra={"source": "test"})
    return path


def augmented_in_memory(path, factor, seed):
    """The bytes of the archive augment_dataset and save_sequences make of the archive at path."""
    sequences, _, extra = load_sequences(path)
    spec = AugmentSpec(factor=factor, seed=seed)
    out = path.with_name("in-memory.bin")
    save_sequences(out, augment_dataset(sequences, spec),
                   extra={**extra, "augment": json.dumps(spec.to_dict(), sort_keys=True)})
    data = out.read_bytes()
    out.unlink()
    return data


def sources_per_chunk(factor):
    return max(1, AUGMENT_CHUNK_ROWS // factor)


# (factor, sources): one source; one below and one above a chunk of sources; one source per chunk
STREAM_CASES = [(f, n) for f in (1, 2, 27) for n in (1, sources_per_chunk(f) - 1, sources_per_chunk(f) + 1)]
STREAM_CASES.append((AUGMENT_CHUNK_ROWS + 1, 2))


@pytest.mark.parametrize("factor, n", STREAM_CASES, ids=[f"factor{f}-{n}src" for f, n in STREAM_CASES])
def test_the_streamed_archive_is_the_in_memory_one(tmp_path, capsys, factor, n):
    src = source_archive(tmp_path / "src.bin", n)
    want = augmented_in_memory(src, factor, seed=7)
    rc = main(["augment", "--input", str(src), "--out", str(tmp_path / "o"), "--factor", str(factor), "--seed", "7"])
    assert rc == 0
    assert (tmp_path / "o" / "sequences.bin").read_bytes() == want
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["resolved-config.json", "sequences.bin"]


def test_augment_may_replace_its_own_input(tmp_path, capsys):
    # the source is read whole before the rename puts the new archive in its place
    src = source_archive(tmp_path / "sequences.bin", sources_per_chunk(3) + 1)
    want = augmented_in_memory(src, 3, seed=2)
    assert main(["augment", "--input", str(src), "--out", str(tmp_path), "--factor", "3", "--seed", "2"]) == 0
    assert src.read_bytes() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["resolved-config.json", "sequences.bin"]


@pytest.mark.parametrize("factor", [1, 2])
def test_augment_refuses_a_normalized_archive(tmp_path, capsys, factor):
    src = source_archive(tmp_path / "src.bin", 4, normalized=True)
    rc = main(["augment", "--input", str(src), "--out", str(tmp_path / "o"), "--factor", str(factor)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "world-space" in err[0]
    assert not list((tmp_path / "o").glob("*.bin")) and not list((tmp_path / "o").glob("*.tmp"))


def test_augment_memory_does_not_grow_with_the_factor(tmp_path, capsys, traced_peak):
    # tracemalloc sees numpy's buffers. Held whole, the factor-27 output
    # would be 27 source blocks; streamed, the run holds the source, one
    # chunk buffer of about 3 MB and the header, whose names and labels
    # are the only part that grows with the factor (about 2 MB here)
    n = 120
    src = source_archive(tmp_path / "src.bin", n)
    source_bytes = n * 32 * 48 * 8
    peaks = {}
    for factor in (3, 27):
        with traced_peak() as traced:
            rc = main(["augment", "--input", str(src), "--out", str(tmp_path / str(factor)), "--factor", str(factor)])
        peaks[factor] = traced.peak
        assert rc == 0
    buffer_bytes = sources_per_chunk(27) * 27 * 32 * 48 * 8
    assert peaks[27] <= peaks[3] + buffer_bytes, peaks
    assert peaks[27] <= 6 * source_bytes, f"peak {peaks[27] / source_bytes:.2f}x the source block"


def test_augment_past_any_memory_is_a_runtime_error(archive, tmp_path, capsys):
    # numpy refuses a buffer of 10**12 copies at once, before any name is made
    rc = main(["augment", "--input", str(archive), "--out", str(tmp_path / "o"), "--factor", str(10**12)])
    assert rc == 1
    assert "needs more memory than it could get" in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_train_classifier_holds_about_one_copy_of_its_training_block(archive, tmp_path, capsys, caplog, traced_peak):
    # tracemalloc sees numpy's buffers. The weight task trains on 6 of the 12
    # sequences, so at factor 400 the augmented block is 2,400 rows (29.5 MB).
    # Z-scored in place, with each batch's branch views cut as it is drawn,
    # the run holds that block, the archive and one batch's graph; a z-scored
    # copy and whole-set views would add about two blocks more
    factor = 400
    block_bytes = 6 * factor * 32 * 48 * 8
    caplog.set_level("INFO")
    with traced_peak() as traced:
        rc = main(["train-classifier", "--input", str(archive), "--out", str(tmp_path / "clf"), "--task", "weight",
                   "--epochs", "1", "--val-size", "2", "--augment-factor", str(factor), "--seed", "3"])
    assert rc == 0
    assert "training on 2400 sequences" in caplog.text
    assert traced.peak <= 1.5 * block_bytes, f"peak {traced.peak / block_bytes:.2f}x the training block"


def test_train_classifier_reads_only_its_task_rows(archive, tmp_path, capsys, caplog, traced_peak):
    # tracemalloc sees numpy's buffers. A x300 copy of the 12-sequence archive
    # has 3,600 rows, of which the weight task's two classes use 2,400: at
    # --augment-factor 1 and --val-size 2 the training block is those rows
    # less 2 (29.5 MB). Read from the file, they are all the run holds of the
    # archive, beside a few chunks of the normalizer fit; a loaded archive and
    # copies of its task's rows come to 2.5 blocks
    big = tmp_path / "x300.bin"
    assert main(["augment", "--input", str(archive), "--out", str(tmp_path / "aug"), "--factor", "300", "--seed", "2"]) == 0
    (tmp_path / "aug" / "sequences.bin").rename(big)
    block_bytes = 2398 * 32 * 48 * 8
    caplog.set_level("INFO")
    with traced_peak() as traced:
        rc = main(["train-classifier", "--input", str(big), "--out", str(tmp_path / "clf"), "--task", "weight",
                   "--epochs", "1", "--val-size", "2", "--augment-factor", "1", "--seed", "3"])
    assert rc == 0
    assert "training on 2398 sequences" in caplog.text
    assert traced.peak <= 1.5 * block_bytes, f"peak {traced.peak / block_bytes:.2f}x the training block"


def test_train_gan_set_up_holds_about_one_copy_of_the_archive(tmp_path, monkeypatch, capsys, traced_peak):
    # the stats are fitted a chunk of frames at a time and no block is loaded:
    # a full-size (x - mean) or a z-scored copy would double the peak
    n = 2000
    src = source_archive(tmp_path / "src.bin", n)
    block_bytes = n * 32 * 48 * 8
    chunk_bytes = NORMALIZE_CHUNK_FRAMES * 48 * 8

    class Stop(Exception):
        pass

    def stop_before_training(spec, sequences, **kwargs):
        assert sequences.normalized and len(sequences) == n
        raise Stop

    monkeypatch.setattr(cli, "train_gan", stop_before_training)
    with traced_peak() as traced, pytest.raises(Stop):
        main(["train-gan", "--input", str(src), "--out", str(tmp_path / "gan")])
    # the chunk, its join with the running sum, and the archive header's names and labels
    assert traced.peak <= block_bytes + 4 * chunk_bytes, f"peak {traced.peak / block_bytes:.2f}x the loaded block"


def test_train_gan_memory_grows_by_the_labels_not_the_rows(tmp_path, capsys, traced_peak):
    # tracemalloc sees numpy's buffers. The run holds the archive's names,
    # labels and stats and reads each batch's rows from the file, so 5x the
    # rows may add a few dozen bytes of names and labels per row, not the
    # rows' 12,288 bytes each
    peaks = {}
    for n in (40, 200):
        src = source_archive(tmp_path / f"src{n}.bin", n)
        with traced_peak() as traced:
            rc = main(["train-gan", "--input", str(src), "--out", str(tmp_path / f"gan{n}"), "--epochs", "1",
                       "--batch", "8", "--critic-steps", "5"])
        peaks[n] = traced.peak
        assert rc == 0
    row_bytes = 32 * 48 * 8
    assert peaks[200] - peaks[40] <= 160 * 1024, f"grew {(peaks[200] - peaks[40]) / (160 * row_bytes):.2f}x the rows"


def _hostile_archive(path, src, case):
    """A copy of the sequence archive at src with one fault in its data array."""
    if case in ("float32", "row-shape"):
        sequences, _, extra = load_sequences(src)
        data = sequences.data.astype(np.float32) if case == "float32" else sequences.data[:, :, :47]
        meta = {"normalized": False, "names": sequences.names, "extra": extra,
                "labels": [m.to_dict() if m else None for m in sequences.labels]}
        write_container(path, "sequences", meta, {"data": data})
        return
    raw = src.read_bytes()
    end = 16 + int.from_bytes(raw[8:16], "little")
    if case == "cut-in-data":
        path.write_bytes(raw[: end + 3 * 32 * 48 * 8 + 100])
    else:  # a header whose data runs past the end of the file
        header = json.loads(raw[16:end])
        header["arrays"][0]["shape"][0] += 1
        text = json.dumps(header).encode()
        path.write_bytes(raw[:8] + len(text).to_bytes(8, "little") + text + raw[end:])


@pytest.mark.parametrize("case", ["float32", "row-shape", "cut-in-data", "data-past-the-end"])
def test_train_gan_refuses_a_hostile_archive_before_training(augmented, tmp_path, capsys, case):
    bad = tmp_path / "bad.bin"
    _hostile_archive(bad, augmented, case)
    out = tmp_path / "o"
    rc = main(["train-gan", "--input", str(bad), "--out", str(out), "--epochs", "1", "--batch", "4",
               "--critic-steps", "2"])
    assert rc == 1
    assert str(bad) in one_error_line(capsys)
    assert not out.exists()


def test_config_file_precedence(archive, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"factor": 5}))

    out_a = tmp_path / "a"
    rc = main(["augment", "--input", str(archive), "--out", str(out_a), "--config", str(cfg)])
    assert rc == 0
    assert len(load_sequences(out_a / "sequences.bin")[0]) == 60

    # explicit flag wins over the config file
    out_b = tmp_path / "b"
    rc = main(["augment", "--input", str(archive), "--out", str(out_b),
               "--config", str(cfg), "--factor", "2"])
    assert rc == 0
    assert len(load_sequences(out_b / "sequences.bin")[0]) == 24
    snapshot = json.loads((out_b / "resolved-config.json").read_text())
    assert snapshot["factor"] == 2
    capsys.readouterr()


def test_config_file_errors(archive, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    rc = main(["augment", "--input", str(archive), "--out", str(tmp_path / "x"),
               "--config", str(missing)])
    assert rc == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["augment", "--input", str(archive), "--out", str(tmp_path / "y"),
               "--config", str(bad)])
    assert rc == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"fctor": 5}))
    rc = main(["augment", "--input", str(archive), "--out", str(tmp_path / "z"),
               "--config", str(unknown)])
    assert rc == 2
    assert "fctor" in capsys.readouterr().err


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


@pytest.mark.parametrize("argv, flag", [
    (["stats", "--input", "trials"], "--config"),
    (["train-classifier", "--input", "in.bin", "--task", "weight"], "--spec"),
])
def test_a_directory_as_config_or_spec_is_a_usage_error(tmp_path, capsys, argv, flag):
    rc = main(argv + ["--out", str(tmp_path / "o"), flag, str(tmp_path)])
    assert rc == 2
    assert str(tmp_path) in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, doc, key",
    [
        (["augment", "--input", "in.bin"], {"factor": "2"}, "factor"),
        (["augment", "--input", "in.bin"], 5, "JSON object"),
        (["ingest", "--input", "trials"], {"normalize": "no"}, "normalize"),
        (["generate", "--model", "g.model", "--render"], {"render_format": "obj"}, "render_format"),
        (["train-gan", "--input", "in.bin"], {"kind": "wgan_gp"}, "kind"),
        (["augment", "--input", "in.bin"], {"factor": True}, "factor"),
        (["augment", "--input", "in.bin"], {"scale_lo": None}, "scale_lo"),
    ],
)
def test_config_values_obey_the_flag_types_and_choices(tmp_path, capsys, argv, doc, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    # the config file is checked before any input is opened
    rc = main(argv + ["--out", str(tmp_path / "o"), "--config", str(cfg)])
    assert rc == 2
    assert key in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def typed_value(setting):
    """A value of the setting's own type, so that many drawn configs resolve."""
    if setting.choices:
        return st.sampled_from(setting.choices)
    return {int: st.integers(), float: st.floats() | st.integers(), str: st.text(max_size=4),
            bool: st.booleans()}[setting.type]


@settings(derandomize=True, database=None)
@given(data=st.data())
def test_resolve_yields_declared_types_or_a_usage_error(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    declared = COMMANDS[name].settings
    picked = data.draw(st.lists(st.sampled_from(declared), unique=True, max_size=4))
    doc = data.draw(st.just({s.name: data.draw(typed_value(s) | json_values) for s in picked}) | json_values)
    cfg = tmp_path_factory.getbasetemp() / "property-cfg.json"
    cfg.write_text(json.dumps(doc))
    args = build_parser().parse_args([name, "--config", str(cfg)])
    try:
        resolved = _resolve(args, declared)
    except UsageError:
        return
    assert set(resolved) == {s.name for s in declared}
    for s in declared:
        value = resolved[s.name]
        if value is None:
            assert s.default is None
        else:
            assert type(value) in ((int, float) if s.type is float else (s.type,))
            assert not s.choices or value in s.choices


@pytest.mark.parametrize(
    "text, key",
    [
        ("{not json", "invalid JSON"),
        ("[4, 8, 8]", "JSON object"),
        (json.dumps({"bogus": 1}), "bogus"),
        (json.dumps({"n_classes": 3}), "n_classes"),
        (json.dumps({"kernel": "3"}), "kernel"),
        (json.dumps({"branch_filters": [4, 8]}), "branch_filters"),
        (json.dumps({"branch_filters": [4, 8, 8.5]}), "branch_filters[2]"),
        (json.dumps({"dropout": True}), "dropout"),
    ],
)
def test_classifier_spec_file_errors(archive, tmp_path, capsys, text, key):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    rc = main(["train-classifier", "--input", str(archive), "--out", str(tmp_path / "o"),
               "--task", "weight", "--epochs", "1", "--spec", str(spec)])
    assert rc == 2
    assert key in one_error_line(capsys)


@pytest.mark.parametrize(
    "doc, key",
    [({"dropout": 1.5}, "dropout"), ({"first_spacing": -1}, "first_spacing"), ({"kernel": 40}, "kernel")],
)
def test_classifier_spec_ranges_are_checked_before_the_archive_is_read(tmp_path, capsys, doc, key):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    rc = main(["train-classifier", "--input", str(tmp_path / "absent.bin"), "--out", str(tmp_path / "o"),
               "--task", "weight", "--spec", str(spec)])
    assert rc == 2
    assert key in one_error_line(capsys)


def test_train_and_eval_classifier(archive, tmp_path, capsys):
    clf = tmp_path / "clf"
    rc = main([
        "train-classifier", "--input", str(archive), "--out", str(clf),
        "--task", "weight", "--epochs", "3", "--batch", "4",
        "--val-size", "2", "--augment-factor", "3", "--seed", "2",
    ])
    assert rc == 0
    for name in ("classifier.model", "norm-stats.bin", "report.json", "curves.csv"):
        assert (clf / name).exists()
    report = json.loads((clf / "report.json").read_text())
    assert len(report["train_loss"]) == 3
    assert report["n_parameters"] > 0
    lines = (clf / "curves.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 4

    ev = tmp_path / "ev"
    rc = main(["eval-classifier", "--input", str(archive),
               "--model", str(clf / "classifier.model"), "--out", str(ev)])
    assert rc == 0
    doc = json.loads((ev / "eval.json").read_text())
    assert doc["task"] == "weight"
    assert 0.0 <= doc["accuracy"] <= 1.0
    confusion = np.array(doc["confusion"])
    assert confusion.shape == (2, 2)
    assert confusion.sum() == 8  # four heavy + four heaviest in the corpus
    capsys.readouterr()


def test_eval_classifier_refuses_a_normalized_archive(corpus_dir, gan_dir, tmp_path, capsys):
    # ingest --normalize z-scores with stats fitted to its own trials, not the model's training set
    ingest_input(corpus_dir, tmp_path / "trials")
    assert main(["ingest", "--input", str(tmp_path / "trials"), "--out", str(tmp_path / "in"), "--normalize"]) == 0
    model = tmp_path / "classifier.model"
    HierarchicalClassifier(HierarchicalNetSpec(n_classes=2)).save(model, {"task": "weight"})
    capsys.readouterr()
    rc = main(["eval-classifier", "--input", str(tmp_path / "in" / "sequences.bin"), "--model", str(model),
               "--stats", str(gan_dir / "norm-stats.bin"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "world-space" in one_error_line(capsys)
    assert not (tmp_path / "o").exists()


# sha256 of each train-classifier and eval-classifier output, taken when the
# task filters still walked lists of sequences; 1 and 2 BLAS threads agree
CLASSIFIER_DIGESTS = {
    "weight": {
        "classifier.model": "04fe04b16eedac907c6fb46208b2002a427b5b2b8b6e1572b0e4d6f08b78f818",
        "report.json": "5a1b5e1b64982fea8e6cd03404ba05bd3bc3f15faf765b7372dac13bc17e61b2",
        "curves.csv": "b11e1f68b5b0def4543a8a7fa0bbc7ceca221011c6076164316ba1b4bbd2e4c4",
        "norm-stats.bin": "f50552101ced619aa84fbeceacf227d3fec17490c43b31e0e215d673651769bb",
        "eval.json": "6b0a97812bbf59b15d55cb3025aeadf7fe64626bea29edcdf6c0fc8262b6fdef",
    },
    "balance": {
        "classifier.model": "37d4862def0f8ea573056e3f96dd28bb7ae3639a4e275384681335a6342507eb",
        "report.json": "23486b7499242c8c013bdac686d3cd8d3c8282045ba26c668cd77b74c9aca972",
        "curves.csv": "d81a729841665b9fa677efce2b1da71e9871c15778c0b045e5e674e71ca869bd",
        "norm-stats.bin": "a9447ae34bde4a882b57f3c681d4ab3ab52a09c75cb21bb84cff3f151215e8ca",
        "eval.json": "457ca42f8e4a38d763fcc4a7434c50c5928051fc5382191033052f08085d5f45",
    },
    "strategy": {
        "classifier.model": "23420afdd487d44e33822c19e3a6be980c2b6b6ee7b9cea8b38d44bf72a7475d",
        "report.json": "2286a5fe5343e654ecb82e60d50e0957b82e51b328061c0d4d31ee5d56af318c",
        "curves.csv": "90f1ccc433e29f5b41dcbdf34166513230ae39543363f08abf53e75d543c0f03",
        "norm-stats.bin": "a9447ae34bde4a882b57f3c681d4ab3ab52a09c75cb21bb84cff3f151215e8ca",
        "eval.json": "1c8bc91763933bc809e73535f57dc808af3a1130e3d9a7e8b5bec792683b950e",
    },
}


@pytest.mark.parametrize("task", TASKS)
def test_classifier_outputs_are_pinned(archive, tmp_path, capsys, task):
    clf, ev = tmp_path / "clf", tmp_path / "ev"
    assert main(["train-classifier", "--input", str(archive), "--out", str(clf), "--task", task,
                 "--epochs", "1", "--batch", "4", "--val-size", "2", "--augment-factor", "2", "--seed", "3"]) == 0
    assert main(["eval-classifier", "--input", str(archive), "--model", str(clf / "classifier.model"),
                 "--out", str(ev)]) == 0
    files = [clf / "classifier.model", clf / "report.json", clf / "curves.csv", clf / "norm-stats.bin", ev / "eval.json"]
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files} == CLASSIFIER_DIGESTS[task], pinned_on()
    capsys.readouterr()


def ingest_input(corpus_dir, directory, rejects=False):
    """The corpus with each trial scaled apart (its bowl height is constant).

    With rejects, a no-motion, a too-short and a C7-less trial sit among
    them, so the kept trials are not the leading files.
    """
    trials = load_trials(corpus_dir).trials
    for i, trial in enumerate(trials):
        save_trial(directory, trial.with_coords(trial.coords * (1 + i / 50)))
    if rejects:
        meta = trials[0].meta
        save_trial(directory, Trial("t003a", np.tile(trials[3].coords[:1], (80, 1)), meta))
        save_trial(directory, make_trial("t006a", meta, derive_rng(99, "short"), lead_in=5, carry=20, lead_out=5))
        no_c7 = np.delete(trials[9].points(), 6, axis=1).reshape(trials[9].n_frames, -1)
        _write_csv_rows(CSV_COLUMNS_NO_C7, no_c7, directory / "t009a.csv")
        (directory / "t009a.json").write_text("{}")


# sha256 of ingest's archive in each resampling mode, taken while ingest still
# held every parsed trial, and of the outputs of the commands that z-score an
# archive they own, taken before the z-scoring moved in place; train-gan on an
# ingest --normalize archive was pinned while train-gan still loaded the block
PINNED_DIGESTS = {
    "ingest-centered": {
        "sequences.bin": "ff4bfb98173773fc13d85bf6a7a48f0139e1fbed60d0a9fec81dd97629f67f20",
    },
    "ingest-uniform": {
        "sequences.bin": "65590292357b542549baf0a3ee386c61228ab69d0ee1efa9b4fbff838ca76049",
    },
    "ingest-normalize": {
        "sequences.bin": "d7ae0861208d02253a801812c36996eaa5c42f71832f7596df414791619c1b19",
    },
    "train-gan": {
        "generator.model": "46211b6421fe54d5e6ac6d120016574736bdb5402e9fd7c30cd9677b3485b939",
        "critic.model": "553f13f4e514d4f4e83451579b21bf4fb72e7de80e8d0514076f331f05f882df",
        "history.json": "1841f6b005a4e96ad4691da67477e6d89b2d8e81dc09d71f9a9e8161015c4a04",
        "norm-stats.bin": "57cd0eaf99833803cd9ccd8d1e808adc40360a9ddf79776a3d962b9fbd12503f",
    },
    "train-gan-normalized": {
        "generator.model": "6f52f05f450677c832a8481e5bb163a3fe450df8b17584b1b902de72d4c265b6",
        "critic.model": "2613f8a42e05af608cb6db3f0fe1a38e10b6375cab8bc183af1f6692f6855fbc",
        "history.json": "1d468889b2bc113de49a7f54e2f66767728b0c0f213be5d7e13f6328f56a4792",
        "norm-stats.bin": "f9116f9eef16d0b4967a519dec2e514333335e0e187d22671093c39101797234",
    },
}


@pytest.mark.parametrize("case", PINNED_DIGESTS)
def test_normalizing_outputs_are_pinned(corpus_dir, augmented, tmp_path, monkeypatch, capsys, case):
    if case.startswith("ingest"):
        # the archive records its --input, so the run reads it by a relative path
        ingest_input(corpus_dir, tmp_path / "trials", rejects=case != "ingest-normalize")
        monkeypatch.chdir(tmp_path)
        mode = {"ingest-uniform": ["--resample", "uniform"], "ingest-normalize": ["--normalize"]}.get(case, [])
        argv = ["ingest", "--input", "trials", "--out", "o", "--seed", "1", *mode]
    elif case == "train-gan-normalized":
        # the archive's rows are used as stored, and its own stats are saved beside the models
        ingest_input(corpus_dir, tmp_path / "trials")
        assert main(["ingest", "--input", str(tmp_path / "trials"), "--out", str(tmp_path / "in"), "--normalize"]) == 0
        argv = ["train-gan", "--input", str(tmp_path / "in" / "sequences.bin"), "--out", str(tmp_path / "o"),
                "--kind", "wgan-gp", "--epochs", "2", "--batch", "4", "--critic-steps", "2", "--seed", "6"]
    else:
        argv = ["train-gan", "--input", str(augmented), "--out", str(tmp_path / "o"), "--kind", "wgan-gp",
                "--epochs", "1", "--batch", "4", "--critic-steps", "2", "--seed", "6"]
    assert main(argv) == 0
    if case in ("ingest-centered", "ingest-uniform"):
        extra = load_sequences(tmp_path / "o" / "sequences.bin")[2]
        assert [extra[f"skipped_{why}"] for why in ("missing_c7", "no_motion", "too_short")] == [1, 1, 1]
    want = PINNED_DIGESTS[case]
    assert {name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest() for name in want} == want, pinned_on()
    capsys.readouterr()


@pytest.mark.parametrize("sizes", [["--val-size", "-1"], ["--val-size", "2", "--augment-factor", "0"]],
                         ids=["negative-val-size", "zero-augment-factor"])
def test_classifier_task_sizes_are_checked(archive, tmp_path, capsys, sizes):
    rc = main(["train-classifier", "--input", str(archive), "--out", str(tmp_path / "o"),
               "--task", "weight", "--epochs", "1"] + sizes)
    assert rc == 2
    assert "validation size" in one_error_line(capsys)


def test_train_gan_refuses_more_critic_steps_than_an_epoch_has_batches(augmented, tmp_path, capsys):
    # 36 sequences give 4 full batches of 8: a group of 15 critic steps never fills
    out = tmp_path / "o"
    rc = main(["train-gan", "--input", str(augmented), "--out", str(out), "--epochs", "1", "--batch", "8",
               "--critic-steps", "15"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: --critic-steps: 36 sequences give 4 full batches of 8"), err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_train_gan_artifacts(gan_dir):
    for name in ("generator.model", "critic.model", "norm-stats.bin", "history.json"):
        assert (gan_dir / name).exists()
    history = json.loads((gan_dir / "history.json").read_text())
    assert history["gen_updates"] == 4
    assert history["critic_updates"] == 8
    assert all(np.isfinite(history["w_estimate"]))


def test_generate_writes_sequences(gan_dir, tmp_path, capsys):
    out = tmp_path / "gen"
    rc = main(["generate", "--model", str(gan_dir / "generator.model"),
               "--out", str(out), "--count", "2", "--render", "--seed", "7"])
    assert rc == 0
    capsys.readouterr()
    for i in range(2):
        csv = out / f"generated{i:04d}.csv"
        assert csv.exists()
        coords = read_sequence_csv(csv)
        assert coords.shape == (32, 48)
        assert np.isfinite(coords).all()
        assert (out / f"generated{i:04d}.jsonl").exists()


def test_generate_is_seed_deterministic(gan_dir, tmp_path, capsys):
    outs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        rc = main(["generate", "--model", str(gan_dir / "generator.model"),
                   "--out", str(out), "--count", "1", "--seed", "7"])
        assert rc == 0
        outs.append((out / "generated0000.csv").read_bytes())
    assert outs[0] == outs[1]

    other = tmp_path / "r3"
    rc = main(["generate", "--model", str(gan_dir / "generator.model"),
               "--out", str(other), "--count", "1", "--seed", "8"])
    assert rc == 0
    assert (other / "generated0000.csv").read_bytes() != outs[0]
    capsys.readouterr()


def test_generate_refuses_a_critic_checkpoint(gan_dir, tmp_path, capsys):
    rc = main(["generate", "--model", str(gan_dir / "critic.model"),
               "--stats", str(gan_dir / "norm-stats.bin"), "--out", str(tmp_path / "g")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "not a generator" in err[0]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_generate_rejects_a_count_below_one(gan_dir, tmp_path, capsys, count):
    rc = main(["generate", "--model", str(gan_dir / "generator.model"),
               "--out", str(tmp_path / "g"), "--count", count])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--count" in err[0]


def test_conditional_generate_label_flow(cond_gan_dir, gan_dir, tmp_path, capsys):
    model = str(cond_gan_dir / "generator.model")
    out = tmp_path / "ok"
    rc = main(["generate", "--model", model, "--out", str(out), "--count", "1",
               "--label", "weight=heaviest,balance=unbalanced", "--seed", "3"])
    assert rc == 0
    assert (out / "generated0000.csv").exists()

    # conditional generator without a label is a data error, not a crash
    rc = main(["generate", "--model", model, "--out", str(tmp_path / "a"), "--count", "1"])
    assert rc == 1

    # labels on an unconditional generator are refused
    rc = main(["generate", "--model", str(gan_dir / "generator.model"),
               "--out", str(tmp_path / "b"), "--count", "1",
               "--label", "weight=heavy,balance=balanced"])
    assert rc == 1

    rc = main(["generate", "--model", model, "--out", str(tmp_path / "c"),
               "--count", "1", "--label", "heaviest"])
    assert rc == 2
    capsys.readouterr()


def test_conditional_training_names_an_unlabelled_row(augmented, tmp_path, capsys):
    sequences, _, _ = load_sequences(augmented)
    sequences.labels[5] = None
    archive = tmp_path / "unlabelled.bin"
    save_sequences(archive, sequences)
    rc = main(["train-gan", "--input", str(archive), "--out", str(tmp_path / "o"),
               "--kind", "cond-wgan-gp", "--epochs", "1", "--batch", "4", "--critic-steps", "2"])
    assert rc == 1
    assert repr(sequences.names[5]) in one_error_line(capsys)


def _rewritten_generator(gan_dir, path, case):
    """A copy of the trained generator checkpoint with one fault."""
    meta, arrays = read_container(gan_dir / "generator.model")
    if case == "no-architecture":
        del meta["architecture"]
    elif case == "dense-without-fout":
        meta["architecture"] = [{"layer": "dense", "fin": 4}]
    elif case == "missing-array":
        del arrays["layer000.weight"]
    elif case == "wrong-shape":
        arrays["layer000.weight"] = arrays["layer000.weight"][:-1]
    elif case == "spec-kernel-0":  # the spec's layers refuse it as they are built
        meta["extra"]["spec"]["kernel"] = 0
    write_container(path, "model", meta, arrays)


@pytest.mark.parametrize(
    "command, case",
    [
        ("generate", "classifier"),
        ("generate", "no-architecture"),
        ("generate", "dense-without-fout"),
        ("generate", "missing-array"),
        ("generate", "wrong-shape"),
        ("generate", "spec-kernel-0"),
        ("eval-classifier", "generator"),
        ("eval-classifier", "string-kernel"),
        ("eval-classifier", "unknown-array"),
    ],
)
def test_hostile_checkpoints_exit_1(archive, gan_dir, tmp_path, capsys, command, case):
    model = tmp_path / "m.model"
    if case == "classifier":
        HierarchicalClassifier(HierarchicalNetSpec(n_classes=2)).save(model, {"task": "weight"})
    elif case == "generator":
        model = gan_dir / "generator.model"
    elif case == "string-kernel":
        write_container(model, "model", {"architecture": {"hierarchical": {"n_classes": 2, "kernel": "3"}}}, {})
    elif case == "unknown-array":
        HierarchicalClassifier(HierarchicalNetSpec(n_classes=2)).save(model, {"task": "weight"})
        meta, arrays = read_container(model)
        write_container(model, "model", meta, {**arrays, "junk.extra": np.zeros(3)})
    else:
        _rewritten_generator(gan_dir, model, case)
    argv = [command, "--model", str(model), "--stats", str(gan_dir / "norm-stats.bin"), "--out", str(tmp_path / "o")]
    if command == "eval-classifier":
        argv += ["--input", str(archive)]
    assert main(argv) == 1
    one_error_line(capsys)


@pytest.mark.parametrize("key, value", [("conv_filters", [192, 96, 47]), ("noise_dim", 50)])
def test_generate_refuses_a_spec_that_disagrees_with_the_architecture(gan_dir, tmp_path, capsys, key, value):
    # the architecture rebuilds the model and the spec sets the noise width:
    # a checkpoint whose two records disagree is refused before sampling
    meta, arrays = read_container(gan_dir / "generator.model")
    meta["extra"]["spec"][key] = value
    model = tmp_path / "edited.model"
    write_container(model, "model", meta, arrays)
    out = tmp_path / "o"
    rc = main(["generate", "--model", str(model), "--stats", str(gan_dir / "norm-stats.bin"),
               "--out", str(out), "--count", "1"])
    assert rc == 1
    assert "does not match the saved architecture" in one_error_line(capsys)
    assert not out.exists()


def test_a_checkpoint_spec_of_the_wrong_type_exits_1(gan_dir, tmp_path, capsys):
    # the spec's type check refuses the value, but it came from a file, not from a setting
    meta, arrays = read_container(gan_dir / "generator.model")
    meta["extra"]["spec"]["noise_dim"] = "16"
    model = tmp_path / "typed.model"
    write_container(model, "model", meta, arrays)
    out = tmp_path / "o"
    rc = main(["generate", "--model", str(model), "--stats", str(gan_dir / "norm-stats.bin"), "--out", str(out)])
    assert rc == 1
    assert "noise_dim" in one_error_line(capsys)
    assert not out.exists()


def test_dcgan_summary_reports_its_discriminator_loss(augmented, tmp_path, capsys):
    rc = main(["train-gan", "--input", str(augmented), "--out", str(tmp_path / "dc"), "--kind", "dcgan",
               "--epochs", "1", "--batch", "4", "--seed", "5"])
    assert rc == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("trained dcgan")]
    history = json.loads((tmp_path / "dc" / "history.json").read_text())
    assert "nan" not in line
    assert line.endswith(f"last discriminator loss {history['d_loss'][-1]:.4f}")


@pytest.mark.parametrize(
    "text, key",
    [('{"bones": 5}', "bones"), ("nope", "not JSON"), ('{"bones": [["c7"]]}', "bones[0]"), (b"\xff{", "not JSON")],
)
def test_hostile_topology_files_exit_1(archive, tmp_path, capsys, text, key):
    sequences, _, _ = load_sequences(archive)
    csv = tmp_path / "one.csv"
    write_sequence_csv(sequences[0].data, csv)
    topology = tmp_path / "t.json"
    topology.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = main(["render", "--input", str(csv), "--out", str(tmp_path / "o"), "--format", "jsonl",
               "--topology", str(topology)])
    assert rc == 1
    assert key in one_error_line(capsys)


def test_render_archive_jsonl(archive, tmp_path, capsys):
    out = tmp_path / "rend"
    rc = main(["render", "--input", str(archive), "--out", str(out), "--format", "jsonl"])
    assert rc == 0
    files = sorted(p.name for p in out.glob("*.jsonl"))
    assert len(files) == 12
    assert files[0] == "t000.jsonl"
    capsys.readouterr()


def test_render_bare_csv_svg(archive, tmp_path, capsys):
    sequences, _, _ = load_sequences(archive)
    csv = tmp_path / "solo.csv"
    write_sequence_csv(sequences[0].data, csv)
    out = tmp_path / "svg"
    rc = main(["render", "--input", str(csv), "--out", str(out), "--format", "svg_ortho"])
    assert rc == 0
    capsys.readouterr()
    frames = sorted((out / "solo").glob("frame_*.svg"))
    assert len(frames) == 32
    assert frames[0].name == "frame_000.svg"
    text = frames[0].read_text()
    assert text.startswith("<?xml")


@pytest.mark.parametrize("fmt", ["jsonl", "svg_ortho"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_render_refuses_a_non_finite_coordinate(archive, tmp_path, capsys, fmt, bad):
    sequences, _, _ = load_sequences(archive)
    data = sequences[0].data.copy()
    data[5, 7] = float(bad)
    csv = tmp_path / "odd.csv"
    write_sequence_csv(data, csv)
    assert bad in csv.read_text()
    out = tmp_path / "o"
    rc = main(["render", "--input", str(csv), "--out", str(out), "--format", fmt])
    assert rc == 1
    assert "'odd': frame 5 has a non-finite coordinate" in one_error_line(capsys)
    assert not [p for p in out.rglob("*") if p.suffix in (".jsonl", ".svg")]


# settings whose value names a file or directory
PATH_SETTINGS = {"input", "out", "spec", "model", "stats", "topology"}
hostile_text = st.text(max_size=8) | st.sampled_from(
    ["", "-1", "0", "nan", "-inf", "1e400", "--", "-h", "0x10", "1_0", "\u2603", "weight=heavy,balance=balanced"]
)


def hostile_paths(root: Path) -> list[str]:
    """A missing file, a directory, and an empty and a garbage file as .bin and as .csv."""
    (root / "dir").mkdir()
    paths = [root / "missing.bin", root / "dir"]
    for suffix in (".bin", ".csv"):
        (root / f"empty{suffix}").write_bytes(b"")
        (root / f"garbage{suffix}").write_bytes(b"MOCAP\x00\xff{not json\n1,2,3\n" * 3)
        paths += [root / f"empty{suffix}", root / f"garbage{suffix}"]
    return [str(p) for p in paths]


def flag_values(setting, paths):
    """The value tokens after a flag: none for a switch, else one of the flag's type or hostile text."""
    if setting.type is bool:
        return st.just([])
    if setting.name in PATH_SETTINGS:
        return st.sampled_from(paths).map(lambda p: [p])
    typed = {int: st.integers().map(str), float: st.floats().map(repr) | st.integers().map(str),
             str: st.text(max_size=8)}[setting.type]
    if setting.choices:
        typed = st.sampled_from(setting.choices)
    return st.one_of(typed, typed, hostile_text).map(lambda v: [v])  # typed values twice as often


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_any_argv_exits_0_1_or_2_without_a_traceback(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    picked = data.draw(st.lists(st.sampled_from(COMMANDS[name].settings), unique=True))
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as root:
        paths = hostile_paths(Path(root))
        argv = [name]
        for setting in picked:
            argv += ["--" + setting.name.replace("_", "-")] + data.draw(flag_values(setting, paths))
        if data.draw(st.booleans()):
            argv += ["--config", data.draw(st.sampled_from(paths))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    text = err.getvalue()
    assert rc in (0, 1, 2), (argv, text)
    assert "Traceback" not in text
    assert sum("error:" in line for line in text.splitlines()) <= 1, (argv, text)


# every bounded numeric setting, and the condition label, with one value outside its range;
# each real-valued one is also tried with nan
BOUNDED = [
    ("ingest", "stride", 0), ("ingest", "hold_frames", 0), ("ingest", "speed_threshold", -1.0),
    ("augment", "factor", 0), ("augment", "translate", -1.0), ("augment", "scale_lo", 0.0),
    ("augment", "scale_hi", 0.5), ("augment", "rotate_lo", 90.0), ("augment", "rotate_hi", -10.0),
    ("train-classifier", "epochs", 0), ("train-classifier", "batch", 0), ("train-classifier", "lr", 0.0),
    ("train-classifier", "augment_factor", 0), ("train-classifier", "val_size", -1),
    ("train-gan", "epochs", 0), ("train-gan", "batch", 0), ("train-gan", "critic_steps", 0),
    ("train-gan", "gp_lambda", -1.0), ("train-gan", "lr", -1.0),
    ("generate", "count", 0), ("generate", "label", "weight=light,balance=balanced"),
]
REFUSED = BOUNDED + [(command, name, math.nan) for command, name, value in BOUNDED if isinstance(value, float)]
# a setting the chosen mode does not read is refused all the same
IN_ANOTHER_MODE = {"ingest-stride-0-uniform": ("ingest", "stride", 0, {"resample": "uniform"})}
CASES = {**{f"{c}-{n}-{v}": (c, n, v, {}) for c, n, v in REFUSED}, **IN_ANOTHER_MODE}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, name, value, mode", CASES.values(), ids=CASES.keys())
def test_a_refused_setting_is_a_usage_error(corpus_dir, archive, gan_dir, tmp_path, capsys, command, name, value, mode,
                                            via):
    out = tmp_path / "o"
    # settings that make the run valid but for the one under test
    base = {
        "ingest": {"input": str(corpus_dir)},
        "augment": {"input": str(archive)},
        "train-classifier": {"input": str(archive), "task": "weight", "epochs": 1, "val_size": 2, "augment_factor": 2},
        "train-gan": {"input": str(archive), "epochs": 1, "batch": 4, "critic_steps": 2},
        "generate": {"model": str(gan_dir / "generator.model")},
    }[command]
    values = {**base, **mode, "out": str(out), name: value}
    if via == "flag":
        argv = [command] + [token for key, v in values.items() for token in ("--" + key.replace("_", "-"), str(v))]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(values))
        argv = [command, "--config", str(tmp_path / "cfg.json")]
    rc = main(argv)
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert rc == 2, err
    assert "Traceback" not in err
    assert len(errors) == 1 and "--" + name.replace("_", "-") in errors[0], err
    assert not out.exists()
