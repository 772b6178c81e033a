"""Command line front end for the whole pipeline.

Every subcommand resolves its settings with the same precedence: an
explicit flag beats the JSON config file (--config), which beats the
built-in default. The fully resolved settings are written next to the
outputs as resolved-config.json, so any run can be reproduced from its
artifacts alone. All randomness descends from the single --seed.

Exit codes: 0 success, 1 runtime failure, 2 usage error. A flag or
config value that the code consuming it refuses raises SettingError
there, and main reports it as a usage error naming the flag. A run
that asks for more memory than it can get is a runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .augment import AugmentSpec, augment_dataset, copy_names_and_labels
from .classifier import (
    TASKS,
    HierarchicalClassifier,
    HierarchicalNetSpec,
    TaskSpec,
    balance_classes,
    evaluate,
    train_classifier,
    validation_split,
)
from .classifier import training as classifier_training
from .container import TYPE_NAMES, fits, read_container, write_container
from .dataset import (
    CENTER_STRIDE,
    DEFAULT_HOLD_FRAMES,
    DEFAULT_SPEED_THRESHOLD,
    ArchiveRows,
    MotionSequence,
    SequenceStream,
    apply_zscore,
    fit_normalizer,
    load_sequences,
    load_trials,
    read_sequence_csv,
    resample_centered,
    resample_uniform,
    save_sequences,
    trim_to_motion,
    write_sequence_csv,
)
from .dataset.preprocess import N_FEATURES, SEQUENCE_LENGTH, NormStats, SequenceSet, check_stride, check_trim
from .errors import ContractError, DataError, LabelError, MocapError, NoMotionError, SettingError, StateError, TooShortError, TrialFormatError
from .gan import (
    ConditionLabel,
    CriticSpec,
    GanTrainSpec,
    GeneratorSpec,
    N_CONDITIONS,
    build_generator,
    generate_sequences,
    save_gan,
    train_gan,
)
from .nn import load_model
from .render import (
    build_geometry,
    default_topology,
    export_jsonl,
    export_svg_ortho,
    load_topology,
)

log = logging.getLogger("mocapsynth")

EXPORT_FORMATS = ("jsonl", "svg_ortho")

STATS_KIND = "normstats"
STATS_FILE = "norm-stats.bin"


class UsageError(SettingError):
    """Bad invocation: reported on stderr, exit code 2."""


# the settings whose flag is spelled otherwise than the code that consumes them names them
_FLAG_NAMES = {"translate_m": "translate", "rotate_lo_deg": "rotate_lo", "rotate_hi_deg": "rotate_hi",
               "validation_size": "val_size", "n": "count"}


# ------------------------------------------------------------ plumbing


@dataclass(frozen=True)
class Setting:
    """One setting of a subcommand: flag --x-y, config key and resolved key x_y.

    `type` is int, float, str or bool; a bool setting is a switch that
    the flag can only turn on. A default of None means "unset", which is
    also the only place a config file may write null.
    """

    name: str
    help: str
    type: type = str
    default: object = None
    choices: tuple[str, ...] = ()

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        # default=None lets _resolve tell a given flag from an absent one
        if self.type is bool:
            kwargs = {"action": "store_const", "const": True}
        else:
            kwargs = {"type": self.type, "choices": self.choices or None}
        parser.add_argument("--" + self.name.replace("_", "-"), dest=self.name, default=None,
                            help=self.help_text, **kwargs)

    @property
    def help_text(self) -> str:
        # a help text that states its own default rule keeps it
        if self.default is None or self.type is bool or "(default" in self.help:
            return self.help
        return f"{self.help} (default {self.default})"

    def check(self, value, where: str) -> None:
        """Hold a config-file value to the flag's type and choices."""
        if value is None:
            ok = self.default is None
        else:
            ok = fits(value, self.type) and (not self.choices or value in self.choices)
        if not ok:
            want = f"one of {', '.join(self.choices)}" if self.choices else TYPE_NAMES[self.type]
            raise UsageError(f"{where}: {self.name} must be {want}, got {json.dumps(value)}")


SEED = Setting("seed", "master seed", int, 0)


@dataclass(frozen=True)
class Command:
    """A subcommand: its function, its help line and its settings besides --seed."""

    run: Callable[[dict], int]
    help: str
    own_settings: tuple[Setting, ...]

    @property
    def settings(self) -> tuple[Setting, ...]:
        return self.own_settings + (SEED,)


def _read_json_object(path, what: str) -> dict:
    """Parse a JSON file that must hold one object; every fault is a usage error."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise UsageError(f"{what} {path}: invalid JSON: {exc}") from None
    except OSError as exc:
        raise UsageError(f"{what} {path}: cannot read: {exc.strerror or exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{what} {path}: must hold a JSON object, not {type(doc).__name__}")
    return doc


def _reject_unknown(doc: dict, known, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise UsageError(f"{where}: unknown keys {unknown}")


def _resolve(args: argparse.Namespace, settings: tuple[Setting, ...]) -> dict:
    """flag > config file > default, for every setting of the subcommand."""
    cfg = _read_json_object(args.config, "config file") if args.config else {}
    where = f"config file {args.config}"
    by_name = {s.name: s for s in settings}
    _reject_unknown(cfg, by_name, where)
    for key, value in cfg.items():
        by_name[key].check(value, where)
    resolved = {}
    for s in settings:
        flag = getattr(args, s.name)
        resolved[s.name] = flag if flag is not None else cfg.get(s.name, s.default)
    return resolved


def _require(resolved: dict, *keys: str) -> None:
    for key in keys:
        if resolved[key] is None:
            raise UsageError(f"--{key.replace('_', '-')} is required (flag or config file)")


def _snapshot(out_dir: Path, subcommand: str, resolved: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"subcommand": subcommand, **resolved}
    (out_dir / "resolved-config.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
    )


def _save_stats(out_dir: Path, stats: NormStats) -> None:
    """Save the stats a model was trained under beside it."""
    write_container(out_dir / STATS_FILE, STATS_KIND, {}, stats.to_arrays())


def _load_stats(resolved: dict) -> NormStats:
    """The stats of --stats, else the ones saved beside --model."""
    path = resolved["stats"] or Path(resolved["model"]).parent / STATS_FILE
    _, arrays = read_container(path, expect_kind=STATS_KIND)
    try:
        return NormStats.from_arrays(arrays)
    except ContractError as exc:
        raise TrialFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------- subcommands


def cmd_ingest(resolved: dict) -> int:
    """Trim and resample each trial as it is parsed into the next row of one block, a row per CSV file."""
    _require(resolved, "input", "out")
    check_stride(resolved["stride"])  # refused in uniform mode too, which does not read it
    check_trim(resolved["speed_threshold"], resolved["hold_frames"])
    out_dir = Path(resolved["out"])
    block = np.empty((sum(1 for _ in Path(resolved["input"]).glob("*.csv")), SEQUENCE_LENGTH, N_FEATURES))
    names, labels, rejects = [], [], Counter()

    def keep(trial):
        # trim and resample are looked up at call time, so a tracer may wrap them
        try:
            trimmed = trim_to_motion(trial, speed_threshold=resolved["speed_threshold"], hold_frames=resolved["hold_frames"])
            if resolved["resample"] == "centered":
                block[len(names)] = resample_centered(trimmed, stride=resolved["stride"]).data
            else:
                block[len(names)] = resample_uniform(trimmed).data
        except (NoMotionError, TooShortError) as exc:
            rejects[type(exc)] += 1
            return
        names.append(trial.name)
        labels.append(trial.meta)

    result = load_trials(resolved["input"], keep=keep)  # its trials count the loaded files
    if not result.trials:
        raise DataError(f"no trials loaded from {resolved['input']}")
    log.info("loaded %d trials (%d skipped for missing C7)", len(result.trials), result.skipped_missing_c7)
    if not names:
        raise DataError("every trial was rejected during trimming")
    no_motion, too_short = rejects[NoMotionError], rejects[TooShortError]
    log.info("kept %d sequences (%d no-motion, %d too-short)", len(names), no_motion, too_short)

    sequences = SequenceSet(block[: len(names)], names, labels)  # z-scoring may overwrite it
    stats = None
    if resolved["normalize"]:
        stats = fit_normalizer(sequences)
        sequences = apply_zscore(sequences, stats, out=sequences.data)
    _snapshot(out_dir, "ingest", resolved)
    extra = {"source": str(resolved["input"]), "resample": resolved["resample"], "skipped_missing_c7":
             result.skipped_missing_c7, "skipped_no_motion": no_motion, "skipped_too_short": too_short}
    save_sequences(out_dir / "sequences.bin", sequences, stats=stats, extra=extra)
    print(f"ingested {len(sequences)} sequences -> {out_dir / 'sequences.bin'}")
    return 0


# augment writes its archive a chunk of whole sources at a time, of about
# this many rows (3 MB), so its memory does not grow with the factor
AUGMENT_CHUNK_ROWS = 256


def cmd_augment(resolved: dict) -> int:
    """Stream the augmented archive through one reused buffer, header first.

    Every copy's name and label are known before any data. Each chunk is
    augment_dataset of a range of source rows, which draws from the rows'
    own streams, so the bytes are those of the whole set augmented and saved.
    """
    _require(resolved, "input", "out")
    out_dir = Path(resolved["out"])
    spec = AugmentSpec(
        translate_m=resolved["translate"],
        scale_lo=resolved["scale_lo"],
        scale_hi=resolved["scale_hi"],
        rotate_lo_deg=resolved["rotate_lo"],
        rotate_hi_deg=resolved["rotate_hi"],
        factor=resolved["factor"],
        seed=resolved["seed"],
    )
    sources, _, extra = load_sequences(resolved["input"])
    n, f = len(sources), spec.factor
    step = max(1, AUGMENT_CHUNK_ROWS // f)
    buffer = np.empty((min(n, step) * f,) + sources.data.shape[1:])
    blocks = (augment_dataset(sources, spec, range(lo, min(lo + step, n)), out=buffer).data
              for lo in range(0, n, step))
    augmented = SequenceStream(*copy_names_and_labels(sources.names, sources.labels, f), blocks)
    log.info("augmenting %d -> %d sequences", n, len(augmented))
    out_dir.mkdir(parents=True, exist_ok=True)
    save_sequences(
        out_dir / "sequences.bin",
        augmented,
        extra={**extra, "augment": json.dumps(spec.to_dict(), sort_keys=True)},
    )
    _snapshot(out_dir, "augment", resolved)
    print(f"augmented {n} -> {len(augmented)} sequences")
    return 0


def _net_spec(spec_path, n_classes: int) -> HierarchicalNetSpec:
    """The default network, with the overrides of an optional --spec JSON file."""
    overrides = _read_json_object(spec_path, "spec file") if spec_path else {}
    if "n_classes" in overrides:
        raise UsageError(f"spec file {spec_path}: n_classes comes from the task")
    return HierarchicalNetSpec.from_dict({**overrides, "n_classes": n_classes})


def cmd_train_classifier(resolved: dict) -> int:
    _require(resolved, "input", "out", "task")
    out_dir = Path(resolved["out"])
    seed = resolved["seed"]
    task = TaskSpec(
        resolved["task"],
        validation_size=resolved["val_size"],
        augment_factor=resolved["augment_factor"],
    )
    net_spec = _net_spec(resolved["spec"], task.n_classes)
    # the run reads only its task's rows from the file; every block from here on is its own, so it is z-scored in place
    with ArchiveRows(resolved["input"]) as sequences:
        if sequences.normalized:
            raise StateError("train-classifier wants world-space sequences; it normalizes internally")
        labels = task.labels(sequences.labels)
        pool = balance_classes(labels, seed) if task.task == "weight" else np.flatnonzero(labels >= 0)
        log.info("task %s: %d usable sequences", task.task, len(pool))
        train_rows, val_rows = validation_split(len(pool), task.n_validation, seed)
        val_seqs, train_seqs = sequences.take(pool[val_rows]), sequences.take(pool[train_rows])

    if task.augment_factor > 1:  # the training block replaces the rows it was made from
        train_seqs = augment_dataset(
            train_seqs, AugmentSpec(factor=task.augment_factor, seed=seed)
        )
    stats = fit_normalizer(train_seqs)
    train_norm = apply_zscore(train_seqs, stats, out=train_seqs.data)
    val_norm = apply_zscore(val_seqs, stats, out=val_seqs.data)
    log.info("training on %d sequences, validating on %d", len(train_norm), len(val_norm))

    model = HierarchicalClassifier(net_spec, seed=seed)

    report = train_classifier(
        model,
        train_norm.data,
        task.labels(train_norm.labels),
        val_norm.data,
        task.labels(val_norm.labels),
        epochs=resolved["epochs"],
        batch=resolved["batch"],
        lr=resolved["lr"],
        seed=seed,
    )

    _snapshot(out_dir, "train-classifier", resolved)
    model.save(
        out_dir / "classifier.model",
        extra={"task": task.task, "classes": list(task.class_names)},
    )
    _save_stats(out_dir, stats)
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    with open(out_dir / "curves.csv", "w", newline="\n") as fh:
        fh.write("epoch,train_loss,train_acc,val_loss,val_acc\n")
        for e in range(len(report.train_loss)):
            fh.write(
                f"{e},{report.train_loss[e]:.6f},{report.train_acc[e]:.6f},"
                f"{report.val_loss[e]:.6f},{report.val_acc[e]:.6f}\n"
            )
    best = max(report.val_acc) if report.val_acc else float("nan")
    print(f"best validation accuracy {best:.3f} at epoch {report.best_epoch}")
    return 0


def cmd_eval_classifier(resolved: dict) -> int:
    _require(resolved, "input", "model")
    model, extra = HierarchicalClassifier.load(resolved["model"])
    stats = _load_stats(resolved)
    task = TaskSpec(extra.get("task"))

    with ArchiveRows(resolved["input"]) as sequences:  # only the task's labelled rows are read
        if sequences.normalized:
            raise StateError("eval-classifier wants world-space sequences; it normalizes with the model's stats")
        labels = task.labels(sequences.labels)
        rows = np.flatnonzero(labels >= 0)
        if not len(rows):
            raise DataError(f"no sequences usable for task {task.task!r}")
        pool = sequences.take(rows)
    pool = apply_zscore(pool, stats, out=pool.data)
    accuracy, confusion = evaluate(model, pool.data, labels[rows])

    print(f"task {task.task}: accuracy {accuracy:.3f} on {len(pool)} sequences")
    print("confusion (rows actual, columns predicted):")
    for name, row in zip(task.class_names, confusion):
        print(f"  {name:12s} " + " ".join(f"{int(v):5d}" for v in row))
    if resolved["out"]:
        out_dir = Path(resolved["out"])
        _snapshot(out_dir, "eval-classifier", resolved)
        (out_dir / "eval.json").write_text(
            json.dumps(
                {
                    "task": task.task,
                    "accuracy": accuracy,
                    "n": len(pool),
                    "classes": list(task.class_names),
                    "confusion": confusion.tolist(),
                },
                indent=2,
            )
            + "\n"
        )
    return 0


def cmd_train_gan(resolved: dict) -> int:
    _require(resolved, "input", "out")
    kind = resolved["kind"].replace("-", "_")
    out_dir = Path(resolved["out"])
    spec = GanTrainSpec(
        kind=kind,
        epochs=resolved["epochs"],
        batch=resolved["batch"],
        critic_steps=resolved["critic_steps"],
        gp_lambda=resolved["gp_lambda"],
        lr=resolved["lr"],
        seed=resolved["seed"],
    )

    cond = N_CONDITIONS if kind == "cond_wgan_gp" else 0
    gen_spec = GeneratorSpec(cond_dim=cond, batchnorm=resolved["gen_batchnorm"] == "on")
    critic_spec = CriticSpec(
        cond_channels=cond, head="sigmoid" if kind == "dcgan" else "linear"
    )

    # the run holds the archive's header, labels and stats, and reads each batch's rows from the open file
    with ArchiveRows(resolved["input"]) as sequences:
        if not sequences.normalized:
            sequences.zscore_on_read(fit_normalizer(sequences))
        elif sequences.stats is None:
            raise StateError("normalized archive lacks its normalization stats")
        stats = sequences.stats
        labels = None
        if kind == "cond_wgan_gp":
            unlabelled = [name for name, meta in zip(sequences.names, sequences.labels) if meta is None]
            if unlabelled:
                raise LabelError(f"sequence {unlabelled[0]!r} has no label; conditional training needs one per sequence")
            labels = np.array([ConditionLabel.from_meta(m).index for m in sequences.labels])
        log.info("training %s for %d epochs on %d sequences", kind, spec.epochs, len(sequences))
        generator, critic, history = train_gan(
            spec, sequences, labels=labels, gen_spec=gen_spec, critic_spec=critic_spec
        )

    _snapshot(out_dir, "train-gan", resolved)
    save_gan(out_dir, generator, critic, gen_spec, critic_spec, spec)
    _save_stats(out_dir, stats)
    (out_dir / "history.json").write_text(json.dumps(history.to_dict(), indent=2) + "\n")
    # dcgan records no distance estimate, so its summary gives the last discriminator loss
    what, values = ("discriminator loss", history.d_loss) if kind == "dcgan" else ("distance estimate", history.w_estimate)
    tail = values[-1] if values else float("nan")
    print(f"trained {kind}: {history.gen_updates} generator steps, last {what} {tail:.4f}")
    return 0


def _parse_label(text: str) -> ConditionLabel:
    """`weight=<w>,balance=<b>`: two key=value items, each key once, in either order."""
    items = [item.split("=", 1) for item in text.split(",")]
    if any(len(item) != 2 for item in items) or sorted(key for key, _ in items) != ["balance", "weight"]:
        raise UsageError("--label must look like weight=heavy,balance=balanced")
    parts = dict(items)
    return ConditionLabel(parts["weight"], parts["balance"])


def cmd_generate(resolved: dict) -> int:
    _require(resolved, "model", "out")
    out_dir = Path(resolved["out"])
    generator, meta = load_model(resolved["model"])
    if meta.get("role") != "generator":
        raise ContractError(f"{resolved['model']}: not a generator checkpoint (role {meta.get('role')!r})")
    try:
        gen_spec = GeneratorSpec.from_dict(meta.get("spec"))
        rebuilt = build_generator(gen_spec)  # its layers check their settings
    except SettingError as exc:  # a fault of the checkpoint, not a refused setting
        raise ContractError(f"{resolved['model']}: {exc}") from None
    if rebuilt.architecture() != generator.architecture():
        raise ContractError(f"{resolved['model']}: the generator spec does not match the saved architecture")
    stats = _load_stats(resolved)

    condition = None
    if resolved["label"] is not None:
        condition = _parse_label(resolved["label"]).index
    sequences = generate_sequences(
        generator, gen_spec, stats, resolved["count"], seed=resolved["seed"], condition=condition
    )
    _snapshot(out_dir, "generate", resolved)
    for seq in sequences:
        write_sequence_csv(seq.data, out_dir / f"{seq.name}.csv")
        if resolved["render"]:
            render_sequence(seq, resolved["render_format"], out_dir)
    print(f"wrote {len(sequences)} sequences to {out_dir}")
    return 0


def render_sequence(seq: MotionSequence, fmt: str, out_dir: Path, topo=None) -> int:
    """Export one sequence's geometry into out_dir; returns the number of files written.

    jsonl writes <name>.jsonl, svg_ortho a directory <name>/ of one SVG per frame.
    """
    geometry = build_geometry(seq, topo)
    if fmt == "jsonl":
        export_jsonl(geometry, out_dir / f"{seq.name}.jsonl")
        return 1
    if fmt == "svg_ortho":
        return len(export_svg_ortho(geometry, out_dir / seq.name))
    raise ContractError(f"unknown export format {fmt!r}; expected one of {EXPORT_FORMATS}")


def cmd_render(resolved: dict) -> int:
    _require(resolved, "input", "out")
    out_dir = Path(resolved["out"])
    src = Path(resolved["input"])
    if src.suffix == ".csv":
        sequences = [
            MotionSequence(read_sequence_csv(src), normalized=False, name=src.stem)
        ]
    else:
        sequences, _, _ = load_sequences(src)
    topo = load_topology(resolved["topology"]) if resolved["topology"] else default_topology()

    _snapshot(out_dir, "render", resolved)
    written = sum(render_sequence(seq, resolved["format"], out_dir, topo) for seq in sequences)
    print(f"rendered {len(sequences)} sequences ({written} files)")
    return 0


def cmd_stats(resolved: dict) -> int:
    _require(resolved, "input")
    src = Path(resolved["input"])
    if src.is_dir():
        result = load_trials(src, keep=lambda trial: trial.meta)  # labels only, never every trial's coordinates
        metas, skipped = result.trials, result.skipped_missing_c7
    else:
        with ArchiveRows(src) as rows:  # the labels are in the header: no row is read
            metas = [m for m in rows.labels if m is not None]
        skipped = 0
    if not metas:
        raise DataError(f"no labeled records in {src}")

    # stats.json key -> the label it counts; the printed title is the key with spaces
    labels = {"strategy": "strategy", "weight": "weight_name", "balance": "balance",
              "bowl_size": "bowl_size", "orientation": "orientation"}
    tables = {key: Counter(getattr(m, attr) for m in metas) for key, attr in labels.items()}
    participants = len({m.participant for m in metas})
    print(f"records: {len(metas)}   skipped for missing C7: {skipped}")
    print(f"participants: {participants}")
    for key, counts in tables.items():
        print(key.replace("_", " ") + ":")
        for label in sorted(counts):
            print(f"  {label}: {counts[label]}")

    if resolved["out"]:
        out_dir = Path(resolved["out"])
        _snapshot(out_dir, "stats", resolved)
        doc = {"records": len(metas), "skipped_missing_c7": skipped, "participants": participants,
               **{key: dict(counts) for key, counts in tables.items()}}
        (out_dir / "stats.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


# ------------------------------------------------------- settings table


S = Setting
_STATS = S("stats", "normalization stats (default: next to model)")

COMMANDS = {
    "ingest": Command(cmd_ingest, "load trial CSVs, trim, resample, archive", (
        S("input", "directory of trial CSV/JSON pairs"),
        S("out", "output directory"),
        S("resample", "frame selection", str, "centered", ("centered", "uniform")),
        S("speed_threshold", "motion threshold m/s", float, DEFAULT_SPEED_THRESHOLD),
        S("hold_frames", "frames speed must persist", int, DEFAULT_HOLD_FRAMES),
        S("stride", "centered-resample stride", int, CENTER_STRIDE),
        S("normalize", "fit and apply z-scoring", bool, False),
    )),
    "augment": Command(cmd_augment, "expand an archive with geometric copies", (
        S("input", "sequence archive"),
        S("out", "output directory"),
        S("factor", "copies per sequence incl. original", int, AugmentSpec.factor),
        S("translate", "max |XY shift| in m", float, AugmentSpec.translate_m),
        S("scale_lo", "min scale factor", float, AugmentSpec.scale_lo),
        S("scale_hi", "max scale factor", float, AugmentSpec.scale_hi),
        S("rotate_lo", "min rotation deg", float, AugmentSpec.rotate_lo_deg),
        S("rotate_hi", "max rotation deg", float, AugmentSpec.rotate_hi_deg),
    )),
    "train-classifier": Command(cmd_train_classifier, "train the hierarchical attribute classifier", (
        S("input", "world-space sequence archive"),
        S("out", "output directory"),
        S("task", "attribute to predict", str, None, TASKS),
        S("epochs", "training epochs", int, classifier_training.EPOCHS),
        S("batch", "batch size", int, classifier_training.BATCH),
        S("lr", "Adam learning rate", float, classifier_training.LR),
        S("augment_factor", "train-set expansion", int, TaskSpec.augment_factor),
        S("val_size", "validation size (default per task)", int, 0),  # 0 picks the task default
        S("spec", "JSON file of network hyperparameter overrides"),
    )),
    "eval-classifier": Command(cmd_eval_classifier, "evaluate a trained classifier on an archive", (
        S("input", "world-space sequence archive"),
        S("model", "classifier checkpoint"),
        _STATS,
        S("out", "optional output directory for eval.json"),
    )),
    "train-gan": Command(cmd_train_gan, "train a sequence generator", (
        S("input", "sequence archive (world-space or normalized with stats)"),
        S("out", "output directory"),
        S("kind", "objective", str, "wgan-gp", ("dcgan", "wgan-gp", "cond-wgan-gp")),
        S("epochs", "training epochs", int, GanTrainSpec.epochs),
        S("batch", "batch size", int, GanTrainSpec.batch),
        S("critic_steps", "critic updates per generator step", int, GanTrainSpec.critic_steps),
        S("gp_lambda", "gradient penalty weight", float, GanTrainSpec.gp_lambda),
        S("gen_batchnorm", "generator batch norm", str, "off", ("on", "off")),
        S("lr", "Adam learning rate (default per kind)", float),
    )),
    "generate": Command(cmd_generate, "sample sequences from a trained generator", (
        S("model", "generator checkpoint"),
        _STATS,
        S("out", "output directory"),
        S("count", "number of sequences", int, 5),
        S("label", "condition, e.g. weight=heavy,balance=balanced"),
        S("render", "also export geometry", bool, False),
        S("render_format", "geometry format", str, "jsonl", EXPORT_FORMATS),
    )),
    "render": Command(cmd_render, "export skeleton geometry for sequences", (
        S("input", "sequence archive or bare coordinate CSV"),
        S("out", "output directory"),
        S("format", "export format", str, "svg_ortho", EXPORT_FORMATS),
        S("topology", "bone table JSON (default built-in)"),
    )),
    "stats": Command(cmd_stats, "label frequency tables for a corpus or archive", (
        S("input", "trial directory or sequence archive"),
        S("out", "optional output directory for stats.json"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mocapsynth",
        description="Motion-capture transport analysis and synthesis pipeline.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for setting in command.settings:
            setting.add_to(p)
        p.add_argument("--config", help="JSON file of defaults for this subcommand")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return 2
    command = COMMANDS[args.subcommand]
    try:
        return command.run(_resolve(args, command.settings))
    except SettingError as exc:  # a refused flag or config value, wherever it was checked
        flags = "/".join("--" + _FLAG_NAMES.get(n, n).replace("_", "-") for n in exc.names)
        print(f"error: {flags}: {exc}" if flags else f"error: {exc}", file=sys.stderr)
        return 2
    except (MocapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's refusal names the size it was asked for
        print("error: the run needs more memory than it could get" + (f" ({exc})" if str(exc) else ""), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
