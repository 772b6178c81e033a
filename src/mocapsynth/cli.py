"""Command line front end for the whole pipeline.

Every subcommand resolves its settings with the same precedence: an
explicit flag beats the JSON config file (--config), which beats the
built-in default. The fully resolved settings are written next to the
outputs as resolved-config.json, so any run can be reproduced from its
artifacts alone. All randomness descends from the single --seed.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .augment import AugmentSpec, augment_dataset
from .classifier import (
    HierarchicalClassifier,
    HierarchicalNetSpec,
    TaskSpec,
    balance_classes,
    evaluate,
    filter_for_task,
    labels_of,
    stack_views,
    train_classifier,
    validation_split,
)
from .container import read_container, write_container
from .dataset import (
    MotionSequence,
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
from .dataset.preprocess import NormStats
from .errors import ContractError, DataError, MocapError, NoMotionError, StateError, TooShortError
from .gan import (
    ConditionLabel,
    CriticSpec,
    GanTrainSpec,
    GeneratorSpec,
    N_CONDITIONS,
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

STATS_KIND = "normstats"


class UsageError(Exception):
    """Bad invocation: reported on stderr, exit code 2."""


# ------------------------------------------------------------ plumbing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of defaults for this subcommand")
    p.add_argument("--seed", type=int, help="master seed (default 0)")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flag > config file > default, for every known setting."""
    cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path}: invalid JSON: {exc}")
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            raise UsageError(f"config file {path}: unknown keys {unknown}")
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        resolved[key] = flag if flag is not None else cfg.get(key, default)
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


def _save_stats(path: Path, stats: NormStats) -> None:
    write_container(path, STATS_KIND, {}, stats.to_arrays())


def _load_stats(path) -> NormStats:
    _, arrays = read_container(path, expect_kind=STATS_KIND)
    return NormStats.from_arrays(arrays)


# ---------------------------------------------------------- subcommands


INGEST_DEFAULTS = {
    "input": None,
    "out": None,
    "resample": "centered",
    "speed_threshold": 0.05,
    "hold_frames": 12,
    "stride": 12,
    "normalize": False,
    "seed": 0,
}


def cmd_ingest(resolved: dict) -> int:
    _require(resolved, "input", "out")
    if resolved["resample"] not in ("centered", "uniform"):
        raise UsageError("--resample must be centered or uniform")
    out_dir = Path(resolved["out"])
    result = load_trials(resolved["input"])
    if not result.trials:
        raise DataError(f"no trials loaded from {resolved['input']}")
    log.info("loaded %d trials (%d skipped for missing C7)", len(result.trials), result.skipped_missing_c7)

    sequences, too_short, no_motion = [], 0, 0
    for trial in result.trials:
        try:
            trimmed = trim_to_motion(
                trial,
                speed_threshold=resolved["speed_threshold"],
                hold_frames=resolved["hold_frames"],
            )
            if resolved["resample"] == "centered":
                sequences.append(resample_centered(trimmed, stride=resolved["stride"]))
            else:
                sequences.append(resample_uniform(trimmed))
        except NoMotionError:
            no_motion += 1
        except TooShortError:
            too_short += 1
    if not sequences:
        raise DataError("every trial was rejected during trimming")
    log.info("kept %d sequences (%d no-motion, %d too-short)", len(sequences), no_motion, too_short)

    stats = None
    if resolved["normalize"]:
        stats = fit_normalizer(sequences)
        sequences = [apply_zscore(s, stats) for s in sequences]
    _snapshot(out_dir, "ingest", resolved)
    save_sequences(
        out_dir / "sequences.bin",
        sequences,
        stats=stats,
        extra={
            "source": str(resolved["input"]),
            "resample": resolved["resample"],
            "skipped_missing_c7": result.skipped_missing_c7,
            "skipped_no_motion": no_motion,
            "skipped_too_short": too_short,
        },
    )
    print(f"ingested {len(sequences)} sequences -> {out_dir / 'sequences.bin'}")
    return 0


AUGMENT_DEFAULTS = {
    "input": None,
    "out": None,
    "factor": 10,
    "translate": 0.20,
    "scale_lo": 0.85,
    "scale_hi": 1.15,
    "rotate_lo": 0.0,
    "rotate_hi": 60.0,
    "seed": 0,
}


def cmd_augment(resolved: dict) -> int:
    _require(resolved, "input", "out")
    out_dir = Path(resolved["out"])
    sequences, _, extra = load_sequences(resolved["input"])
    spec = AugmentSpec(
        translate_m=resolved["translate"],
        scale_lo=resolved["scale_lo"],
        scale_hi=resolved["scale_hi"],
        rotate_lo_deg=resolved["rotate_lo"],
        rotate_hi_deg=resolved["rotate_hi"],
        factor=resolved["factor"],
        seed=resolved["seed"],
    )
    augmented = augment_dataset(sequences, spec)
    log.info("augmented %d -> %d sequences", len(sequences), len(augmented))
    _snapshot(out_dir, "augment", resolved)
    save_sequences(
        out_dir / "sequences.bin",
        augmented,
        extra={**extra, "augment": spec.to_json()},
    )
    print(f"augmented {len(sequences)} -> {len(augmented)} sequences")
    return 0


TRAIN_CLASSIFIER_DEFAULTS = {
    "input": None,
    "out": None,
    "task": None,
    "epochs": 400,
    "batch": 32,
    "lr": 1e-3,
    "augment_factor": 10,
    "val_size": 0,  # 0 picks the task default
    "spec": None,  # JSON file overriding network hyperparameters
    "seed": 0,
}


def cmd_train_classifier(resolved: dict) -> int:
    _require(resolved, "input", "out", "task")
    out_dir = Path(resolved["out"])
    seed = resolved["seed"]
    sequences, _, _ = load_sequences(resolved["input"])
    if sequences[0].normalized:
        raise StateError("train-classifier wants world-space sequences; it normalizes internally")

    task = TaskSpec(
        resolved["task"],
        validation_size=resolved["val_size"],
        augment_factor=resolved["augment_factor"],
    )
    pool = filter_for_task(sequences, task)
    if task.task == "weight":
        pool = balance_classes(pool, task, seed)
    log.info("task %s: %d usable sequences", task.task, len(pool))
    train_seqs, val_seqs = validation_split(pool, task.n_validation, seed)

    if task.augment_factor > 1:
        train_seqs = augment_dataset(
            train_seqs, AugmentSpec(factor=task.augment_factor, seed=seed)
        )
    stats = fit_normalizer(train_seqs)
    train_norm = [apply_zscore(s, stats) for s in train_seqs]
    val_norm = [apply_zscore(s, stats) for s in val_seqs]
    log.info("training on %d sequences, validating on %d", len(train_norm), len(val_norm))

    overrides = {}
    if resolved["spec"]:
        overrides = json.loads(Path(resolved["spec"]).read_text())
    net_spec = HierarchicalNetSpec(n_classes=task.n_classes, **overrides)
    model = HierarchicalClassifier(net_spec, seed=seed)

    report = train_classifier(
        model,
        stack_views(train_norm),
        labels_of(train_norm, task),
        stack_views(val_norm),
        labels_of(val_norm, task),
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
    _save_stats(out_dir / "norm-stats.bin", stats)
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


EVAL_CLASSIFIER_DEFAULTS = {
    "input": None,
    "model": None,
    "stats": None,
    "out": None,
    "seed": 0,
}


def cmd_eval_classifier(resolved: dict) -> int:
    _require(resolved, "input", "model")
    model, extra = HierarchicalClassifier.load(resolved["model"])
    stats_path = resolved["stats"] or str(Path(resolved["model"]).parent / "norm-stats.bin")
    stats = _load_stats(stats_path)
    task = TaskSpec(extra["task"])

    sequences, _, _ = load_sequences(resolved["input"])
    if not sequences[0].normalized:
        sequences = [apply_zscore(s, stats) for s in sequences]
    pool = filter_for_task(sequences, task)
    if not pool:
        raise DataError(f"no sequences usable for task {task.task!r}")
    accuracy, confusion = evaluate(model, stack_views(pool), labels_of(pool, task))

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


TRAIN_GAN_DEFAULTS = {
    "input": None,
    "out": None,
    "kind": "wgan-gp",
    "epochs": 10,
    "batch": 64,
    "critic_steps": 15,
    "gp_lambda": 10.0,
    "gen_batchnorm": "off",
    "lr": None,
    "seed": 0,
}


def cmd_train_gan(resolved: dict) -> int:
    _require(resolved, "input", "out")
    kind = str(resolved["kind"]).replace("-", "_")
    if kind not in ("dcgan", "wgan_gp", "cond_wgan_gp"):
        raise UsageError(f"unknown --kind {resolved['kind']!r}")
    if resolved["gen_batchnorm"] not in ("on", "off"):
        raise UsageError("--gen-batchnorm must be on or off")
    out_dir = Path(resolved["out"])
    seed = resolved["seed"]

    sequences, stats, _ = load_sequences(resolved["input"])
    if sequences[0].normalized:
        if stats is None:
            raise StateError("normalized archive lacks its normalization stats")
    else:
        stats = fit_normalizer(sequences)
        sequences = [apply_zscore(s, stats) for s in sequences]

    labels = None
    if kind == "cond_wgan_gp":
        labels = np.array([ConditionLabel.from_meta(s.meta).index for s in sequences])
    cond = N_CONDITIONS if kind == "cond_wgan_gp" else 0

    spec = GanTrainSpec(
        kind=kind,
        epochs=resolved["epochs"],
        batch=resolved["batch"],
        critic_steps=resolved["critic_steps"],
        gp_lambda=resolved["gp_lambda"],
        lr=resolved["lr"],
        seed=seed,
    )
    gen_spec = GeneratorSpec(cond_dim=cond, batchnorm=resolved["gen_batchnorm"] == "on")
    critic_spec = CriticSpec(
        cond_channels=cond, head="sigmoid" if kind == "dcgan" else "linear"
    )
    log.info("training %s for %d epochs on %d sequences", kind, spec.epochs, len(sequences))
    generator, critic, history = train_gan(
        spec, sequences, labels=labels, gen_spec=gen_spec, critic_spec=critic_spec
    )

    _snapshot(out_dir, "train-gan", resolved)
    save_gan(out_dir, generator, critic, gen_spec, critic_spec, spec)
    _save_stats(out_dir / "norm-stats.bin", stats)
    (out_dir / "history.json").write_text(json.dumps(history.to_dict(), indent=2) + "\n")
    tail = history.w_estimate[-1] if history.w_estimate else float("nan")
    print(f"trained {kind}: {history.gen_updates} generator steps, last distance estimate {tail:.4f}")
    return 0


GENERATE_DEFAULTS = {
    "model": None,
    "stats": None,
    "out": None,
    "count": 5,
    "label": None,
    "render": False,
    "render_format": "jsonl",
    "seed": 0,
}


def _parse_label(text: str) -> ConditionLabel:
    parts = dict(item.split("=", 1) for item in text.split(",") if "=" in item)
    if set(parts) != {"weight", "balance"}:
        raise UsageError("--label must look like weight=heavy,balance=balanced")
    return ConditionLabel(parts["weight"], parts["balance"])


def cmd_generate(resolved: dict) -> int:
    _require(resolved, "model", "out")
    if not isinstance(resolved["count"], int) or resolved["count"] < 1:
        raise UsageError("--count must be a whole number of at least 1")
    out_dir = Path(resolved["out"])
    generator, meta = load_model(resolved["model"])
    if meta.get("role") != "generator":
        raise ContractError(f"{resolved['model']}: not a generator checkpoint (role {meta.get('role')!r})")
    gen_spec = GeneratorSpec.from_dict(meta["spec"])
    stats_path = resolved["stats"] or str(Path(resolved["model"]).parent / "norm-stats.bin")
    stats = _load_stats(stats_path)

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
            frames = build_geometry(seq)
            if resolved["render_format"] == "jsonl":
                export_jsonl(frames, out_dir / f"{seq.name}.jsonl")
            else:
                export_svg_ortho(frames, out_dir / seq.name)
    print(f"wrote {len(sequences)} sequences to {out_dir}")
    return 0


RENDER_DEFAULTS = {
    "input": None,
    "out": None,
    "format": "svg_ortho",
    "topology": None,
    "seed": 0,
}


def cmd_render(resolved: dict) -> int:
    _require(resolved, "input", "out")
    if resolved["format"] not in ("jsonl", "svg_ortho"):
        raise UsageError("--format must be jsonl or svg_ortho")
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
    written = 0
    for seq in sequences:
        frames = build_geometry(seq, topo)
        if resolved["format"] == "jsonl":
            export_jsonl(frames, out_dir / f"{seq.name}.jsonl")
            written += 1
        else:
            written += len(export_svg_ortho(frames, out_dir / seq.name))
    print(f"rendered {len(sequences)} sequences ({written} files)")
    return 0


STATS_DEFAULTS = {
    "input": None,
    "out": None,
    "seed": 0,
}


def cmd_stats(resolved: dict) -> int:
    _require(resolved, "input")
    src = Path(resolved["input"])
    if src.is_dir():
        result = load_trials(src)
        metas = [t.meta for t in result.trials]
        skipped = result.skipped_missing_c7
    else:
        sequences, _, _ = load_sequences(src)
        metas = [s.meta for s in sequences if s.meta is not None]
        skipped = 0
    if not metas:
        raise DataError(f"no labeled records in {src}")

    def table(title, counts: Counter):
        print(title)
        for key in sorted(counts):
            print(f"  {key}: {counts[key]}")

    print(f"records: {len(metas)}   skipped for missing C7: {skipped}")
    print(f"participants: {len({m.participant for m in metas})}")
    table("strategy:", Counter(m.strategy for m in metas))
    table("weight:", Counter(m.weight_name for m in metas))
    table("balance:", Counter(m.balance for m in metas))
    table("bowl size:", Counter(m.bowl_size for m in metas))
    table("orientation:", Counter(m.orientation for m in metas))

    if resolved["out"]:
        out_dir = Path(resolved["out"])
        _snapshot(out_dir, "stats", resolved)
        doc = {
            "records": len(metas),
            "skipped_missing_c7": skipped,
            "participants": len({m.participant for m in metas}),
            "strategy": dict(Counter(m.strategy for m in metas)),
            "weight": dict(Counter(m.weight_name for m in metas)),
            "balance": dict(Counter(m.balance for m in metas)),
            "bowl_size": dict(Counter(m.bowl_size for m in metas)),
            "orientation": dict(Counter(m.orientation for m in metas)),
        }
        (out_dir / "stats.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


# -------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mocapsynth",
        description="Motion-capture transport analysis and synthesis pipeline.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p = sub.add_parser("ingest", help="load trial CSVs, trim, resample, archive")
    p.add_argument("--input", help="directory of trial CSV/JSON pairs")
    p.add_argument("--out", help="output directory")
    p.add_argument("--resample", choices=["centered", "uniform"], help="frame selection (default centered)")
    p.add_argument("--speed-threshold", dest="speed_threshold", type=float, help="motion threshold m/s (default 0.05)")
    p.add_argument("--hold-frames", dest="hold_frames", type=int, help="frames speed must persist (default 12)")
    p.add_argument("--stride", type=int, help="centered-resample stride (default 12)")
    p.add_argument("--normalize", action="store_const", const=True, help="fit and apply z-scoring")
    _add_common(p)

    p = sub.add_parser("augment", help="expand an archive with geometric copies")
    p.add_argument("--input", help="sequence archive")
    p.add_argument("--out", help="output directory")
    p.add_argument("--factor", type=int, help="copies per sequence incl. original (default 10)")
    p.add_argument("--translate", type=float, help="max |XY shift| in m (default 0.20)")
    p.add_argument("--scale-lo", dest="scale_lo", type=float, help="min scale factor (default 0.85)")
    p.add_argument("--scale-hi", dest="scale_hi", type=float, help="max scale factor (default 1.15)")
    p.add_argument("--rotate-lo", dest="rotate_lo", type=float, help="min rotation deg (default 0)")
    p.add_argument("--rotate-hi", dest="rotate_hi", type=float, help="max rotation deg (default 60)")
    _add_common(p)

    p = sub.add_parser("train-classifier", help="train the hierarchical attribute classifier")
    p.add_argument("--input", help="world-space sequence archive")
    p.add_argument("--out", help="output directory")
    p.add_argument("--task", choices=["weight", "balance", "strategy"], help="attribute to predict")
    p.add_argument("--epochs", type=int, help="training epochs (default 400)")
    p.add_argument("--batch", type=int, help="batch size (default 32)")
    p.add_argument("--lr", type=float, help="Adam learning rate (default 1e-3)")
    p.add_argument("--augment-factor", dest="augment_factor", type=int, help="train-set expansion (default 10)")
    p.add_argument("--val-size", dest="val_size", type=int, help="validation size (default per task)")
    p.add_argument("--spec", help="JSON file of network hyperparameter overrides")
    _add_common(p)

    p = sub.add_parser("eval-classifier", help="evaluate a trained classifier on an archive")
    p.add_argument("--input", help="sequence archive")
    p.add_argument("--model", help="classifier checkpoint")
    p.add_argument("--stats", help="normalization stats (default: next to model)")
    p.add_argument("--out", help="optional output directory for eval.json")
    _add_common(p)

    p = sub.add_parser("train-gan", help="train a sequence generator")
    p.add_argument("--input", help="sequence archive (world-space or normalized with stats)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--kind", choices=["dcgan", "wgan-gp", "cond-wgan-gp"], help="objective (default wgan-gp)")
    p.add_argument("--epochs", type=int, help="training epochs (default 10)")
    p.add_argument("--batch", type=int, help="batch size (default 64)")
    p.add_argument("--critic-steps", dest="critic_steps", type=int, help="critic updates per generator step (default 15)")
    p.add_argument("--gp-lambda", dest="gp_lambda", type=float, help="gradient penalty weight (default 10)")
    p.add_argument("--gen-batchnorm", dest="gen_batchnorm", choices=["on", "off"], help="generator batch norm (default off)")
    p.add_argument("--lr", type=float, help="Adam learning rate (default per kind)")
    _add_common(p)

    p = sub.add_parser("generate", help="sample sequences from a trained generator")
    p.add_argument("--model", help="generator checkpoint")
    p.add_argument("--stats", help="normalization stats (default: next to model)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--count", type=int, help="number of sequences (default 5)")
    p.add_argument("--label", help="condition, e.g. weight=heavy,balance=balanced")
    p.add_argument("--render", action="store_const", const=True, help="also export geometry")
    p.add_argument("--render-format", dest="render_format", choices=["jsonl", "svg_ortho"], help="geometry format (default jsonl)")
    _add_common(p)

    p = sub.add_parser("render", help="export skeleton geometry for sequences")
    p.add_argument("--input", help="sequence archive or bare coordinate CSV")
    p.add_argument("--out", help="output directory")
    p.add_argument("--format", choices=["jsonl", "svg_ortho"], help="export format (default svg_ortho)")
    p.add_argument("--topology", help="bone table JSON (default built-in)")
    _add_common(p)

    p = sub.add_parser("stats", help="label frequency tables for a corpus or archive")
    p.add_argument("--input", help="trial directory or sequence archive")
    p.add_argument("--out", help="optional output directory for stats.json")
    _add_common(p)

    return parser


COMMANDS = {
    "ingest": (cmd_ingest, INGEST_DEFAULTS),
    "augment": (cmd_augment, AUGMENT_DEFAULTS),
    "train-classifier": (cmd_train_classifier, TRAIN_CLASSIFIER_DEFAULTS),
    "eval-classifier": (cmd_eval_classifier, EVAL_CLASSIFIER_DEFAULTS),
    "train-gan": (cmd_train_gan, TRAIN_GAN_DEFAULTS),
    "generate": (cmd_generate, GENERATE_DEFAULTS),
    "render": (cmd_render, RENDER_DEFAULTS),
    "stats": (cmd_stats, STATS_DEFAULTS),
}


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
    command, defaults = COMMANDS[args.subcommand]
    try:
        resolved = _resolve(args, defaults)
        return command(resolved)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MocapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
