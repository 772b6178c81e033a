"""The three workloads: how each builds its inputs, what one round runs, and its checks.

A round is a fixed list of CLI calls. Every round of a run makes the
same calls on the same inputs, so rounds are comparable with each other
and their outputs must be byte-identical. Each workload has a full size,
which the measured runs use, and a smoke size, which runs in seconds.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# write_corpus writes trials with a 36-frame carry; the in-memory
# archives below are built the same way.
CORPUS_CARRY = 36


@dataclass(frozen=True)
class Size:
    trials: int = 805  # corpus trials kept in an in-memory archive
    factor: int = 1  # augment factor
    batch: int = 64
    critic_steps: int = 15
    epochs: int = 1
    count: int = 0  # sequences generated per round
    renders: int = 0  # generated sequences rendered to SVG per round


def _sequences(seed: int, trials: int):
    from mocapsynth.dataset import resample_centered, trim_to_motion
    from mocapsynth.dataset.synthetic import make_corpus

    corpus = make_corpus(seed, carry=CORPUS_CARRY)[:trials]
    return [resample_centered(trim_to_motion(t)) for t in corpus]


@dataclass(frozen=True)
class Check:
    """One named correctness check; `run()` returns None or the reason it failed."""

    name: str
    run: Callable[[], str | None]


class Workload:
    name = ""
    full = Size()
    smoke = Size()

    def setup(self, d: Path, seed: int, size: Size) -> None:
        raise NotImplementedError

    def round(self, d: Path, seed: int, size: Size) -> list[list[str]]:
        """CLI argument lists of one round; outputs go under d / 'out'."""
        raise NotImplementedError

    def sequences(self, d: Path, size: Size) -> int:
        """Sequences one round processes (the unit of seq_per_s)."""
        raise NotImplementedError

    def checks(self, d: Path, seed: int, size: Size, run_cli, log: list[str]) -> list[Check]:
        raise NotImplementedError


# ---------------------------------------------------------------- wgan-train


class WganTrain(Workload):
    name = "wgan-train"
    full = Size(factor=3, batch=64, critic_steps=15, epochs=1)
    smoke = Size(trials=40, factor=2, batch=8, critic_steps=2, epochs=1)

    def setup(self, d, seed, size):
        from mocapsynth.augment import AugmentSpec, augment_dataset
        from mocapsynth.dataset import save_sequences

        seqs = augment_dataset(_sequences(seed, size.trials), AugmentSpec(factor=size.factor, seed=seed))
        save_sequences(d / "archive.bin", seqs)

    def round(self, d, seed, size):
        return [[
            "train-gan", "--input", str(d / "archive.bin"), "--out", str(d / "out" / "gan"),
            "--kind", "wgan-gp", "--epochs", str(size.epochs), "--batch", str(size.batch),
            "--critic-steps", str(size.critic_steps), "--seed", str(seed),
        ]]

    def gen_steps(self, d, size) -> int:
        return oracle.archive_count(d / "archive.bin") // size.batch // size.critic_steps * size.epochs

    def sequences(self, d, size):
        return self.gen_steps(d, size) * size.critic_steps * size.batch

    def checks(self, d, seed, size, run_cli, log):
        gan = d / "out" / "gan"

        def finite():
            history = json.loads((gan / "history.json").read_text())
            for key in ("w_estimate", "penalty", "critic_loss", "gen_loss"):
                if not history[key] or not all(math.isfinite(v) for v in history[key]):
                    return f"history {key} is empty or not finite"
            return None

        def steps():
            history = json.loads((gan / "history.json").read_text())
            want = self.gen_steps(d, size)
            got = (history["gen_updates"], len(history["w_estimate"]))
            return None if got == (want, want) else f"generator steps {got}, want {want}"

        def generator_forward():
            from mocapsynth.gan import GeneratorSpec, sample_generator
            from mocapsynth.nn import load_model

            model, meta = load_model(gan / "generator.model")
            spec = GeneratorSpec.from_dict(meta["spec"])
            got = sample_generator(model, spec, 8, seed=seed)
            want = oracle.sequential(*oracle.load_sequential(gan / "generator.model")[:2], _noise(seed, 8, spec.noise_dim))
            err = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
            return None if err < 1e-10 else f"sample_generator differs from the reference forward by {err:.3g}"

        def critic_gradient():
            return _critic_gradient(d, gan, seed)

        return [
            Check("wgan.history_finite", finite),
            Check("wgan.generator_steps", steps),
            Check("wgan.generator_forward", generator_forward),
            Check("wgan.critic_input_gradient", critic_gradient),
        ]


def _noise(seed: int, n: int, dim: int) -> np.ndarray:
    """The latent draw sample_generator makes: the program's own seeded stream."""
    from mocapsynth.seeding import derive_rng

    return derive_rng(seed, "sample").standard_normal((n, dim))


def _critic_gradient(d: Path, gan: Path, seed: int) -> str | None:
    """nn.grad of the saved critic at interpolates against central differences.

    The critic is piecewise linear (convolutions, dense layers, leaky
    ReLU). The reference forward keeps each interpolate's activation
    pattern fixed, which makes it the affine map that autodiff
    differentiates there, so its central difference is exact up to
    rounding even when the interpolate sits next to a kink.
    """
    from mocapsynth.nn import Tensor, load_model, tsum
    from mocapsynth.nn import grad as nn_grad

    critic, _ = load_model(gan / "critic.model")
    specs, params, _ = oracle.load_sequential(gan / "critic.model")
    gen_specs, gen_params, gen_extra = oracle.load_sequential(gan / "generator.model")
    _, stats = oracle.read_arrays(gan / "norm-stats.bin")
    _, archive = oracle.read_arrays(d / "archive.bin")
    rng = np.random.default_rng([seed, 2017])
    n = 3
    real = (archive["data"][rng.choice(archive["data"].shape[0], n, replace=False)] - stats["norm_mean"]) / stats["norm_std"]
    fake = oracle.sequential(gen_specs, gen_params, rng.standard_normal((n, gen_extra["spec"]["noise_dim"])))
    eps = rng.uniform(size=(n, 1, 1))
    x_hat = eps * real + (1.0 - eps) * fake

    x = Tensor(x_hat, requires_grad=True)
    scores = critic(x, training=True)
    (g,) = nn_grad(tsum(scores), [x], create_graph=True)
    ref_scores = oracle.sequential(specs, params, x_hat)
    if np.max(np.abs(scores.data - ref_scores)) > 1e-9 * max(1.0, np.max(np.abs(ref_scores))):
        return "critic forward differs from the reference forward"

    h = 1e-3
    for i in range(n):
        centre = x_hat[i : i + 1]
        pattern: list = []
        oracle.sequential(specs, params, centre, masks=pattern)
        for _ in range(4):
            v = rng.standard_normal(centre.shape)
            v /= np.linalg.norm(v)
            plus, minus = (oracle.sequential(specs, params, centre + sign * h * v, frozen=pattern).item()
                           for sign in (1.0, -1.0))
            fd = (plus - minus) / (2 * h)
            an = float(np.sum(g.data[i] * v[0]))
            if abs(fd - an) > 1e-8 * max(1.0, abs(an)):
                return f"interpolate {i}: nn.grad gives {an:.12g}, central difference {fd:.12g}"
    return None


# ---------------------------------------------------------- classifier-train


class ClassifierTrain(Workload):
    name = "classifier-train"
    full = Size(factor=10, batch=32, epochs=2)
    smoke = Size(factor=2, batch=32, epochs=1)
    validation = 50  # the weight task's default validation size

    def setup(self, d, seed, size):
        from mocapsynth.dataset import save_sequences

        save_sequences(d / "ingested.bin", _sequences(seed, size.trials))

    def round(self, d, seed, size):
        return [[
            "train-classifier", "--input", str(d / "ingested.bin"), "--out", str(d / "out" / "clf"),
            "--task", "weight", "--epochs", str(size.epochs), "--batch", str(size.batch),
            "--augment-factor", str(size.factor), "--seed", str(seed),
        ]]

    def train_count(self, d, size) -> int:
        """factor x (2 x rarest weight class - validation), from the archive labels."""
        meta, _ = oracle.read_header(d / "ingested.bin")
        _, weights = oracle.label_tables(meta["meta"]["labels"])
        return size.factor * (2 * min(weights[w] for w in oracle.WEIGHT_TASK) - self.validation)

    def sequences(self, d, size):
        return self.train_count(d, size) * size.epochs

    def checks(self, d, seed, size, run_cli, log):
        clf = d / "out" / "clf"

        def train_count():
            want = self.train_count(d, size)
            published = size.factor * (2 * oracle.PUBLISHED_WEIGHT_COUNTS[640] - self.validation)
            seen = [int(m.group(1)) for line in log for m in [re.match(r"training on (\d+) sequences", line)] if m]
            if not seen or set(seen) != {want} or want != published:
                return f"training set sizes {sorted(set(seen))}, archive gives {want}, published {published}"
            return None

        def evaluation():
            out = d / "out" / "eval"
            if run_cli(["eval-classifier", "--input", str(d / "ingested.bin"), "--model",
                        str(clf / "classifier.model"), "--out", str(out), "--seed", str(seed)]) != 0:
                return "eval-classifier failed"
            report = json.loads((out / "eval.json").read_text())
            meta, arrays = oracle.read_arrays(d / "ingested.bin")
            _, stats = oracle.read_arrays(clf / "norm-stats.bin")
            labels = [l["weight_g"] for l in meta["labels"]]
            keep = np.array([w in oracle.WEIGHT_TASK for w in labels])
            y = np.array([oracle.WEIGHT_TASK.index(w) for w in labels if w in oracle.WEIGHT_TASK])
            data = (arrays["data"][keep] - stats["norm_mean"]) / stats["norm_std"]
            pred = oracle.classifier_logits(clf / "classifier.model", oracle.cluster_views(data)).argmax(axis=1)
            confusion = np.zeros((2, 2), dtype=int)
            np.add.at(confusion, (y, pred), 1)
            accuracy = float(np.trace(confusion) / y.size)
            if report["n"] != y.size or report["confusion"] != confusion.tolist() or report["accuracy"] != accuracy:
                return f"eval-classifier reports {report['accuracy']} {report['confusion']}, reference {accuracy} {confusion.tolist()}"
            return None

        return [Check("classifier.train_count", train_count), Check("classifier.evaluation", evaluation)]


# ------------------------------------------------------------ synth-pipeline


class SynthPipeline(Workload):
    name = "synth-pipeline"
    full = Size(factor=27, count=16, renders=2)
    smoke = Size(factor=2, count=2, renders=1)

    def setup(self, d, seed, size):
        from mocapsynth.augment import AugmentSpec, augment_dataset
        from mocapsynth.cli import STATS_KIND
        from mocapsynth.container import write_container
        from mocapsynth.dataset import fit_normalizer
        from mocapsynth.dataset.synthetic import write_corpus
        from mocapsynth.gan import CriticSpec, GanTrainSpec, GeneratorSpec, build_critic, build_generator, save_gan

        write_corpus(d / "trials", seed=seed, carry=CORPUS_CARRY)
        # a freshly initialised paper-size generator, with stats fitted on
        # an augmented corpus subset (the bowl height varies only once scaled)
        gen_spec, critic_spec = GeneratorSpec(), CriticSpec()
        save_gan(d / "gen", build_generator(gen_spec, seed), build_critic(critic_spec, seed),
                 gen_spec, critic_spec, GanTrainSpec(seed=seed))
        stats = fit_normalizer(augment_dataset(_sequences(seed, 64), AugmentSpec(factor=2, seed=seed)))
        write_container(d / "gen" / "norm-stats.bin", STATS_KIND, {}, stats.to_arrays())

    def round(self, d, seed, size):
        out = d / "out"
        calls = [
            ["ingest", "--input", str(d / "trials"), "--out", str(out / "ing"), "--seed", str(seed)],
            ["augment", "--input", str(out / "ing" / "sequences.bin"), "--out", str(out / "aug"),
             "--factor", str(size.factor), "--seed", str(seed)],
            ["generate", "--model", str(d / "gen" / "generator.model"), "--out", str(out / "gen"),
             "--count", str(size.count), "--render", "--seed", str(seed)],
        ]
        for i in range(size.renders):
            calls.append(["render", "--input", str(out / "gen" / f"generated{i:04d}.csv"),
                          "--out", str(out / "svg" / str(i)), "--format", "svg_ortho", "--seed", str(seed)])
        return calls

    def sequences(self, d, size):
        return oracle.archive_count(d / "out" / "ing" / "sequences.bin")

    def checks(self, d, seed, size, run_cli, log):
        out = d / "out"

        def ingest():
            meta, _ = oracle.read_header(out / "ing" / "sequences.bin")
            meta = meta["meta"]
            strategies, weights = oracle.label_tables(meta["labels"])
            got = (len(meta["labels"]), meta["extra"]["skipped_missing_c7"], dict(strategies), dict(weights))
            want = (oracle.PUBLISHED_KEPT, oracle.PUBLISHED_MISSING_C7,
                    oracle.PUBLISHED_STRATEGY_COUNTS, oracle.PUBLISHED_WEIGHT_COUNTS)
            return None if got == want else f"ingest kept/skipped/labels {got}, published {want}"

        def augment():
            _, src = oracle.read_arrays(out / "ing" / "sequences.bin")
            _, aug = oracle.read_arrays(out / "aug" / "sequences.bin")
            n = src["data"].shape[0]
            if aug["data"].shape[0] != size.factor * n:
                return f"augment wrote {aug['data'].shape[0]} sequences, want {size.factor} x {n}"
            groups = aug["data"].reshape(n, size.factor, 32, 16, 3)
            if not np.array_equal(groups[:, 0].reshape(n, 32, 48), src["data"]):
                return "a first copy differs from its source"
            src_gram = oracle.centred_gram(src["data"].reshape(n, 1, 32, 16, 3))
            src_trace = np.trace(src_gram, axis1=-2, axis2=-1)
            for lo in range(0, n, 64):  # chunks keep the temporaries near 100 MB
                gram = oracle.centred_gram(groups[lo : lo + 64, 1:])
                # one squared scale per copy, the same in all 32 frames
                k = np.trace(gram, axis1=-2, axis2=-1) / src_trace[lo : lo + 64]
                k_copy = k.mean(axis=2, keepdims=True)
                err = np.abs(gram - k_copy[..., None, None] * src_gram[lo : lo + 64]).max(axis=(-2, -1))
                if (np.any(np.abs(k - k_copy) > 1e-9 * k_copy) or np.any(err > 1e-9 * src_trace[lo : lo + 64])
                        or k.min() < 0.85**2 - 1e-12 or k.max() > 1.15**2 + 1e-12):
                    return f"sequences {lo}-{lo + 63}: a copy is not one uniform scale in [0.85, 1.15] of its source"
            return None

        def reference_sequences():
            specs, params, extra = oracle.load_sequential(d / "gen" / "generator.model")
            _, stats = oracle.read_arrays(d / "gen" / "norm-stats.bin")
            z = _noise(seed, size.count, extra["spec"]["noise_dim"])
            return oracle.sequential(specs, params, z) * stats["norm_std"] + stats["norm_mean"]

        def generated_csv():
            want = reference_sequences()
            for i in range(size.count):
                got = oracle.read_csv(out / "gen" / f"generated{i:04d}.csv")
                if got.shape != (32, 48) or np.max(np.abs(got - want[i])) > 5e-7 + 1e-12 * np.max(np.abs(want[i])):
                    return f"generated{i:04d}.csv differs from the reference forward"
            return None

        def geometry():
            want = reference_sequences()
            for i in range(size.count):
                lines = (out / "gen" / f"generated{i:04d}.jsonl").read_text().splitlines()
                if len(lines) != 32:
                    return f"generated{i:04d}.jsonl has {len(lines)} frames, want 32"
                for t, line in enumerate(lines):
                    problem = oracle.check_geometry_frame(json.loads(line), want[i, t].reshape(16, 3))
                    if problem:
                        return f"generated{i:04d}.jsonl {problem}"
            return None

        def svgs():
            for i in range(size.renders):
                files = sorted((out / "svg" / str(i)).rglob("*.svg"))
                if len(files) != 32 or not all(oracle.svg_parses(f) for f in files):
                    return f"render {i}: {len(files)} SVG files, want 32 that parse"
            return None

        return [
            Check("synth.ingest_counts", ingest),
            Check("synth.augment_isometry", augment),
            Check("synth.generated_csv", generated_csv),
            Check("synth.jsonl_geometry", geometry),
            Check("synth.svg_parse", svgs),
        ]


WORKLOADS = {w.name: w for w in (WganTrain(), ClassifierTrain(), SynthPipeline())}
