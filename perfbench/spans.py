"""Spans around the program's public functions, and the per-layer metrics.

`install` replaces module attributes of mocapsynth with thin wrappers
defined here, so every call the CLI makes into `dataset`, `augment`,
`container`, `nn`, `gan`, `classifier` and `render` is recorded as a
span (name, start, end, parent, attributes). Spans stay in memory; the
worker writes them out when the run ends. `uninstall` puts the original
functions back, so untraced rounds run the program unmodified.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import weakref


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, attrs=None):
        """fn inside a span; attrs(args, kwargs, result) is evaluated after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                return fn(*args, **kwargs)
            rec = self.begin(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr: str, name, attrs=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, attrs))

    def install(self) -> None:
        import mocapsynth.classifier.network as clf_network
        import mocapsynth.classifier.training as clf_training
        import mocapsynth.cli as cli
        import mocapsynth.dataset.archive as archive
        import mocapsynth.gan.losses as gan_losses
        import mocapsynth.gan.training as gan_training
        import mocapsynth.nn.checkpoint as checkpoint
        import mocapsynth.nn.tensor as tensor
        from mocapsynth.nn import Adam, Sequential

        size_of = lambda a, k, out: {"bytes": os.path.getsize(a[0])}  # noqa: E731
        for module in (cli, archive, checkpoint, clf_network):
            self.patch(module, "write_container", "container.write", size_of)
            self.patch(module, "read_container", "container.read", size_of)

        n_of = lambda a, k, out: {"n": len(out)}  # noqa: E731
        self.patch(cli, "load_trials", "dataset.load_trials", lambda a, k, out: {"n": len(out.trials)})
        self.patch(cli, "trim_to_motion", "dataset.trim")
        self.patch(cli, "resample_centered", "dataset.resample")
        self.patch(cli, "fit_normalizer", "dataset.fit_normalizer")
        self.patch(cli, "apply_zscore", "dataset.apply_zscore")
        self.patch(cli, "save_sequences", "dataset.save_sequences")
        self.patch(cli, "load_sequences", "dataset.load_sequences")
        self.patch(cli, "write_sequence_csv", "dataset.write_sequence_csv")
        self.patch(cli, "augment_dataset", "augment.augment_dataset", n_of)
        self.patch(cli, "train_classifier", "classifier.train_classifier",
                   lambda a, k, out: {"epochs": len(out.train_loss)})
        self.patch(clf_training, "predict_logits", "classifier.predict_logits")
        self.patch(cli, "train_gan", "gan.train_gan", lambda a, k, out: {"steps": out[2].gen_updates})
        self.patch(cli, "generate_sequences", "gan.generate_sequences")
        self.patch(gan_training, "gradient_penalty", "gan.gradient_penalty")
        self.patch(gan_training, "sample_generator", "gan.sample_generator", lambda a, k, out: {"n": len(out)})
        self.patch(cli, "build_geometry", "render.build_geometry")
        self.patch(cli, "export_jsonl", "render.export_jsonl")
        self.patch(cli, "export_svg_ortho", "render.export_svg_ortho", n_of)

        # critic and generator are both Sequential: remember which is which
        for factory, role in (("build_generator", "generator"), ("build_critic", "critic")):
            original = getattr(gan_training, factory)

            def build(*args, _original=original, _role=role, **kwargs):
                model = _original(*args, **kwargs)
                self._roles[model] = _role
                return model

            self._patched.append((gan_training, factory, original))
            setattr(gan_training, factory, build)

        def training(args, kwargs):
            return kwargs.get("training", args[2] if len(args) > 2 else False)

        def sequential_name(args, kwargs):
            role = self._roles.get(args[0])
            return f"nn.{role}_forward" if role and training(args, kwargs) else None

        self.patch(Sequential, "__call__", sequential_name)
        self.patch(clf_network.HierarchicalClassifier, "forward",
                   lambda a, k: "nn.classifier_forward" if training(a, k) else None)
        self.patch(tensor.Tensor, "backward", "nn.backward")
        self.patch(tensor, "backward_pass", "nn.backward_pass", lambda a, k, out: {"nodes": len(out)})
        self.patch(gan_losses, "grad", lambda a, k: "nn.gp_grad" if k.get("create_graph") else "nn.grad")
        self.patch(Adam, "step", "nn.adam_step")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------ metrics


def _durations(spans):
    by_name: dict[str, list[tuple[float, dict]]] = {}
    for name, start, end, _parent, attrs in spans:
        by_name.setdefault(name, []).append((end - start, attrs))
    return by_name


def _mean(scale):
    def metric(by, name):
        rows = by.get(name)
        return scale * statistics.fmean(d for d, _ in rows) if rows else None

    return metric


def _per(key, scale=1.0, names=None):
    """Total time of the spans named `names` per unit of attribute `key`."""

    def metric(by, name):
        rows = [r for n in (names or [name]) for r in by.get(n, [])]
        units = sum(a.get(key, 0) for _, a in rows)
        return scale * sum(d for d, _ in rows) / units if units else None

    return metric


def _rate(key, scale=1.0):
    """Units of attribute `key` per second of the named spans."""

    def metric(by, name):
        rows = by.get(name, [])
        seconds = sum(d for d, _ in rows)
        return scale * sum(a[key] for _, a in rows) / seconds if seconds else None

    return metric


def _per_count(names, per, scale):
    """Total time of spans `names` divided by the number of `per` spans."""

    def metric(by, _name):
        count = len(by.get(per, []))
        total = sum(d for n in names for d, _ in by.get(n, []))
        return scale * total / count if count else None

    return metric


def _max_attr(key):
    def metric(by, name):
        rows = by.get(name)
        return max(a[key] for _, a in rows) if rows else None

    return metric


# (metric, unit, better, span name read, how)
PER_LAYER = [
    ("cli.ingest_s", "s", "lower", "cli.ingest", _mean(1.0)),
    ("cli.augment_s", "s", "lower", "cli.augment", _mean(1.0)),
    ("cli.train_gan_s", "s", "lower", "cli.train-gan", _mean(1.0)),
    ("cli.train_classifier_s", "s", "lower", "cli.train-classifier", _mean(1.0)),
    ("cli.generate_s", "s", "lower", "cli.generate", _mean(1.0)),
    ("cli.render_s", "s", "lower", "cli.render", _mean(1.0)),
    ("nn.critic_forward_ms", "ms", "lower", "nn.critic_forward", _mean(1e3)),
    ("nn.generator_forward_ms", "ms", "lower", "nn.generator_forward", _mean(1e3)),
    ("nn.classifier_forward_ms", "ms", "lower", "nn.classifier_forward", _mean(1e3)),
    ("nn.backward_ms", "ms", "lower", "nn.backward", _mean(1e3)),
    ("nn.gp_grad_ms", "ms", "lower", "nn.gp_grad", _mean(1e3)),
    ("nn.adam_step_ms", "ms", "lower", "nn.adam_step", _mean(1e3)),
    ("nn.backward_nodes", "count", "lower", "nn.backward_pass", _max_attr("nodes")),
    ("gan.gp_ms", "ms", "lower", "gan.gradient_penalty", _mean(1e3)),
    ("gan.gen_step_s", "s", "lower", "gan.train_gan", _per("steps")),
    ("gan.sample_ms_per_seq", "ms", "lower", "gan.sample_generator", _per("n", 1e3)),
    ("classifier.epoch_s", "s", "lower", "classifier.train_classifier", _per("epochs")),
    ("classifier.eval_ms", "ms", "lower", "classifier.predict_logits", _mean(1e3)),
    ("augment.seq_per_s", "seq/s", "higher", "augment.augment_dataset", _rate("n")),
    ("dataset.load_trials_ms_per_trial", "ms", "lower", "dataset.load_trials", _per("n", 1e3)),
    ("dataset.trim_resample_ms_per_trial", "ms", "lower", "dataset.trim",
     _per_count(["dataset.trim", "dataset.resample"], "dataset.trim", 1e3)),
    ("dataset.normalize_ms", "ms", "lower", "dataset.fit_normalizer",
     _per_count(["dataset.fit_normalizer", "dataset.apply_zscore"], "dataset.fit_normalizer", 1e3)),
    ("dataset.save_sequences_ms", "ms", "lower", "dataset.save_sequences", _mean(1e3)),
    ("dataset.load_sequences_ms", "ms", "lower", "dataset.load_sequences", _mean(1e3)),
    ("container.write_mb_per_s", "MB/s", "higher", "container.write", _rate("bytes", 1e-6)),
    ("container.read_mb_per_s", "MB/s", "higher", "container.read", _rate("bytes", 1e-6)),
    ("render.geometry_ms_per_seq", "ms", "lower", "render.build_geometry", _mean(1e3)),
    ("render.jsonl_ms_per_seq", "ms", "lower", "render.export_jsonl", _mean(1e3)),
    ("render.svg_ms_per_frame", "ms", "lower", "render.export_svg_ortho", _per("n", 1e3)),
]
LAYERS = ("cli", "nn", "gan", "classifier", "augment", "dataset", "container", "render")
SELF_TIME = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
OVERHEAD = [("trace.overhead_s", "s", "lower"), ("trace.overhead_pct", "%", "lower")]


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    return [(m, u, b) for m, u, b, _, _ in PER_LAYER] + SELF_TIME + OVERHEAD


def layer_metrics(spans, rounds: int) -> dict[str, float]:
    """Per-layer metrics of `rounds` traced rounds; layers never called are absent."""
    by = _durations(spans)
    out = {}
    for metric, _unit, _better, span, how in PER_LAYER:
        value = how(by, span)
        if value is not None:
            out[metric] = value
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    for i, (name, start, end, _parent, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[i]
    for layer, seconds in self_time.items():
        out[f"{layer}.self_s"] = seconds / rounds
    return out
