"""Per-layer tracing: span wrappers around each offlang module's public
functions, installed from outside the program, and the per-layer metrics
computed from the recorded spans.

`train.py`, `evaluation.py` and `cli.py` bind `forward`, `backward`,
`encode_corpus`, `normalize`, `augment_corpus`, ... with `from ... import`,
so each name is wrapped on the module that consumes it. Functions that their
own module calls through its globals (`gelu`, `map_emoji`, `translate`, the
cache methods) are wrapped where they are defined.
"""

from __future__ import annotations

import re
import statistics

import numpy as np

from spans import Patcher, Span, Tracer

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# name -> (unit, better); the traced run emits exactly these.
PER_LAYER = {
    "encoder.forward_train_s": ("s", "lower"),
    "encoder.forward_infer_s": ("s", "lower"),
    "encoder.backward_s": ("s", "lower"),
    "encoder.gelu_s": ("s", "lower"),
    "encoder.gelu_grad_s": ("s", "lower"),
    "encoder.encode_corpus_s": ("s", "lower"),
    "encoder.pad_useful_ratio": ("ratio", "higher"),
    "encoder.matmul_gflop": ("GFLOP", "lower"),
    "encoder.useful_gflop_ratio": ("ratio", "higher"),
    "encoder.cache_peak_mb": ("MiB", "lower"),
    "encoder.ckpt_save_s": ("s", "lower"),
    "encoder.ckpt_load_s": ("s", "lower"),
    "encoder.import_s": ("s", "lower"),
    "train.adam_step_s": ("s", "lower"),
    "train.adam_steps": ("count", "lower"),
    "train.self_s": ("s", "lower"),
    "train.frozen_forward_rows": ("count", "lower"),
    "evaluation.predict_s": ("s", "lower"),
    "evaluation.self_s": ("s", "lower"),
    "normalize.s": ("s", "lower"),
    "normalize.self_s": ("s", "lower"),
    "normalize.map_emoji_s": ("s", "lower"),
    "normalize.segment_hashtag_s": ("s", "lower"),
    "normalize.segment_hashtag_calls": ("count", "lower"),
    "normalize.hashtag_distinct_ratio": ("ratio", "lower"),
    "augment.cache_put_s": ("s", "lower"),
    "augment.cache_put_calls": ("count", "lower"),
    "augment.cache_get_s": ("s", "lower"),
    "augment.cache_open_s": ("s", "lower"),
    "augment.translate_calls": ("count", "lower"),
    "augment.provider_calls": ("count", "lower"),
    "augment.cache_hit_ratio": ("ratio", "higher"),
    "augment.skipped_pivots": ("count", "lower"),
    "corpus.load_rows_per_s": ("rows/s", "higher"),
    "corpus.save_s": ("s", "lower"),
    "weaklabel.build_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return 0


def _layer_flops(batch: int, t_lin: float, t_sq: float, h: int, ffn: int) -> float:
    """Multiply-add flops of one encoder layer: QKV and output projections,
    the two FFN matmuls (linear in tokens) and scores/context (quadratic)."""
    return 2 * batch * t_lin * (4 * h * h + 2 * h * ffn) + 4 * batch * t_sq * h


def forward_flops(config, mask: np.ndarray) -> tuple[float, float]:
    """(padded, useful) matmul flops of one forward over a (B, T) mask."""
    batch, length = mask.shape
    real = mask.sum(axis=1)
    h, ffn, layers = config.hidden_size, config.ffn, config.num_layers
    padded = layers * _layer_flops(batch, length, length * length, h, ffn)
    useful = layers * (
        2 * float(real.sum()) * (4 * h * h + 2 * h * ffn) + 4 * float((real * real).sum()) * h
    )
    return padded, useful


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every measured offlang entry point in a span."""
    import offlang.augment as augment
    import offlang.cli as cli
    import offlang.encoder as encoder
    import offlang.evaluation as evaluation
    import offlang.normalize as normalize
    import offlang.train as train
    from offlang.encoder import PAD_ID

    def wrap(owner, attr, name, observe=None):
        patcher.replace(owner, attr, lambda fn: tracer.wrap(fn, name, observe))

    def observe_forward(via):
        def observe(span, args, kwargs, result):
            model, ids, mask = args[:3]
            padded, useful = forward_flops(model.config, mask)
            span.attrs = dict(
                train=bool(kwargs.get("train", False)), via=via, rows=int(ids.shape[0]),
                real=float(mask.sum()), slots=int(mask.size), flops=padded,
                useful_flops=useful, cache_bytes=_array_bytes(result[1]),
            )
        return observe

    def observe_backward(span, args, kwargs, result):
        model, cache = args[:2]
        mask = (cache["ids"] != PAD_ID).astype(float)
        padded, useful = forward_flops(model.config, mask)
        # The backward pass does two matmuls per forward matmul.
        span.attrs = {"flops": 2 * padded, "useful_flops": 2 * useful}

    def observe_rows(span, args, kwargs, result):
        span.attrs = {"rows": len(result)}

    def observe_tag(span, args, kwargs, result):
        span.attrs = {"tag": args[0]}

    def observe_get(span, args, kwargs, result):
        span.attrs = {"hit": result is not None}

    def observe_augment(span, args, kwargs, result):
        corpus, pivots = args[:2]
        span.attrs = {"skipped": (1 + len(pivots.pivots)) * len(corpus) - len(result)}

    for owner, via in ((train, "train"), (evaluation, "evaluation")):
        wrap(owner, "forward", "encoder.forward", observe_forward(via))
        wrap(owner, "encode_corpus", "encoder.encode_corpus")
    wrap(evaluation, "build_vocab", "encoder.build_vocab")
    wrap(cli, "build_vocab", "encoder.build_vocab")
    wrap(train, "backward", "encoder.backward", observe_backward)
    wrap(encoder, "gelu", "encoder.gelu")
    wrap(encoder, "gelu_grad", "encoder.gelu_grad")
    wrap(train, "save_checkpoint", "encoder.save_checkpoint")
    wrap(train, "load_checkpoint", "encoder.load_checkpoint")

    wrap(train, "adam_step", "train.adam_step")
    wrap(train, "train_single", "train.train_single")
    wrap(train, "train_dual", "train.train_dual")
    wrap(cli, "train_single", "train.train_single")

    wrap(evaluation, "predict_labels", "evaluation.predict_labels")
    wrap(evaluation, "evaluate", "evaluation.evaluate")
    wrap(cli, "predict_labels", "evaluation.predict_labels")
    wrap(cli, "evaluate", "evaluation.evaluate")
    wrap(cli, "ablation_english", "evaluation.ablation_english")

    wrap(cli, "normalize", "normalize.normalize")
    wrap(normalize, "map_emoji", "normalize.map_emoji")
    wrap(normalize, "segment_hashtag", "normalize.segment_hashtag", observe_tag)

    wrap(cli, "augment_corpus", "augment.augment_corpus", observe_augment)
    wrap(augment, "translate", "augment.translate")
    wrap(augment.TranslationCache, "__init__", "augment.cache_open")
    wrap(augment.TranslationCache, "get", "augment.cache_get", observe_get)
    wrap(augment.TranslationCache, "put", "augment.cache_put")
    wrap(augment.MockTaggingProvider, "translate", "augment.provider_translate")

    wrap(cli, "load_labeled_tsv", "corpus.load_labeled_tsv", observe_rows)
    wrap(cli, "load_scored_tsv", "corpus.load_scored_tsv", observe_rows)
    wrap(cli, "save_labeled_tsv", "corpus.save_labeled_tsv")
    wrap(cli, "corpus_stats", "corpus.corpus_stats")

    wrap(cli, "build_weak_corpus", "weaklabel.build_weak_corpus")


def repeat_metrics(spans: list[Span], selfs: list[float], run_id: int) -> dict[str, float]:
    """Per-layer metrics over the spans of one traced repeat (all but
    encoder.import_s, which comes from separate interpreters)."""
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for span, self_s in zip(spans, selfs):
        if span.run_id == run_id:
            by_name.setdefault(span.name, []).append((span, self_s))

    def group(*names):
        return [pair for n in names for pair in by_name.get(n, ())]

    def total(*names):
        return sum(s.duration for s, _ in group(*names))

    def self_total(*names):
        return sum(x for _, x in group(*names))

    forwards = [s for s, _ in group("encoder.forward")]
    flops = forwards + [s for s, _ in group("encoder.backward")]
    padded = sum(s.attrs["flops"] for s in flops)
    gets = [s for s, _ in group("augment.cache_get")]
    tags = [s.attrs["tag"] for s, _ in group("normalize.segment_hashtag")]
    loads = group("corpus.load_labeled_tsv", "corpus.load_scored_tsv")
    cli_names = [n for n in by_name if n.startswith("cli.")]
    return {
        "encoder.forward_train_s": sum(s.duration for s in forwards if s.attrs["train"]),
        "encoder.forward_infer_s": sum(s.duration for s in forwards if not s.attrs["train"]),
        "encoder.backward_s": total("encoder.backward"),
        "encoder.gelu_s": total("encoder.gelu"),
        "encoder.gelu_grad_s": total("encoder.gelu_grad"),
        "encoder.encode_corpus_s": total("encoder.encode_corpus"),
        "encoder.pad_useful_ratio": _ratio(
            sum(s.attrs["real"] for s in forwards), sum(s.attrs["slots"] for s in forwards)
        ),
        "encoder.matmul_gflop": padded / 1e9,
        "encoder.useful_gflop_ratio": _ratio(sum(s.attrs["useful_flops"] for s in flops), padded),
        "encoder.cache_peak_mb": max((s.attrs["cache_bytes"] for s in forwards), default=0) / 2**20,
        "encoder.ckpt_save_s": total("encoder.save_checkpoint"),
        "encoder.ckpt_load_s": total("encoder.load_checkpoint"),
        "train.adam_step_s": total("train.adam_step"),
        "train.adam_steps": len(group("train.adam_step")),
        "train.self_s": self_total("train.train_single", "train.train_dual"),
        "train.frozen_forward_rows": sum(
            s.attrs["rows"] for s in forwards if s.attrs["via"] == "train" and not s.attrs["train"]
        ),
        "evaluation.predict_s": total("evaluation.predict_labels"),
        "evaluation.self_s": self_total(
            "evaluation.predict_labels", "evaluation.evaluate", "evaluation.ablation_english"
        ),
        "normalize.s": total("normalize.normalize"),
        "normalize.self_s": self_total("normalize.normalize"),
        "normalize.map_emoji_s": total("normalize.map_emoji"),
        "normalize.segment_hashtag_s": total("normalize.segment_hashtag"),
        "normalize.segment_hashtag_calls": len(tags),
        "normalize.hashtag_distinct_ratio": _ratio(len(set(tags)), len(tags)),
        "augment.cache_put_s": total("augment.cache_put"),
        "augment.cache_put_calls": len(group("augment.cache_put")),
        "augment.cache_get_s": total("augment.cache_get"),
        "augment.cache_open_s": total("augment.cache_open"),
        "augment.translate_calls": len(group("augment.translate")),
        "augment.provider_calls": len(group("augment.provider_translate")),
        "augment.cache_hit_ratio": _ratio(sum(s.attrs["hit"] for s in gets), len(gets)),
        "augment.skipped_pivots": sum(s.attrs["skipped"] for s, _ in group("augment.augment_corpus")),
        "corpus.load_rows_per_s": _ratio(sum(s.attrs["rows"] for s, _ in loads), sum(s.duration for s, _ in loads)),
        "corpus.save_s": total("corpus.save_labeled_tsv"),
        "weaklabel.build_s": total("weaklabel.build_weak_corpus"),
        "cli.self_s": self_total(*cli_names),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the lower median over repeats: an observed value, so a
    count stays a whole number."""
    return {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
