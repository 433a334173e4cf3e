"""Command-line orchestration of the pipeline stages.

Every subcommand resolves its settings once, from an optional YAML config file
and its flags (each flag overrides the config key it names; credentials come
from the environment only), executes one module operation, and writes its
artifacts plus a run manifest to the output directory. Exit codes: 0 success,
1 runtime failure, 2 usage error, 3 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import os
import sys
import types
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from . import train as train_mod
from .augment import (
    HttpProvider,
    MappingProvider,
    MockTaggingProvider,
    PivotSet,
    Policy,
    TranslationCache,
    augment_corpus,
    augment_rows,
)
from .corpus import (
    Corpus,
    LabeledExample,
    atomic_write,
    corpus_stats,
    load_labeled_tsv,
    load_scored_tsv,
    read_labeled,
    save_labeled_tsv,
    split_holdout,
)
from .encoder import EncoderConfig, EncoderModel, build_vocab
from .errors import ArityMismatch, ConfigError, InvalidPivots, OffLangError
from .evaluation import (
    EvalReport,
    ablation_augmentation,
    ablation_english,
    evaluate,
    grid_search,
    predict_labels,
)
from .normalize import NormalizationConfig, normalize
from .train import TrainConfig, train_single
from .weaklabel import WeakLabelConfig, build_weak_corpus, weak_label_file

# No command calls augment_corpus, load_scored_tsv or build_weak_corpus since
# normalize, weaklabel and augment stream their rows, but perfbench/layers.py
# traces them by their names on this module. It traces save_checkpoint and
# load_checkpoint on offlang.train, so they are called through train_mod.

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3

API_KEY_ENV = "OFFLANG_API_KEY"

# glibc's malloc settings for a CLI process (mallopt parameters from malloc.h).
# Unset, glibc mmaps every block of 128 KiB or more and unmaps it on free, and
# it raises that threshold only after the process frees such a block, so
# encoder speed depended on what an earlier stage happened to free: each
# batch's numpy temporaries were faulted in from fresh pages. An inference
# batch at the default encoder (train.FEATURE_BATCH = 128 rows of up to 128
# tokens, 4h = 256) holds float64 temporaries of up to 128 * 128 * 256 * 8
# bytes = 32 MiB, which is also glibc's 64-bit maximum mmap threshold. The trim
# threshold is twice that, the ratio glibc's own adjustment keeps: freed heap
# top below 64 MiB stays resident for the next batch instead of going back to
# the kernel.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


# --- config and manifest helpers ---------------------------------------------


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p, encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
    except yaml.YAMLError as exc:
        detail = " ".join(str(exc).split())
        raise ConfigError(f"config file {p} is not valid YAML: {detail}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must hold a mapping at the top level")
    return data


def _require_input(path: str | None, what: str) -> Path:
    if path is None:
        raise ConfigError(f"missing required {what}")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    if p.is_dir():
        raise ConfigError(f"{what} is a directory: {p}")
    return p


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fingerprint(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


@contextlib.contextmanager
def _run_dir(args, run: RunConfig, seed: int, inputs: list[Path]):
    """The run directory --out-dir, made on entry. Yields artifact(name,
    text=None), which records the artifact `name` and returns its path in
    the directory, writing `text` there atomically when it is given. The
    previous manifest is removed on entry and, on a clean exit, the manifest
    of the recorded artifacts is written last, so it commits the run."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    artifacts: list[Path] = []

    def artifact(name: str, text: str | None = None) -> Path:
        path = out / name
        if text is not None:
            with atomic_write(path) as fh:
                fh.write(text)
        artifacts.append(path)
        return path

    yield artifact
    manifest = {
        "command": args.command,
        "config_fingerprint": _fingerprint(run.raw),
        "seed": seed,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        "artifacts": {p.name: _sha256_file(p) for p in artifacts},
        "versions": {
            "offlang": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    with atomic_write(out / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _normalized(examples, maps: NormalizationConfig):
    """The examples with texts normalized by `maps`, one at a time."""
    return (LabeledExample(ex.id, normalize(ex.text, maps), ex.label) for ex in examples)


# --- the config schema ----------------------------------------------------------


def _list_of(item: type):
    """A parser of comma-separated lists of item, also an argparse type; a
    value that is not a string passes through unchanged."""

    def parse(raw):
        if not isinstance(raw, str):
            return raw
        return [item(v.strip()) for v in raw.split(",") if v.strip()]

    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


@dataclass(frozen=True)
class AugmentConfig:
    """The `augment` section."""

    provider: str = "mock"
    translations: str | None = None
    endpoint: str | None = None
    pivots: str | list[str] | None = None  # "fr,de" or [fr, de]
    policy: str = "fail_fast"
    cache: str | None = None

    def __post_init__(self):
        if self.policy not in {p.value for p in Policy}:
            choices = ", ".join(p.value for p in Policy)
            raise ConfigError(
                f"config key augment.policy must be one of {choices}, got {self.policy!r}"
            )


@dataclass(frozen=True)
class GridConfig:
    """The `grid` section: gridsearch's candidates, each a list or a
    comma-separated string."""

    learning_rates: str | list[float] | None = None
    batch_sizes: str | list[int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "learning_rates", _list_of(float)(self.learning_rates))
        object.__setattr__(self, "batch_sizes", _list_of(int)(self.batch_sizes))
        for lr in self.learning_rates or ():
            TrainConfig.check(learning_rate=lr)
        for batch_size in self.batch_sizes or ():
            TrainConfig.check(batch_size=batch_size)


@dataclass(frozen=True)
class NormalizeMaps:
    """The `normalize_maps` section: all three tables, or none for the
    bundled ones."""

    emoji_map: str | None = None
    slang_map: str | None = None
    lexicon: str | None = None

    def load(self) -> NormalizationConfig:
        if self == NormalizeMaps():
            return NormalizationConfig.bundled()
        return NormalizationConfig.from_paths(
            _require_input(self.emoji_map, "emoji map"),
            _require_input(self.slang_map, "slang map"),
            _require_input(self.lexicon, "lexicon"),
        )


# Each section of a config file: its dataclass, and the fields of that class
# that top-level keys set instead.
SECTIONS = {
    "encoder": (EncoderConfig, ("init_seed",)),
    "train": (TrainConfig, ("language", "seed")),
    "weaklabel": (WeakLabelConfig, ("seed",)),
    "augment": (AugmentConfig, ()),
    "grid": (GridConfig, ()),
    "normalize_maps": (NormalizeMaps, ()),
}


@dataclass(frozen=True)
class RunConfig:
    """Every setting of one command. `train` to `normalize_maps` hold the
    sections of the config file, and the fields from `language` on are its
    top-level keys."""

    raw: dict  # the file as read, which the manifest fingerprints
    train: typing.Callable[[], TrainConfig]  # see _settings
    encoder: EncoderConfig
    weaklabel: WeakLabelConfig
    augment: AugmentConfig
    grid: GridConfig
    normalize_maps: NormalizeMaps
    language: str
    seed: int
    normalize: bool | None = None  # None: normalize English only
    train_file: str | None = None
    scored_file: str | None = None
    test_file: str | None = None
    gold_file: str | None = None
    weak_file: str | None = None
    holdout_fraction: float = 0.2

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"config key seed must be >= 0, got {self.seed}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError(
                f"config key holdout_fraction must be in (0, 1), got {self.holdout_fraction!r}"
            )
        if self.normalize is None:
            object.__setattr__(self, "normalize", self.language == "en")


_NOT_KEYS = ("raw", *SECTIONS)  # RunConfig fields that are not plain keys


_hints = functools.cache(typing.get_type_hints)  # it costs ~0.1 ms a call


@functools.cache
def _owners() -> dict[str, str | None]:
    """Each config key -> the section that holds it (None: the top level)."""
    owners = {key: None for key in _hints(RunConfig) if key not in _NOT_KEYS}
    for name, (cls, fixed) in SECTIONS.items():
        owners.update((key, name) for key in _hints(cls) if key not in fixed)
    return owners


def _checked(values, cls, name: str = "", fixed: tuple[str, ...] = ()) -> dict:
    """A copy of the config section `name` ("" for the top level), which must
    be a mapping from fields of the dataclass cls, other than those in
    `fixed`, to values of the field's type: a bool is not an int, an int is a
    float, a list[t] holds only t, and null only where the field allows None."""
    if not isinstance(values, dict):
        raise ConfigError(f"config section {name!r} must be a mapping, got {values!r}")
    hints = _hints(cls)
    for key, value in values.items():
        path = f"{name}.{key}" if name else key
        if key not in hints or key in fixed:
            raise ConfigError(f"unknown config key {path}")
        hint = hints[key]
        allowed = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        if not any(_is_instance(value, t) for t in allowed):
            expected = " or ".join(_type_name(t) for t in allowed)
            raise ConfigError(f"config key {path} must be {expected}, got {value!r}")
    return dict(values)


def _is_instance(value, t: type) -> bool:
    if typing.get_origin(t) is list:
        (item,) = typing.get_args(t)
        return isinstance(value, list) and all(_is_instance(v, item) for v in value)
    if isinstance(value, bool):
        return t is bool
    return isinstance(value, (int, float) if t is float else t)


def _type_name(t) -> str:
    if t is type(None):
        return "null"
    if typing.get_origin(t) is list:
        return f"a list of {_type_name(typing.get_args(t)[0])}"
    return t.__name__


def _build(cls, name: str, **values):
    """cls(**values), with a value that it rejects (a ValueError) reported
    as a ConfigError."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {name} settings: {exc}") from exc


def _resolve(args) -> RunConfig:
    """The settings of one command line: the config file, checked against the
    schema and then on its own, with each flag given overriding the key its
    dest names, checked again. So a file value that a flag overrides is still
    checked, and a file must be valid without the flags."""
    raw = _load_config(args.config)
    top = _checked({k: v for k, v in raw.items() if k not in SECTIONS}, RunConfig, fixed=_NOT_KEYS)
    sections = {
        name: _checked(raw.get(name, {}), cls, name, fixed)
        for name, (cls, fixed) in SECTIONS.items()
    }
    _settings(raw, top, sections, args.command)
    owners = _owners()
    for key, value in vars(args).items():
        if value is not None and key in owners:
            (top if owners[key] is None else sections[owners[key]])[key] = value
    return _settings(raw, top, sections, args.command)


def _settings(raw: dict, top: dict, sections: dict[str, dict], command: str) -> RunConfig:
    """The RunConfig of the top-level keys and sections given, each value checked."""
    # augment leaves an unnamed source language unknown: assuming "en" would
    # wrongly reject the default pivot set for non-English files.
    top = {"language": "und" if command == "augment" else "en", "seed": 0, **top}
    seed = top["seed"]
    # Every command checks the train values given, though only those that
    # train build the section (below).
    _build(TrainConfig.check, "train", **sections["train"])
    return RunConfig(
        raw=raw,
        # Built when called: only the commands that train need batch_size and
        # learning_rate for a language with no defaults.
        train=functools.partial(
            _build, TrainConfig, "train", language=top["language"], seed=seed, **sections["train"]
        ),
        encoder=_build(EncoderConfig, "encoder", init_seed=seed, **sections["encoder"]),
        weaklabel=_build(WeakLabelConfig, "weaklabel", seed=seed, **sections["weaklabel"]),
        augment=_build(AugmentConfig, "augment", **sections["augment"]),
        grid=_build(GridConfig, "grid", **sections["grid"]),
        normalize_maps=NormalizeMaps(**sections["normalize_maps"]),
        **top,
    )


def _make_provider(settings: AugmentConfig):
    if settings.provider == "mock":
        return MockTaggingProvider()
    if settings.provider == "file":
        return MappingProvider.from_tsv(_require_input(settings.translations, "translations file"))
    if settings.provider == "http":
        if not settings.endpoint:
            raise ConfigError("http provider needs --endpoint")
        return HttpProvider(settings.endpoint, api_key=os.environ.get(API_KEY_ENV))
    raise ConfigError(f"unknown provider {settings.provider!r}")


def _pivot_set(settings: AugmentConfig, language: str) -> PivotSet:
    try:
        if settings.pivots is None:
            return PivotSet.default_for(language)
        return PivotSet(tuple(_list_of(str)(settings.pivots))).validated_for(language)
    except InvalidPivots as exc:
        raise ConfigError(str(exc)) from exc


def emit_report_table(reports: list[EvalReport], layout: str) -> str:
    """TSV mirroring the published table shapes, values rounded to 4 decimals.

    table3: system/macro-F1/accuracy rows for the English ablation (3 reports).
    table4: the same columns for the augmentation ablation (2 reports).
    """
    arity = {"table3": 3, "table4": 2}
    if layout not in arity:
        raise ValueError(f"unknown layout {layout!r}")
    if len(reports) != arity[layout]:
        raise ArityMismatch(layout, arity[layout], len(reports))
    lines = ["System\tMacro-F1\tAccuracy"]
    for r in reports:
        lines.append(f"{r.system}\t{r.macro_f1:.4f}\t{r.accuracy:.4f}")
    return "\n".join(lines) + "\n"


# --- subcommands ---------------------------------------------------------------


def cmd_stats(args, run: RunConfig) -> int:
    path = _require_input(run.train_file, "input file")
    corpus = load_labeled_tsv(path, language=run.language)
    stats = corpus_stats(corpus)
    print(f"{{off={stats.off_count}, not={stats.not_count}, total={stats.total}}}")
    if args.out_dir:
        counts = {"off": stats.off_count, "not": stats.not_count, "total": stats.total}
        with _run_dir(args, run, 0, [path]) as artifact:
            artifact("stats.json", json.dumps(counts, indent=2) + "\n")
    return EXIT_OK


def cmd_normalize(args, run: RunConfig) -> int:
    path = _require_input(run.train_file, "input file")
    with _run_dir(args, run, 0, [path]) as artifact:
        out_path = artifact("normalized.tsv")
        rows = _normalized(read_labeled(path), run.normalize_maps.load())
        count = save_labeled_tsv(rows, out_path)
    print(f"normalized {count} examples -> {out_path}")
    return EXIT_OK


def cmd_weaklabel(args, run: RunConfig) -> int:
    path = _require_input(run.scored_file, "scored input file")
    corpus = weak_label_file(path, run.weaklabel)
    with _run_dir(args, run, run.seed, [path]) as artifact:
        out_path = artifact("weak_train.tsv")
        save_labeled_tsv(corpus, out_path)
    print(f"weakly labeled {len(corpus)} examples -> {out_path}")
    return EXIT_OK


def cmd_augment(args, run: RunConfig) -> int:
    path = _require_input(run.train_file, "input file")
    corpus = load_labeled_tsv(path, language=run.language)
    pivots = _pivot_set(run.augment, run.language)
    provider = _make_provider(run.augment)
    journal = run.augment.cache
    with TranslationCache(journal) if journal else contextlib.nullcontext() as cache:
        policy = Policy(run.augment.policy)
        rows = augment_rows(corpus, pivots, provider, policy=policy, cache=cache)
        # The rows are closed before the journal is: a failed write waits
        # there for the requests a pooled provider has in flight, and their
        # entries. Each entry is flushed when it is put, before the manifest.
        with _run_dir(args, run, 0, [path]) as artifact, contextlib.closing(rows):
            out_path = artifact("augmented.tsv")
            count = save_labeled_tsv(rows, out_path)
    print(f"augmented {len(corpus)} -> {count} examples -> {out_path}")
    return EXIT_OK


def _maps(run: RunConfig, normalize: bool) -> NormalizationConfig | None:
    """The run's normalization tables if `normalize` is set (the run's
    setting, or for evaluate its checkpoint's), else None."""
    return run.normalize_maps.load() if normalize else None


def _load_corpus(path: Path, language: str, maps: NormalizationConfig | None) -> Corpus:
    """A labeled TSV as a model reads it: in `language`, and normalized by
    `maps` unless they are None."""
    corpus = load_labeled_tsv(path, language=language)
    return corpus if maps is None else Corpus(language, list(_normalized(corpus, maps)))


def cmd_train(args, run: RunConfig) -> int:
    train_config = run.train()
    path = _require_input(run.train_file, "training file")
    corpus = _load_corpus(path, run.language, _maps(run, run.normalize))
    vocab = build_vocab(corpus, run.encoder)
    model = EncoderModel.initialize(run.encoder, vocab.size)
    result = train_single(corpus, model, vocab, train_config)

    with _run_dir(args, run, run.seed, [path]) as artifact:
        train_mod.save_checkpoint(
            artifact("model.ckpt"),
            result.model,
            vocab,
            result.head,
            meta={"language": run.language, "seed": run.seed, "normalize": run.normalize},
        )
        trace = "".join(f"{epoch},{loss!r}\n" for epoch, loss in enumerate(result.loss_trace, 1))
        artifact("loss_trace.csv", "epoch,mean_loss\n" + trace)
    print(f"trained {train_config.epochs} epochs; final mean loss {result.loss_trace[-1]:.4f}")
    return EXIT_OK


def cmd_evaluate(args, run: RunConfig) -> int:
    ckpt_path = _require_input(args.checkpoint, "checkpoint")
    test_path = _require_input(run.test_file, "test file")
    ckpt = train_mod.load_checkpoint(ckpt_path)
    corpus = _load_corpus(test_path, ckpt.meta["language"], _maps(run, ckpt.meta["normalize"]))
    preds = predict_labels(ckpt.model, ckpt.head, ckpt.vocab, corpus.texts())
    report = evaluate(
        preds,
        corpus.labels(),
        system=args.system,
        config_fingerprint=_fingerprint(run.raw),
        seed=ckpt.meta["seed"],
    )
    if len(set(preds)) == 1:
        print(f"warning: the classifier collapsed: all {len(preds)} predictions are "
              f"{preds[0].value}", file=sys.stderr)
    with _run_dir(args, run, report.seed, [ckpt_path, test_path]) as artifact:
        artifact("report.json", report.to_json())
    print(f"macro-F1 {report.macro_f1:.4f} accuracy {report.accuracy:.4f}")
    return EXIT_OK


def cmd_gridsearch(args, run: RunConfig) -> int:
    base_config = run.train()
    lrs, batches = run.grid.learning_rates, run.grid.batch_sizes
    if not lrs or not batches:
        raise ConfigError("grid search needs learning_rates and batch_sizes")
    path = _require_input(run.train_file, "training file")
    corpus = _load_corpus(path, run.language, _maps(run, run.normalize))
    train_split, validation = split_holdout(corpus, run.holdout_fraction, run.seed)
    result = grid_search(lrs, batches, train_split, validation, base_config, run.encoder)

    cells = ["learning_rate\tbatch_size\tmacro_f1\taccuracy\tdiverged\n"]
    for cell in result.cells:
        if cell.report is None:
            cells.append(f"{cell.learning_rate:g}\t{cell.batch_size}\t\t\ttrue\n")
        else:
            cells.append(
                f"{cell.learning_rate:g}\t{cell.batch_size}\t"
                f"{cell.report.macro_f1:.4f}\t{cell.report.accuracy:.4f}\tfalse\n"
            )
    best = result.best
    best_config = {
        "language": run.language,
        "learning_rate": best.learning_rate,
        "batch_size": best.batch_size,
        "epochs": best.epochs,
        "seed": run.seed,
    }
    with _run_dir(args, run, run.seed, [path]) as artifact:
        artifact("grid_cells.tsv", "".join(cells))
        artifact("best_config.json", json.dumps(best_config, indent=2) + "\n")
    print(
        f"best cell: lr={best.learning_rate:g} batch={best.batch_size}"
    )
    return EXIT_OK


def cmd_ablate(args, run: RunConfig) -> int:
    train_config = run.train()
    if args.mode == "augmentation":
        inputs = [_require_input(run.train_file, "training file")]
    else:
        inputs = [
            _require_input(run.gold_file, "gold training file"),
            _require_input(run.weak_file, "weak training file"),
            _require_input(run.test_file, "test file"),
        ]
    with _run_dir(args, run, run.seed, inputs) as artifact:
        if args.mode == "augmentation":
            corpus = _load_corpus(inputs[0], run.language, _maps(run, run.normalize))
            pivots = _pivot_set(run.augment, run.language)
            provider = _make_provider(run.augment)
            reports = ablation_augmentation(
                corpus, pivots, provider, train_config, run.encoder,
                holdout_fraction=run.holdout_fraction,
            )
            layout = "table4"
        else:
            maps = _maps(run, run.normalize)
            gold, weak, test = (_load_corpus(p, run.language, maps) for p in inputs)
            del maps  # held through the fits, the tables add 0.4-0.7 MiB to peak RSS
            reports = ablation_english(gold, weak, test, train_config, run.encoder)
            layout = "table3"
        for i, report in enumerate(reports):
            name = report.system.strip("+-").replace(" ", "_")
            artifact(f"report_{i}_{name}.json", report.to_json())
        artifact(f"{layout}.tsv", emit_report_table(reports, layout))
    for report in reports:
        print(f"{report.system}: macro-F1 {report.macro_f1:.4f} accuracy {report.accuracy:.4f}")
    return EXIT_OK


# --- parser -------------------------------------------------------------------

# Every flag that sets a config key: its argparse keywords, whose dest is the
# key it overrides (see _resolve). --input names a different key per command.
FLAGS = {
    "--language": dict(help="corpus language code"),
    "--seed": dict(type=int, help="global seed override"),
    "--hi": dict(dest="hi_threshold", type=float, help="high confidence threshold"),
    "--lo": dict(dest="lo_threshold", type=float, help="low confidence threshold"),
    "--per-class": dict(dest="per_class_count", type=int, help="samples per class"),
    "--pivots": dict(help="comma-separated pivot language codes"),
    "--provider": dict(choices=["mock", "file", "http"]),
    "--translations": dict(help="TSV for the file provider"),
    "--endpoint": dict(help="HTTP provider endpoint"),
    "--cache": dict(help="translation cache path"),
    "--policy": dict(choices=[p.value for p in Policy]),
    "--epochs": dict(type=int),
    "--batch-size": dict(type=int),
    "--learning-rate": dict(type=float),
    "--learning-rates": dict(type=_list_of(float), help="comma-separated candidates"),
    "--batch-sizes": dict(type=_list_of(int), help="comma-separated candidates"),
    "--holdout": dict(dest="holdout_fraction", type=float, help="validation holdout fraction"),
    "--gold": dict(dest="gold_file", help="gold training TSV (english mode)"),
    "--weak": dict(dest="weak_file", help="weak training TSV (english mode)"),
    "--test": dict(dest="test_file", help="test TSV (english mode)"),
}
_AUGMENT_FLAGS = "--pivots --provider --translations --endpoint"
_TRAIN_FLAGS = "--epochs --batch-size --learning-rate"

# Each subcommand: its function, help, the key --input sets, and its flags.
COMMANDS = {
    "stats": (cmd_stats, "per-class dataset statistics", "train_file", "--language"),
    "normalize": (cmd_normalize, "normalize a labeled corpus", "train_file", "--language"),
    "weaklabel": (cmd_weaklabel, "threshold + sample a scored corpus", "scored_file",
                  "--language --seed --hi --lo --per-class"),
    "augment": (cmd_augment, "cross-lingual augmentation", "train_file",
                f"--language {_AUGMENT_FLAGS} --cache --policy"),
    "train": (cmd_train, "fine-tune the encoder + head", "train_file",
              f"--language --seed {_TRAIN_FLAGS}"),
    # The checkpoint gives evaluate its language and seed.
    "evaluate": (cmd_evaluate, "evaluate a checkpoint on a test set", "test_file", ""),
    "gridsearch": (cmd_gridsearch, "hyperparameter grid search", "train_file",
                   "--language --seed --epochs --learning-rates --batch-sizes --holdout"),
    "ablate": (cmd_ablate, "augmentation or dual-encoder ablation", "train_file",
               f"--language --seed {_TRAIN_FLAGS} {_AUGMENT_FLAGS} --holdout --gold --weak --test"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 2 with one line, as every other failure ends."""
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="offlang",
        description="Offensive-language identification pipeline",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    sub = {}
    for name, (func, help_text, input_key, flags) in COMMANDS.items():
        sub[name] = p = subparsers.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--input", dest=input_key, help=f"input TSV ({input_key})")
        p.add_argument("--out-dir", required=name != "stats", help="artifact output directory")
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
    sub["evaluate"].add_argument("--checkpoint", required=True)
    sub["evaluate"].add_argument("--system", default="model", help="row label for reports")
    sub["ablate"].add_argument("--mode", choices=["augmentation", "english"], required=True)
    return parser


@functools.cache
def _keep_freed_memory_on_heap() -> bool:
    """Set glibc's mmap and trim thresholds once per process (see
    MMAP_THRESHOLD); whether both were set. Off glibc, or on a libc without
    mallopt, it does nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (ValueError, OSError):  # no such name: not glibc
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 for a value it refuses, such as an mmap threshold
    # above the maximum of a 32-bit glibc; glibc's defaults then stay.
    return (
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    )


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory_on_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args, _resolve(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OffLangError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        reason = f"out of memory: {exc}" if str(exc) else "out of memory"
        print(f"error: {reason}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        # A failed rename names the temporary file, then its target: report the target.
        where = exc.filename2 or exc.filename
        reason = exc.strerror or str(exc)
        print(f"error: {reason}: {where}" if where else f"error: {reason}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
