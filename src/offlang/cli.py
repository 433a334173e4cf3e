"""Command-line orchestration of the pipeline stages.

Every subcommand reads its settings from an optional YAML config file (flags
override file values; credentials come from the environment only), executes
one module operation, and writes its artifacts plus a run manifest to the
output directory. Exit codes: 0 success, 1 runtime failure, 2 usage error,
3 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .augment import (
    HttpProvider,
    MappingProvider,
    MockTaggingProvider,
    PivotSet,
    Policy,
    TranslationCache,
    augment_corpus,
)
from .corpus import (
    Corpus,
    corpus_stats,
    load_labeled_tsv,
    load_scored_tsv,
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
from .train import TrainConfig, load_train_checkpoint, save_train_checkpoint, train_single
from .weaklabel import WeakLabelConfig, build_weak_corpus

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3

API_KEY_ENV = "OFFLANG_API_KEY"


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


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    seed: int,
    inputs: list[Path],
    artifacts: list[Path],
) -> None:
    manifest = {
        "command": command,
        "config_fingerprint": _fingerprint(config),
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
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _normalization_config(config: dict) -> NormalizationConfig:
    maps = config.get("normalize_maps", {})
    if maps:
        return NormalizationConfig.from_paths(
            _require_input(maps.get("emoji_map"), "emoji map"),
            _require_input(maps.get("slang_map"), "slang map"),
            _require_input(maps.get("lexicon"), "lexicon"),
        )
    return NormalizationConfig.bundled()


def _normalized_corpus(corpus: Corpus, config: dict) -> Corpus:
    norm_config = _normalization_config(config)
    examples = [
        type(ex)(ex.id, normalize(ex.text, norm_config), ex.label) for ex in corpus
    ]
    return Corpus(corpus.language, corpus.split, examples)


def _mapping(config: dict, name: str) -> dict:
    """config[name] ({} when absent), which must be a mapping."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a mapping, got {section!r}")
    return section


def _section(config: dict, name: str, cls, fixed: tuple[str, ...] = ()) -> dict:
    """A copy of config[name], which must be a mapping from fields of the
    dataclass cls, other than those in `fixed`, to values of the field's type:
    a bool is not an int, an int is a float, a list[t] holds only t, and null
    only where the field allows None."""
    section = _mapping(config, name)
    hints = typing.get_type_hints(cls)
    for key, value in section.items():
        if key not in hints or key in fixed:
            raise ConfigError(f"unknown config key {name}.{key}")
        hint = hints[key]
        allowed = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        if not any(_is_instance(value, t) for t in allowed):
            expected = " or ".join(_type_name(t) for t in allowed)
            raise ConfigError(f"config key {name}.{key} must be {expected}, got {value!r}")
    return dict(section)


def _with_flags(section: dict, args, flags: dict[str, str]) -> dict:
    """section with each key of `flags` replaced by its command-line flag's
    value, where that flag was given."""
    for key, flag in flags.items():
        value = getattr(args, flag, None)
        if value is not None:
            section[key] = value
    return section


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
    """cls(**values), with a value that cls.__post_init__ rejects reported as
    a ConfigError."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {name} settings: {exc}") from exc


def _seed(args, config: dict) -> int:
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if not _is_instance(seed, int):
        raise ConfigError(f"config key seed must be int, got {seed!r}")
    return seed


def _encoder_config(config: dict, seed: int) -> EncoderConfig:
    section = _section(config, "encoder", EncoderConfig)
    section.setdefault("init_seed", seed)
    return _build(EncoderConfig, "encoder", **section)


def _train_config(config: dict, args, language: str, seed: int) -> TrainConfig:
    # language and seed come from their own settings, not from this section.
    section = _with_flags(
        _section(config, "train", TrainConfig, fixed=("language", "seed")),
        args,
        {"epochs": "epochs", "batch_size": "batch_size", "learning_rate": "learning_rate"},
    )
    return _build(TrainConfig, "train", language=language, seed=seed, **section)


@dataclass(frozen=True)
class AugmentConfig:
    """The `augment` config section; a command-line flag of the same name
    overrides each key."""

    provider: str = "mock"
    translations: str | None = None
    endpoint: str | None = None
    pivots: str | list[str] | None = None  # "fr,de" or [fr, de]
    policy: str = "fail_fast"
    cache: str | None = None


def _augment_config(config: dict, args) -> AugmentConfig:
    section = _section(config, "augment", AugmentConfig)
    flags = {f.name: f.name for f in fields(AugmentConfig)}
    return AugmentConfig(**_with_flags(section, args, flags))


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
    raw = settings.pivots
    try:
        if raw is None:
            return PivotSet.default_for(language)
        if isinstance(raw, str):
            raw = [p.strip() for p in raw.split(",") if p.strip()]
        return PivotSet(tuple(raw)).validated_for(language)
    except InvalidPivots as exc:
        raise ConfigError(str(exc)) from exc


def _policy(settings: AugmentConfig) -> Policy:
    try:
        return Policy(settings.policy)
    except ValueError:
        choices = ", ".join(p.value for p in Policy)
        raise ConfigError(
            f"config key augment.policy must be one of {choices}, got {settings.policy!r}"
        ) from None


def emit_report_table(reports: list[EvalReport], layout: str) -> str:
    """TSV mirroring the published table shapes, values rounded to 4 decimals.

    table2: one row of macro-F1 per language column (5 reports).
    table3: system/macro-F1/accuracy rows for the English ablation (3 reports).
    table4: the same columns for the augmentation ablation (2 reports).
    """
    arity = {"table2": 5, "table3": 3, "table4": 2}
    if layout not in arity:
        raise ValueError(f"unknown layout {layout!r}")
    if len(reports) != arity[layout]:
        raise ArityMismatch(layout, arity[layout], len(reports))
    if layout == "table2":
        header = "System\tTurkish\tArabic\tGreek\tDanish\tEnglish"
        cells = "\t".join(f"{r.macro_f1:.4f}" for r in reports)
        return f"{header}\n{reports[0].system}\t{cells}\n"
    lines = ["System\tMacro-F1\tAccuracy"]
    for r in reports:
        lines.append(f"{r.system}\t{r.macro_f1:.4f}\t{r.accuracy:.4f}")
    return "\n".join(lines) + "\n"


def _write_reports(out_dir: Path, reports: list[EvalReport], layout: str) -> list[Path]:
    artifacts = []
    for i, report in enumerate(reports):
        path = out_dir / f"report_{i}_{report.system.strip('+-').replace(' ', '_')}.json"
        path.write_text(report.to_json(), encoding="utf-8")
        artifacts.append(path)
    table = out_dir / f"{layout}.tsv"
    table.write_text(emit_report_table(reports, layout), encoding="utf-8")
    artifacts.append(table)
    return artifacts


# --- subcommands ---------------------------------------------------------------


def cmd_stats(args) -> int:
    config = _load_config(args.config)
    path = _require_input(args.input or config.get("train_file"), "input file")
    corpus = load_labeled_tsv(path, language=args.language)
    stats = corpus_stats(corpus)
    print(f"{{off={stats.off_count}, not={stats.not_count}, total={stats.total}}}")
    if args.out_dir:
        out = _out_dir(args)
        stats_path = out / "stats.json"
        stats_path.write_text(
            json.dumps(
                {"off": stats.off_count, "not": stats.not_count, "total": stats.total},
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        _write_manifest(out, "stats", config, 0, [path], [stats_path])
    return EXIT_OK


def cmd_normalize(args) -> int:
    config = _load_config(args.config)
    path = _require_input(args.input, "input file")
    out = _out_dir(args)
    corpus = load_labeled_tsv(path, language=args.language)
    normalized = _normalized_corpus(corpus, config)
    out_path = out / "normalized.tsv"
    save_labeled_tsv(normalized, out_path)
    _write_manifest(out, "normalize", config, 0, [path], [out_path])
    print(f"normalized {len(normalized)} examples -> {out_path}")
    return EXIT_OK


def cmd_weaklabel(args) -> int:
    config = _load_config(args.config)
    # seed comes from its own setting, not from this section.
    section = _with_flags(
        _section(config, "weaklabel", WeakLabelConfig, fixed=("seed",)),
        args,
        {"hi_threshold": "hi", "lo_threshold": "lo", "per_class_count": "per_class"},
    )
    path = _require_input(args.input or config.get("scored_file"), "scored input file")
    seed = _seed(args, config)
    wl_config = _build(WeakLabelConfig, "weaklabel", seed=seed, **section)
    scored = load_scored_tsv(path)
    corpus = build_weak_corpus(scored, wl_config)
    out = _out_dir(args)
    out_path = out / "weak_train.tsv"
    save_labeled_tsv(corpus, out_path)
    _write_manifest(out, "weaklabel", config, seed, [path], [out_path])
    print(f"weakly labeled {len(corpus)} examples -> {out_path}")
    return EXIT_OK


def cmd_augment(args) -> int:
    config = _load_config(args.config)
    settings = _augment_config(config, args)
    path = _require_input(args.input or config.get("train_file"), "input file")
    # Unknown source stays unknown: assuming "en" would wrongly reject the
    # default pivot set for non-English files loaded without a language flag.
    language = args.language or config.get("language", "und")
    corpus = load_labeled_tsv(path, language=language)
    pivots = _pivot_set(settings, language)
    provider = _make_provider(settings)
    policy = _policy(settings)
    cache = TranslationCache(settings.cache) if settings.cache else None
    try:
        augmented = augment_corpus(corpus, pivots, provider, policy=policy, cache=cache)
    finally:
        if cache is not None:
            cache.close()
    out = _out_dir(args)
    out_path = out / "augmented.tsv"
    save_labeled_tsv(augmented, out_path)
    _write_manifest(out, "augment", config, 0, [path], [out_path])
    print(f"augmented {len(corpus)} -> {len(augmented)} examples -> {out_path}")
    return EXIT_OK


def _normalizes(config: dict, language: str) -> bool:
    return bool(config.get("normalize", language == "en"))


def _load_corpus(path: Path, config: dict, language: str, split: str = "train") -> Corpus:
    """A labeled TSV as every training stage sees it: normalized when the
    config says so (by default, for English only)."""
    corpus = load_labeled_tsv(path, language=language, split=split)
    if _normalizes(config, language):
        corpus = _normalized_corpus(corpus, config)
    return corpus


def _load_training_corpus(args, config: dict, language: str) -> tuple[Corpus, Path]:
    path = _require_input(args.input or config.get("train_file"), "training file")
    return _load_corpus(path, config, language), path


def cmd_train(args) -> int:
    config = _load_config(args.config)
    language = args.language or config.get("language", "en")
    seed = _seed(args, config)
    corpus, path = _load_training_corpus(args, config, language)
    encoder_config = _encoder_config(config, seed)
    train_config = _train_config(config, args, language, seed)

    vocab = build_vocab(corpus, encoder_config)
    model = EncoderModel.initialize(encoder_config, vocab.size)
    result = train_single(corpus, model, vocab, train_config)

    out = _out_dir(args)
    ckpt_path = out / "model.ckpt"
    save_train_checkpoint(
        ckpt_path,
        result.model,
        vocab,
        result.head,
        meta={
            "language": language,
            "seed": seed,
            "normalize": _normalizes(config, language),
        },
    )
    trace_path = out / "loss_trace.csv"
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss\n")
        for epoch, loss in enumerate(result.loss_trace, start=1):
            fh.write(f"{epoch},{loss!r}\n")
    _write_manifest(out, "train", config, seed, [path], [ckpt_path, trace_path])
    print(f"trained {train_config.epochs} epochs; final mean loss {result.loss_trace[-1]:.4f}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    ckpt_path = _require_input(args.checkpoint, "checkpoint")
    test_path = _require_input(args.input or config.get("test_file"), "test file")
    ckpt = load_train_checkpoint(ckpt_path)
    language = ckpt.meta.get("language", "en")
    corpus = load_labeled_tsv(test_path, language=language, split="test")
    if ckpt.meta.get("normalize"):
        corpus = _normalized_corpus(corpus, config)
    preds = predict_labels(ckpt.model, ckpt.head, ckpt.vocab, corpus.texts())
    report = evaluate(
        preds,
        corpus.labels(),
        system=args.system,
        config_fingerprint=_fingerprint(config),
        seed=ckpt.meta.get("seed", 0),
    )
    out = _out_dir(args)
    report_path = out / "report.json"
    report_path.write_text(report.to_json(), encoding="utf-8")
    _write_manifest(out, "evaluate", config, report.seed, [ckpt_path, test_path], [report_path])
    print(f"macro-F1 {report.macro_f1:.4f} accuracy {report.accuracy:.4f}")
    return EXIT_OK


def cmd_gridsearch(args) -> int:
    config = _load_config(args.config)
    language = args.language or config.get("language", "en")
    seed = _seed(args, config)
    corpus, path = _load_training_corpus(args, config, language)
    grid = config.get("grid", {})
    lrs = args.learning_rates or grid.get("learning_rates")
    batches = args.batch_sizes or grid.get("batch_sizes")
    if not lrs or not batches:
        raise ConfigError("grid search needs learning_rates and batch_sizes")
    if isinstance(lrs, str):
        lrs = [float(v) for v in lrs.split(",")]
    if isinstance(batches, str):
        batches = [int(v) for v in batches.split(",")]
    holdout = args.holdout if args.holdout is not None else config.get("holdout_fraction", 0.2)
    train_split, validation = split_holdout(corpus, holdout, seed)
    base_config = _train_config(config, args, language, seed)
    encoder_config = _encoder_config(config, seed)
    result = grid_search(lrs, batches, train_split, validation, base_config, encoder_config)

    out = _out_dir(args)
    cells_path = out / "grid_cells.tsv"
    with open(cells_path, "w", encoding="utf-8") as fh:
        fh.write("learning_rate\tbatch_size\tmacro_f1\taccuracy\tdiverged\n")
        for cell in result.cells:
            if cell.diverged:
                fh.write(f"{cell.learning_rate:g}\t{cell.batch_size}\t\t\ttrue\n")
            else:
                fh.write(
                    f"{cell.learning_rate:g}\t{cell.batch_size}\t"
                    f"{cell.report.macro_f1:.4f}\t{cell.report.accuracy:.4f}\tfalse\n"
                )
    best_path = out / "best_config.json"
    best_path.write_text(
        json.dumps(
            {
                "language": language,
                "learning_rate": result.best.learning_rate,
                "batch_size": result.best.batch_size,
                "epochs": result.best.epochs,
                "seed": seed,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    _write_manifest(out, "gridsearch", config, seed, [path], [cells_path, best_path])
    print(
        f"best cell: lr={result.best.learning_rate:g} batch={result.best.batch_size}"
    )
    return EXIT_OK


def cmd_ablate(args) -> int:
    config = _load_config(args.config)
    language = args.language or config.get("language", "en")
    seed = _seed(args, config)
    encoder_config = _encoder_config(config, seed)
    train_config = _train_config(config, args, language, seed)
    out = _out_dir(args)

    if args.mode == "augmentation":
        corpus, path = _load_training_corpus(args, config, language)
        settings = _augment_config(config, args)
        pivots = _pivot_set(settings, language)
        provider = _make_provider(settings)
        holdout = args.holdout if args.holdout is not None else config.get("holdout_fraction", 0.2)
        reports = ablation_augmentation(
            corpus, pivots, provider, train_config, encoder_config, holdout_fraction=holdout
        )
        artifacts = _write_reports(out, reports, "table4")
        _write_manifest(out, "ablate", config, seed, [path], artifacts)
    else:
        gold = _require_input(args.gold or config.get("gold_file"), "gold training file")
        weak = _require_input(args.weak or config.get("weak_file"), "weak training file")
        test = _require_input(args.test or config.get("test_file"), "test file")
        reports = ablation_english(
            _load_corpus(gold, config, language),
            _load_corpus(weak, config, language),
            _load_corpus(test, config, language, split="test"),
            train_config,
            encoder_config,
        )
        artifacts = _write_reports(out, reports, "table3")
        _write_manifest(out, "ablate", config, seed, [gold, weak, test], artifacts)
    for report in reports:
        print(f"{report.system}: macro-F1 {report.macro_f1:.4f} accuracy {report.accuracy:.4f}")
    return EXIT_OK


# --- parser -------------------------------------------------------------------


def _add_common(sub, out_dir_required=True):
    sub.add_argument("--config", help="YAML configuration file")
    sub.add_argument("--language", help="corpus language code")
    sub.add_argument("--seed", type=int, help="global seed override")
    if out_dir_required:
        sub.add_argument("--out-dir", required=True, help="artifact output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offlang",
        description="Offensive-language identification pipeline",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("stats", help="per-class dataset statistics")
    p.add_argument("--input", help="labeled TSV")
    p.add_argument("--config")
    p.add_argument("--language", default="en")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_stats)

    p = subparsers.add_parser("normalize", help="normalize a labeled corpus")
    p.add_argument("--input", help="labeled TSV")
    p.add_argument("--config")
    p.add_argument("--language", default="en")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_normalize)

    p = subparsers.add_parser("weaklabel", help="threshold + sample a scored corpus")
    p.add_argument("--input", help="scored TSV")
    p.add_argument("--hi", type=float, help="high confidence threshold")
    p.add_argument("--lo", type=float, help="low confidence threshold")
    p.add_argument("--per-class", type=int, help="samples per class")
    _add_common(p)
    p.set_defaults(func=cmd_weaklabel)

    p = subparsers.add_parser("augment", help="cross-lingual augmentation")
    p.add_argument("--input", help="labeled TSV")
    p.add_argument("--pivots", help="comma-separated pivot language codes")
    p.add_argument("--provider", choices=["mock", "file", "http"])
    p.add_argument("--translations", help="TSV for the file provider")
    p.add_argument("--endpoint", help="HTTP provider endpoint")
    p.add_argument("--cache", help="translation cache path")
    p.add_argument("--policy", choices=[p.value for p in Policy])
    _add_common(p)
    p.set_defaults(func=cmd_augment)

    p = subparsers.add_parser("train", help="fine-tune the encoder + head")
    p.add_argument("--input", help="labeled training TSV")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subparsers.add_parser("evaluate", help="evaluate a checkpoint on a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", help="labeled test TSV")
    p.add_argument("--system", default="model", help="row label for reports")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subparsers.add_parser("gridsearch", help="hyperparameter grid search")
    p.add_argument("--input", help="labeled training TSV")
    p.add_argument("--learning-rates", help="comma-separated candidates")
    p.add_argument("--batch-sizes", help="comma-separated candidates")
    p.add_argument("--holdout", type=float, help="validation holdout fraction")
    p.add_argument("--epochs", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_gridsearch)

    p = subparsers.add_parser("ablate", help="augmentation or dual-encoder ablation")
    p.add_argument("--mode", choices=["augmentation", "english"], required=True)
    p.add_argument("--input", help="labeled training TSV (augmentation mode)")
    p.add_argument("--gold", help="gold training TSV (english mode)")
    p.add_argument("--weak", help="weak training TSV (english mode)")
    p.add_argument("--test", help="test TSV (english mode)")
    p.add_argument("--pivots")
    p.add_argument("--provider", choices=["mock", "file", "http"])
    p.add_argument("--translations")
    p.add_argument("--endpoint")
    p.add_argument("--holdout", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OffLangError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
