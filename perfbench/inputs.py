"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and writes plain TSV/YAML files;
the program under test only ever sees those files. Alongside the paths, the
generators return the input properties that decide which layer does the work,
so each run can print them next to its metrics.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

from offlang.corpus import Corpus, save_labeled_tsv
from offlang.datagen import flip_labels, mini_corpus
from offlang.encoder import tokenize

# Words that make a synthetic tweet offensive; its scored copy then gets a
# confidence above the high threshold, so weak labels follow the text.
OFF_WORDS = ["idiot", "trash", "loser", "pathetic", "fool", "disgusting", "clown", "shut"]
URLS = ["https://t.co/x1", "http://example.com/a?b=2", "www.example.org", "URL"]
INFER_BATCH = 128  # offlang.evaluation.predict_labels default batch

# Tweet traffic. The offensive share follows OLID's training split (Zampieri
# et al., 2019: 4,400 OFF of 13,240 tweets). The token mix, tweet length and
# repetition are assumptions: no tweet statistics ship with the repository.
OFFENSIVE_SHARE = 0.33
TWEET_TOKENS = (6, 16)
# Kinds of token, and the cumulative share of each.
TOKEN_KINDS = ("word", "slang", "emoji", "hashtag", "user", "url", "number")
TOKEN_MIX = (0.58, 0.66, 0.76, 0.86, 0.92, 0.95, 1.0)
# Traffic with repeats: this share of texts repeats an earlier text, and
# hashtags come from a Zipf-weighted pool of one tag per this many tweets.
DUP_SHARE = 0.1
TWEETS_PER_POOL_TAG = 4


def _rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _two_column_keys(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.split("\t", 1)[0] for line in fh if line.strip()]


class TweetTables:
    """Vocabulary drawn from the program's bundled normalization tables."""

    def __init__(self, data_dir: Path):
        self.emoji = _two_column_keys(data_dir / "emoji_map.tsv")
        self.slang = _two_column_keys(data_dir / "slang_map.tsv")
        lexicon = _two_column_keys(data_dir / "lexicon.tsv")
        self.words = [w for w in lexicon if w.isalpha()]
        self.tag_words = [w for w in self.words if len(w) >= 3]


def _pick(rng: random.Random, seq):
    """rng.choice without its slower exact sampling."""
    return seq[int(rng.random() * len(seq))]


def _hashtag(tables: TweetTables, rng: random.Random, underscores: bool) -> str:
    parts = [_pick(rng, tables.tag_words) for _ in range(2 if rng.random() < 0.5 else 3)]
    style = rng.random()
    if style < 0.5:
        return "#" + "".join(p.capitalize() for p in parts)
    if style < 0.8 or not underscores:
        return "#" + "".join(parts)
    return "#" + "_".join(parts)


def _hashtag_pool(tables: TweetTables, rng: random.Random, size: int) -> list[str]:
    pool: set[str] = set()
    while len(pool) < size:
        pool.add(_hashtag(tables, rng, underscores=True))
    return sorted(pool)


def make_tweets(tables: TweetTables, seed: int, n: int, label: str, *, repeats: bool) -> list[tuple[str, bool]]:
    """n synthetic English tweets as (text, offensive) pairs.

    Tokens mix lexicon words, slang keys, emoji, hashtags, @USER, URLs and
    numbers in the TOKEN_MIX shares. With `repeats`, DUP_SHARE of the texts
    repeat an earlier text exactly and hashtags come from a Zipf-weighted
    pool, so popular tags recur. Without, every text and every hashtag
    (as normalize segments it: lowercased, one chunk) occurs once.
    """
    rng = _rng(seed, "tweets-" + label)
    if repeats:
        tags = _hashtag_pool(tables, rng, max(20, n // TWEETS_PER_POOL_TAG))
        cum_weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(tags))))
    seen_tags: set[str] = set()
    seen_texts: set[str] = set()

    def hashtag() -> str:
        if repeats:
            return rng.choices(tags, cum_weights=cum_weights)[0]
        while True:
            tag = _hashtag(tables, rng, underscores=False)
            if tag.lower() not in seen_tags:
                seen_tags.add(tag.lower())
                return tag

    draw = {
        "word": lambda: _pick(rng, tables.words),
        "slang": lambda: _pick(rng, tables.slang),
        "emoji": lambda: _pick(rng, tables.emoji),
        "hashtag": hashtag,
        "user": lambda: "@USER",
        "url": lambda: _pick(rng, URLS),
        "number": lambda: str(int(rng.random() * 2025)),
    }
    out: list[tuple[str, bool]] = []
    while len(out) < n:
        if repeats and out and rng.random() < DUP_SHARE:
            out.append(out[rng.randrange(len(out))])
            continue
        offensive = rng.random() < OFFENSIVE_SHARE
        kinds = rng.choices(TOKEN_KINDS, cum_weights=TOKEN_MIX, k=rng.randint(*TWEET_TOKENS))
        toks = [draw[kind]() for kind in kinds]
        if offensive:
            toks.insert(rng.randrange(len(toks) + 1), rng.choice(OFF_WORDS))
        text = " ".join(toks)
        if not repeats:
            if text in seen_texts:
                continue
            seen_texts.add(text)
        out.append((text, offensive))
    return out


def load_golden(path: Path) -> list[dict]:
    """Golden normalization pairs whose input fits in one TSV field."""
    pairs = json.loads(path.read_text(encoding="utf-8"))
    return [p for p in pairs if not any(c in p["in"] for c in "\t\r\n")]


def write_tweets_tsv(path: Path, tweets, golden: list[dict]) -> dict[str, str]:
    """Labeled tweet file with the golden inputs embedded at fixed stride.

    Returns {row id: expected normalized text} for the golden rows."""
    expected: dict[str, str] = {}
    stride = max(1, len(tweets) // max(1, len(golden)))
    g = 0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (text, offensive) in enumerate(tweets):
            label = "OFF" if offensive else "NOT"
            fh.write(f"tw{i}\t{text}\t{label}\n")
            if i % stride == 0 and g < len(golden):
                gid = f"golden{g}"
                fh.write(f"{gid}\t{golden[g]['in']}\tNOT\n")
                expected[gid] = golden[g]["out"]
                g += 1
        for g in range(g, len(golden)):
            gid = f"golden{g}"
            fh.write(f"{gid}\t{golden[g]['in']}\tNOT\n")
            expected[gid] = golden[g]["out"]
    return expected


def write_scored_tsv(path: Path, tweets, seed: int) -> dict[str, float]:
    """Scored file: offensive texts mostly above 0.8, the rest mostly below
    0.2, a share in between, and some exact 0.2 / 0.8 boundary values (which
    weak labeling must discard). Returns {row id: confidence}."""
    rng = _rng(seed, "scores")
    conf: dict[str, float] = {}
    with open(path, "w", encoding="utf-8") as fh:
        for i, (text, offensive) in enumerate(tweets):
            r = rng.random()
            if r < 0.02:
                c = rng.choice((0.2, 0.8))
            elif r < 0.15:
                c = round(rng.uniform(0.2, 0.8), 4)
            elif offensive:
                c = round(rng.uniform(0.8001, 1.0), 4)
            else:
                c = round(rng.uniform(0.0, 0.1999), 4)
            conf[f"sc{i}"] = c
            fh.write(f"sc{i}\t{text}\t{c}\n")
    return conf


def tweet_set(tables: TweetTables, golden: list[dict], out: Path, seed: int, *,
              n: int, n_scored: int, per_class: int, repeats: bool):
    """n labeled tweets for `normalize`, n_scored scored tweets for
    `weaklabel`, and the properties that decide the normalize/cache work."""
    out.mkdir(parents=True, exist_ok=True)
    tweets = make_tweets(tables, seed, n, f"labeled{n}", repeats=repeats)
    scored = make_tweets(tables, seed, n_scored, f"scored{n}", repeats=repeats)
    expected = write_tweets_tsv(out / "tweets.tsv", tweets, golden)
    conf = write_scored_tsv(out / "scored.tsv", scored, seed)
    hi = sum(1 for c in conf.values() if c > 0.8)
    lo = sum(1 for c in conf.values() if c < 0.2)
    if min(hi, lo) < per_class:
        raise ValueError(f"scored file too small for per_class={per_class}: {hi} OFF, {lo} NOT")
    texts = [t for t, _ in tweets]
    tags = [
        chunk.lower()
        for t in texts
        for tok in t.split()
        if tok.startswith("#")
        for chunk in tok[1:].split("_")
        if chunk
    ]
    props = {
        "tweets": len(texts) + len(expected),
        "scored_rows": len(conf),
        "scored_per_weak_row": len(conf) / (2 * per_class),
        "emoji_share": sum(any(e in t for e in tables.emoji) for t in texts) / len(texts),
        "hashtag_share": sum("#" in t for t in texts) / len(texts),
        "duplicate_text_share": 1 - len(set(texts)) / len(texts),
        "distinct_hashtag_ratio": len(set(tags)) / max(1, len(tags)),
        "scored_duplicate_text_share": 1 - len({t for t, _ in scored}) / len(scored),
    }
    return {
        "tweets": out / "tweets.tsv",
        "scored": out / "scored.tsv",
        "per_class": per_class,
        "golden": expected,
        "confidence": conf,
        "n_tweets": props["tweets"],
        "n_scored": len(conf),
    }, props


def real_token_share(corpus: Corpus, max_len: int) -> float:
    """Mean real tokens ([CLS] + tokens + [SEP], truncated) over max_len."""
    lengths = [min(len(tokenize(ex.text)) + 2, max_len) for ex in corpus]
    return sum(lengths) / len(lengths) / max_len


def write_yaml(path: Path, language: str, seed: int, encoder: dict, train: dict, **top) -> None:
    lines = [f"language: {language}", f"seed: {seed}"]
    lines.extend(f"{k}: {v}" for k, v in top.items())
    for section, values in (("encoder", encoder), ("train", train)):
        if values:
            lines.append(f"{section}:")
            lines.extend(f"  {k}: {v}" for k, v in values.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Workload sizes; README.md gives the reasons.
FINETUNE_ROWS, FINETUNE_TEST_ROWS, FINETUNE_EPOCHS = 120, 384, 2
ABLATE_GOLD_ROWS, ABLATE_WEAK_ROWS, ABLATE_TEST_ROWS, ABLATE_EPOCHS = 256, 32, 64, 1
AUGMENT_PROBE_ROWS = 750
PROBE_TRAIN_ROWS, PROBE_TEST_ROWS = 200, 2048

# Toy encoder for the model probe. This recipe reached macro-F1 >= 0.99 on
# the clean English mini corpus for each of seeds 0-9.
PROBE_ENCODER = {
    "hidden_size": 32, "num_layers": 2, "num_heads": 2, "ffn_size": 64,
    "max_len": 16, "vocab_cap": 300, "dropout": 0.1,
}
PROBE_TRAIN = {"epochs": 4, "batch_size": 8, "learning_rate": 0.003}


def model_probe_set(out: Path, seed: int) -> dict:
    """Toy-encoder train/evaluate inputs. The mini corpus is separable, so
    10% of the test labels are flipped: macro-F1 then sits near 0.88 and
    differs from seed to seed instead of reading 1.0 on every run. The probe
    skips normalization so that it adds no normalize work."""
    out.mkdir(parents=True, exist_ok=True)
    save_labeled_tsv(mini_corpus("en", PROBE_TRAIN_ROWS, seed=seed, split="probe"), out / "train.tsv")
    test = flip_labels(mini_corpus("en", PROBE_TEST_ROWS, seed=seed, split="probetest"), 0.1, seed)
    save_labeled_tsv(test, out / "test.tsv")
    write_yaml(out / "run.yaml", "en", seed, PROBE_ENCODER, PROBE_TRAIN, normalize="false")
    return {
        "train": out / "train.tsv", "test": out / "test.tsv", "config": out / "run.yaml",
        "n_train": PROBE_TRAIN_ROWS, "n_test": PROBE_TEST_ROWS, "epochs": PROBE_TRAIN["epochs"],
    }


def augment_probe_set(out: Path, seed: int) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    corpus = mini_corpus("en", AUGMENT_PROBE_ROWS, seed=seed, split="augprobe")
    save_labeled_tsv(corpus, out / "train.tsv")
    return {"input": out / "train.tsv", "n": AUGMENT_PROBE_ROWS}


def finetune_inputs(out: Path, seed: int) -> tuple[dict, dict]:
    n_train, n_test, epochs = FINETUNE_ROWS, FINETUNE_TEST_ROWS, FINETUNE_EPOCHS
    out.mkdir(parents=True, exist_ok=True)
    train = mini_corpus("tr", n_train, seed=seed)
    test = mini_corpus("tr", n_test, seed=seed, split="test")
    save_labeled_tsv(train, out / "train.tsv")
    save_labeled_tsv(test, out / "test.tsv")
    write_yaml(out / "run.yaml", "tr", seed, {}, {"epochs": epochs, "learning_rate": 0.001})
    props = {
        "train_rows": n_train,
        "augmented_rows": 4 * n_train,
        "test_rows": n_test,
        "test_per_infer_batch": n_test / INFER_BATCH,
        "mean_real_tokens_per_max_len_original": real_token_share(train, 128),
        "mean_real_tokens_per_max_len_test": real_token_share(test, 128),
    }
    return {
        "train": out / "train.tsv", "test": out / "test.tsv", "config": out / "run.yaml",
        "n_train": n_train, "n_test": n_test, "epochs": epochs,
    }, props


def ablate_inputs(out: Path, seed: int) -> tuple[dict, dict]:
    n_gold, n_weak, n_test = ABLATE_GOLD_ROWS, ABLATE_WEAK_ROWS, ABLATE_TEST_ROWS
    epochs = ABLATE_EPOCHS
    out.mkdir(parents=True, exist_ok=True)
    gold = mini_corpus("en", n_gold, seed=seed)
    weak = flip_labels(mini_corpus("en", n_weak, seed=seed, split="weak"), 0.2, seed)
    test = mini_corpus("en", n_test, seed=seed, split="test")
    save_labeled_tsv(gold, out / "gold.tsv")
    save_labeled_tsv(weak, out / "weak.tsv")
    save_labeled_tsv(test, out / "test.tsv")
    write_yaml(out / "run.yaml", "en", seed, {}, {"epochs": epochs, "learning_rate": 0.001})
    props = {
        "gold_rows": n_gold,
        "weak_rows": n_weak,
        "test_rows": n_test,
        "gold_per_infer_batch": n_gold / INFER_BATCH,
        "mean_real_tokens_per_max_len": real_token_share(gold, 128),
    }
    return {
        "gold": out / "gold.tsv", "weak": out / "weak.tsv", "test": out / "test.tsv",
        "config": out / "run.yaml", "n_gold": n_gold, "n_weak": n_weak, "n_test": n_test,
        "epochs": epochs,
    }, props

