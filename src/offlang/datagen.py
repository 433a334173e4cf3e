"""Seeded generators for the bundled offline corpora and test protocols.

Everything here is deterministic given its seed. Three generators matter for
the verification harness:

* separable_toy_corpus — the trainability protocol: the two classes draw
  their tokens from disjoint vocabularies, so perfect training accuracy is
  attainable within a few epochs.
* disambiguation_task — the augmentation-direction protocol: class evidence
  in the source sentence is a single rare cue token drawn from a 16-word
  per-class inventory, while the paired translation provider renders every
  cue as one canonical per-class token. Augmentation therefore multiplies
  and consolidates the sparse evidence, which is what lifts validation
  scores within the fixed epoch budget.
* noisy label flips — the dual-encoder protocol: a weak-supervision analogue
  is simulated by flipping a fixed fraction of labels.

The synthetic multilingual mini-corpus stands in for the competition data,
which is distributed by its organizers and not vendored here.
"""

from __future__ import annotations

import hashlib
import random

from .augment import MappingProvider, PivotSet
from .corpus import Corpus, Label, LabeledExample
from .encoder import EncoderConfig
from .train import TrainConfig

# Training from random initialization needs far larger steps than the
# fine-tuning rates; these settings finish in seconds on one core.
TOY_LEARNING_RATE = 8e-3
TOY_BATCH_SIZE = 8
TOY_EPOCHS = 4


def toy_encoder_config(seed: int = 0, dropout: float = 0.1) -> EncoderConfig:
    return EncoderConfig(
        hidden_size=32,
        num_layers=2,
        num_heads=2,
        ffn_size=64,
        max_len=16,
        vocab_cap=400,
        dropout=dropout,
        init_seed=seed,
    )


def toy_train_config(seed: int = 0, epochs: int = TOY_EPOCHS) -> TrainConfig:
    return TrainConfig(
        language="en",
        epochs=epochs,
        batch_size=TOY_BATCH_SIZE,
        learning_rate=TOY_LEARNING_RATE,
        seed=seed,
    )


_TOY_OFF_WORDS = [
    "grok", "vex", "snarl", "blight", "crud", "murk", "gripe", "scowl", "jeer", "bile",
]
_TOY_NOT_WORDS = [
    "bloom", "dawn", "glee", "meadow", "sparkle", "breeze", "chime", "honey", "petal", "gleam",
]


def separable_toy_corpus(n: int = 200, seed: int = 0) -> Corpus:
    """Linearly separable corpus: OFF and NOT sentences use disjoint word sets,
    balanced classes, 4-8 words per sentence."""
    rng = random.Random(seed)
    examples = []
    for i in range(n):
        label = Label.OFF if i % 2 == 0 else Label.NOT
        pool = _TOY_OFF_WORDS if label is Label.OFF else _TOY_NOT_WORDS
        words = rng.choices(pool, k=rng.randint(4, 8))
        examples.append(LabeledExample(f"toy{i}", " ".join(words), label))
    rng.shuffle(examples)
    return Corpus(language="en", examples=examples)


def flip_labels(corpus: Corpus, fraction: float = 0.2, seed: int = 0) -> Corpus:
    """Copy of the corpus with round(fraction * n) labels flipped, chosen by
    the seeded generator; simulates a noisy weakly labeled dataset."""
    rng = random.Random(seed)
    n_flip = round(fraction * len(corpus))
    flip_idx = set(rng.sample(range(len(corpus)), n_flip))
    flipped = []
    for i, ex in enumerate(corpus.examples):
        label = ex.label
        if i in flip_idx:
            label = Label.NOT if label is Label.OFF else Label.OFF
        flipped.append(LabeledExample(ex.id, ex.text, label))
    return Corpus(corpus.language, flipped)


# --- cue task: shared base of both ablation protocols -------------------------
#
# Every sentence is 8-12 filler tokens plus exactly one class cue drawn from a
# 16-word per-class inventory. Each cue is therefore rare (a handful of train
# occurrences), which makes the task sensitive to the optimization budget and
# to label noise: a four-epoch run on the bare corpus learns it only partly.

_CUE_FILLERS = [
    "rema", "tolu", "saki", "pondu", "lira", "vesta", "moku", "tarn",
    "jilo", "kava", "neri", "sulo", "pira", "wemba", "zora", "falu",
]
_CUE_WORDS = {
    Label.OFF: [p + s for p in ("dre", "ska", "vob", "gru") for s in ("t", "rn", "x", "m")],
    Label.NOT: [p + s for p in ("mel", "soo", "bri", "plo") for s in ("l", "f", "n", "y")],
}
_CUE_CANON = {Label.OFF: "harshmark", Label.NOT: "kindmark"}

CUE_TASK_LEARNING_RATE = 2e-3
DISAMBIG_PIVOTS = PivotSet(("en", "fr", "de"))


def cue_encoder_config(seed: int = 0) -> EncoderConfig:
    # max_len 24 leaves room for an original sentence plus its rendered
    # translation across the separator.
    return EncoderConfig(
        hidden_size=32,
        num_layers=2,
        num_heads=2,
        ffn_size=64,
        max_len=24,
        vocab_cap=400,
        dropout=0.1,
        init_seed=seed,
    )


def cue_train_config(seed: int = 0, epochs: int = TOY_EPOCHS) -> TrainConfig:
    return TrainConfig(
        language="en",
        epochs=epochs,
        batch_size=TOY_BATCH_SIZE,
        learning_rate=CUE_TASK_LEARNING_RATE,
        seed=seed,
    )


def cue_corpus(n: int, seed: int, language: str = "en") -> Corpus:
    rng = random.Random(seed)
    examples = []
    for i in range(n):
        label = Label.OFF if i % 2 == 0 else Label.NOT
        words = rng.choices(_CUE_FILLERS, k=rng.randint(8, 12))
        words.insert(rng.randrange(len(words) + 1), rng.choice(_CUE_WORDS[label]))
        examples.append(LabeledExample(f"cue{i}", " ".join(words), label))
    rng.shuffle(examples)
    return Corpus(language=language, examples=examples)


def disambiguation_task(
    n: int = 120, seed: int = 0, language: str = "tr"
) -> tuple[Corpus, MappingProvider]:
    """Cue corpus plus a translation provider that renders every sentence's
    class cue as one canonical per-class token. Augmentation consolidates the
    sparse per-cue evidence into a frequent token and multiplies the training
    passes over each original cue, which is what lifts validation scores
    within the fixed epoch budget; the provider derives everything from the
    source text alone."""
    corpus = cue_corpus(n, seed, language=language)
    cue_set = {label: set(words) for label, words in _CUE_WORDS.items()}
    entries: dict[tuple[str, str, str], str] = {}
    for ex in corpus:
        canon = _CUE_CANON[ex.label]
        assert any(tok in cue_set[ex.label] for tok in ex.text.split())
        for pivot in DISAMBIG_PIVOTS.pivots:
            entries[(ex.text, language, pivot)] = f"{pivot} {canon} {canon}"
    return corpus, MappingProvider(entries)


# --- synthetic multilingual mini-corpus --------------------------------------

_MINI_WORDS = {
    "en": {
        "filler": [
            "the", "game", "tonight", "was", "really", "great", "see", "you",
            "friends", "coffee", "morning", "sunshine", "weekend", "music",
            "lovely", "day", "thanks", "for", "everything", "team",
        ],
        "off": ["idiot", "trash", "loser", "pathetic", "fool", "disgusting", "clown", "shut"],
    },
    "da": {
        "filler": [
            "det", "var", "en", "god", "kamp", "i", "aften", "tak", "for",
            "hyggeligt", "vejret", "er", "dejligt", "weekend", "kaffe", "musik",
            "venner", "se", "dig", "snart",
        ],
        "off": ["idiot", "taber", "klovn", "dum", "ussel", "modbydelig", "fjols", "skrid"],
    },
    "tr": {
        "filler": [
            "bu", "akşam", "maç", "çok", "güzeldi", "teşekkürler", "yarın",
            "görüşürüz", "kahve", "müzik", "hafta", "sonu", "arkadaşlar",
            "hava", "harika", "bugün", "iyi", "günler", "sevgiler", "takım",
        ],
        "off": ["aptal", "salak", "rezil", "berbat", "defol", "şerefsiz", "ahmak", "iğrenç"],
    },
    "ar": {
        "filler": [
            "كانت", "المباراة", "رائعة", "الليلة", "شكرا", "جزيلا", "صباح",
            "الخير", "قهوة", "موسيقى", "نهاية", "الأسبوع", "أصدقاء", "الطقس",
            "جميل", "اليوم", "سعيد", "أراك", "قريبا", "فريق",
        ],
        "off": ["غبي", "حقير", "تافه", "فاشل", "قذر", "مقرف", "أحمق", "اخرس"],
    },
    "el": {
        "filler": [
            "το", "παιχνίδι", "απόψε", "ήταν", "υπέροχο", "ευχαριστώ", "πολύ",
            "καλημέρα", "καφές", "μουσική", "σαββατοκύριακο", "φίλοι", "καιρός",
            "ωραίος", "σήμερα", "καλή", "μέρα", "τα", "λέμε", "ομάδα",
        ],
        "off": ["ηλίθιος", "άχρηστος", "αηδιαστικός", "βλάκας", "χαζός", "απαίσιος", "ανόητος", "σκάσε"],
    },
}

MINI_OFF_FRACTION = 0.3


def mini_corpus(language: str, n: int = 200, seed: int = 0, split: str = "train") -> Corpus:
    """Synthetic per-language mini-corpus (~200 sentences): NOT sentences are
    filler-only, OFF sentences mix one or two pejorative cue words into the
    filler, with roughly a 30/70 class split. `split` names the draw: it
    seeds the rows and prefixes their ids."""
    if language not in _MINI_WORDS:
        raise ValueError(f"no mini-corpus vocabulary for language {language!r}")
    words = _MINI_WORDS[language]
    # Stable across processes (tuple/str hashes are randomized per run).
    digest = hashlib.sha256(f"{seed}:{language}:{split}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    n_off = round(MINI_OFF_FRACTION * n)
    examples = []
    for i in range(n):
        label = Label.OFF if i < n_off else Label.NOT
        toks = rng.choices(words["filler"], k=rng.randint(5, 9))
        if label is Label.OFF:
            for _ in range(rng.randint(1, 2)):
                toks.insert(rng.randrange(len(toks) + 1), rng.choice(words["off"]))
        examples.append(LabeledExample(f"{language}-{split}-{i}", " ".join(toks), label))
    rng.shuffle(examples)
    return Corpus(language=language, examples=examples)
