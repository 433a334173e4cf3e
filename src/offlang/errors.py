"""Exception taxonomy shared across the toolkit."""


class OffLangError(Exception):
    """Base class for all toolkit errors."""


class MalformedRow(OffLangError):
    """A line of an input table that cannot be parsed (wrong arity, empty
    text, bad number, bytes that are not UTF-8): a labeled or scored TSV, a
    translation file or cache journal, or a normalization table."""

    def __init__(self, line: int, reason: str, path):
        super().__init__(f"{path}: line {line}: {reason}")
        self.line = line
        self.path = path


class UnknownLabel(MalformedRow):
    """A label token that is neither OFF nor NOT (case-insensitively)."""

    def __init__(self, line: int, token: str, path):
        super().__init__(line, f"unknown label token {token!r}", path)


class DuplicateId(MalformedRow):
    def __init__(self, example_id: str, line: int, path):
        super().__init__(line, f"duplicate example id {example_id!r}", path)


class OutOfRangeConfidence(MalformedRow):
    def __init__(self, line: int, value: float, path):
        super().__init__(line, f"confidence {value} outside [0, 1]", path)


class EmptyCorpus(OffLangError):
    """An operation that requires at least one example got none."""


class InputChanged(OffLangError):
    """An input file changed while a stage that reads it twice read it."""

    def __init__(self, path):
        super().__init__(f"{path}: changed while it was read; run the stage again")
        self.path = path


class InsufficientClassSamples(OffLangError):
    def __init__(self, label, available: int, requested: int):
        super().__init__(
            f"class {getattr(label, 'value', label)}: requested {requested} "
            f"samples but only {available} qualify"
        )
        self.label = label
        self.available = available
        self.requested = requested


class InvalidPivots(OffLangError):
    """Pivot set violates its invariants (empty, duplicated, or equal to source)."""


class TranslationError(OffLangError):
    """Base class for translation-provider failures."""


class ProviderUnavailable(TranslationError):
    """Transient provider failure; safe to retry."""


class UnsupportedPair(TranslationError):
    def __init__(self, source: str, target: str):
        super().__init__(f"language pair {source}->{target} not supported")


class EmptyTranslation(TranslationError):
    def __init__(self, source: str, target: str):
        super().__init__(f"provider returned an empty translation for {source}->{target}")


class TranslationNotFound(TranslationError):
    """A file/mapping provider has no entry for the requested triple."""


class JournalWriteFailed(OSError):
    """The translation journal could not be opened or written. It ends
    augmentation under every policy, since every later translation would
    fail to be recorded too. An OSError, so it is reported as any failed
    write is."""


class AugmentationFailed(OffLangError):
    """A translation error annotated with the pivot it occurred on."""

    def __init__(self, pivot: str, cause: Exception):
        super().__init__(f"augmentation failed on pivot {pivot!r}: {cause}")
        self.pivot = pivot


class DivergenceError(OffLangError):
    """Training aborted because the loss became non-finite or exploded."""


class ArityMismatch(OffLangError):
    def __init__(self, layout: str, expected: int, got: int):
        super().__init__(f"layout {layout!r} needs {expected} reports, got {got}")


class ConfigError(OffLangError):
    """Pipeline configuration failed validation."""
