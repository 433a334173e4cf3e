"""Exception taxonomy shared across the toolkit."""


class OffLangError(Exception):
    """Base class for all toolkit errors."""


class MalformedRow(OffLangError):
    """A TSV row that cannot be parsed (wrong arity, empty text, bad number,
    bytes that are not UTF-8)."""

    def __init__(self, line: int, reason: str, path=None):
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}line {line}: {reason}")
        self.line = line
        self.reason = reason
        self.path = path


class UnknownLabel(MalformedRow):
    """A label token that is neither OFF nor NOT (case-insensitively)."""

    def __init__(self, line: int, token: str):
        super().__init__(line, f"unknown label token {token!r}")
        self.token = token


class MalformedTranslationLine(OffLangError):
    """A line of a translation file or cache journal that cannot be parsed."""

    def __init__(self, path, line: int, reason: str):
        super().__init__(f"{path}: line {line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason


class DuplicateId(OffLangError):
    def __init__(self, example_id: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate example id {example_id!r}{where}")
        self.example_id = example_id
        self.line = line


class OutOfRangeConfidence(OffLangError):
    def __init__(self, line: int, value: float):
        super().__init__(f"line {line}: confidence {value} outside [0, 1]")
        self.line = line
        self.value = value


class EmptyCorpus(OffLangError):
    """An operation that requires at least one example got none."""


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
        self.source = source
        self.target = target


class EmptyTranslation(TranslationError):
    def __init__(self, text: str, source: str, target: str):
        super().__init__(
            f"provider returned an empty translation for {source}->{target}"
        )
        self.text = text
        self.source = source
        self.target = target


class TranslationNotFound(TranslationError):
    """A file/mapping provider has no entry for the requested triple."""


class AugmentationFailed(OffLangError):
    """A translation error annotated with the pivot it occurred on."""

    def __init__(self, pivot: str, cause: Exception):
        super().__init__(f"augmentation failed on pivot {pivot!r}: {cause}")
        self.pivot = pivot
        self.cause = cause


class DivergenceError(OffLangError):
    """Training aborted because the loss became non-finite or exploded."""


class ArityMismatch(OffLangError):
    def __init__(self, layout: str, expected: int, got: int):
        super().__init__(f"layout {layout!r} needs {expected} reports, got {got}")
        self.layout = layout
        self.expected = expected
        self.got = got


class ConfigError(OffLangError):
    """Pipeline configuration failed validation."""
