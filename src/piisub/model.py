"""Core domain types shared across the substitution pipeline.

`Label` and `Mode` members hash by identity (`object.__hash__`, in C), not
by `Enum.__hash__`, which hashes the member's name in Python on every
lookup: they key the surrogate cache, the pools and every ground-truth
table. Only iteration order can tell the two hashes apart, and no set of
members is ever iterated into an artifact (dicts keep insertion order), so
no output depends on it.

Every report object becomes JSON by one rule, `JsonReport.to_json_dict`:
its dataclass fields, minus `json_skip`, plus the properties named in
`json_extra`, each through `json_value`. An artifact is written with
sorted keys, so the order of the keys never reaches a file.
"""

from __future__ import annotations

import _sre
from dataclasses import dataclass, field, fields
from enum import Enum
from re._casefix import _EXTRA_CASES
from typing import Any, Callable, ClassVar, Iterable, Iterator, NamedTuple


class JsonReport:
    """Base of the dataclasses that are written as JSON objects."""

    #: Fields left out of the object.
    json_skip: ClassVar[tuple[str, ...]] = ()
    #: Properties written as keys beside the fields.
    json_extra: ClassVar[tuple[str, ...]] = ()

    def to_json_dict(self) -> dict:
        names = [f.name for f in fields(self) if f.name not in self.json_skip]
        names += self.json_extra
        return {name: json_value(getattr(self, name)) for name in names}


def json_value(value: Any) -> Any:
    """`value` as JSON data: a report as its dict, an Enum as its value, a
    dict, list or tuple item by item, anything else as it is."""
    if isinstance(value, JsonReport):
        return value.to_json_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {key: json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_value(item) for item in value]
    return value


class Label(Enum):
    """PII categories handled by the pipeline."""

    PERSON = "PERSON"
    ADDRESS = "ADDRESS"
    DATE = "DATE"
    EMAIL = "EMAIL"
    PHONE = "PHONE"
    ACCOUNT = "ACCOUNT"
    URL = "URL"
    SECRET = "SECRET"

    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name: str) -> "Label":
        try:
            return cls[name]
        except KeyError:
            raise ValueError(f"unknown label {name!r}") from None


class Mode(Enum):
    """Substitution strategy applied to detected entities."""

    REDACT = "redact"
    FAKER = "faker"
    HYBRID = "hybrid"

    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name: str) -> "Mode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown mode {name!r}") from None


#: Labels routed to the language-model proposer in hybrid mode, in the
#: order their demonstration pools are listed.
SLM_LABELS = (Label.PERSON, Label.ADDRESS, Label.DATE)


class Source(Enum):
    """Which proposer produced a surrogate."""

    SLM = "slm"
    FAKE = "fake"
    REDACT = "redact"
    FALLBACK_FAKE = "fallback_fake"


class RejectionReason(Enum):
    """Why a language-model completion was discarded."""

    EMPTY = "empty"
    IDENTITY = "identity"
    PUNCTUATION_ONLY = "punctuation_only"
    NOT_A_DATE = "not_a_date"
    NOT_AN_ADDRESS = "not_an_address"


#: The longest timeout, in seconds, that every transport can wait for:
#: `subprocess` polls in whole milliseconds held in a C int (below 2**31).
MAX_TIMEOUT_S = 2_147_483


def check_timeout(what: str, timeout: float) -> None:
    """Refuse a timeout that is not above 0 (NaN included) or that is above
    MAX_TIMEOUT_S (infinity included); a transport would raise
    OverflowError on every call."""
    if not timeout > 0:
        raise ValueError(f"{what} timeout must be above 0, got {timeout}")
    if not timeout <= MAX_TIMEOUT_S:
        raise ValueError(
            f"{what} timeout must be at most {MAX_TIMEOUT_S} s, got {timeout}"
        )


def split_command(what: str, template: str) -> list[str]:
    """A command template's words, split as a POSIX shell splits them; an
    unclosed quote, a NUL or no words at all is refused, naming the command."""
    import shlex

    if "\0" in template:
        raise ValueError(f"{what} command {template!r}: holds a NUL")
    try:
        argv = shlex.split(template)
    except ValueError as exc:
        raise ValueError(f"{what} command {template!r}: {exc}") from None
    if not argv:
        raise ValueError(f"empty {what} command")
    return argv


def run_command(argv: list[str], data: str, timeout: float) -> str:
    """Run `argv` once with `data` on a stdin pipe of its own and return its
    stdout, all UTF-8 whatever the locale. A command that cannot start (or
    has a NUL in an argument), times out or exits non-zero raises OSError
    (with its first stderr line); stdout not UTF-8 raises UnicodeDecodeError."""
    import subprocess

    try:
        proc = subprocess.run(
            [arg.encode("utf-8") for arg in argv],
            input=data.encode("utf-8"),
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise OSError(f"timed out after {timeout} s") from None
    except OSError as exc:
        raise OSError(f"cannot run {argv[0]}: {exc.strerror}") from None
    except ValueError as exc:
        raise OSError(f"cannot run {argv[0]}: {exc}") from None
    if proc.returncode != 0:
        detail = proc.stderr.decode("utf-8", "replace").strip().splitlines()
        raise OSError(f"exit {proc.returncode}" + (f": {detail[0]}" if detail else ""))
    return proc.stdout.decode("utf-8")


class EmptyCanonical(ValueError):
    """Raised when canonicalize receives a whitespace-only string."""


def canonicalize(text: str) -> str:
    """Normalize an entity surface for grouping.

    Case-folds, trims, and collapses internal whitespace runs to a single
    space, so that mentions differing only in case or spacing share one
    canonical form.

    Raises:
        EmptyCanonical: if the input contains nothing but whitespace.
    """
    words = text.casefold().split()
    if not words:
        raise EmptyCanonical("cannot canonicalize a whitespace-only string")
    return " ".join(words)


@dataclass(frozen=True, slots=True)
class PiiSpan:
    """A detected PII mention: character offsets plus the covered surface."""

    start: int
    end: int
    label: Label
    surface: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"invalid span offsets [{self.start}, {self.end})")
        if len(self.surface) != self.end - self.start:
            raise ValueError("surface length does not match span width")


@dataclass(frozen=True)
class EntityGroup:
    """All mentions of one entity (same canonical form and label) in a document."""

    canonical: str
    label: Label
    members: tuple[PiiSpan, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("entity group must have at least one member")


@dataclass
class CorpusRecord:
    """One evaluation document with its ground-truth PII values keyed by label."""

    id: str
    text: str
    locale: str
    template: str
    pii_gt: dict[Label, list[str]] = field(default_factory=dict)

    def gt_values(self) -> list[str]:
        """All ground-truth values, flattened in label order."""
        out: list[str] = []
        for label in Label:
            out.extend(self.pii_gt.get(label, ()))
        return out


@dataclass(frozen=True)
class SurrogateDecision(JsonReport):
    """The replacement chosen for one entity, with provenance.

    An accepted language-model proposal carries exactly the three
    demonstrations it was prompted with and no rejection reasons; a fallback
    records the one reason the model's completion was discarded.
    `generation.dispatch`, the only producer, builds each that way.

    `backend_errors` has one entry per model call made, None for an answer
    and the error text for a failure; the run judges the backend by it, and
    writes it to no file.
    """

    json_skip = ("backend_errors",)

    surrogate: str
    source: Source
    demos_used: tuple[str, ...] = ()
    rejection_reasons: tuple[RejectionReason, ...] = ()
    backend_errors: tuple[str | None, ...] = ()


class CacheKey(NamedTuple):
    """Identity of a surrogate decision: (mode, proposer family, canonical,
    label). A tuple, so it hashes and compares in C."""

    mode: Mode
    family: str
    canonical: str
    label: Label


class _CiFold(dict):
    """`str.translate` table of `ci_fold`, filled in on first use."""

    def __missing__(self, cp: int) -> int:
        lower = _sre.unicode_tolower(cp)
        folded = self[cp] = min((lower, *_EXTRA_CASES.get(lower, ())))
        return folded


_CI_FOLD = _CiFold()


def ci_fold(text: str) -> str:
    """Map each character to the smallest lower-case form of its
    `re.IGNORECASE` class: its own, or an extra case `re` lists (`ı`/`i`,
    `ſ`/`s`, ...). The length never changes, so offsets carry over."""
    return text.translate(_CI_FOLD)


def folded_occurrences(needle: str, folded: str) -> Iterator[tuple[int, int]]:
    """Yield (start, end) of each case-insensitive occurrence of needle in
    `folded`, a haystack already passed through `ci_fold`.

    Occurrences do not overlap and are found left to right, as
    `re.finditer` finds them. With `folded_contains` this is the single
    definition of "appears verbatim, case-insensitively" shared by
    detection and the leak metric, so the two can never disagree. Both
    sides are compared through `ci_fold`: a caller folds each haystack
    once, however many needles it searches for, and only the needle is
    folded here.
    """
    if not needle:
        return
    needle = ci_fold(needle)
    start = folded.find(needle)
    while start != -1:
        yield start, start + len(needle)
        start = folded.find(needle, start + len(needle))


def folded_contains(needle: str, folded: str) -> bool:
    """True when needle occurs case-insensitively anywhere in `folded`, a
    haystack already passed through `ci_fold`."""
    return bool(needle) and ci_fold(needle) in folded


def ci_any_matcher(needles: Iterable[str]) -> Callable[[str], bool]:
    """Build a predicate: does a haystack contain any needle (per
    `folded_contains` over the folded haystack)?

    The non-empty needles are kept folded in one set and indexed by their
    head, their first `h` characters, where `h` is the shortest needle's
    length; each head maps to the lengths of the needles that start with
    it. A check folds the haystack once, looks up the head at every offset
    and slices only the lengths listed there, so its cost is bounded by the
    haystack's length, not by the number of needles. An empty set never
    matches.
    """
    folded = frozenset(ci_fold(n) for n in needles if n)
    if not folded:
        return lambda haystack: False
    h = min(map(len, folded))
    heads: dict[str, set[int]] = {}
    for needle in folded:
        heads.setdefault(needle[:h], set()).add(len(needle))
    lengths_by_head = {head: sorted(lengths) for head, lengths in heads.items()}

    def contains_any(haystack: str) -> bool:
        text = ci_fold(haystack)
        return any(
            text[i : i + n] in folded
            for i in range(len(text) - h + 1)
            for n in lengths_by_head.get(text[i : i + h], ())
        )

    return contains_any
