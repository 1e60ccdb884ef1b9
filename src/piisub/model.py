"""Core domain types shared across the substitution pipeline."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterator


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

    @classmethod
    def from_name(cls, name: str) -> "Mode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown mode {name!r}") from None


#: Labels routed to the language-model proposer in hybrid mode.
SLM_LABELS = frozenset({Label.PERSON, Label.ADDRESS, Label.DATE})


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


class EmptyCanonical(ValueError):
    """Raised when canonicalize receives a whitespace-only string."""


_WS_RUN = re.compile(r"\s+")


def canonicalize(text: str) -> str:
    """Normalize an entity surface for grouping.

    Case-folds, trims, and collapses internal whitespace runs to a single
    space, so that mentions differing only in case or spacing share one
    canonical form.

    Raises:
        EmptyCanonical: if the input contains nothing but whitespace.
    """
    folded = text.casefold().strip()
    if not folded:
        raise EmptyCanonical("cannot canonicalize a whitespace-only string")
    return _WS_RUN.sub(" ", folded)


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
class SurrogateDecision:
    """The replacement chosen for one entity, with provenance.

    An accepted language-model proposal carries exactly the three
    demonstrations it was prompted with and no rejection reasons; a fallback
    records why the model's completion was discarded.
    """

    surrogate: str
    source: Source
    demos_used: tuple[str, ...] = ()
    rejection_reasons: tuple[RejectionReason, ...] = ()

    def __post_init__(self) -> None:
        if self.source is Source.SLM:
            if len(self.demos_used) != 3:
                raise ValueError("an accepted SLM decision must record 3 demos")
            if self.rejection_reasons:
                raise ValueError("an accepted SLM decision cannot carry rejections")
        if self.source is Source.FALLBACK_FAKE and not self.rejection_reasons:
            raise ValueError("a fallback decision must record why the SLM failed")


@dataclass(frozen=True, slots=True)
class CacheKey:
    """Identity of a surrogate decision: (mode, proposer family, canonical, label)."""

    mode: Mode
    family: str
    canonical: str
    label: Label


@lru_cache(maxsize=4096)
def _ci_pattern(needle: str) -> re.Pattern[str]:
    return re.compile(re.escape(needle), re.IGNORECASE)


def ci_occurrences(needle: str, haystack: str) -> Iterator[tuple[int, int]]:
    """Yield (start, end) of each case-insensitive occurrence of needle.

    Matching is offset-safe (no case transformation of the haystack). This is
    the single definition of "appears verbatim, case-insensitively" shared by
    detection and the leak metric, so the two can never disagree.
    """
    if not needle:
        return
    for match in _ci_pattern(needle).finditer(haystack):
        yield match.span()


def ci_contains(needle: str, haystack: str) -> bool:
    """True when needle occurs case-insensitively anywhere in haystack."""
    return next(ci_occurrences(needle, haystack), None) is not None


def _never(haystack: str) -> bool:
    return False


def _trie_alternation(needles: list[str], depth: int) -> str:
    """Emit the character trie of sorted needles that share needles[0][:depth].

    The trie is walked, not built: siblings are the runs of equal characters
    at `depth`. Recursion deepens only where the trie branches. A needle that
    ends at a node sorts first under it and covers everything below.
    """
    stem = os.path.commonprefix([needles[0], needles[-1]])
    pattern = re.escape(stem[depth:])
    depth = len(stem)
    if len(needles[0]) == depth:
        return pattern
    branches = (
        re.escape(ch) + _trie_alternation(list(group), depth + 1)
        for ch, group in groupby(needles, key=itemgetter(depth))
    )
    return pattern + "(?:" + "|".join(branches) + ")"


@lru_cache(maxsize=1)
def ci_any_matcher(needles: frozenset[str]) -> Callable[[str], bool]:
    """Build a predicate: does a haystack contain any needle (per `ci_contains`)?

    The non-empty needles become one nested alternation shaped like their
    character trie, compiled once with IGNORECASE. Each character is still
    matched by `re`'s own case rules, so the predicate equals
    `any(ci_contains(n, haystack) for n in needles)`, at a cost per call that
    does not grow with the number of needles. An empty set never matches.
    """
    ordered = sorted(n for n in needles if n)
    if not ordered:
        return _never
    search = re.compile(_trie_alternation(ordered, 0), re.IGNORECASE).search
    return lambda haystack: search(haystack) is not None
