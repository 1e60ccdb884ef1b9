"""Entity resolution and the per-run surrogate cache.

The cache is the consistency mechanism: every mention of an entity resolves
to one key, and the outcome for that key is reused everywhere. Resolution
runs once per record per command, in `pipeline.detect_corpus`, and every
mode keys its own cache by those groups. A cache's one caller is the record
walk of `pipeline.run_corpus`, so each key is proposed once, by its first
mention in record order, however many workers run the proposals. An outcome
is the key's decision, the error that fails every document holding the key,
or the pending task that yields one of them.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .model import (
    CacheKey,
    EntityGroup,
    Label,
    PiiSpan,
    canonicalize,
)


def resolve_entities(spans: Iterable[PiiSpan]) -> list[EntityGroup]:
    """Group spans by (canonical surface, label), ordered by first mention.
    The spans are sorted and disjoint, as `detection.resolve_overlaps` gives."""
    groups: dict[tuple[str, Label], list[PiiSpan]] = {}
    for span in spans:
        key = (canonicalize(span.surface), span.label)
        groups.setdefault(key, []).append(span)
    return [
        EntityGroup(canonical=canonical, label=label, members=tuple(members))
        for (canonical, label), members in groups.items()
    ]


class SurrogateCache:
    """Keyed outcome store: a key is proposed on its first lookup, and every
    later lookup reads what that proposal stored."""

    def __init__(self) -> None:
        self._store: dict[CacheKey, object] = {}
        #: Distinct keys this cache proposed.
        self.proposals_made = 0
        #: Lookups answered from the store.
        self.cache_hits = 0

    def get_or_propose(self, key: CacheKey, proposer: Callable[[], object]) -> object:
        """The key's stored outcome, storing `proposer()` first if the key
        is new (a proposer that raises stores nothing; None is no outcome)."""
        outcome = self._store.get(key)
        if outcome is not None:
            self.cache_hits += 1
            return outcome
        outcome = self._store[key] = proposer()
        self.proposals_made += 1
        return outcome
