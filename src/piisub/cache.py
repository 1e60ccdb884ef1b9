"""Entity resolution and the per-run surrogate cache.

The cache is the consistency mechanism: every mention of an entity resolves
to one key, and the decision for that key is reused everywhere. Under
concurrent callers `get_or_propose` guarantees at most one proposer call per
key, so no backend call is made twice; losers wait on the cache's one
condition until the key leaves the in-flight set, then read the winner's
decision. A proposer failure wakes the waiters, one of which becomes the new
owner, so a transient backend error does not poison the key.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from .model import (
    CacheKey,
    EntityGroup,
    Label,
    PiiSpan,
    SurrogateDecision,
    canonicalize,
)


def resolve_entities(spans: Iterable[PiiSpan]) -> list[EntityGroup]:
    """Group spans by (canonical surface, label), ordered by first mention."""
    groups: dict[tuple[str, Label], list[PiiSpan]] = {}
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        key = (canonicalize(span.surface), span.label)
        groups.setdefault(key, []).append(span)
    return [
        EntityGroup(canonical=canonical, label=label, members=tuple(members))
        for (canonical, label), members in groups.items()
    ]


def decision_to_json_dict(decision: SurrogateDecision) -> dict:
    return {
        "surrogate": decision.surrogate,
        "source": decision.source.value,
        "demos_used": list(decision.demos_used),
        "rejection_reasons": [r.value for r in decision.rejection_reasons],
    }


class SurrogateCache:
    """Keyed decision store with an at-most-once proposal guarantee."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Notified whenever a key leaves the in-flight set.
        self._changed = threading.Condition(self._lock)
        self._store: dict[CacheKey, SurrogateDecision] = {}
        self._inflight: set[CacheKey] = set()
        #: Distinct keys whose decision this cache proposed.
        self.proposals_made = 0
        #: Reads answered from the store.
        self.cache_hits = 0

    def get_or_propose(
        self, key: CacheKey, proposer: Callable[[], SurrogateDecision]
    ) -> SurrogateDecision:
        """Return the cached decision, proposing it first if absent.

        Concurrent callers on the same key serialize: exactly one runs the
        proposer; the rest wait and get its result. If the proposer raises,
        nothing is cached, the error propagates to the owning caller, and a
        waiter retries as the new owner.
        """
        with self._lock:
            while True:
                cached = self._store.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    return cached
                if key not in self._inflight:
                    break
                self._changed.wait()
            self._inflight.add(key)
        try:
            decision = proposer()
        except BaseException:
            with self._lock:
                self._inflight.discard(key)
                self._changed.notify_all()
            raise
        with self._lock:
            self._store[key] = decision
            self.proposals_made += 1
            self._inflight.discard(key)
            self._changed.notify_all()
        return decision
