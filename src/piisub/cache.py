"""Entity resolution and the per-run surrogate cache.

The cache is the consistency mechanism: every mention of an entity resolves
to one key, and the decision for that key is reused everywhere. Under
concurrent callers `get_or_propose` guarantees at most one proposer call per
key, so no backend call is made twice; losers block on an event and read the
winner's decision. A proposer failure wakes the waiters, one of which becomes
the new owner, so a transient backend error does not poison the key.
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
        self._store: dict[CacheKey, SurrogateDecision] = {}
        self._inflight: dict[CacheKey, threading.Event] = {}
        #: Distinct keys whose decision this process proposed.
        self.proposals_made = 0
        #: Reads answered from the store.
        self.cache_hits = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def get(self, key: CacheKey) -> SurrogateDecision | None:
        with self._lock:
            decision = self._store.get(key)
            if decision is not None:
                self.cache_hits += 1
            return decision

    def get_or_propose(
        self, key: CacheKey, proposer: Callable[[], SurrogateDecision]
    ) -> SurrogateDecision:
        """Return the cached decision, proposing it first if absent.

        Concurrent callers on the same key serialize: exactly one runs the
        proposer; the rest wait and get its result. If the proposer raises,
        nothing is cached, the error propagates to the owning caller, and a
        waiter retries as the new owner.
        """
        while True:
            with self._lock:
                cached = self._store.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    return cached
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    is_owner = True
                else:
                    is_owner = False
            if not is_owner:
                event.wait()
                continue
            try:
                decision = proposer()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                event.set()
                raise
            with self._lock:
                self._store[key] = decision
                self.proposals_made += 1
                self._inflight.pop(key, None)
            event.set()
            return decision
