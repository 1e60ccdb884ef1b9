"""Entity grouping and the propose-once surrogate cache."""

import pytest

from piisub.cache import SurrogateCache, resolve_entities
from piisub.model import (
    CacheKey,
    Label,
    Mode,
    PiiSpan,
    Source,
    SurrogateDecision,
)


def span(start, surface, label=Label.PERSON):
    return PiiSpan(start=start, end=start + len(surface), label=label, surface=surface)


class TestResolveEntities:
    def test_groups_by_canonical_and_label(self):
        spans = [
            span(0, "Walter Abernathy"),
            span(40, "WALTER  ABERNATHY"),
            span(70, "Edith Goodwin"),
        ]
        groups = resolve_entities(spans)
        assert [g.canonical for g in groups] == ["walter abernathy", "edith goodwin"]
        assert len(groups[0].members) == 2
        assert len(groups[1].members) == 1

    def test_same_surface_different_label_splits(self):
        spans = [span(0, "1985", Label.DATE), span(10, "1985", Label.ACCOUNT)]
        groups = resolve_entities(spans)
        assert {g.label for g in groups} == {Label.DATE, Label.ACCOUNT}

    def test_order_is_first_mention(self):
        spans = [span(10, "Beta Person"), span(50, "Alpha Person"), span(90, "beta person")]
        groups = resolve_entities(spans)
        assert [g.canonical for g in groups] == ["beta person", "alpha person"]
        assert [m.start for m in groups[0].members] == [10, 90]

    def test_empty(self):
        assert resolve_entities([]) == []


def _key(canonical="walter abernathy", mode=Mode.HYBRID):
    return CacheKey(mode=mode, family="person", canonical=canonical, label=Label.PERSON)


def _decision(value="Daniel Foster"):
    return SurrogateDecision(value, Source.SLM, demos_used=("a", "b", "c"))


class TestGetOrPropose:
    def test_first_call_proposes_then_hits(self):
        cache = SurrogateCache()
        calls = []

        def proposer():
            calls.append(1)
            return _decision()

        first = cache.get_or_propose(_key(), proposer)
        second = cache.get_or_propose(_key(), proposer)
        assert first == second
        assert calls == [1]
        assert cache.proposals_made == 1
        assert cache.cache_hits == 1

    def test_distinct_keys_propose_independently(self):
        cache = SurrogateCache()
        cache.get_or_propose(_key("a b"), lambda: _decision("X Y"))
        cache.get_or_propose(_key("c d"), lambda: _decision("Z W"))
        assert cache.proposals_made == 2
        assert cache.get_or_propose(_key("a b"), _decision).surrogate == "X Y"
        assert cache.get_or_propose(_key("c d"), _decision).surrogate == "Z W"
        assert cache.cache_hits == 2

    def test_failure_is_not_cached(self):
        cache = SurrogateCache()

        def boom():
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            cache.get_or_propose(_key(), boom)
        assert (cache.proposals_made, cache.cache_hits) == (0, 0)
        # the key is usable again: the next caller proposes
        assert cache.get_or_propose(_key(), _decision).surrogate == "Daniel Foster"
        assert (cache.proposals_made, cache.cache_hits) == (1, 0)
