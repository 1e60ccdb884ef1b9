"""Entity grouping and the at-most-once surrogate cache."""

import os
import random
import sys
import threading
import time

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
        spans = [span(50, "Beta Person"), span(10, "Alpha Person"), span(90, "beta person")]
        groups = resolve_entities(spans)
        assert [g.canonical for g in groups] == ["alpha person", "beta person"]

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

    def test_at_most_once_under_contention(self):
        cache = SurrogateCache()
        calls = []
        barrier = threading.Barrier(8)

        def proposer():
            calls.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return _decision()

        results = []

        def worker():
            barrier.wait()
            results.append(cache.get_or_propose(_key(), proposer))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        assert cache.proposals_made == 1

    def test_owner_failure_lets_waiter_retry(self):
        cache = SurrogateCache()
        attempts = []
        gate = threading.Event()

        def flaky():
            attempts.append(threading.get_ident())
            if len(attempts) == 1:
                gate.wait(timeout=5)  # hold the key until the waiter queues up
                raise RuntimeError("backend hiccup")
            return _decision("Second Try")

        outcomes = []

        def worker():
            try:
                outcomes.append(cache.get_or_propose(_key(), flaky))
            except RuntimeError as exc:
                outcomes.append(exc)

        t1 = threading.Thread(target=worker)
        t1.start()
        while len(attempts) == 0:
            time.sleep(0.001)
        t2 = threading.Thread(target=worker)
        t2.start()
        time.sleep(0.05)  # let t2 block while the key is in flight
        gate.set()
        t1.join()
        t2.join()
        errors = [o for o in outcomes if isinstance(o, RuntimeError)]
        decisions = [o for o in outcomes if isinstance(o, SurrogateDecision)]
        assert len(errors) == 1  # only the owning caller sees the failure
        assert len(decisions) == 1
        assert decisions[0].surrogate == "Second Try"
        assert len(attempts) == 2
        assert cache.proposals_made == 1

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

    def test_stress_many_workers_many_keys(self):
        # more workers than cores, switching threads as often as possible
        cache = SurrogateCache()
        keys = [_key(f"name {i}") for i in range(40)]
        flaky = set(keys[::7])  # each fails on its first proposal only
        calls = {key: 0 for key in keys}
        calls_lock = threading.Lock()
        wrong = []

        def proposer_for(key):
            def propose():
                with calls_lock:
                    calls[key] += 1
                    first = calls[key] == 1
                time.sleep(0.001)  # let other workers ask for the key meanwhile
                if key in flaky and first:
                    raise RuntimeError("transient")
                return _decision(key.canonical)

            return propose

        def worker(seed):
            order = keys * 3
            random.Random(seed).shuffle(order)
            for key in order:
                try:
                    decision = cache.get_or_propose(key, proposer_for(key))
                except RuntimeError:
                    continue
                if decision.surrogate != key.canonical:
                    wrong.append((key, decision))

        workers = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(2 * (os.cpu_count() or 1) + 6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert wrong == []
        assert calls == {key: 2 if key in flaky else 1 for key in keys}
        assert cache.proposals_made == len(keys)
        served = len(workers) * len(keys) * 3 - len(flaky)
        assert cache.cache_hits == served - len(keys)
