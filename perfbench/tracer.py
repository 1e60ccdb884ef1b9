"""Outside-in span tracer for the piisub pipeline.

The tracer never edits piisub. It replaces, inside one worker process, the
public functions and methods that the pipeline reaches through module
globals (`pipeline.dispatch`, `generation.fake_value`,
`SlmBackend.propose`, ...) with wrappers that record one span per call:
name, start, end and the span that was open when the call began. Spans
live in flat arrays while the job runs and are written out once it ends.

A hook whose target no longer exists fails the install, so a refactor
cannot silently drop a layer from the trace. Private helpers are never
hooked; their time shows up as self time of the public caller (the leak
guard scan, for example, is self time of `generation.dispatch`).

Self time of a span is its duration minus the time its child spans cover.
The pipeline runs serially (`--parallelism 1`), so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

#: (module, attribute path, span name). The module is the one whose global
#: or class the pipeline calls through, not necessarily the defining one.
SPAN_HOOKS: tuple[tuple[str, str, str], ...] = (
    ("piisub.cli", "load_corpus", "corpus.load_corpus"),
    ("piisub.cli", "run_corpus", "pipeline.run_corpus"),
    ("piisub.cli", "compute_metrics", "pipeline.compute_metrics"),
    ("piisub.cli", "persist_run", "pipeline.persist_run"),
    ("piisub.cli", "run_ner_experiment", "ner.run_ner_experiment"),
    ("piisub.pipeline", "builtin_catalog", "pools.builtin_catalog"),
    ("piisub.pipeline", "make_backend", "backends.make_backend"),
    ("piisub.pipeline", "detect_oracle", "detection.detect_oracle"),
    ("piisub.pipeline", "resolve_entities", "cache.resolve_entities"),
    ("piisub.pipeline", "dispatch", "generation.dispatch"),
    ("piisub.pipeline", "splice", "generation.splice"),
    ("piisub.pipeline", "leak_report", "metrics.leak_report"),
    ("piisub.pipeline", "consistency_report", "metrics.consistency_report"),
    ("piisub.cache", "SurrogateCache.get_or_propose", "cache.get_or_propose"),
    ("piisub.metrics", "CharNgramScorer.train", "metrics.ppl_train"),
    ("piisub.metrics", "CharNgramScorer.corpus_perplexity", "metrics.ppl_score"),
    ("piisub.generation", "fake_value", "fakegen.fake_value"),
    ("piisub.generation", "classify_locale", "locales.classify"),
    ("piisub.generation", "classify_date_format", "locales.classify"),
    ("piisub.pools", "classify_locale", "locales.classify"),
    ("piisub.pools", "classify_date_format", "locales.classify"),
    ("piisub.pools", "PoolCatalog.pool_for", "pools.pool_for"),
    ("piisub.generation", "sample_demos", "prompting.sample_demos"),
    ("piisub.generation", "build_prompt", "prompting.build_prompt"),
    ("piisub.generation", "validate_response", "prompting.validate_response"),
    ("piisub.backends", "SlmBackend.propose", "backends.propose"),
    ("piisub.ner", "detect_oracle", "detection.detect_oracle"),
    ("piisub.ner", "annotate_from_gt", "ner.annotate_from_gt"),
    ("piisub.ner", "train_tagger", "ner.train_tagger"),
    ("piisub.ner", "predict_tags", "ner.predict_tags"),
)

#: Hot leaf functions that get a call counter instead of a span: a span per
#: call would cost more than the call itself (about a million per NER job).
COUNT_HOOKS: tuple[tuple[str, str, str], ...] = (
    ("piisub.ner", "features", "ner.features"),
)


def _resolve(module: str, path: str) -> tuple[object, str, Callable]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    target = getattr(owner, attr, None)
    if not callable(target):
        raise AttributeError(f"trace hook target {module}.{path} is gone")
    return owner, attr, target


class Tracer:
    """Span store plus the hooks that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts
        on_return = _ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            caller = stack[-1] if stack else -1
            name_id.append(nid)
            parent.append(caller)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = perf_counter()
                stack.pop()
                counts[name + ".errors"] += 1
                raise
            end[idx] = perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(self, result, caller)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, path, name in SPAN_HOOKS:
            owner, attr, target = _resolve(module, path)
            setattr(owner, attr, self.wrap(name, target))
        for module, path, name in COUNT_HOOKS:
            owner, attr, target = _resolve(module, path)
            setattr(owner, attr, self.counted(name, target))

    def span_name(self, idx: int) -> str | None:
        return self.names[self.name_id[idx]] if idx >= 0 else None

    def dump(self, path: str | Path) -> None:
        payload = {
            "names": self.names,
            "name_id": list(self.name_id),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
            "counts": dict(self.counts),
        }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _count_decision(tracer: Tracer, decision, caller: int) -> None:
    tracer.counts["decision." + decision.source.value] += 1


def _count_detected(tracer: Tracer, spans, caller: int) -> None:
    # spans detected for substitution only, not the perplexity re-detection
    if tracer.span_name(caller) == "pipeline.run_corpus":
        tracer.counts["detection.spans"] += len(spans)


_ON_RETURN = {
    "generation.dispatch": _count_decision,
    "detection.detect_oracle": _count_detected,
}


# ---------------------------------------------------------------- analysis


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def span_table(trace: dict) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and durations."""
    names, name_id, parent = trace["names"], trace["name_id"], trace["parent"]
    durations = [e - s for s, e in zip(trace["start"], trace["end"])]
    covered = [0.0] * len(durations)
    for idx, caller in enumerate(parent):
        if caller >= 0:
            covered[caller] += durations[idx]
    table = {
        name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
        for name in names
    }
    for idx, nid in enumerate(name_id):
        row = table[names[nid]]
        row["calls"] += 1
        row["total_s"] += durations[idx]
        row["self_s"] += durations[idx] - covered[idx]
        row["durations"].append(durations[idx])
    return table


def doc_ms(trace: dict) -> list[float]:
    """Per document: detector call start to splice return, in ms."""
    names, name_id, parent = trace["names"], trace["name_id"], trace["parent"]
    out: list[float] = []
    opened: float | None = None
    for idx, nid in enumerate(name_id):
        caller = parent[idx]
        if caller < 0 or names[name_id[caller]] != "pipeline.run_corpus":
            continue
        name = names[nid]
        if name == "detection.detect_oracle":
            opened = trace["start"][idx]
        elif name == "generation.splice" and opened is not None:
            out.append((trace["end"][idx] - opened) * 1000.0)
            opened = None
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics one traced job yields; `run.py` adds the three
    that need more than one job (doc cost growth, cache hit ratio, tracing
    overhead)."""
    table = span_table(trace)
    counts = trace["counts"]

    def self_s(*names: str) -> float:
        return sum(table[n]["self_s"] for n in names if n in table)

    def calls(name: str) -> int:
        return table[name]["calls"] if name in table else 0

    fake_draws = calls("fakegen.fake_value")
    fake_decisions = counts.get("decision.fake", 0) + counts.get(
        "decision.fallback_fake", 0
    )
    proposals = calls("backends.propose")
    call_ms = [d * 1000.0 for d in table.get("backends.propose", {}).get("durations", [])]
    per_doc = doc_ms(trace)
    return {
        "generation.dispatch.self_s": self_s("generation.dispatch"),
        "generation.dispatch.calls": calls("generation.dispatch"),
        "generation.fake_draws": fake_draws,
        "generation.draw_accept_ratio": fake_decisions / fake_draws if fake_draws else 0.0,
        "fakegen.fake_value.self_s": self_s("fakegen.fake_value"),
        "pipeline.doc_ms.p50": _percentile(per_doc, 50),
        "pipeline.doc_ms.p99": _percentile(per_doc, 99),
        "detection.detect_oracle.self_s": self_s("detection.detect_oracle"),
        "detection.detect_oracle.calls": calls("detection.detect_oracle"),
        "detection.spans": counts.get("detection.spans", 0),
        "cache.resolve_entities.self_s": self_s("cache.resolve_entities"),
        "cache.get_or_propose.self_s": self_s("cache.get_or_propose"),
        "locales.classify.self_s": self_s("locales.classify"),
        "prompting.self_s": self_s(
            "prompting.sample_demos", "prompting.build_prompt", "prompting.validate_response"
        ),
        "pools.pool_for.self_s": self_s("pools.pool_for"),
        "pools.builtin_catalog_s": table.get("pools.builtin_catalog", {}).get("total_s", 0.0),
        "backends.propose.calls": proposals,
        "backends.propose.failures": counts.get("backends.propose.errors", 0),
        "backends.propose.self_s": self_s("backends.propose"),
        "backends.call_ms.p50": _percentile(call_ms, 50),
        "backends.call_ms.p99": _percentile(call_ms, 99),
        "backends.slm_accept_ratio": (
            counts.get("decision.slm", 0) / proposals if proposals else 0.0
        ),
        "metrics.leak_report.self_s": self_s("metrics.leak_report"),
        "metrics.consistency_report.self_s": self_s("metrics.consistency_report"),
        "metrics.ppl_train.self_s": self_s("metrics.ppl_train"),
        "metrics.ppl_score.self_s": self_s("metrics.ppl_score"),
        "pipeline.persist_run.self_s": self_s("pipeline.persist_run"),
        "pipeline.run_corpus.self_s": self_s("pipeline.run_corpus"),
        "corpus.load_corpus.self_s": self_s("corpus.load_corpus"),
        "ner.train_tagger.self_s": self_s("ner.train_tagger"),
        "ner.features.calls": counts.get("ner.features.calls", 0),
        "ner.predict_tags.self_s": self_s("ner.predict_tags"),
        "ner.annotate_from_gt.self_s": self_s("ner.annotate_from_gt"),
    }
