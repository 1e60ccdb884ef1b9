"""Downstream utility probe: a small averaged-perceptron NER tagger.

The experiment trains the same tagger on differently-transformed variants of
one corpus and always evaluates on held-out original documents, so the score
measures how much task-relevant signal each transformation keeps.

Everything is label-agnostic: entities collapse to one binary PII class for
training, and span matching at evaluation ignores the original label too.

Training annotation is weak: BIO tags are projected from the ground-truth
values (possibly surrogates) by string matching. Prediction decoding is
strict BIO: an I- tag without a matching open span is dropped rather than
repaired, so a model that never learned natural entities yields no spans at
all instead of noise spans.
"""

from __future__ import annotations

import operator
import random
import re
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from statistics import fmean, pstdev, stdev
from typing import Iterable, Sequence

from .corpus import largest_remainder
from .detection import detect_oracle
from .metrics import DegenerateVariance, WelchResult, welch_from_samples
from .model import CorpusRecord, ci_fold, folded_contains

_TOKEN_RE = re.compile(r"\S+")

Span = tuple[int, int]


class UntrainableCorpus(UserWarning):
    """A training variant carries no entity tags at all."""


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def annotate_from_gt(record: CorpusRecord) -> tuple[list[Token], list[str], int]:
    """Project ground-truth values onto tokens as binary-PII BIO tags.

    Values are located by case-insensitive substring search (overlaps kept
    longest-first), then collapsed to one PII class. Returns (tokens, tags,
    gaps) where gaps counts values that never occur in the text and therefore
    could not be annotated; the document is kept with its remaining spans.
    """
    folded = ci_fold(record.text)
    gaps = sum(
        1
        for values in record.pii_gt.values()
        for value in values
        if not folded_contains(value, folded)
    )
    spans = detect_oracle(record)
    tokens = tokenize(record.text)
    tags = ["O"] * len(tokens)
    span_idx = 0
    last_span_for: int | None = None
    for i, tok in enumerate(tokens):
        while span_idx < len(spans) and spans[span_idx].end <= tok.start:
            span_idx += 1
        if span_idx >= len(spans) or spans[span_idx].start >= tok.end:
            continue
        tags[i] = "I-PII" if last_span_for == span_idx else "B-PII"
        last_span_for = span_idx
    return tokens, tags, gaps


def _shape(word: str) -> str:
    # uncased scripts map to 'c' so CJK tokens still generalize by length
    return "".join(
        "X" if c.isupper()
        else "x" if c.islower()
        else "c" if c.isalpha()
        else "d" if c.isdigit()
        else c
        for c in word
    )


def features(words: Sequence[str], i: int, prev_tag: str) -> list[str]:
    """Token-internal features plus the previous predicted tag.

    Deliberately no neighbouring-word features: a tagger trained on redacted
    text would otherwise learn the scaffold words around placeholders and
    transfer that onto natural entities it has never seen.
    """
    w = words[i]
    lower = w.lower()
    feats = [
        "bias",
        f"w={lower}",
        f"shape={_shape(w)}",
        f"pre={lower[:3]}",
        f"suf={lower[-3:]}",
        f"prevtag={prev_tag}",
    ]
    if any(c.isdigit() for c in w):
        feats.append("hasdigit")
    if not any(c.isalnum() for c in w):
        feats.append("punctonly")
    return feats


# where features() puts prevtag, the one feature that changes between passes
_PREVTAG_AT = 5


def static_features(tokens: Sequence[Token]) -> list[tuple[str, ...]]:
    """Per token, features() without the prevtag entry, in features() order."""
    words = [t.text for t in tokens]
    out = []
    for i in range(len(words)):
        feats = features(words, i, "")
        del feats[_PREVTAG_AT]
        out.append(tuple(feats))
    return out


def with_prevtag(static: tuple[str, ...], prev_tag: str) -> tuple[str, ...]:
    """Splice prevtag back in: equals features(words, i, prev_tag)."""
    return (
        *static[:_PREVTAG_AT],
        "prevtag=" + prev_tag,
        *static[_PREVTAG_AT:],
    )


class AveragedPerceptron:
    """Multiclass perceptron with weight averaging (lazy-update form).

    Weights, running totals and timestamps are rows per feature, indexed
    like the sorted classes. predict adds rows one feature at a time, in the
    order given, so the averaged float scores do not depend on the layout.
    """

    def __init__(self, classes: Iterable[str]) -> None:
        self.classes = sorted(set(classes))
        self._index = {c: i for i, c in enumerate(self.classes)}
        self._weights: dict[str, list[float]] = {}
        self._totals: dict[str, list[float]] = {}
        self._tstamps: dict[str, list[int]] = {}
        self._updates = 0

    def predict(self, feats: Sequence[str]) -> str:
        acc: Iterable[float] = [0.0] * len(self.classes)
        for row in map(self._weights.get, feats):
            if row is not None:
                # chained lazily, but each class still sums in feature order
                acc = map(operator.add, acc, row)
        scores = list(acc)
        # first maximum over sorted classes: name breaks score ties
        return self.classes[scores.index(max(scores))]

    def update(self, truth: str, guess: str, feats: Sequence[str]) -> None:
        self._updates += 1
        if truth == guess:
            return
        now = self._updates
        bumps = ((self._index[truth], 1.0), (self._index[guess], -1.0))
        n = len(self.classes)
        for f in feats:
            weights = self._weights.get(f)
            if weights is None:
                weights = self._weights[f] = [0.0] * n
                totals = self._totals[f] = [0.0] * n
                tstamps = self._tstamps[f] = [0] * n
            else:
                totals = self._totals[f]
                tstamps = self._tstamps[f]
            for c, delta in bumps:
                totals[c] += (now - tstamps[c]) * weights[c]
                tstamps[c] = now
                weights[c] += delta

    def average_weights(self) -> None:
        now = self._updates
        for feature, weights in self._weights.items():
            totals = self._totals[feature]
            tstamps = self._tstamps[feature]
            for c, weight in enumerate(weights):
                total = totals[c] + (now - tstamps[c]) * weight
                weights[c] = total / now if now else 0.0


def train_tagger(
    sentences: Sequence[tuple[list[Token], list[str]]],
    *,
    iterations: int = 30,
    seed: int = 0,
) -> AveragedPerceptron:
    classes = {"O"}
    for _, tags in sentences:
        classes.update(tags)
    model = AveragedPerceptron(classes)
    rng = random.Random(seed)
    # only prevtag changes between passes: everything else is computed once
    data = [(static_features(tokens), tags) for tokens, tags in sentences]
    for _ in range(iterations):
        rng.shuffle(data)
        for statics, tags in data:
            prev = "<s>"
            for static, gold in zip(statics, tags):
                feats = with_prevtag(static, prev)
                guess = model.predict(feats)
                model.update(gold, guess, feats)
                prev = guess
    model.average_weights()
    return model


def predict_tags(model: AveragedPerceptron, tokens: Sequence[Token]) -> list[str]:
    prev = "<s>"
    out: list[str] = []
    for static in static_features(tokens):
        prev = model.predict(with_prevtag(static, prev))
        out.append(prev)
    return out


def decode_bio_strict(tokens: Sequence[Token], tags: Sequence[str]) -> list[Span]:
    """Char spans from binary BIO tags; orphan continuations are dropped."""
    spans: list[Span] = []
    open_span: list[int] | None = None
    for tok, tag in zip(tokens, tags):
        if tag.startswith("B-"):
            if open_span is not None:
                spans.append((open_span[0], open_span[1]))
            open_span = [tok.start, tok.end]
        elif tag.startswith("I-") and open_span is not None:
            open_span[1] = tok.end
        else:
            if open_span is not None:
                spans.append((open_span[0], open_span[1]))
            open_span = None
    if open_span is not None:
        spans.append((open_span[0], open_span[1]))
    return spans


@dataclass(frozen=True)
class SpanCounts:
    tp: int = 0
    n_pred: int = 0
    n_gold: int = 0

    def __add__(self, other: "SpanCounts") -> "SpanCounts":
        return SpanCounts(
            self.tp + other.tp,
            self.n_pred + other.n_pred,
            self.n_gold + other.n_gold,
        )

    @property
    def precision(self) -> float:
        return self.tp / self.n_pred if self.n_pred else 0.0

    @property
    def recall(self) -> float:
        return self.tp / self.n_gold if self.n_gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def match_spans(gold: Sequence[Span], pred: Sequence[Span]) -> SpanCounts:
    """Greedy one-to-one label-agnostic matching, largest char overlap first."""
    pairs: list[tuple[int, int, int]] = []
    for pi, (ps, pe) in enumerate(pred):
        for gi, (gs, ge) in enumerate(gold):
            overlap = min(pe, ge) - max(ps, gs)
            if overlap > 0:
                pairs.append((-overlap, pi, gi))
    pairs.sort()
    used_pred: set[int] = set()
    used_gold: set[int] = set()
    for _, pi, gi in pairs:
        if pi in used_pred or gi in used_gold:
            continue
        used_pred.add(pi)
        used_gold.add(gi)
    return SpanCounts(tp=len(used_pred), n_pred=len(pred), n_gold=len(gold))


@dataclass
class VariantScores:
    precision_by_seed: list[float] = field(default_factory=list)
    recall_by_seed: list[float] = field(default_factory=list)
    f1_by_seed: list[float] = field(default_factory=list)
    train_spans_by_seed: list[int] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return fmean(self.f1_by_seed)

    @property
    def sd_population(self) -> float:
        return pstdev(self.f1_by_seed)

    @property
    def sd_sample(self) -> float:
        return stdev(self.f1_by_seed)

    def to_json_dict(self) -> dict:
        return {
            "precision_by_seed": self.precision_by_seed,
            "recall_by_seed": self.recall_by_seed,
            "f1_by_seed": self.f1_by_seed,
            "train_spans_by_seed": self.train_spans_by_seed,
            "precision_mean": fmean(self.precision_by_seed),
            "recall_mean": fmean(self.recall_by_seed),
            "mean": self.mean,
            "sd_population": self.sd_population,
            "sd_sample": self.sd_sample,
        }


@dataclass
class NerReport:
    variant_order: list[str]
    scores: dict[str, VariantScores]
    comparisons: dict[str, WelchResult | None]
    annotation_gaps: int
    train_size: int
    test_size: int
    seeds: list[int]

    def to_json_dict(self) -> dict:
        return {
            "variant_order": self.variant_order,
            "scores": {k: v.to_json_dict() for k, v in self.scores.items()},
            "comparisons": {
                k: (v.to_json_dict() if v is not None else None)
                for k, v in sorted(self.comparisons.items())
            },
            "annotation_gaps": self.annotation_gaps,
            "train_size": self.train_size,
            "test_size": self.test_size,
            "seeds": self.seeds,
        }


def stratified_split(
    records: Sequence[CorpusRecord], train_size: int, test_size: int, seed: int
) -> tuple[list[int], list[int]]:
    """Locale-stratified test selection; remainder shuffled into the train cut."""
    if train_size + test_size > len(records):
        raise ValueError(
            f"need {train_size + test_size} records, corpus has {len(records)}"
        )
    rng = random.Random(seed)
    by_locale: dict[str, list[int]] = {}
    for idx, rec in enumerate(records):
        by_locale.setdefault(rec.locale, []).append(idx)
    take = largest_remainder(
        test_size, {loc: len(idxs) for loc, idxs in by_locale.items()}
    )
    test_idx: list[int] = []
    rest: list[int] = []
    for loc in take:
        idxs = list(by_locale[loc])
        rng.shuffle(idxs)
        k = min(take[loc], len(idxs))
        test_idx.extend(idxs[:k])
        rest.extend(idxs[k:])
    rng.shuffle(rest)
    return sorted(rest[:train_size]), sorted(test_idx)


def run_ner_experiment(
    variants: dict[str, list[CorpusRecord]],
    *,
    original: str = "original",
    train_size: int = 160,
    test_size: int = 40,
    seeds: Sequence[int] = (11, 12, 13, 14, 15),
    iterations: int = 30,
) -> NerReport:
    """Train on each variant, test on held-out original documents, per seed."""
    if original not in variants:
        raise ValueError(f"variants must include the {original!r} corpus")
    base = variants[original]
    for name, records in variants.items():
        if len(records) != len(base) or any(
            a.id != b.id for a, b in zip(records, base)
        ):
            raise ValueError(f"variant {name!r} is not parallel to {original!r}")
    if len(seeds) < 2:
        # the variant comparisons are Welch tests over the per-seed scores
        raise ValueError(f"need at least two seeds, got {len(seeds)}")
    order = list(variants)
    scores = {name: VariantScores() for name in order}
    gaps = 0
    # a record's annotation does not depend on the seed: project it once.
    # Its tokens are cheap to rebuild and costly to keep, so only the tags
    # and gaps are kept.
    annotated: dict[tuple[str, int], tuple[list[str], int]] = {}
    for seed in seeds:
        train_idx, test_idx = stratified_split(base, train_size, test_size, seed)
        test_records = [base[i] for i in test_idx]
        gold_by_doc = [
            [(s.start, s.end) for s in detect_oracle(rec)] for rec in test_records
        ]
        test_tokens = [tokenize(rec.text) for rec in test_records]
        for name in order:
            sentences = []
            train_spans = 0
            for i in train_idx:
                record = variants[name][i]
                key = (name, i)
                if key not in annotated:
                    _, tags, rec_gaps = annotate_from_gt(record)
                    annotated[key] = (tags, rec_gaps)
                tags, rec_gaps = annotated[key]
                tokens = tokenize(record.text)
                gaps += rec_gaps
                train_spans += sum(1 for t in tags if t.startswith("B-"))
                sentences.append((tokens, tags))
            if train_spans == 0:
                warnings.warn(
                    f"variant {name!r} has no entity tags in its training cut",
                    UntrainableCorpus,
                    stacklevel=2,
                )
            model = train_tagger(sentences, iterations=iterations, seed=seed)
            counts = SpanCounts()
            for tokens, gold in zip(test_tokens, gold_by_doc):
                pred = decode_bio_strict(tokens, predict_tags(model, tokens))
                counts = counts + match_spans(gold, pred)
            scores[name].precision_by_seed.append(counts.precision)
            scores[name].recall_by_seed.append(counts.recall)
            scores[name].f1_by_seed.append(counts.f1)
            scores[name].train_spans_by_seed.append(train_spans)
    comparisons: dict[str, WelchResult | None] = {}
    for a, b in combinations(order, 2):
        try:
            comparisons[f"{a}_vs_{b}"] = welch_from_samples(
                scores[a].f1_by_seed, scores[b].f1_by_seed
            )
        except DegenerateVariance:
            comparisons[f"{a}_vs_{b}"] = None
    return NerReport(
        variant_order=order,
        scores=scores,
        comparisons=comparisons,
        annotation_gaps=gaps,
        train_size=train_size,
        test_size=test_size,
        seeds=list(seeds),
    )
