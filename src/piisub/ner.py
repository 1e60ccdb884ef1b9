"""Downstream utility probe: a small averaged-perceptron NER tagger.

The experiment trains the same tagger on differently-transformed variants of
one corpus and always evaluates on held-out original documents, so the score
measures how much task-relevant signal each transformation keeps.

Everything is label-agnostic: entities collapse to one binary PII class for
training, and span matching at evaluation ignores the original label too.

Gold BIO tags are projected from spans: an original's are the oracle's, a
variant's where the splice wrote each surrogate. Prediction decoding is
strict BIO: an I- tag without a matching open span is dropped rather than
repaired, so a model that never learned natural entities yields no spans at
all instead of noise spans.

The tagger runs on integers end to end. One Lexicon per experiment calls
features() once per distinct word; the trainer keeps integer weights and
running integer score sums, and stops once a pass makes no mistake, since
no later pass could change a weight. The trained model holds each averaged
weight times the clock, an integer, so its scores are exact in any order
and exact ties go to the first class by name; it remembers each (word,
previous tag) guess, since its rows no longer change.
"""

from __future__ import annotations

import operator
import random
import re
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from statistics import fmean, pstdev, stdev
from typing import Iterable, NamedTuple, Sequence

from .corpus import largest_remainder
from .detection import detect_oracle
from .metrics import DegenerateVariance, WelchResult, welch_from_samples
from .model import CorpusRecord, JsonReport, ci_fold, folded_contains

_TOKEN_RE = re.compile(r"\S+")

Span = tuple[int, int]


class Gold(NamedTuple):
    """A record's text in one variant and its sorted, disjoint gold spans."""

    id: str
    text: str
    spans: Sequence[Span]


class UntrainableCorpus(UserWarning):
    """A training variant carries no entity tags at all."""


@dataclass(frozen=True, slots=True)
class Token:
    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def annotate_from_gt(text: str, spans: Sequence[Span]) -> tuple[list[Token], list[str]]:
    """Project gold spans onto the text's tokens as binary-PII BIO tags.

    `spans` are sorted, disjoint (start, end) character spans. A token that
    overlaps a span is tagged, B-PII on the first token of each span and
    I-PII after it.
    """
    tokens = tokenize(text)
    tags = ["O"] * len(tokens)
    span_idx = 0
    last_span_for: int | None = None
    for i, tok in enumerate(tokens):
        while span_idx < len(spans) and spans[span_idx][1] <= tok.start:
            span_idx += 1
        if span_idx >= len(spans) or spans[span_idx][0] >= tok.end:
            continue
        tags[i] = "I-PII" if last_span_for == span_idx else "B-PII"
        last_span_for = span_idx
    return tokens, tags


def annotation_gaps(record: CorpusRecord) -> int:
    """How many ground-truth values never occur in the record's text."""
    folded = ci_fold(record.text)
    return sum(1 for value in record.gt_values() if not folded_contains(value, folded))


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


def features(word: str) -> list[str]:
    """The word's own features; the previous tag's is `Lexicon.prevtag_id`.

    Deliberately no neighbouring-word features: a tagger trained on redacted
    text would otherwise learn the scaffold words around placeholders and
    transfer that onto natural entities it has never seen.
    """
    lower = word.lower()
    feats = [
        "bias",
        f"w={lower}",
        f"shape={_shape(word)}",
        f"pre={lower[:3]}",
        f"suf={lower[-3:]}",
    ]
    if any(c.isdigit() for c in word):
        feats.append("hasdigit")
    if not any(c.isalnum() for c in word):
        feats.append("punctonly")
    return feats


class Lexicon:
    """Interned integer feature ids for the words of one experiment.

    features() runs once per distinct word. A word id stands for the ids of
    the word's features, `feats[wid]`; the previous tag's feature is
    interned apart, one id per tag. A lexicon lives as long as one
    experiment and is shared by every training and prediction in it.
    """

    def __init__(self) -> None:
        self.feature_names: list[str] = []
        self._feature_ids: dict[str, int] = {}
        self._word_ids: dict[str, int] = {}
        self.feats: list[tuple[int, ...]] = []

    def feature_id(self, name: str) -> int:
        fid = self._feature_ids.get(name)
        if fid is None:
            fid = self._feature_ids[name] = len(self.feature_names)
            self.feature_names.append(name)
        return fid

    def prevtag_id(self, tag: str) -> int:
        return self.feature_id("prevtag=" + tag)

    def encode(self, tokens: Iterable[Token]) -> tuple[int, ...]:
        """The word id of each token, interning words not seen before."""
        return tuple(map(self._word_id, (t.text for t in tokens)))

    def _word_id(self, word: str) -> int:
        wid = self._word_ids.get(word)
        if wid is None:
            wid = self._word_ids[word] = len(self.feats)
            self.feats.append(tuple(map(self.feature_id, features(word))))
        return wid


class AveragedPerceptron:
    """Multiclass perceptron with averaged weights, as train_tagger leaves it.

    The averaged weights, times the training clock, are one integer row per
    feature id of `lexicon`, indexed like the sorted classes; an id means
    nothing without its lexicon. predict_tags keeps its tag per (word id,
    previous tag) in `_tags`, as the rows are final.
    """

    def __init__(self, classes: Iterable[str], lexicon: Lexicon) -> None:
        self.classes = sorted(set(classes))
        self.lexicon = lexicon
        self._weights: dict[int, list[int]] = {}
        self._tags: dict[tuple[int, str], str] = {}

    def predict(self, ids: Iterable[int]) -> str:
        rows = [row for row in map(self._weights.get, ids) if row is not None]
        scores = [sum(column) for column in zip(*rows)] or [0] * len(self.classes)
        # first maximum over sorted classes: name breaks score ties
        return self.classes[scores.index(max(scores))]


def train_tagger(
    sentences: Sequence[tuple[tuple[int, ...], list[str]]],
    lexicon: Lexicon,
    *,
    iterations: int = 30,
    seed: int = 0,
) -> AveragedPerceptron:
    """Collins' averaged perceptron, with lazy averaging, on integer state.

    Sentences pair word ids of `lexicon` with their gold tags. The weights,
    and the sums of each update's delta times the clock at it, are int
    lists per class, indexed by feature id, and each ends as summing every
    feature of every token on every pass leaves it:
    - A guess sums integer scores, so the order of the terms cannot change
      it. The score vector of each training word over its features but
      `bias`, and of each previous tag over `bias` and its `prevtag=`
      feature, is kept as a running sum: a mistake adds its +1/-1 to every
      vector that holds a feature it changed. A guess is one vector add,
      memoized per (word, previous tag) until the next mistake.
    - A pass without a mistake changes no weight, so every later pass tags
      every sentence the same way, again without one. Training stops after
      it and moves the clock on by the passes left; the shuffles skipped
      draw only from this training's own generator.
    """
    classes = {"O"}
    for _, tags in sentences:
        classes.update(tags)
    model = AveragedPerceptron(classes, lexicon)
    index = {c: i for i, c in enumerate(model.classes)}
    n_classes = len(model.classes)
    # previous-tag state 0 is the sentence start, state 1 + c follows class c
    prev_feature = [lexicon.prevtag_id(t) for t in ("<s>", *model.classes)]
    states = len(prev_feature)
    state_scores = [[0] * n_classes for _ in range(states)]
    bias = lexicon.feature_id("bias")
    # per training word: its score vector and the groups of vectors a
    # mistake on it moves: the vectors of the words that hold each of its
    # features but bias, and every state's through bias
    word_scores: dict[int, list[int]] = {}
    moved: dict[int, tuple[list[list[int]], ...]] = {}
    holders: dict[int, list[list[int]]] = {}
    for wid in sorted({wid for words, _ in sentences for wid in words}):
        vector = word_scores[wid] = [0] * n_classes
        groups = [holders.setdefault(f, []) for f in lexicon.feats[wid] if f != bias]
        for group in groups:
            group.append(vector)
        moved[wid] = (*groups, state_scores)
    size = len(lexicon.feature_names)
    weights = [[0] * size for _ in model.classes]
    # each update's delta times the clock at it: what the final average
    # takes off the final weight held for the whole clock
    moments = [[0] * size for _ in model.classes]
    updated: set[int] = set()
    data = [(words, [index[t] for t in tags]) for words, tags in sentences]
    rng = random.Random(seed)
    guesses: dict[int, int] = {}
    now = 0
    for passes in range(1, iterations + 1):
        rng.shuffle(data)
        clean = True
        for words, golds in data:
            prev = 0
            for wid, gold in zip(words, golds):
                now += 1
                key = wid * states + prev
                guess = guesses.get(key)
                if guess is None:
                    scores = list(
                        map(operator.add, word_scores[wid], state_scores[prev])
                    )
                    guess = guesses[key] = scores.index(max(scores))
                if guess != gold:
                    clean = False
                    for f in (*lexicon.feats[wid], prev_feature[prev]):
                        updated.add(f)
                        weights[gold][f] += 1
                        weights[guess][f] -= 1
                        moments[gold][f] += now
                        moments[guess][f] -= now
                    for group in (*moved[wid], (state_scores[prev],)):
                        for scores in group:
                            scores[gold] += 1
                            scores[guess] -= 1
                    guesses.clear()
                prev = guess + 1
        if clean:
            now += (iterations - passes) * sum(len(words) for words, _ in data)
            break
    # the sum of a weight over the clock, the average times the clock, is
    # its final value for the whole clock less each update for the time
    # before it
    for f in updated:
        model._weights[f] = [
            now * weights[c][f] - moments[c][f] for c in range(n_classes)
        ]
    return model


def predict_tags(model: AveragedPerceptron, words: Sequence[int]) -> list[str]:
    """Tag word ids of the model's lexicon left to right, each guess the next
    word's previous tag, once per (word, previous tag) of the model."""
    lexicon, memo = model.lexicon, model._tags
    prev = "<s>"
    out: list[str] = []
    for wid in words:
        key = (wid, prev)
        tag = memo.get(key)
        if tag is None:
            ids = (*lexicon.feats[wid], lexicon.prevtag_id(prev))
            tag = memo[key] = model.predict(ids)
        out.append(tag)
        prev = tag
    return out


def decode_bio_strict(tokens: Sequence[Token], tags: Sequence[str]) -> list[Span]:
    """Char spans from binary BIO tags; orphan continuations are dropped."""
    spans: list[Span] = []
    inside = False  # the last span is still open
    for tok, tag in zip(tokens, tags):
        if tag.startswith("B-"):
            spans.append((tok.start, tok.end))
            inside = True
        elif tag.startswith("I-") and inside:
            spans[-1] = (spans[-1][0], tok.end)
        else:
            inside = False
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
class VariantScores(JsonReport):
    json_extra = ("precision_mean", "recall_mean", "mean", "sd_population", "sd_sample")

    precision_by_seed: list[float] = field(default_factory=list)
    recall_by_seed: list[float] = field(default_factory=list)
    f1_by_seed: list[float] = field(default_factory=list)
    train_spans_by_seed: list[int] = field(default_factory=list)

    @property
    def precision_mean(self) -> float:
        return fmean(self.precision_by_seed)

    @property
    def recall_mean(self) -> float:
        return fmean(self.recall_by_seed)

    @property
    def mean(self) -> float:
        return fmean(self.f1_by_seed)

    @property
    def sd_population(self) -> float:
        return pstdev(self.f1_by_seed)

    @property
    def sd_sample(self) -> float:
        return stdev(self.f1_by_seed)


@dataclass
class NerReport(JsonReport):
    variant_order: list[str]
    scores: dict[str, VariantScores]
    comparisons: dict[str, WelchResult | None]
    annotation_gaps: int
    train_size: int
    test_size: int
    seeds: list[int]


def check_seeds(seeds: Sequence[int]) -> None:
    """The variant comparisons are Welch tests over the per-seed scores: they
    need two seeds or more, and a seed given twice would count one training
    as two samples."""
    if len(seeds) < 2 or len(set(seeds)) < len(seeds):
        raise ValueError(
            f"need at least two seeds, each given once, got {list(seeds)}"
        )


@dataclass(frozen=True)
class NerSettings:
    """The experiment's settings and their defaults, checked when built, so
    that a caller refuses a bad setting before any work and hands the checked
    object to `run_ner_experiment`."""

    train_size: int = 160
    test_size: int = 40
    seeds: Sequence[int] = (11, 12, 13, 14, 15)
    iterations: int = 30

    def __post_init__(self) -> None:
        check_seeds(self.seeds)
        for name in ("train_size", "test_size", "iterations"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def check_corpus(self, n_records: int) -> None:
        """A split draws its train and test cuts from one corpus, disjointly."""
        if self.train_size + self.test_size > n_records:
            raise ValueError(
                f"train size {self.train_size} + test size {self.test_size} need "
                f"{self.train_size + self.test_size} records, corpus has {n_records}"
            )


def stratified_split(
    records: Sequence[CorpusRecord], train_size: int, test_size: int, seed: int
) -> tuple[list[int], list[int]]:
    """Locale-stratified test selection; remainder shuffled into the train cut.
    The caller has checked the split (`NerSettings.check_corpus`)."""
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
    records: Sequence[CorpusRecord], variants: dict[str, Sequence[Gold]], settings: NerSettings
) -> NerReport:
    """Train on the original records and on each variant of them, test on
    held-out originals, per seed, under the checked `settings`; the variants
    and the split's fit in the corpus are checked before any training."""
    if "original" in variants:
        raise ValueError("'original' names the records, not a variant")
    for name, docs in variants.items():
        if [doc.id for doc in docs] != [rec.id for rec in records]:
            raise ValueError(f"variant {name!r} is not parallel to the records")
    settings.check_corpus(len(records))
    base = [
        Gold(rec.id, rec.text, [(s.start, s.end) for s in detect_oracle(rec)])
        for rec in records
    ]
    golds = {"original": base, **variants}
    scores = {name: VariantScores() for name in golds}
    gaps = 0
    lexicon = Lexicon()
    # a record's annotation does not depend on the seed: project it once,
    # and keep its word ids and tags rather than its tokens
    annotated: dict[tuple[str, int], tuple[tuple[int, ...], list[str]]] = {}
    for seed in settings.seeds:
        train_idx, test_idx = stratified_split(
            records, settings.train_size, settings.test_size, seed
        )
        gaps += sum(annotation_gaps(records[i]) for i in train_idx)
        test_tokens = [tokenize(base[i].text) for i in test_idx]
        test_words = [lexicon.encode(tokens) for tokens in test_tokens]
        for name, docs in golds.items():
            for i in train_idx:
                if (name, i) not in annotated:
                    tokens, tags = annotate_from_gt(docs[i].text, docs[i].spans)
                    annotated[name, i] = (lexicon.encode(tokens), tags)
            sentences = [annotated[name, i] for i in train_idx]
            train_spans = sum(t.startswith("B-") for _, tags in sentences for t in tags)
            if train_spans == 0:
                warnings.warn(
                    f"variant {name!r} has no entity tags in its training cut",
                    UntrainableCorpus,
                    stacklevel=2,
                )
            model = train_tagger(
                sentences, lexicon, iterations=settings.iterations, seed=seed
            )
            counts = SpanCounts()
            for tokens, words, i in zip(test_tokens, test_words, test_idx):
                pred = decode_bio_strict(tokens, predict_tags(model, words))
                counts = counts + match_spans(base[i].spans, pred)
            scores[name].precision_by_seed.append(counts.precision)
            scores[name].recall_by_seed.append(counts.recall)
            scores[name].f1_by_seed.append(counts.f1)
            scores[name].train_spans_by_seed.append(train_spans)
    comparisons: dict[str, WelchResult | None] = {}
    for a, b in combinations(golds, 2):
        try:
            comparisons[f"{a}_vs_{b}"] = welch_from_samples(
                scores[a].f1_by_seed, scores[b].f1_by_seed
            )
        except DegenerateVariance:
            comparisons[f"{a}_vs_{b}"] = None
    return NerReport(
        variant_order=list(golds),
        scores=scores,
        comparisons=comparisons,
        annotation_gaps=gaps,
        train_size=settings.train_size,
        test_size=settings.test_size,
        seeds=list(settings.seeds),
    )
