"""Evaluation metrics for substitution runs.

Leak detection reuses the same case-insensitive substring primitive as the
oracle detector, so "the detector found it" and "it leaked" can never
disagree about what counts as an occurrence.

Welch's test reports the usual statistic, standard error and
Welch-Satterthwaite degrees of freedom; the two-sided p-value uses the
normal approximation of the t statistic (erfc), which is dependency-free
but not adequate at the NER probe's sample sizes: at 5 seeds per variant
(4-8 degrees of freedom) it understates p several-fold against Student's
t, e.g. 0.036 against 0.074 for faker vs hybrid at t 2.09 and 7.0 degrees
of freedom.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import reduce
from itertools import chain
from operator import add
from typing import Iterable, Iterator, Sequence

from .model import JsonReport, Label, ci_fold, folded_contains, folded_occurrences


def agg_mean(values: Iterable[float | None]) -> float | None:
    """Unweighted mean over the defined values; None if nothing is defined."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    # a left fold from 0.0: sum() compensates float error on 3.12+, and the
    # mean must not depend on the interpreter
    return reduce(add, defined, 0.0) / len(defined)


@dataclass(frozen=True)
class LeakReport(JsonReport):
    json_extra = ("rate",)

    leaked: int
    total: int
    leaked_values: tuple[str, ...] = ()

    @property
    def rate(self) -> float | None:
        if self.total == 0:
            return None
        return self.leaked / self.total


def leak_report(items: Iterable[tuple[Sequence[str], str]]) -> LeakReport:
    """Fraction of ground-truth values still present in their output text.

    `items` pairs each record's ground-truth values with its output. A value
    counts as leaked if it occurs case-insensitively anywhere in the output.
    """
    leaked = 0
    total = 0
    examples: list[str] = []
    for gt_values, output in items:
        folded = ci_fold(output)
        for value in gt_values:
            total += 1
            if folded_contains(value, folded):
                leaked += 1
                if len(examples) < 20:
                    examples.append(value)
    return LeakReport(leaked=leaked, total=total, leaked_values=tuple(examples))


@dataclass(frozen=True)
class ConsistencyReport(JsonReport):
    json_extra = ("rate",)

    multi_mention_groups: int
    consistent_groups: int
    occurrence_discrepancies: int

    @property
    def rate(self) -> float | None:
        if self.multi_mention_groups == 0:
            return None
        return self.consistent_groups / self.multi_mention_groups


def consistency_report(
    items: Iterable[tuple[str, Sequence[tuple[int, Sequence[str]]]]],
) -> ConsistencyReport:
    """Same-surrogate check for entities mentioned more than once.

    `items` pairs each output text with its groups as (mention_count,
    per-mention surrogates). A multi-mention group is consistent when every
    mention received the same surrogate. As a cross-check, the surrogate must
    occur in the output at least as often as the mention count; shortfalls
    are counted as discrepancies without affecting the rate.
    """
    groups = 0
    consistent = 0
    discrepancies = 0
    for output, group_rows in items:
        folded = ci_fold(output)
        for mention_count, surrogates in group_rows:
            if mention_count < 2:
                continue
            groups += 1
            distinct = set(surrogates)
            if len(distinct) == 1:
                consistent += 1
                surrogate = next(iter(distinct))
                occurrences = sum(1 for _ in folded_occurrences(surrogate, folded))
                if occurrences < mention_count:
                    discrepancies += 1
    return ConsistencyReport(
        multi_mention_groups=groups,
        consistent_groups=consistent,
        occurrence_discrepancies=discrepancies,
    )


def length_preservation(input_text: str, output_text: str) -> float | None:
    """1 minus the relative length change; None for empty input."""
    if not input_text:
        return None
    return 1.0 - abs(len(output_text) - len(input_text)) / len(input_text)


def round_display(x: float) -> float:
    """Two-stage presentation rounding: 3 significant figures, then 3 decimals.

    Both stages round half up. Matches how the reference tables were
    produced; plain 3-decimal rounding disagrees on values like 10/274.
    """
    if x == 0:
        return 0.0
    d = Decimal(str(x))
    exponent = d.adjusted()
    sig = d.quantize(Decimal(1).scaleb(exponent - 2), rounding=ROUND_HALF_UP)
    return float(sig.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class DistinctnessRow(JsonReport):
    json_extra = ("ttr", "ttr_display")

    label: Label
    mentions: int
    unique_surrogates: int

    @property
    def ttr(self) -> float | None:
        if self.mentions == 0:
            return None
        return self.unique_surrogates / self.mentions

    @property
    def ttr_display(self) -> float | None:
        ttr = self.ttr
        return None if ttr is None else round_display(ttr)


def distinctness_rows(
    entities: Iterable[tuple[Label, str, int]],
) -> list[DistinctnessRow]:
    """Per-label mention counts, distinct surrogates and type-token ratio.

    `entities` supplies (label, surrogate, mention_count) per entity group.
    """
    mentions: dict[Label, int] = {}
    uniques: dict[Label, set[str]] = {}
    for label, surrogate, count in entities:
        mentions[label] = mentions.get(label, 0) + count
        uniques.setdefault(label, set()).add(surrogate)
    return [
        DistinctnessRow(
            label=label,
            mentions=mentions[label],
            unique_surrogates=len(uniques[label]),
        )
        for label in sorted(mentions, key=lambda lb: lb.name)
    ]


class DegenerateVariance(ValueError):
    """Both samples have zero variance; the statistic is undefined."""


@dataclass(frozen=True)
class WelchResult(JsonReport):
    mean_diff: float
    se: float
    t: float
    dof: float
    p: float


def welch_from_stats(
    mean_a: float, sd_a: float, n_a: int, mean_b: float, sd_b: float, n_b: int
) -> WelchResult:
    """Welch's unequal-variance test from summary statistics.

    SDs are taken as given (no ddof adjustment); feed sample SDs for the
    textbook test, or population SDs to reproduce tables computed that way.
    """
    if n_a < 2 or n_b < 2:
        raise ValueError("need n >= 2 in both groups")
    va = sd_a * sd_a / n_a
    vb = sd_b * sd_b / n_b
    se = math.sqrt(va + vb)
    if se == 0.0:
        raise DegenerateVariance("zero variance in both groups")
    t = (mean_a - mean_b) / se
    dof = (va + vb) ** 2 / (va * va / (n_a - 1) + vb * vb / (n_b - 1))
    p = math.erfc(abs(t) / math.sqrt(2))
    return WelchResult(mean_diff=mean_a - mean_b, se=se, t=t, dof=dof, p=p)


def welch_from_samples(xs: Sequence[float], ys: Sequence[float]) -> WelchResult:
    """Welch's test from raw samples, using sample (n-1) SDs."""
    if len(xs) < 2 or len(ys) < 2:
        raise ValueError("need at least 2 observations per group")
    return welch_from_stats(
        statistics.fmean(xs),
        statistics.stdev(xs),
        len(xs),
        statistics.fmean(ys),
        statistics.stdev(ys),
        len(ys),
    )


#: A gram: the predicted character last, after up to `order - 1`
#: characters of its context.
Gram = tuple[str, ...]


class _GramNLL(dict):
    """Gram -> NLL for the grams seen in training. A gram never seen costs
    the unseen NLL of its context, looked up and not stored, so the table
    stays the size of the training table."""

    def __init__(
        self, seen: dict[Gram, float], unseen: dict[Gram, float], default: float
    ) -> None:
        super().__init__(seen)
        self._unseen = unseen
        self._default = default

    def __missing__(self, gram: Gram) -> float:
        return self._unseen.get(gram[:-1], self._default)


class CharNgramScorer:
    """Character n-gram perplexity with add-one smoothing.

    Contexts reset at chunk boundaries; texts are scored in fixed-size
    chunks so pathological lengths cannot skew a single context chain.

    Each (context, character) pair is one gram, a tuple of the character
    with up to `order - 1` characters before it in its chunk, so the gram's
    last item is the character predicted and the rest is its context. The
    tuples are the ones `zip` builds over the chunk's shifted copies, so no
    string is joined per character. Training counts grams and precomputes
    every NLL the scorer can return; scoring maps a text's grams through
    that table and adds the NLLs left to right from 0.0.
    """

    def __init__(self, order: int = 5, chunk_size: int = 1024) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.chunk_size = chunk_size
        self._counts: Counter[Gram] = Counter()
        self._vocab: set[str] = set()
        self._nll = _GramNLL({}, {}, 0.0)
        #: Text -> (NLL, characters) of the texts scored with `remember`.
        self._memo: dict[str, tuple[float, int]] = {}

    def train(self, texts: Iterable[str]) -> None:
        self._memo.clear()
        for text in texts:
            self._vocab.update(text)
            self._counts.update(self._grams(text))
        if not self._vocab:
            return
        totals: Counter[Gram] = Counter()
        for gram, count in self._counts.items():
            totals[gram[:-1]] += count
        vocab_size = len(self._vocab)

        def nll(count: int, total: int) -> float:
            return -math.log((count + 1) / (total + vocab_size))

        self._nll = _GramNLL(
            {g: nll(c, totals[g[:-1]]) for g, c in self._counts.items()},
            {ctx: nll(0, total) for ctx, total in totals.items()},
            nll(0, 0),
        )

    def _chunks(self, text: str) -> Iterable[str]:
        for i in range(0, len(text), self.chunk_size):
            yield text[i : i + self.chunk_size]

    def _grams(self, text: str) -> Iterator[Gram]:
        """Every gram of the text, in text order."""
        return chain.from_iterable(map(self._chunk_grams, self._chunks(text)))

    def _chunk_grams(self, chunk: str) -> Iterator[Gram]:
        # the first order-1 grams are the chunk's prefixes, the rest are
        # full-length windows
        head = tuple(chunk[: self.order - 1])
        return chain(
            map(head.__getitem__, map(slice, range(1, len(head) + 1))),
            zip(*(chunk[j:] for j in range(self.order))),
        )

    def _nll_and_chars(self, text: str) -> tuple[float, int]:
        if not self._vocab:
            raise ValueError("scorer has not been trained")
        # a left fold from 0.0: sum() compensates float error on 3.12+
        nll = reduce(add, map(self._nll.__getitem__, self._grams(text)), 0.0)
        return nll, len(text)

    def corpus_perplexity(
        self, texts: Iterable[str], *, remember: bool = False
    ) -> float | None:
        """exp of the mean per-character negative log likelihood, pooled
        over the texts. With `remember`, a text's score is kept until the
        next training and reused whenever it is scored with `remember`."""
        memo = self._memo if remember else {}
        total = 0.0
        chars = 0
        for text in texts:
            if text not in memo:
                memo[text] = self._nll_and_chars(text)
            nll, n = memo[text]
            total += nll
            chars += n
        if chars == 0:
            return None
        return math.exp(total / chars)
