"""Evaluation metrics for substitution runs.

Leak detection reuses the same case-insensitive substring primitive as the
oracle detector, so "the detector found it" and "it leaked" can never
disagree about what counts as an occurrence.

Every sum behind `metrics.json` is exact, so it depends on the set of
documents and not on their order: means sum with `math.fsum` (`agg_mean`),
perplexity from integer counts and `decimal` (`CharNgramScorer`), None
(null) for a corpus with no non-PII text, as the scorer then learns nothing.
Welch's test reports the statistic, standard error and Welch-Satterthwaite
degrees of freedom; its two-sided p is the normal approximation, libm's
erfc. At the NER probe's 5 seeds per variant (4-8 degrees of freedom) that
understates Student's t p several-fold, e.g. 0.036 against 0.074 for faker
vs hybrid at t 2.09 and 7.0 degrees of freedom.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal, localcontext
from heapq import nsmallest
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

from .model import JsonReport, Label, ci_fold, folded_contains


def agg_mean(values: Iterable[float | None]) -> float | None:
    """Unweighted mean over the defined values, from their exact sum rounded
    once (`math.fsum`) in any order; None if nothing is defined."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    return math.fsum(defined) / len(defined)


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
    The examples are the 20 smallest leaked values, whatever the record order.
    """
    total = 0
    leaks: list[str] = []
    for gt_values, output in items:
        folded = ci_fold(output)
        total += len(gt_values)
        leaks.extend(v for v in gt_values if folded_contains(v, folded))
    examples = tuple(nsmallest(20, leaks))
    return LeakReport(leaked=len(leaks), total=total, leaked_values=examples)


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
    items: Iterable[tuple[str, Iterable[tuple[str, Sequence[int]]]]],
) -> ConsistencyReport:
    """Same-surrogate check for entities mentioned more than once.

    `items` pairs each output with its groups as (surrogate, starts), the
    output start of each mention's written span, `len(surrogate)` long. A
    multi-mention group is consistent when all its written spans read the
    same text; as a cross-check, a consistent group whose text is not its
    surrogate is a discrepancy, which does not affect the rate.
    """
    groups = 0
    consistent = 0
    discrepancies = 0
    for output, group_rows in items:
        for surrogate, starts in group_rows:
            if len(starts) < 2:
                continue
            groups += 1
            width = len(surrogate)
            written = {output[a : a + width] for a in starts}
            if len(written) == 1:
                consistent += 1
                if surrogate not in written:
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


#: A gram: the predicted character last, after up to `order - 1` of context.
Gram = tuple[str, ...]

#: The arithmetic of every perplexity: libmpdec's, the same on every platform.
_DECIMAL = Context(prec=40)


class CharNgramScorer:
    """Character n-gram perplexity with add-one smoothing, computed exactly.

    Grams are the tuples `zip` builds over a text's shifted copies. A gram
    seen `count` times after a context seen `total` times costs
    ln(total + V) - ln(count + 1), V the vocabulary size; training numbers
    one cell per distinct (count + 1, total + V), and an unseen gram costs
    (1, total + V) of its context, or (1, V). A score is the `Counter` of the
    cells hit, one per character, so scores add and subtract in any order
    until the next training, which replaces them; with no character learned
    there are no cells, and every score is empty. `perplexity` sums a score's
    logs in `decimal` and rounds to float once: text order and libm cannot
    reach the result.
    """

    def __init__(self, order: int = 5) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.train(())

    def train(self, texts: Iterable[str]) -> None:
        """Learn the cells of the texts, replacing what was learned before."""
        counts: Counter[Gram] = Counter()
        vocab: set[str] = set()
        for text in texts:
            vocab.update(text)
            counts.update(self._windows(text, self.order))
        totals: Counter[Gram] = Counter()
        for gram, count in counts.items():
            totals[gram[:-1]] += count
        v = len(vocab)
        seen = {g: (c + 1, totals[g[:-1]] + v) for g, c in counts.items()}
        unseen = {ctx: (1, total + v) for ctx, total in totals.items()}
        # cell id -> (n, d); a gram, or an unseen gram's context -> its cell
        self._cells = list({*seen.values(), *unseen.values(), (1, v)}) if v else []
        self._ln = {k: Decimal(k).ln(_DECIMAL) for k in set(chain(*self._cells))}
        ids = {pair: i for i, pair in enumerate(self._cells)}
        self._seen = {g: ids[pair] for g, pair in seen.items()}
        self._unseen = {ctx: ids[pair] for ctx, pair in unseen.items()}
        self._no_context = ids.get((1, v))

    @staticmethod
    def _windows(text: str, width: int) -> Iterator[Gram]:
        """The text's first `width - 1` prefixes, then its windows of `width`."""
        head = tuple(text[: width - 1])
        return chain(
            map(head.__getitem__, map(slice, range(1, len(head) + 1))),
            zip(*(text[j:] for j in range(width))),
        )

    def count(self, texts: Iterable[str]) -> Counter[int]:
        """The score of the texts, counted in C; empty for a scorer that
        learned no character."""
        cells: Counter[int] = Counter()
        if not self._cells:
            return cells
        for text in texts:
            # each gram's context: (), then the grams one character shorter
            contexts = (
                chain(((),), self._windows(text, self.order - 1))
                if self.order > 1
                else repeat(())
            )
            unseen = map(self._unseen.get, contexts, repeat(self._no_context))
            cells.update(map(self._seen.get, self._windows(text, self.order), unseen))
        return cells

    def perplexity(self, score: Counter[int]) -> float | None:
        """exp of a score's mean NLL per character; None for no characters."""
        if not score:
            return None
        weights: Counter[int] = Counter()  # the multiple of ln k in the sum
        for cell, m in score.items():
            n, d = self._cells[cell]
            weights[d] += m
            weights[n] -= m
        with localcontext(_DECIMAL):
            nll = sum((w * self._ln[k] for k, w in sorted(weights.items())), Decimal(0))
            return float((nll / score.total()).exp())

    def corpus_perplexity(self, texts: Iterable[str]) -> float | None:
        """The perplexity of the texts pooled: every character weighs the same."""
        return self.perplexity(self.count(texts))
