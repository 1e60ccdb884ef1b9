"""Metric primitives: leak, consistency, TTR display rounding, Welch's test.

The Welch expectations were computed by hand from the closed-form formulas
(variance ratio, Satterthwaite dof, erfc tail), not by running this module.
"""

import math
import statistics
from collections import Counter
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piisub.metrics import (
    CharNgramScorer,
    DegenerateVariance,
    DistinctnessRow,
    agg_mean,
    consistency_report,
    distinctness_rows,
    leak_report,
    length_preservation,
    round_display,
    welch_from_samples,
    welch_from_stats,
)
from piisub.model import Label


class TestAggMean:
    def test_plain(self):
        assert agg_mean([1.0, 2.0, 3.0]) == 2.0

    def test_skips_none(self):
        assert agg_mean([1.0, None, 3.0]) == 2.0

    def test_all_none(self):
        assert agg_mean([None, None]) is None
        assert agg_mean([]) is None

    def test_the_sum_is_exact(self):
        # a left fold sums to 0.0 one way round and to 1.0 the other
        assert agg_mean([1.0, 1e16, -1e16]) == agg_mean([1e16, -1e16, 1.0]) == 1 / 3

    @given(
        st.lists(st.floats(0.0, 1.0) | st.none(), max_size=30),
        st.randoms(use_true_random=False),
    )
    def test_any_order_gives_the_same_mean(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert agg_mean(shuffled) == agg_mean(values)


class TestLeakReport:
    def test_counts_case_insensitive_hits(self):
        report = leak_report(
            [
                (["Walter Abernathy", "x@y.com"], "met WALTER ABERNATHY today"),
                (["Edith Goodwin"], "no names here"),
            ]
        )
        assert report.leaked == 1
        assert report.total == 3
        assert report.rate == pytest.approx(1 / 3)
        assert report.leaked_values == ("Walter Abernathy",)

    def test_zero_total(self):
        report = leak_report([])
        assert report.total == 0
        assert report.rate is None

    def test_examples_are_the_twenty_smallest(self):
        items = [([f"value-{i:02}"], f"has value-{i:02}") for i in range(30)]
        expected = tuple(f"value-{i:02}" for i in range(20))
        for order in (items, items[::-1]):
            report = leak_report(order)
            assert report.leaked == 30
            assert report.leaked_values == expected

    @given(st.lists(st.text(min_size=1, max_size=8), max_size=5), st.text(max_size=40))
    def test_rate_bounds(self, values, output):
        report = leak_report([(values, output)])
        if report.total:
            assert 0.0 <= report.rate <= 1.0


class TestConsistencyReport:
    # each group is (surrogate, the output start of each mention's written span)
    def test_all_consistent(self):
        report = consistency_report(
            [("Maria met Maria and Bob.", [("Maria", (0, 10)), ("Bob", (20,))])]
        )
        assert report.multi_mention_groups == 1
        assert report.consistent_groups == 1
        assert report.rate == 1.0
        assert report.occurrence_discrepancies == 0

    def test_inconsistent_group(self):
        report = consistency_report([("Maria met Laura.", [("Maria", (0, 10))])])
        assert report.rate == 0.0

    def test_written_text_other_than_the_surrogate_flagged_not_scored(self):
        # both written spans read the same text, but not the surrogate
        report = consistency_report([("Laura met Laura.", [("Maria", (0, 10))])])
        assert report.rate == 1.0
        assert report.occurrence_discrepancies == 1

    def test_single_mentions_ignored(self):
        report = consistency_report([("text", [("A", (0,)), ("B", (1,))])])
        assert report.multi_mention_groups == 0
        assert report.rate is None


class TestLengthPreservation:
    def test_identity(self):
        assert length_preservation("abcd", "abcd") == 1.0

    def test_shrink_and_grow_symmetric(self):
        assert length_preservation("abcd", "ab") == pytest.approx(0.5)
        assert length_preservation("abcd", "abcdef") == pytest.approx(0.5)

    def test_empty_input(self):
        assert length_preservation("", "anything") is None


class TestRoundDisplay:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (10 / 274, 0.037),  # plain 3-decimal rounding would give 0.036
            (18 / 162, 0.111),
            (0.5, 0.5),
            (0.0365, 0.037),  # half rounds up at the significant-figure stage
            (1.0, 1.0),
            (0.0004449, 0.0),
            (0.123449, 0.123),
            (0, 0.0),
        ],
    )
    def test_reference_values(self, raw, expected):
        assert round_display(raw) == expected

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_stays_in_unit_interval(self, x):
        assert 0.0 <= round_display(x) <= 1.0


class TestDistinctness:
    def test_rows_aggregate_by_label(self):
        rows = distinctness_rows(
            [
                (Label.PERSON, "Maria", 3),
                (Label.PERSON, "Laura", 2),
                (Label.PERSON, "Maria", 1),
                (Label.DATE, "07/19/2031", 2),
            ]
        )
        by_label = {row.label: row for row in rows}
        person = by_label[Label.PERSON]
        assert person.mentions == 6
        assert person.unique_surrogates == 2
        assert person.ttr == pytest.approx(2 / 6)
        assert by_label[Label.DATE].unique_surrogates == 1

    def test_reference_ttr_displays(self):
        row = DistinctnessRow(Label.PERSON, mentions=274, unique_surrogates=10)
        assert row.ttr_display == 0.037
        row = DistinctnessRow(Label.PERSON, mentions=162, unique_surrogates=18)
        assert row.ttr_display == 0.111

    def test_zero_mentions(self):
        row = DistinctnessRow(Label.PERSON, mentions=0, unique_surrogates=0)
        assert row.ttr is None
        assert row.ttr_display is None

    def test_rows_sorted_by_label_name(self):
        rows = distinctness_rows(
            [(Label.URL, "u", 1), (Label.ACCOUNT, "a", 1), (Label.DATE, "d", 1)]
        )
        assert [r.label for r in rows] == [Label.ACCOUNT, Label.DATE, Label.URL]


class TestWelch:
    def test_population_sd_reference(self):
        result = welch_from_stats(0.506, 0.056, 5, 0.346, 0.044, 5)
        assert result.mean_diff == pytest.approx(0.160, abs=1e-9)
        assert result.se == pytest.approx(0.031850, abs=5e-7)
        assert result.t == pytest.approx(5.023604, abs=5e-6)
        assert result.dof == pytest.approx(7.575928, abs=5e-6)
        assert result.p == pytest.approx(5.1e-7, rel=0.01)
        assert result.p < 0.001

    def test_sample_sd_variant(self):
        # the population SDs in the sample (n-1) convention
        sd_a = 0.056 * math.sqrt(5 / 4)
        sd_b = 0.044 * math.sqrt(5 / 4)
        result = welch_from_stats(0.506, sd_a, 5, 0.346, sd_b, 5)
        assert result.t == pytest.approx(4.493248, abs=5e-6)

    def test_from_samples_matches_stats(self):
        xs = [0.51, 0.48, 0.55, 0.47, 0.52]
        ys = [0.31, 0.36, 0.33, 0.38, 0.35]
        direct = welch_from_samples(xs, ys)
        expected = welch_from_stats(
            statistics.fmean(xs), statistics.stdev(xs), 5,
            statistics.fmean(ys), statistics.stdev(ys), 5,
        )
        assert direct == expected

    def test_symmetry(self):
        a = welch_from_stats(0.5, 0.05, 5, 0.3, 0.04, 5)
        b = welch_from_stats(0.3, 0.04, 5, 0.5, 0.05, 5)
        assert a.t == pytest.approx(-b.t)
        assert a.p == pytest.approx(b.p)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            welch_from_stats(0.5, 0.0, 5, 0.3, 0.0, 5)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            welch_from_stats(0.5, 0.1, 1, 0.3, 0.1, 5)
        with pytest.raises(ValueError):
            welch_from_samples([1.0], [1.0, 2.0])

    @given(
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0.01, max_value=5),
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=0.01, max_value=5),
        st.integers(min_value=2, max_value=30),
    )
    def test_p_in_unit_interval(self, ma, sa, na, mb, sb, nb):
        result = welch_from_stats(ma, sa, na, mb, sb, nb)
        assert 0.0 <= result.p <= 1.0
        assert result.dof >= 1.0


class TestCharNgramScorer:
    def test_training_lowers_perplexity_on_seen_text(self):
        scorer = CharNgramScorer()
        scorer.train(["the quick brown fox jumps over the lazy dog"] * 3)
        seen = scorer.corpus_perplexity(["the quick brown fox"])
        unseen = scorer.corpus_perplexity(["zxqj vvwk yyzzq"])
        assert seen is not None and unseen is not None
        assert seen < unseen

    @pytest.mark.parametrize("training", [None, [], [""], ["", ""]])
    def test_a_scorer_that_learned_no_character_scores_nothing(self, training):
        scorer = CharNgramScorer()
        if training is not None:
            scorer.train(training)
        for text in ("abc", ""):
            assert scorer.count([text]) == Counter()
            assert scorer.corpus_perplexity([text]) is None

    def test_empty_text(self):
        scorer = CharNgramScorer()
        scorer.train(["abc"])
        assert scorer.corpus_perplexity([""]) is None

    def test_corpus_perplexity_pools_characters(self):
        scorer = CharNgramScorer()
        scorer.train(["aaaa bbbb"])
        single = scorer.corpus_perplexity(["aaaa bbbb"])
        pooled = scorer.corpus_perplexity(["aaaa", " bbbb"])
        assert single is not None and pooled is not None
        assert pooled > 1.0


class ExactReference:
    """The per-character scorer: counts per context, each character's
    (count + 1, total + V) pair, and the exact perplexity of those pairs."""

    def __init__(self, order: int = 5) -> None:
        self.order = order
        self._counts: dict[str, dict[str, int]] = {}
        self._context_totals: dict[str, int] = {}
        self._vocab: set[str] = set()

    def train(self, texts):
        ctx_len = self.order - 1
        for text in texts:
            for i, ch in enumerate(text):
                self._vocab.add(ch)
                ctx = text[max(0, i - ctx_len) : i]
                bucket = self._counts.setdefault(ctx, {})
                bucket[ch] = bucket.get(ch, 0) + 1
                self._context_totals[ctx] = self._context_totals.get(ctx, 0) + 1

    def pairs(self, text):
        """Each character's (count + 1, total + V): its NLL is ln d - ln n."""
        ctx_len = self.order - 1
        vocab_size = len(self._vocab)
        for i, ch in enumerate(text):
            ctx = text[max(0, i - ctx_len) : i]
            count = self._counts.get(ctx, {}).get(ch, 0)
            yield count + 1, self._context_totals.get(ctx, 0) + vocab_size

    def corpus_perplexity(self, texts):
        """exp(sum of (ln d - ln n) / chars) at 40 digits, the logs of the
        integers added in ascending order, rounded to float once."""
        weights: Counter[int] = Counter()
        chars = 0
        for text in texts:
            for n, d in self.pairs(text):
                weights[d] += 1
                weights[n] -= 1
            chars += len(text)
        if chars == 0:
            return None
        with localcontext(prec=40):
            terms = (w * Decimal(k).ln() for k, w in sorted(weights.items()))
            return float((sum(terms, Decimal(0)) / chars).exp())


# ASCII, Latin diacritics, kana and Han; a small alphabet, so contexts repeat
# and texts share grams with the training set
_SCORER_ALPHABET = "ab e.Zéüßñかなカナ山田東京"
_scorer_texts = st.lists(st.text(alphabet=_SCORER_ALPHABET, max_size=30), max_size=6)


def cell_pairs(scorer: CharNgramScorer, text: str) -> Counter:
    """The (count + 1, total + V) pairs the scorer counts for the text."""
    return Counter({scorer._cells[cell]: m for cell, m in scorer.count([text]).items()})


class TestCharNgramScorerIsExact:
    @settings(max_examples=200)
    @given(first=_scorer_texts, second=_scorer_texts, scored=_scorer_texts)
    def test_bit_identical(self, first, second, scored):
        table = CharNgramScorer()
        table.train(first + second)
        exact = ExactReference()
        exact.train(first + second)
        if not exact._vocab:  # it learned no character, so it scores none
            assert table.count([*scored, *first, *second]) == Counter()
            return
        for text in [*scored, *first, *second, ""]:
            assert cell_pairs(table, text) == Counter(exact.pairs(text))
            assert repr(table.corpus_perplexity([text])) == repr(
                exact.corpus_perplexity([text])
            )
        assert repr(table.corpus_perplexity(scored)) == repr(
            exact.corpus_perplexity(scored)
        )

    @settings(max_examples=100)
    @given(first=_scorer_texts, second=_scorer_texts)
    def test_a_training_replaces_what_was_learned(self, first, second):
        retrained = CharNgramScorer()
        retrained.train(first)
        retrained.train(second)
        fresh = CharNgramScorer()
        fresh.train(second)
        for text in [*first, *second, ""]:
            assert cell_pairs(retrained, text) == cell_pairs(fresh, text)
        assert repr(retrained.corpus_perplexity(first)) == repr(
            fresh.corpus_perplexity(first)
        )

    @settings(max_examples=100)
    @given(training=_scorer_texts.filter(any), scored=_scorer_texts, data=st.data())
    def test_text_order_cannot_change_a_bit(self, training, scored, data):
        table = CharNgramScorer()
        table.train(training)
        expected = repr(table.corpus_perplexity(scored))
        assert repr(table.corpus_perplexity(data.draw(st.permutations(scored)))) == (
            expected
        )
        # nor the order of the training texts, which numbers the cells
        shuffled = CharNgramScorer()
        shuffled.train(data.draw(st.permutations(training)))
        assert repr(shuffled.corpus_perplexity(scored)) == expected

    def test_bit_identical_on_a_corpus(self):
        from piisub.corpus import synth_corpus
        from piisub.detection import detect_oracle
        from piisub.pipeline import _non_pii_portions

        records = synth_corpus(60, seed=2)
        portions = [
            p for rec in records for p in _non_pii_portions(rec.text, detect_oracle(rec))
        ]
        texts = [rec.text for rec in records]
        # one text past the 1,024 characters scored in chunks before: its
        # contexts run on across the whole text
        texts.append(" ".join(texts[:12]))
        assert len(texts[-1]) > 2048
        table, exact = CharNgramScorer(), ExactReference()
        table.train(portions)
        exact.train(portions)
        for text in texts:
            assert cell_pairs(table, text) == Counter(exact.pairs(text))
        assert repr(table.corpus_perplexity(texts)) == repr(
            exact.corpus_perplexity(texts)
        )

    def test_counts_subtract_to_the_rest(self):
        table = CharNgramScorer()
        table.train(["the quick brown fox", "jumps over the lazy dog"])
        texts = ["the lazy fox", "a quick dog", "the lazy fox", ""]
        rest = table.count(texts) - table.count(texts[:1])
        assert rest == table.count(texts[1:])
        assert table.perplexity(rest) == table.corpus_perplexity(texts[1:])
