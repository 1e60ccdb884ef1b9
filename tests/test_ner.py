"""Weak annotation, BIO decoding, span matching, and the tagging probe."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from conftest import run_records
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piisub.cli import _written_variant
from piisub.corpus import synth_corpus
from piisub.model import CorpusRecord, Label, Mode
from piisub.ner import (
    AveragedPerceptron,
    Gold,
    Lexicon,
    NerSettings,
    SpanCounts,
    Token,
    UntrainableCorpus,
    VariantScores,
    annotate_from_gt,
    annotation_gaps,
    decode_bio_strict,
    features,
    match_spans,
    predict_tags,
    run_ner_experiment,
    stratified_split,
    tokenize,
    train_tagger,
)
from piisub.pipeline import RunConfig


def record(text, gt, locale="en_US", rid="r1"):
    return CorpusRecord(id=rid, text=text, locale=locale, template="t", pii_gt=gt)


class TestTokenize:
    def test_offsets(self):
        tokens = tokenize("Walter  met   Edith.")
        assert [(t.text, t.start, t.end) for t in tokens] == [
            ("Walter", 0, 6),
            ("met", 8, 11),
            ("Edith.", 14, 20),
        ]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []


class TestAnnotate:
    def test_binary_bio_tags(self):
        text = "Walter Abernathy met Edith."
        tokens, tags = annotate_from_gt(text, [(0, 16), (21, 26)])
        assert [t.text for t in tokens] == ["Walter", "Abernathy", "met", "Edith."]
        assert tags == ["B-PII", "I-PII", "O", "B-PII"]

    def test_a_span_inside_a_token_tags_the_token(self):
        _, tags = annotate_from_gt("mail x@y.com, on 04/12/1975.", [(5, 12), (17, 27)])
        assert tags == ["O", "B-PII", "O", "B-PII"]

    def test_no_spans_tag_nothing(self):
        tokens, tags = annotate_from_gt("nothing here", [])
        assert set(tags) == {"O"}
        assert len(tokens) == 2  # the document itself is kept

    def test_adjacent_entities_get_fresh_b(self):
        _, tags = annotate_from_gt("Walter Edith spoke", [(0, 6), (7, 12)])
        assert tags == ["B-PII", "B-PII", "O"]

    def test_only_the_given_spans_are_tagged(self):
        # the same words elsewhere in the text stay O
        _, tags = annotate_from_gt("Robin Vale met Robin Vale", [(15, 25)])
        assert tags == ["O", "O", "O", "B-PII", "I-PII"]


class TestAnnotationGaps:
    def test_absent_value_counts_as_gap(self):
        rec = record("nothing here", {Label.PERSON: ("Walter Abernathy",)})
        assert annotation_gaps(rec) == 1

    def test_case_insensitive_occurrence_is_no_gap(self):
        rec = record("met WALTER ABERNATHY", {Label.PERSON: ("Walter Abernathy",)})
        assert annotation_gaps(rec) == 0

    def test_every_absent_value_counts(self):
        rec = record(
            "mail x@y.com",
            {Label.EMAIL: ("x@y.com", "z@y.com"), Label.DATE: ("04/12/1975",)},
        )
        assert annotation_gaps(rec) == 2


class TestDecodeBioStrict:
    def toks(self, n):
        return [Token(f"w{i}", i * 3, i * 3 + 2) for i in range(n)]

    def test_simple_span(self):
        spans = decode_bio_strict(self.toks(4), ["B-PII", "I-PII", "O", "B-PII"])
        assert spans == [(0, 5), (9, 11)]

    def test_orphan_i_dropped(self):
        assert decode_bio_strict(self.toks(3), ["O", "I-PII", "O"]) == []

    def test_i_after_o_dropped_but_b_restarts(self):
        spans = decode_bio_strict(self.toks(4), ["I-PII", "B-PII", "I-PII", "I-PII"])
        assert spans == [(3, 11)]

    def test_b_after_b_closes_previous(self):
        spans = decode_bio_strict(self.toks(2), ["B-PII", "B-PII"])
        assert spans == [(0, 2), (3, 5)]

    def test_trailing_open_span_closed(self):
        assert decode_bio_strict(self.toks(2), ["O", "B-PII"]) == [(3, 5)]


class TestMatchSpans:
    def test_exact(self):
        counts = match_spans([(0, 5), (10, 15)], [(0, 5), (10, 15)])
        assert counts == SpanCounts(tp=2, n_pred=2, n_gold=2)
        assert counts.f1 == 1.0

    def test_any_overlap_counts(self):
        counts = match_spans([(0, 10)], [(8, 12)])
        assert counts.tp == 1

    def test_touching_spans_do_not_match(self):
        counts = match_spans([(0, 5)], [(5, 9)])
        assert counts.tp == 0

    def test_one_to_one(self):
        # two predictions over one gold: only one may claim it
        counts = match_spans([(0, 10)], [(0, 4), (5, 10)])
        assert counts == SpanCounts(tp=1, n_pred=2, n_gold=1)
        assert counts.precision == 0.5
        assert counts.recall == 1.0

    def test_largest_overlap_wins(self):
        # pred (0,8) overlaps gold (0,2) by 2 and gold (3,14) by 5: it must
        # take the larger match, leaving (0,2) for the second prediction
        gold = [(0, 2), (3, 14)]
        pred = [(0, 8), (0, 2)]
        counts = match_spans(gold, pred)
        assert counts.tp == 2

    def test_empty_sides(self):
        assert match_spans([], []).f1 == 0.0
        assert match_spans([(0, 2)], []) == SpanCounts(0, 0, 1)
        assert match_spans([], [(0, 2)]) == SpanCounts(0, 1, 0)

    def test_zero_denominators_score_zero(self):
        counts = SpanCounts(tp=0, n_pred=0, n_gold=0)
        assert counts.precision == 0.0
        assert counts.recall == 0.0
        assert counts.f1 == 0.0


def encode(lexicon, sentences):
    """Token sentences as word-id sentences of `lexicon`."""
    return [(lexicon.encode(tokens), tags) for tokens, tags in sentences]


def train(sentences, **kwargs):
    """train_tagger on token sentences, through a lexicon of their own."""
    lexicon = Lexicon()
    return train_tagger(encode(lexicon, sentences), lexicon, **kwargs)


def tag(model, tokens):
    """predict_tags on tokens, as word ids of the model's lexicon."""
    return predict_tags(model, model.lexicon.encode(tokens))


class TestPerceptron:
    def sentences(self):
        text_tags = [
            (["Alice", "slept", "."], ["B-PII", "O", "O"]),
            (["Bob", "ran", "far"], ["B-PII", "O", "O"]),
            (["stones", "sink", "Alice"], ["O", "O", "B-PII"]),
        ]
        out = []
        for words, tags in text_tags:
            pos = 0
            tokens = []
            for w in words:
                tokens.append(Token(w, pos, pos + len(w)))
                pos += len(w) + 1
            out.append((tokens, tags))
        return out

    def test_learns_separable_data(self):
        model = train(self.sentences(), iterations=10, seed=3)
        tokens = [Token("Alice", 0, 5), Token("slept", 6, 11)]
        assert tag(model, tokens) == ["B-PII", "O"]

    def test_training_is_deterministic(self):
        a = train(self.sentences(), iterations=10, seed=3)
        b = train(self.sentences(), iterations=10, seed=3)
        tokens = [Token(w, i * 6, i * 6 + 5) for i, w in enumerate(["Alice", "stone"])]
        assert tag(a, tokens) == tag(b, tokens)
        assert a._weights == b._weights
        assert a.lexicon.feature_names == b.lexicon.feature_names

    def test_tie_breaks_by_class_name(self):
        lexicon = Lexicon()
        model = AveragedPerceptron(["O", "B-PII"], lexicon)
        # no training: every score is 0, the alphabetically-first class wins
        assert model.predict([lexicon.feature_id("bias")]) == "B-PII"

    def test_features_are_token_internal(self):
        # one word in, so neither neighbours nor the previous tag can count
        expected = ["bias", "w=alice", "shape=Xxxxx", "pre=ali", "suf=ice"]
        assert features("Alice") == expected

    def test_feature_flags(self):
        assert "hasdigit" in features("x9")
        assert "punctonly" in features("?!")


# Latin, digits, punctuation-only, CJK, and letters whose case mapping
# changes length (ß upper-cases to SS, İ lower-cases to i + combining dot)
_WORD_CHARS = st.sampled_from(
    list("aZéÉ09.,;!?-@/()'\"") + list("東京山田太郎はカタ") + list("ßẞİıI")
)
_WORDS = st.lists(
    st.text(_WORD_CHARS, min_size=1, max_size=8), min_size=1, max_size=6
)
_PREV_TAGS = st.sampled_from(["<s>", "O", "B-PII", "I-PII"])


@settings(max_examples=200, deadline=None)
@given(words=_WORDS, data=st.data())
def test_lexicon_feature_ids_name_the_features(words, data):
    lexicon = Lexicon()
    wids = lexicon.encode(Token(w, 0, len(w)) for w in words)
    assert lexicon.encode(Token(w, 0, len(w)) for w in words) == wids
    assert len(set(wids)) == len(set(words))
    names = lexicon.feature_names
    for i, wid in enumerate(wids):
        prev = data.draw(_PREV_TAGS)
        # the word's ids; the previous tag's is interned apart
        assert [names[f] for f in lexicon.feats[wid]] == features(words[i])
        assert names[lexicon.prevtag_id(prev)] == "prevtag=" + prev


class ReferencePerceptron:
    """The dict-of-dicts averaged perceptron the row layout replaced, with
    integer weights and exact averages: each a `Fraction` of the clock."""

    def __init__(self, classes):
        self.classes = sorted(set(classes))
        self._weights = {}
        self._totals = {}
        self._tstamps = {}
        self._updates = 0

    def predict(self, feats):
        scores = dict.fromkeys(self.classes, 0)
        for f in feats:
            bucket = self._weights.get(f)
            if not bucket:
                continue
            for cls, weight in bucket.items():
                scores[cls] += weight
        return max(self.classes, key=lambda c: scores[c])

    def _bump(self, feature, cls, delta):
        key = (feature, cls)
        weight = self._weights.setdefault(feature, {}).get(cls, 0)
        self._totals[key] = (
            self._totals.get(key, 0)
            + (self._updates - self._tstamps.get(key, 0)) * weight
        )
        self._tstamps[key] = self._updates
        self._weights[feature][cls] = weight + delta

    def update(self, truth, guess, feats):
        self._updates += 1
        if truth == guess:
            return
        for f in feats:
            self._bump(f, truth, 1)
            self._bump(f, guess, -1)

    def average_weights(self):
        for feature, bucket in self._weights.items():
            for cls, weight in bucket.items():
                key = (feature, cls)
                total = self._totals.get(key, 0)
                total += (self._updates - self._tstamps.get(key, 0)) * weight
                bucket[cls] = Fraction(total, self._updates)


def reference_features(words, i, prev_tag):
    """What the reference reads of a token: the word's own features and the
    previous predicted tag."""
    return [*features(words[i]), f"prevtag={prev_tag}"]


def reference_train(sentences, *, iterations, seed):
    """train_tagger as it was: features rebuilt for every token on every pass."""
    classes = {"O"}
    for _, tags in sentences:
        classes.update(tags)
    model = ReferencePerceptron(classes)
    # the number of the last pass that made a mistake, 0 if none did
    model.last_mistake_pass = 0
    rng = random.Random(seed)
    data = list(sentences)
    for passes in range(1, iterations + 1):
        rng.shuffle(data)
        for tokens, tags in data:
            words = [t.text for t in tokens]
            prev = "<s>"
            for i, gold in enumerate(tags):
                feats = reference_features(words, i, prev)
                guess = model.predict(feats)
                model.update(gold, guess, feats)
                if guess != gold:
                    model.last_mistake_pass = passes
                prev = guess
    model.average_weights()
    return model


def named_weights(model):
    """The model's rows keyed by the names of its lexicon's feature ids."""
    names = model.lexicon.feature_names
    return {names[f]: row for f, row in model._weights.items()}


def assert_same_weights(model, reference):
    """The model's rows are the reference's averages times its clock."""
    rows = named_weights(model)
    assert set(rows) == set(reference._weights)
    for feature, row in rows.items():
        bucket = reference._weights[feature]
        for cls, weight in zip(model.classes, row):
            assert type(weight) is int, (feature, cls)
            assert Fraction(weight, reference._updates) == bucket.get(cls, 0), (
                feature,
                cls,
            )


def reference_tags(reference, tokens):
    words = [t.text for t in tokens]
    prev, tags = "<s>", []
    for i in range(len(words)):
        prev = reference.predict(reference_features(words, i, prev))
        tags.append(prev)
    return tags


_BIO = ["O", "B-PII", "I-PII"]
_VOCAB = ["Alice", "Bob", "Tōkyō", "山田", "04/12", "x@y.z", "?!", "the", "ran", "ß"]


def random_bio_sentences(rng, n):
    out = []
    for _ in range(n):
        words = [rng.choice(_VOCAB) for _ in range(rng.randint(1, 9))]
        tags = [rng.choice(_BIO) for _ in words]
        out.append(([Token(w, 0, len(w)) for w in words], tags))
    return out


class TestPerceptronMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_step_by_step(self, seed):
        # pass by pass, through a lexicon shared the way an experiment
        # shares it: the weights after each number of passes are the
        # reference's, and so are the tags they predict
        rng = random.Random(seed)
        sentences = random_bio_sentences(rng, 10)
        held_out = random_bio_sentences(rng, 10)
        lexicon = Lexicon()
        encoded = encode(lexicon, sentences)
        for iterations in range(1, 9):
            model = train_tagger(encoded, lexicon, iterations=iterations, seed=seed)
            reference = reference_train(sentences, iterations=iterations, seed=seed)
            assert_same_weights(model, reference)
            for tokens, _ in held_out:
                assert tag(model, tokens) == reference_tags(reference, tokens)

    def test_an_exact_tie_goes_to_the_first_class_by_name(self):
        # ";" after B-PII scores 5 * 1 - 5 = 0 for B-PII and 5 * -1 + 5 = 0
        # for O over its six rows; as floats, each row divided by the clock
        # of 9, the scores read -5.6e-17 and +5.6e-17, and it was tagged O
        tokens = [Token(w, 2 * i, 2 * i + 1) for i, w in enumerate("a;a")]
        sentences = [(tokens, ["B-PII", "B-PII", "O"])]
        model = train(sentences, iterations=3, seed=0)
        reference = assert_matches_reference(model, sentences, iterations=3, seed=0)
        lexicon = model.lexicon
        semicolon = lexicon.encode(tokens[1:2])[0]
        ids = (*lexicon.feats[semicolon], lexicon.prevtag_id("B-PII"))
        rows = [model._weights[f] for f in ids]
        assert [sum(column) for column in zip(*rows)] == [0, 0]
        assert reference._updates == 9
        assert tag(model, tokens) == ["B-PII", "B-PII", "O"]

    @pytest.mark.parametrize("seed", range(4))
    def test_trained_tagger(self, seed):
        rng = random.Random(seed)
        sentences = random_bio_sentences(rng, 12)
        model = train(sentences, iterations=4, seed=seed)
        reference = reference_train(sentences, iterations=4, seed=seed)
        assert model.classes == reference.classes
        assert_same_weights(model, reference)
        for tokens, _ in random_bio_sentences(rng, 20):
            words = [t.text for t in tokens]
            prev, expected = "<s>", []
            for i in range(len(words)):
                prev = reference.predict(reference_features(words, i, prev))
                expected.append(prev)
            assert tag(model, tokens) == expected


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(-(10**18), 10**18), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
    ),
    data=st.data(),
)
# in floats 3 + 2**54 rounds to 2**54 + 4: added in this order, B-PII would
# tie O at 4 and win the tie; O wins at 4 against the exact 3
@example(rows=[[3, 0, 4], [2**54, 0, 0], [-(2**54), 0, 0]], data=None)
def test_any_feature_order_predicts_the_same_tag(rows, data):
    lexicon = Lexicon()
    model = AveragedPerceptron(_BIO, lexicon)
    ids = [lexicon.feature_id(f"f{i}") for i in range(len(rows))]
    model._weights = dict(zip(ids, rows))
    sums = [sum(column) for column in zip(*rows)]
    expected = model.classes[sums.index(max(sums))]
    orders = [ids, ids[::-1]]
    if data is not None:
        orders.append(data.draw(st.permutations(ids)))
    for order in orders:
        assert model.predict(order) == expected


# a small vocabulary, so that words repeat and guesses come from the memo
_SMALL_VOCAB = st.lists(
    st.text(_WORD_CHARS, min_size=1, max_size=3), min_size=1, max_size=5, unique=True
)


@settings(max_examples=100, deadline=None)
@given(
    vocab=_SMALL_VOCAB,
    data=st.data(),
    iterations=st.integers(1, 12),
    seed=st.integers(),
)
def test_trainer_equals_reference(vocab, data, iterations, seed):
    tagged = st.tuples(st.sampled_from(vocab), st.sampled_from(_BIO))
    drawn = data.draw(st.lists(st.lists(tagged, max_size=8), min_size=1, max_size=20))
    sentences = [
        ([Token(w, 0, len(w)) for w, _ in pairs], [t for _, t in pairs])
        for pairs in drawn
    ]
    reference = reference_train(sentences, iterations=iterations, seed=seed)
    model = train(sentences, iterations=iterations, seed=seed)
    assert model.classes == reference.classes
    assert_same_weights(model, reference)
    # the experiment's path: a lexicon that other words entered first, as an
    # earlier variant's do, so the same features have other ids
    lexicon = Lexicon()
    lexicon.encode(Token(w + "#", 0, len(w) + 1) for w in reversed(vocab))
    shared = train_tagger(
        encode(lexicon, sentences), lexicon, iterations=iterations, seed=seed
    )
    assert named_weights(shared) == named_weights(model)
    probe = [Token(w, 0, len(w)) for w in data.draw(st.lists(st.sampled_from(vocab)))]
    for tokens in [*(tokens for tokens, _ in sentences), probe]:
        expected = reference_tags(reference, tokens)
        assert tag(model, tokens) == expected
        assert tag(shared, tokens) == expected


def test_a_mistake_after_a_clean_stretch_renews_the_guess():
    # "a" after O is guessed O through ten predictions without a mistake;
    # the tenth is a mistake (gold B-PII), after which the fresh guess for
    # the same word and previous tag is B-PII, where one kept from the
    # stretch would still say O. The weights after that guess count in the
    # average only from the predictions that follow, hence the last two.
    words = ["a"] * 15
    tags = ["O"] * 11 + ["B-PII", "O", "O", "O"]
    reference = ReferencePerceptron(tags)
    prev, steps = "<s>", []
    for i, gold in enumerate(tags):
        feats = reference_features(words, i, prev)
        guess = reference.predict(feats)
        reference.update(gold, guess, feats)
        steps.append((prev, guess))
        prev = guess
    assert steps[2:12] == [("O", "O")] * 10
    assert steps[12] == ("O", "B-PII")
    tokens = [Token(w, 2 * i, 2 * i + 1) for i, w in enumerate(words)]
    model = train([(tokens, tags)], iterations=1)
    assert_same_weights(model, reference_train([(tokens, tags)], iterations=1, seed=0))


class CountingRandom(random.Random):
    """random.Random that counts its shuffles: one per training pass."""

    shuffles = 0

    def shuffle(self, x):
        CountingRandom.shuffles += 1
        super().shuffle(x)


def train_counting_passes(sentences, **kwargs):
    """train() and the number of passes it ran."""
    import piisub.ner as ner

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ner, "random", SimpleNamespace(Random=CountingRandom))
        CountingRandom.shuffles = 0
        model = train(sentences, **kwargs)
    return model, CountingRandom.shuffles


def assert_matches_reference(model, sentences, *, iterations, seed):
    """Weights and tags as the reference's, which runs every pass; returns it."""
    reference = reference_train(sentences, iterations=iterations, seed=seed)
    assert model.classes == reference.classes
    assert_same_weights(model, reference)
    for tokens, _ in sentences:
        assert tag(model, tokens) == reference_tags(reference, tokens)
    return reference


def token_sentences(word_lists, tag_of):
    """Sentences of the words, each word tagged tag_of(word)."""
    return [
        ([Token(w, 0, len(w)) for w in words], list(map(tag_of, words)))
        for words in word_lists
    ]


class TestConvergenceStop:
    @settings(max_examples=60, deadline=None)
    @given(
        vocab=_SMALL_VOCAB,
        data=st.data(),
        iterations=st.integers(15, 40),
        seed=st.integers(),
    )
    def test_a_learnable_corpus_stops_one_pass_after_its_last_mistake(
        self, vocab, data, iterations, seed
    ):
        # each word has one tag wherever it stands, and a w= feature of its
        # own, so the perceptron stops making mistakes within a few passes
        tags = st.lists(st.sampled_from(_BIO), min_size=len(vocab), max_size=len(vocab))
        tag_of = dict(zip(vocab, data.draw(tags)))
        words = st.lists(st.sampled_from(vocab), max_size=8)
        word_lists = data.draw(st.lists(words, min_size=1, max_size=20))
        sentences = token_sentences(word_lists, tag_of.get)
        model, passes = train_counting_passes(sentences, iterations=iterations, seed=seed)
        reference = assert_matches_reference(
            model, sentences, iterations=iterations, seed=seed
        )
        assert reference.last_mistake_pass < iterations
        assert passes == reference.last_mistake_pass + 1

    def test_a_corpus_of_o_alone_stops_after_one_pass(self):
        sentences = token_sentences([["a", "b"], ["b", "c", "a"]], lambda w: "O")
        model, passes = train_counting_passes(sentences, iterations=20, seed=5)
        reference = assert_matches_reference(model, sentences, iterations=20, seed=5)
        assert reference.last_mistake_pass == 0
        assert passes == 1
        assert model._weights == {}

    def test_contradictory_tags_run_every_pass(self):
        # "a" at the sentence start is O in one sentence and B-PII in the
        # other: one guess serves both, so every pass makes a mistake
        sentences = [
            ([Token("a", 0, 1)], ["O"]),
            ([Token("a", 0, 1), Token("b", 2, 3)], ["B-PII", "O"]),
        ]
        model, passes = train_counting_passes(sentences, iterations=25, seed=2)
        reference = assert_matches_reference(model, sentences, iterations=25, seed=2)
        assert reference.last_mistake_pass == 25
        assert passes == 25


class TestPredictionMemo:
    def test_two_models_of_one_lexicon_keep_their_own_tags(self):
        rng = random.Random(7)
        first, second = random_bio_sentences(rng, 10), random_bio_sentences(rng, 10)
        held_out = random_bio_sentences(rng, 15)
        lexicon = Lexicon()
        models = [
            train_tagger(encode(lexicon, s), lexicon, iterations=6, seed=3)
            for s in (first, second)
        ]
        references = [
            reference_train(s, iterations=6, seed=3) for s in (first, second)
        ]
        # the two disagree somewhere, so a memo shared between them would show
        assert any(
            reference_tags(references[0], tokens) != reference_tags(references[1], tokens)
            for tokens, _ in held_out
        )
        for tokens, _ in held_out + held_out:
            for model, reference in zip(models, references):
                assert tag(model, tokens) == reference_tags(reference, tokens)

    def test_a_repeated_call_returns_the_same_tags(self):
        rng = random.Random(11)
        model = train(random_bio_sentences(rng, 12), iterations=5, seed=1)
        for tokens, _ in random_bio_sentences(rng, 10):
            tags = tag(model, tokens)
            assert tag(model, tokens) == tags


def test_frozen_scores_of_a_small_experiment():
    # a change in the tagger's arithmetic, or in the fake values the faker
    # variant trains on, would move these values
    corpus = synth_corpus(40, seed=4)
    variants = {}
    for mode in (Mode.FAKER, Mode.REDACT):
        results = run_records(corpus, RunConfig(mode=mode))
        variants[mode.value] = _written_variant(results)
    report = run_ner_experiment(
        corpus,
        variants,
        NerSettings(train_size=32, test_size=8, seeds=(11, 12, 13), iterations=5),
    )
    frozen = {
        "original": (
            [1.0, 0.9583333333333334, 0.9245283018867925],
            [0.8867924528301887, 0.9019607843137255, 0.9607843137254902],
            [0.9400000000000001, 0.9292929292929293, 0.9423076923076923],
        ),
        "faker": (
            [1.0, 0.975, 0.9487179487179487],
            [0.660377358490566, 0.7647058823529411, 0.7254901960784313],
            [0.7954545454545454, 0.857142857142857, 0.8222222222222223],
        ),
        "redact": ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    }
    for name, (precision, recall, f1) in frozen.items():
        scores = report.scores[name]
        assert scores.precision_by_seed == precision, name
        assert scores.recall_by_seed == recall, name
        assert scores.f1_by_seed == f1, name
        assert scores.train_spans_by_seed == [206, 208, 208], name
    assert report.annotation_gaps == 0


class TestStratifiedSplit:
    def mixed_records(self):
        recs = []
        for i in range(30):
            locale = ["en_US", "de_DE", "ja_JP"][i % 3]
            recs.append(record(f"text {i}", {}, locale=locale, rid=f"r{i}"))
        return recs

    def test_sizes_and_disjoint(self):
        recs = self.mixed_records()
        train, test = stratified_split(recs, 24, 6, seed=1)
        assert len(train) == 24
        assert len(test) == 6
        assert not set(train) & set(test)

    def test_test_cut_respects_locale_shares(self):
        recs = self.mixed_records()
        _, test = stratified_split(recs, 24, 6, seed=1)
        by_locale = {}
        for idx in test:
            by_locale[recs[idx].locale] = by_locale.get(recs[idx].locale, 0) + 1
        assert by_locale == {"en_US": 2, "de_DE": 2, "ja_JP": 2}

    def test_deterministic_per_seed(self):
        recs = self.mixed_records()
        assert stratified_split(recs, 20, 6, seed=7) == stratified_split(
            recs, 20, 6, seed=7
        )
        assert stratified_split(recs, 20, 6, seed=7) != stratified_split(
            recs, 20, 6, seed=8
        )

    def test_too_large_request(self):
        # the split's caller checks it once, not on every seed
        with pytest.raises(ValueError, match="need 34 records, corpus has 30"):
            NerSettings(train_size=28, test_size=6).check_corpus(len(self.mixed_records()))

    def test_outputs_sorted(self):
        train, test = stratified_split(self.mixed_records(), 20, 6, seed=2)
        assert train == sorted(train)
        assert test == sorted(test)


#: A ground-truth value no synthetic text holds.
ABSENT = "Quentin Absentee"


def with_an_absent_value(rec):
    """The record with one more PERSON value, which its text lacks."""
    people = (*rec.pii_gt.get(Label.PERSON, ()), ABSENT)
    return CorpusRecord(
        id=rec.id,
        text=rec.text,
        locale=rec.locale,
        template=rec.template,
        pii_gt={**rec.pii_gt, Label.PERSON: people},
    )


def copies(corpus):
    """A variant of the records that is their own text, with no gold span."""
    return [Gold(r.id, r.text, []) for r in corpus]


@pytest.fixture(scope="module")
def tiny_report():
    # each original lacks one of its values, which no gold span can mark
    corpus = [with_an_absent_value(r) for r in synth_corpus(30, seed=9)]
    # degenerate variant: no text survives and no span was written, so
    # training tags are all O
    blank = [Gold(r.id, "placeholder filler text only", []) for r in corpus]
    with pytest.warns(UntrainableCorpus):
        return run_ner_experiment(
            corpus,
            {"blank": blank},
            NerSettings(train_size=24, test_size=6, seeds=(1, 2), iterations=5),
        )


class TestExperiment:
    def test_scores_present_per_seed(self, tiny_report):
        assert tiny_report.variant_order == ["original", "blank"]
        assert len(tiny_report.scores["original"].f1_by_seed) == 2
        assert len(tiny_report.scores["blank"].f1_by_seed) == 2

    def test_blanked_variant_scores_zero(self, tiny_report):
        assert tiny_report.scores["blank"].f1_by_seed == [0.0, 0.0]
        assert tiny_report.scores["blank"].train_spans_by_seed == [0, 0]

    def test_original_beats_blank(self, tiny_report):
        assert tiny_report.scores["original"].mean > 0.0

    def test_gaps_count_once_per_seed(self, tiny_report):
        # every training original lacks one value, counted on each seed; a
        # variant's gold is where its surrogates were written, so it has none
        corpus = synth_corpus(30, seed=9)
        expected = sum(len(stratified_split(corpus, 24, 6, seed)[0]) for seed in (1, 2))
        assert tiny_report.annotation_gaps == expected == 48

    def test_comparison_keys(self, tiny_report):
        assert list(tiny_report.comparisons) == ["original_vs_blank"]

    def test_json_shape(self, tiny_report):
        data = tiny_report.to_json_dict()
        assert data["train_size"] == 24
        assert data["seeds"] == [1, 2]
        assert "mean" in data["scores"]["original"]
        assert "sd_population" in data["scores"]["original"]

    def test_original_names_the_records_not_a_variant(self):
        corpus = synth_corpus(10, seed=3)
        with pytest.raises(ValueError, match="original"):
            run_ner_experiment(
                corpus, {"original": copies(corpus)}, NerSettings(train_size=6, test_size=2)
            )

    def test_rejects_non_parallel_variants(self):
        corpus = synth_corpus(10, seed=3)
        with pytest.raises(ValueError, match="parallel"):
            run_ner_experiment(
                corpus,
                {"shuffled": copies(reversed(corpus))},
                NerSettings(train_size=6, test_size=2),
            )
        with pytest.raises(ValueError, match="parallel"):
            run_ner_experiment(
                corpus,
                {"short": copies(corpus[:-1])},
                NerSettings(train_size=6, test_size=2),
            )

    def test_the_oracle_reads_each_original_once_and_no_variant(self, monkeypatch):
        import piisub.ner as ner

        seen = []
        detect_oracle = ner.detect_oracle

        def counted(rec):
            seen.append(rec)
            return detect_oracle(rec)

        monkeypatch.setattr(ner, "detect_oracle", counted)
        corpus = synth_corpus(12, seed=3)
        variant = [Gold(r.id, "Written " + r.text, [(0, 7)]) for r in corpus]
        run_ner_experiment(corpus, {"copy": variant}, NerSettings(train_size=8, test_size=3))
        # one detection per original serves its training and every seed's test
        assert seen == corpus

    def test_the_test_cut_is_encoded_once_per_seed(self, monkeypatch):
        calls = []
        encode = Lexicon.encode

        def counted(lexicon, tokens):
            calls.append(tokens)
            return encode(lexicon, tokens)

        monkeypatch.setattr(Lexicon, "encode", counted)
        corpus = synth_corpus(12, seed=3)
        variants = {"copy": copies(corpus), "blank": copies(corpus)}
        with pytest.warns(UntrainableCorpus):
            run_ner_experiment(
                corpus, variants, NerSettings(train_size=8, test_size=3, seeds=(1, 2, 3))
            )
        # each training record once per variant, the originals included, and
        # each seed's test records once for the three models they test
        trained = {
            i for seed in (1, 2, 3) for i in stratified_split(corpus, 8, 3, seed)[0]
        }
        assert len(calls) == 3 * len(trained) + 3 * 3


    @pytest.mark.parametrize("seeds", [(), (1,)])
    def test_rejects_fewer_than_two_seeds_before_training(self, seeds, monkeypatch):
        import piisub.ner as ner

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the seeds were checked")

        monkeypatch.setattr(ner, "train_tagger", no_training)
        corpus = synth_corpus(10, seed=3)
        with pytest.raises(ValueError, match="at least two seeds"):
            run_ner_experiment(
                corpus,
                {"copy": copies(corpus)},
                NerSettings(train_size=6, test_size=2, seeds=seeds),
            )

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"train_size": -5}, "train_size must be at least 1"),
            ({"test_size": 0}, "test_size must be at least 1"),
            ({"iterations": -2}, "iterations must be at least 1"),
            ({"seeds": (11, 11)}, "each given once"),
            ({"seeds": (11, 12, 11)}, "each given once"),
            ({"train_size": 9}, "need 11 records, corpus has 10"),
        ],
        ids=[
            "train-size",
            "test-size",
            "iterations",
            "seed-twice",
            "seed-repeats",
            "split-too-large",
        ],
    )
    def test_rejects_settings_that_mis_measure_before_training(
        self, setting, message, monkeypatch
    ):
        import piisub.ner as ner

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the settings were checked")

        monkeypatch.setattr(ner, "train_tagger", no_training)
        corpus = synth_corpus(10, seed=3)
        experiment = {"train_size": 6, "test_size": 2, "seeds": (1, 2), **setting}
        with pytest.raises(ValueError, match=message):
            run_ner_experiment(corpus, {"copy": copies(corpus)}, NerSettings(**experiment))


def test_variant_scores_sd_definitions():
    scores = VariantScores(f1_by_seed=[0.4, 0.6])
    assert scores.mean == pytest.approx(0.5)
    assert scores.sd_population == pytest.approx(0.1)
    assert scores.sd_sample == pytest.approx(0.1 * math.sqrt(2))
