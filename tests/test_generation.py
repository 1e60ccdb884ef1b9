"""Mode dispatch, model fallback paths, and the text splicer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piisub.backends import BackendInvocationError, SlmBackend
from piisub.detection import resolve_overlaps
from piisub.fakegen import draw_seed, fake_value
from piisub.generation import (
    dispatch,
    redact_placeholder,
    slm_propose,
    splice,
)
from piisub.locales import DateFormat, Locale, classify_date_format
from piisub.model import (
    CacheKey,
    Label,
    Mode,
    PiiSpan,
    RejectionReason,
    Source,
    ci_any_matcher,
)
from piisub.pools import builtin_catalog
from piisub.prompting import DemoStrategy


def key(label, mode=Mode.HYBRID):
    return CacheKey(mode=mode, family="test", canonical="test entity", label=label)


class ScriptedBackend(SlmBackend):
    """Returns canned completions in order; records the prompts it saw."""

    id = "scripted"

    def __init__(self, completions, **kwargs):
        super().__init__(**kwargs)
        self.completions = list(completions)
        self.prompts = []

    def _invoke(self, prompt):
        self.prompts.append(prompt)
        item = self.completions.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


class TestRedactPlaceholder:
    def test_default(self):
        assert redact_placeholder(Label.PERSON) == "[PERSON]"
        assert redact_placeholder(Label.EMAIL) == "[EMAIL]"
        assert [redact_placeholder(label) for label in Label] == [
            f"[{label.name}]" for label in Label
        ]


class TestSlmPropose:
    def test_accepts_model_value(self):
        backend = ScriptedBackend([" Maria Lind"])
        decision = slm_propose(
            "Walter Abernathy",
            key(Label.PERSON),
            backend=backend,
            catalog=builtin_catalog(),
        )
        assert decision.surrogate == "Maria Lind"
        assert decision.source is Source.SLM
        assert len(decision.demos_used) == 3
        assert all(did.startswith("person/en/") for did in decision.demos_used)

    def test_prompt_contains_surface_and_demos(self):
        backend = ScriptedBackend([" Maria Lind"])
        slm_propose(
            "Walter Abernathy",
            key(Label.PERSON),
            backend=backend,
            catalog=builtin_catalog(),
        )
        prompt = backend.prompts[0]
        assert prompt.endswith("Real: Walter Abernathy\nFake:")
        assert prompt.count("Real: ") == 4
        assert prompt.count("Fake:") == 4

    @pytest.mark.parametrize(
        "completion, reason",
        [
            ("", RejectionReason.EMPTY),
            ("walter  abernathy", RejectionReason.IDENTITY),
            ("???", RejectionReason.PUNCTUATION_ONLY),
        ],
    )
    def test_rejection_falls_back_to_fake(self, completion, reason):
        backend = ScriptedBackend([completion])
        decision = slm_propose(
            "Walter Abernathy",
            key(Label.PERSON),
            backend=backend,
            catalog=builtin_catalog(),
        )
        assert decision.source is Source.FALLBACK_FAKE
        assert decision.rejection_reasons == (reason,)
        assert decision.surrogate.strip()
        assert decision.surrogate.lower() != "walter abernathy"

    def test_a_date_reply_that_is_not_a_date_falls_back(self):
        backend = ScriptedBackend([" Robin Vale"])
        decision = slm_propose(
            "05/01/1977", key(Label.DATE), backend=backend, catalog=builtin_catalog()
        )
        assert decision.source is Source.FALLBACK_FAKE
        assert decision.rejection_reasons == (RejectionReason.NOT_A_DATE,)
        assert classify_date_format(decision.surrogate) is DateFormat.MDY_SLASH

    @pytest.mark.parametrize(
        "surface, completion",
        [
            ("05/01/1977", "1981-07-23"),  # another known format is a date
            ("Spring 1999", "Autumn 2004"),  # no known format to hold it to
        ],
    )
    def test_a_date_reply_is_held_to_a_known_input_format_only(
        self, surface, completion
    ):
        # the shipped pool of unknown-format dates is too small to rotate
        backend = ScriptedBackend([" " + completion])
        decision = slm_propose(
            surface,
            key(Label.DATE),
            backend=backend,
            catalog=builtin_catalog(),
            strategy=DemoStrategy.FIXED_THREE,
        )
        assert decision.source is Source.SLM
        assert decision.surrogate == completion

    def test_an_address_reply_without_a_digit_falls_back(self):
        backend = ScriptedBackend([" Robin Vale"])
        decision = slm_propose(
            "45 Oak Avenue, Denver CO 80203",
            key(Label.ADDRESS),
            backend=backend,
            catalog=builtin_catalog(),
        )
        assert decision.source is Source.FALLBACK_FAKE
        assert decision.rejection_reasons == (RejectionReason.NOT_AN_ADDRESS,)
        assert any(c.isdigit() for c in decision.surrogate)

    @pytest.mark.parametrize(
        "surface, completion",
        [
            ("45 Oak Avenue, Denver CO 80203", "9 Elm Row, Austin TX 73301"),
            ("東京都新宿区西新宿2-8-1", "大阪市北区梅田１丁目"),  # a full-width digit
            ("Old Mill Lane, Hexham", "Rose Court, Ripon"),  # no digit to keep
        ],
    )
    def test_an_address_reply_needs_a_digit_only_where_the_input_has_one(
        self, surface, completion
    ):
        backend = ScriptedBackend([" " + completion])
        decision = slm_propose(
            surface,
            key(Label.ADDRESS),
            backend=backend,
            catalog=builtin_catalog(),
            strategy=DemoStrategy.FIXED_THREE,
        )
        assert decision.source is Source.SLM
        assert decision.surrogate == completion

    def test_backend_invocation_error_falls_back(self):
        backend = ScriptedBackend([BackendInvocationError("boom")])
        decision = slm_propose(
            "Walter Abernathy",
            key(Label.PERSON),
            backend=backend,
            catalog=builtin_catalog(),
        )
        assert decision.source is Source.FALLBACK_FAKE
        assert decision.rejection_reasons == (RejectionReason.EMPTY,)

    def test_unrenderable_surface_falls_back_without_backend_call(self):
        backend = ScriptedBackend([])
        decision = slm_propose(
            "line\nbreak",
            key(Label.PERSON),
            backend=backend,
            catalog=builtin_catalog(),
        )
        assert decision.source is Source.FALLBACK_FAKE
        assert backend.prompts == []

    def test_guard_blocks_model_output(self):
        backend = ScriptedBackend([" Leaky Name"])
        decision = slm_propose(
            "Walter Abernathy",
            key(Label.PERSON),
            backend=backend,
            catalog=builtin_catalog(),
            blocked=ci_any_matcher(["Leaky Name"]),
        )
        assert decision.source is Source.FALLBACK_FAKE
        assert decision.rejection_reasons == (RejectionReason.IDENTITY,)
        assert "leaky" not in decision.surrogate.lower()

    def test_fixed_three_uses_pilot_demos(self):
        backend = ScriptedBackend([" Maria Lind", " Taro Yamada"])
        catalog = builtin_catalog()
        first = slm_propose(
            "Walter Abernathy",
            key(Label.PERSON),
            backend=backend,
            catalog=catalog,
            strategy=DemoStrategy.FIXED_THREE,
        )
        slm_propose(
            "佐藤健",
            key(Label.PERSON),
            backend=backend,
            catalog=catalog,
            strategy=DemoStrategy.FIXED_THREE,
        )
        pilot_ids = tuple(d.id for d in catalog.pilot[Label.PERSON])
        assert first.demos_used == pilot_ids
        # same demos regardless of input locale
        assert backend.prompts[0].splitlines()[:6] == backend.prompts[1].splitlines()[:6]

    def test_rotating_uses_locale_pool(self):
        backend = ScriptedBackend([" 高橋一郎"])
        decision = slm_propose(
            "田中さくら",
            key(Label.PERSON),
            backend=backend,
            catalog=builtin_catalog(),
        )
        assert all(did.startswith("person/ja/") for did in decision.demos_used)


class TestDispatch:
    def test_redact_mode_never_touches_backend(self):
        decision = dispatch("Walter Abernathy", key(Label.PERSON, Mode.REDACT))
        assert decision.surrogate == "[PERSON]"
        assert decision.source is Source.REDACT
        assert decision.demos_used == ()

    def test_faker_mode_all_fake(self):
        for label in Label:
            decision = dispatch("some value", key(label, Mode.FAKER))
            assert decision.source is Source.FAKE

    def test_hybrid_routes_slm_labels_to_model(self):
        backend = ScriptedBackend([" Maria Lind"])
        decision = dispatch(
            "Walter Abernathy",
            key(Label.PERSON, Mode.HYBRID),
            backend=backend,
            catalog=builtin_catalog(),
        )
        assert decision.source is Source.SLM

    def test_hybrid_routes_other_labels_to_fake(self):
        backend = ScriptedBackend([])
        decision = dispatch(
            "walter@example.com",
            key(Label.EMAIL, Mode.HYBRID),
            backend=backend,
            catalog=builtin_catalog(),
        )
        assert decision.source is Source.FAKE
        assert backend.prompts == []

    def test_hybrid_requires_backend_and_catalog(self):
        with pytest.raises(ValueError, match="hybrid"):
            dispatch("Walter A", key(Label.PERSON, Mode.HYBRID))

    def test_fake_draw_avoids_identity_and_guard(self):
        # force the guard to exclude the first draw; the redraw reads on
        # from the same seeded stream
        probe = dispatch("x", key(Label.PERSON, Mode.FAKER))
        decision = dispatch(
            "x",
            key(Label.PERSON, Mode.FAKER),
            blocked=ci_any_matcher([probe.surrogate]),
        )
        rng = random.Random(draw_seed(key(Label.PERSON, Mode.FAKER)))
        draws = [fake_value(Label.PERSON, Locale.EN, rng) for _ in range(2)]
        assert probe.surrogate == draws[0]
        assert decision.surrogate == draws[1] != probe.surrogate

    def test_every_fake_path_draws_from_the_keyed_stream(self):
        secret = b"k3y"

        def keyed_first_draw(k):
            rng = random.Random(draw_seed(k, secret))
            return fake_value(k.label, Locale.EN, rng)

        direct = dispatch("x", key(Label.PERSON, Mode.FAKER), fake_secret=secret)
        assert direct.surrogate == keyed_first_draw(key(Label.PERSON, Mode.FAKER))
        structured = dispatch(
            "x",
            key(Label.EMAIL),
            backend=ScriptedBackend([]),
            catalog=builtin_catalog(),
            fake_secret=secret,
        )
        assert structured.surrogate == keyed_first_draw(key(Label.EMAIL))
        fallback = dispatch(
            "Walter Abernathy",
            key(Label.PERSON),
            backend=ScriptedBackend([BackendInvocationError("down")]),
            catalog=builtin_catalog(),
            fake_secret=secret,
        )
        assert fallback.source is Source.FALLBACK_FAKE
        assert fallback.surrogate == keyed_first_draw(key(Label.PERSON))
        assert fallback.surrogate != dispatch(
            "Walter Abernathy",
            key(Label.PERSON),
            backend=ScriptedBackend([BackendInvocationError("down")]),
            catalog=builtin_catalog(),
        ).surrogate

    def test_fake_redraw_exhaustion(self, monkeypatch):
        import piisub.generation as generation

        monkeypatch.setattr(generation, "_MAX_FAKE_REDRAWS", 3)
        monkeypatch.setattr(
            generation, "fake_value", lambda *a, **k: "Constant Name"
        )
        with pytest.raises(RuntimeError, match="no clean fake value"):
            dispatch(
                "x",
                key(Label.PERSON, Mode.FAKER),
                blocked=ci_any_matcher(["Constant Name"]),
            )


def mk_span(text, start, surface, label=Label.PERSON):
    assert text[start : start + len(surface)] == surface
    return PiiSpan(start, start + len(surface), label, surface)


class TestSplice:
    def test_basic_replacement(self):
        text = "Contact Walter Abernathy at dawn."
        span = mk_span(text, 8, "Walter Abernathy")
        assert splice(text, [(span, "Maria Lind")]) == ("Contact Maria Lind at dawn.", [8])

    def test_multiple_spans(self):
        text = "A ate B's lunch, then A left."
        spans = [
            (mk_span(text, 0, "A"), "Xavier"),
            (mk_span(text, 6, "B"), "Yolanda"),
            (mk_span(text, 22, "A"), "Xavier"),
        ]
        out = "Xavier ate Yolanda's lunch, then Xavier left."
        assert splice(text, spans) == (out, [0, 11, 33])

    def test_input_order_does_not_matter(self):
        text = "one two three"
        spans = [
            (mk_span(text, 8, "three"), "3"),
            (mk_span(text, 0, "one"), "1"),
            (mk_span(text, 4, "two"), "2"),
        ]
        # the starts follow the order the replacements are given in
        assert splice(text, spans) == ("1 2 3", [4, 0, 2])
        assert splice(text, list(reversed(spans))) == ("1 2 3", [2, 0, 4])

    def test_whitespace_reattached(self):
        text = "Contact John Smith  today."
        span = mk_span(text, 8, "John Smith  ")
        assert splice(text, [(span, "X")]) == ("Contact X  today.", [8])

    def test_leading_whitespace_reattached(self):
        text = "Hi,\t Bob arrived."
        span = mk_span(text, 3, "\t Bob")
        # the start is past the whitespace the span swallowed
        assert splice(text, [(span, "Yan")]) == ("Hi,\t Yan arrived.", [5])

    def test_whitespace_only_surface_left_alone(self):
        text = "a  b"
        span = PiiSpan(1, 3, Label.PERSON, "  ")
        assert splice(text, [(span, "XX")]) == ("a  b", [1])

    def test_empty_replacements(self):
        assert splice("unchanged", []) == ("unchanged", [])

    @settings(max_examples=200)
    @given(st.data())
    def test_inter_span_bytes_preserved(self, data):
        # random non-overlapping spans over random text; the text between and
        # around spans must survive byte for byte
        text = data.draw(st.text(min_size=0, max_size=80))
        n_spans = data.draw(st.integers(min_value=0, max_value=4))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(text)),
                    min_size=2 * n_spans,
                    max_size=2 * n_spans,
                )
            )
        )
        spans = []
        for i in range(n_spans):
            start, end = cuts[2 * i], cuts[2 * i + 1]
            if start == end:
                continue
            if spans and start < spans[-1][0].end:
                continue
            surface = text[start:end]
            replacement = data.draw(st.text(min_size=0, max_size=10))
            spans.append((PiiSpan(start, end, Label.PERSON, surface), replacement))
        result, _ = splice(text, spans)
        expected = []
        pos = 0
        for span, replacement in spans:
            expected.append(text[pos : span.start])
            stripped = span.surface.strip()
            if not stripped:
                expected.append(span.surface)
            elif stripped == span.surface:
                expected.append(replacement)
            else:
                lead_len = len(span.surface) - len(span.surface.lstrip())
                trail_len = len(span.surface) - len(span.surface.rstrip())
                expected.append(
                    span.surface[:lead_len]
                    + replacement
                    + span.surface[len(span.surface) - trail_len :]
                )
            pos = span.end
        expected.append(text[pos:])
        assert result == "".join(expected)

    @given(st.data())
    def test_spans_resolved_from_any_candidates_splice_as_given(self, data):
        # the splice checks no span: whatever candidates a detector slices,
        # resolve_overlaps hands it spans it can splice (no whitespace here,
        # so every new value replaces its whole surface)
        text = data.draw(st.text("ab東1.-", min_size=1, max_size=24))
        candidates = []
        for _ in range(data.draw(st.integers(0, 8))):
            start = data.draw(st.integers(0, len(text) - 1))
            end = data.draw(st.integers(start + 1, len(text)))
            label = data.draw(st.sampled_from(Label))
            candidates.append(PiiSpan(start, end, label, text[start:end]))
        spans = resolve_overlaps(candidates)
        values = data.draw(
            st.lists(st.text("XY", max_size=3), min_size=len(spans), max_size=len(spans))
        )
        result, starts = splice(text, list(zip(spans, values)))
        expected, pos = [], 0
        for span, value in zip(spans, values):
            expected += [text[pos : span.start], value]
            pos = span.end
        assert result == "".join(expected) + text[pos:]
        assert [result[s : s + len(v)] for s, v in zip(starts, values)] == values


def _splice_right_to_left(text, replacements):
    """The splice that rebuilt the whole string once per span, right to
    left, with its whitespace rule: the reference for the one-join splice
    over valid spans."""

    def with_surface_whitespace(surface, replacement):
        stripped = surface.strip()
        if stripped == surface:
            return replacement
        if not stripped:
            return surface
        lead = surface[: len(surface) - len(surface.lstrip())]
        trail = surface[len(surface.rstrip()) :]
        return lead + replacement + trail

    ordered = sorted(replacements, key=lambda item: (item[0].start, item[0].end))
    out = text
    for span, new_value in reversed(ordered):
        patched = with_surface_whitespace(span.surface, new_value)
        out = out[: span.start] + patched + out[span.end :]
    return out


_SPLICE_TEXT = st.text(st.sampled_from("ab Zé\t\n名"), max_size=6)
_SWALLOWED = st.sampled_from(["", " ", "\t ", "\n", "  "])


@st.composite
def _spliced_text(draw):
    """A text and non-overlapping replacements over it, in any order; spans
    may touch, swallow whitespace on either side or be whitespace only."""
    text = ""
    replacements = []
    for _ in range(draw(st.integers(0, 5))):
        text += draw(_SPLICE_TEXT)
        surface = draw(_SWALLOWED) + draw(_SPLICE_TEXT) + draw(_SWALLOWED)
        if surface:
            span = PiiSpan(len(text), len(text) + len(surface), Label.PERSON, surface)
            replacements.append((span, draw(st.text(max_size=8))))
            text += surface
    text += draw(_SPLICE_TEXT)
    return text, draw(st.permutations(replacements))


@settings(max_examples=300)
@given(_spliced_text())
def test_splice_matches_the_right_to_left_rebuild(case):
    text, replacements = case
    output, _ = splice(text, replacements)
    assert output == _splice_right_to_left(text, replacements)
