import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piisub.model import (
    CorpusRecord,
    EmptyCanonical,
    EntityGroup,
    Label,
    Mode,
    PiiSpan,
    RejectionReason,
    Source,
    SurrogateDecision,
    canonicalize,
    ci_any_matcher,
    ci_fold,
    folded_contains,
    folded_occurrences,
    run_command,
    split_command,
)


class TestCanonicalize:
    def test_casefold_trim_collapse(self):
        assert canonicalize("  John   SMITH ") == "john smith"
        assert canonicalize("Hans\tMüller\n") == "hans müller"
        assert canonicalize("ß") == "ss"  # casefold, not lower

    def test_whitespace_only_raises(self):
        with pytest.raises(EmptyCanonical):
            canonicalize("   \t\n")
        with pytest.raises(EmptyCanonical):
            canonicalize("")

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_idempotent(self, text):
        once = canonicalize(text)
        assert canonicalize(once) == once

    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_no_edge_or_double_whitespace(self, text):
        out = canonicalize(text)
        assert out == out.strip()
        assert "  " not in out


class TestSpans:
    def test_valid_span(self):
        span = PiiSpan(3, 7, Label.PERSON, "abcd")
        assert span.end - span.start == 4

    @pytest.mark.parametrize("start,end", [(-1, 3), (5, 5), (7, 2)])
    def test_bad_offsets(self, start, end):
        with pytest.raises(ValueError):
            PiiSpan(start, end, Label.PERSON, "x" * max(end - start, 1))

    def test_surface_width_mismatch(self):
        with pytest.raises(ValueError):
            PiiSpan(0, 4, Label.PERSON, "abc")

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            EntityGroup(canonical="x", label=Label.PERSON, members=())


class TestSurrogateDecision:
    def test_valid_variants(self):
        SurrogateDecision("x", Source.SLM, demos_used=("a", "b", "c"))
        SurrogateDecision(
            "x", Source.FALLBACK_FAKE, rejection_reasons=(RejectionReason.IDENTITY,)
        )
        SurrogateDecision("[PERSON]", Source.REDACT)
        SurrogateDecision("x", Source.FAKE)


def re_spans(needle, haystack):
    """The reference: `re`'s own case-insensitive literal search."""
    if not needle:
        return []
    return [m.span() for m in re.finditer(re.escape(needle), haystack, re.I)]


# Every character that str.lower or str.upper changes, below U+20000: a
# superset of what re.IGNORECASE treats as cased.
_CASED = "".join(
    ch for ch in map(chr, range(0x20000)) if ch.lower() != ch or ch.upper() != ch
)


class TestCiFold:
    def test_fold_classes_equal_re_ignorecase(self):
        # per cased character, re.IGNORECASE matches exactly the characters
        # that fold alike; this reads the running interpreter's tables
        folded = ci_fold(_CASED)
        assert len(folded) == len(_CASED)
        classes: dict[str, set[str]] = {}
        for ch, f in zip(_CASED, folded):
            classes.setdefault(f, set()).add(ch)
        for ch, f in zip(_CASED, folded):
            matched = {m.group() for m in re.finditer(re.escape(ch), _CASED, re.I)}
            assert matched == classes[f], (hex(ord(ch)), sys.version)

    def test_uncased_characters_fold_to_themselves(self):
        cased = set(_CASED)
        uncased = "".join(ch for ch in map(chr, range(0x20000)) if ch not in cased)
        assert ci_fold(uncased) == uncased


class TestCiSearch:
    def test_case_insensitive(self):
        folded = ci_fold("Walter met WALTER")
        assert list(folded_occurrences("walter", folded)) == [(0, 6), (11, 17)]
        assert folded_contains("MÜLLER", ci_fold("Hans Müller"))

    def test_metacharacters_are_literal(self):
        assert not folded_contains("a.b", ci_fold("axb"))
        assert folded_contains("a.b", ci_fold("xa.by"))
        assert folded_contains("(403)", ci_fold("call (403) now"))

    def test_occurrences_do_not_overlap(self):
        assert list(folded_occurrences("aA", ci_fold("aAaaA"))) == [(0, 2), (2, 4)]
        assert list(folded_occurrences("ſs", ci_fold("SSSS"))) == re_spans("ſs", "SSSS")

    def test_empty_needle_matches_nothing(self):
        assert list(folded_occurrences("", ci_fold("anything"))) == []
        assert not folded_contains("", ci_fold("anything"))

    @given(st.text(min_size=1, max_size=8), st.text(max_size=40))
    def test_spans_cover_needle_length(self, needle, haystack):
        for start, end in folded_occurrences(needle, ci_fold(haystack)):
            assert end - start == len(needle)
            # not casefold: re.IGNORECASE matches ı with i, casefold does not
            assert re.fullmatch(re.escape(needle), haystack[start:end], re.I)

    @settings(max_examples=300)
    @given(st.data())
    def test_occurrences_equal_re_finditer(self, data):
        text = data.draw(_occurrence_text)
        needle = data.draw(_occurrence_needle)
        if text and data.draw(st.booleans()):
            # a needle cut from the text, so that most examples do match
            i = data.draw(st.integers(0, len(text) - 1))
            j = data.draw(st.integers(i, min(len(text), i + 4)))
            recase = data.draw(st.sampled_from([str.upper, str.lower, str]))
            needle = recase(text[i:j])
        assert list(folded_occurrences(needle, ci_fold(text))) == re_spans(needle, text)
        assert folded_contains(needle, ci_fold(text)) == bool(re_spans(needle, text))


# Latin with diacritics, kana, Han, casefold edge cases (sharp s, long s,
# Kelvin sign, dotted/dotless i), regex metacharacters and whitespace.
_MATCHER_ALPHABET = "abeksuAEKSUéÉüÜßẞſ\u212aİıiIあアカ山田.(+ \t"
_matcher_text = st.text(alphabet=_MATCHER_ALPHABET, max_size=30)
_matcher_needle = st.text(alphabet=_MATCHER_ALPHABET, max_size=6)
# plus the characters whose re.IGNORECASE class holds more than one lower
# case form (final sigma, iota with dialytika and tonos, the s-t ligatures)
# and Cherokee, whose lower case letters sort after the upper case ones
_OCCURRENCE_ALPHABET = _MATCHER_ALPHABET + "σςΣ\u0390\u1fd3\ufb05\ufb06ᎠꭰᏸᏰ"
_occurrence_text = st.text(alphabet=_OCCURRENCE_ALPHABET, max_size=30)
_occurrence_needle = st.text(alphabet=_OCCURRENCE_ALPHABET, max_size=4)


class TestCiAnyMatcher:
    """Reference: one `re.search` per needle, the scan the matcher replaces."""

    def test_empty_set_never_matches(self):
        assert not ci_any_matcher(frozenset())("anything")
        assert not ci_any_matcher(frozenset())("")
        assert not ci_any_matcher(frozenset({""}))("anything")

    def test_shorter_needle_covers_its_extensions(self):
        match = ci_any_matcher(frozenset({"Abc", "ab", "abd"}))
        assert match("xAB")
        assert match("aBd")
        assert not match("a b")

    @pytest.mark.parametrize(
        "needles",
        [
            ["k"],  # one character: the head is the whole needle
            ["K", "ab"],
            ["ab", "Ab", "ı"],
            ["ab", "abc", "abé", "abcde"],  # one head, several lengths
            ["ab", "aB山", "ba", "ßa"],  # a needle that is exactly a head
            ["abc", "abd", "abcd", "xy"],
            ["abc", "abde", "xy"],  # the longer needle behind a shared head
            ["山田", "山田さ", "アカ"],
        ],
        ids=",".join,
    )
    def test_short_needles_and_shared_heads(self, needles):
        match = ci_any_matcher(needles)
        texts = [
            "", "a", "k", "K", "\u212a", "xab", "XAB.", "zabc", "zABÉ", "b a",
            "ba", "aB", "zzßA", "ssa", "ᴋ", "İ", "i", "山", "田山田", "あ山田さ",
            "アカ", "abcdx", "x y", "xY", "zABDE", "abd",
        ]
        for text in texts:
            expected = any(re_spans(v, text) for v in needles)
            assert match(text) == expected, text

    @settings(max_examples=300)
    @given(
        text=_matcher_text,
        short=st.lists(
            st.text(alphabet=_MATCHER_ALPHABET, min_size=1, max_size=2), max_size=3
        ),
        tails=st.lists(_matcher_needle, max_size=4),
        keep_short=st.booleans(),
    )
    def test_heads_shared_by_longer_needles(self, text, short, tails, keep_short):
        # every long needle starts with a short string, so heads are shared;
        # without the short strings themselves, a head can lead only to
        # longer needles
        needles = {head + tail for head in short for tail in tails}
        if keep_short:
            needles |= set(short)
        expected = any(re_spans(v, text) for v in needles)
        assert ci_any_matcher(needles)(text) == expected

    @settings(max_examples=300)
    @given(st.data())
    def test_equals_per_needle_scan(self, data):
        text = data.draw(_matcher_text)
        needles = data.draw(st.lists(_matcher_needle, max_size=8))
        # needles that share prefixes with each other and occur in the text
        for needle in list(needles):
            needles.append(needle[: data.draw(st.integers(0, len(needle)))])
        if text:
            i = data.draw(st.integers(0, len(text) - 1))
            j = data.draw(st.integers(i, len(text)))
            recase = data.draw(st.sampled_from([str.upper, str.lower, str]))
            needles.append(recase(text[i:j]))
        values = frozenset(needles)
        expected = any(re_spans(v, text) for v in values)
        assert ci_any_matcher(values)(text) == expected


def test_gt_values_flatten_in_label_order():
    rec = CorpusRecord(
        id="r1",
        text="?",
        locale="en_US",
        template="t",
        pii_gt={
            Label.DATE: ["04/12/1975"],
            Label.PERSON: ["Walter Abernathy"],
        },
    )
    # Label declaration order: PERSON before DATE
    assert rec.gt_values() == ["Walter Abernathy", "04/12/1975"]


def test_mode_from_name():
    assert Mode.from_name("REDACT") is Mode.REDACT
    assert Mode.from_name("faker") is Mode.FAKER
    with pytest.raises(ValueError):
        Mode.from_name("shred")


def test_label_from_name():
    assert Label.from_name("PERSON") is Label.PERSON
    with pytest.raises(ValueError):
        Label.from_name("person")


class TestSplitCommand:
    def test_splits_like_a_shell(self):
        assert split_command("backend", "sh -c 'echo {prompt}'") == ["sh", "-c", "echo {prompt}"]

    @pytest.mark.parametrize(
        "template, message",
        [
            ("echo '{prompt}", "backend command \"echo '{prompt}\": No closing quotation"),
            ("  ", "empty backend command"),
        ],
    )
    def test_a_template_without_words_is_refused(self, template, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            split_command("backend", template)


class TestRunCommand:
    PYTHON = [sys.executable, "-c"]

    def test_arguments_stdin_and_stdout_are_utf8(self):
        script = (
            "import sys; data = sys.stdin.buffer.read(); "
            "sys.stdout.buffer.write(sys.argv[1].encode('utf-8') + b'|' + data)"
        )
        assert run_command([*self.PYTHON, script, "Müller"], "藤本", 10) == "Müller|藤本"

    def test_stdin_is_a_pipe_of_its_own(self):
        script = "import sys; print(repr(sys.stdin.read()))"
        assert run_command([*self.PYTHON, script], "", 10) == "''\n"

    def test_a_nonzero_exit_raises_with_the_first_stderr_line(self):
        script = "import sys; sys.stderr.write('model exploded\\nmore\\n'); sys.exit(3)"
        with pytest.raises(OSError, match="^exit 3: model exploded$"):
            run_command([*self.PYTHON, script], "", 10)

    def test_a_command_that_cannot_start_raises(self):
        with pytest.raises(OSError, match="cannot run /no/such/binary"):
            run_command(["/no/such/binary"], "", 10)

    def test_a_timeout_raises(self):
        with pytest.raises(OSError, match="timed out after 0.2 s"):
            run_command([*self.PYTHON, "import time; time.sleep(30)"], "", 0.2)

    def test_stdout_that_is_not_utf8_raises(self):
        script = "import sys; sys.stdout.buffer.write(b'\\377')"
        with pytest.raises(UnicodeDecodeError):
            run_command([*self.PYTHON, script], "", 10)
