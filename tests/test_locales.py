from hypothesis import given
from hypothesis import strategies as st

from piisub import corpus, fakegen
from piisub.locales import (
    _DE_KEYWORDS,
    _ES_KEYWORDS,
    DateFormat,
    Locale,
    classify_date_format,
    classify_locale,
)

# Reference: the per-character loop that `classify_locale` replaced, kept
# verbatim (with its own copies of the character sets and keywords) so the
# compiled searches are pinned to it.
_HIRAGANA = (0x3040, 0x309F)
_KATAKANA = (0x30A0, 0x30FF)
_HAN = (0x4E00, 0x9FFF)
_DE_CHARS = frozenset("äöüßÄÖÜ")
_ES_CHARS = frozenset("áéíóúñÑ¿¡")
_REF_DE_KEYWORDS = (
    "straße", "Straße", "platz", "allee", "GmbH",
    "Schmidt", "Becker", "Hoffmann", "Wagner", "Weber",
    "Neumann", "Fischer", "Bauer", "Zimmermann", "Klein",
)
_REF_ES_KEYWORDS = (
    "Calle", "Avenida", "Colonia",
    "Ortiz", "Castillo", "Morales", "Aguilar",
)


def _in_range(ch, bounds):
    return bounds[0] <= ord(ch) <= bounds[1]


def reference_classify_locale(text):
    has_han = False
    for ch in text:
        if _in_range(ch, _HIRAGANA) or _in_range(ch, _KATAKANA):
            return Locale.JA
        if not has_han and _in_range(ch, _HAN):
            has_han = True
    if has_han:
        return Locale.ZH
    if any(ch in _DE_CHARS for ch in text) or any(k in text for k in _REF_DE_KEYWORDS):
        return Locale.DE
    if any(ch in _ES_CHARS for ch in text) or any(k in text for k in _REF_ES_KEYWORDS):
        return Locale.ES
    return Locale.EN


def _strings_in(value):
    """Every string inside a (nested) table of strings."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _strings_in(item)
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from _strings_in(item)


#: Code points on both sides of every range edge, and the cue characters.
_EDGE_CHARS = [
    chr(cp)
    for lo, hi in (_HIRAGANA, _KATAKANA, _HAN)
    for cp in (lo - 1, lo, lo + 1, hi - 1, hi, hi + 1)
] + sorted(_DE_CHARS | _ES_CHARS)
_KEYWORD_PIECES = [
    piece
    for k in _REF_DE_KEYWORDS + _REF_ES_KEYWORDS
    for piece in (k, k[1:], k[:-1], k.lower(), k.upper())
]


class TestClassifyLocale:
    def test_kana_routes_ja(self):
        assert classify_locale("山田さくら") is Locale.JA
        assert classify_locale("カタカナ") is Locale.JA

    def test_kana_beats_han(self):
        # mixed kanji+kana is Japanese even though kanji alone would be zh
        assert classify_locale("東京都渋谷区さくら通り") is Locale.JA

    def test_han_only_routes_zh(self):
        assert classify_locale("李伟") is Locale.ZH
        assert classify_locale("山田") is Locale.ZH  # kanji-only name: documented limit

    def test_german_chars_and_keywords(self):
        assert classify_locale("Hans Müller") is Locale.DE
        assert classify_locale("Hauptstraße 45, Berlin") is Locale.DE
        assert classify_locale("Karl Schmidt") is Locale.DE  # surname keyword

    def test_spanish_chars_and_keywords(self):
        assert classify_locale("José García") is Locale.ES
        assert classify_locale("Calle Reforma 123") is Locale.ES
        assert classify_locale("Carmen Ortiz") is Locale.ES

    def test_german_beats_spanish(self):
        # both cues present: de wins by precedence
        assert classify_locale("Müller en la Calle Mayor") is Locale.DE

    def test_fallback_en(self):
        assert classify_locale("John Carter") is Locale.EN
        assert classify_locale("1234") is Locale.EN
        assert classify_locale("") is Locale.EN

    @given(st.text(max_size=60))
    def test_total(self, text):
        assert classify_locale(text) in Locale


class TestClassifyLocaleEqualsTheCharacterLoop:
    def test_keywords_are_the_reference_keywords(self):
        assert _DE_KEYWORDS == _REF_DE_KEYWORDS
        assert _ES_KEYWORDS == _REF_ES_KEYWORDS

    def test_every_code_point_from_u3000_to_ua0ff(self):
        for cp in range(0x3000, 0xA100):
            ch = chr(cp)
            for text in (ch, f"Calle {ch} ä", f"x{ch}"):
                assert classify_locale(text) is reference_classify_locale(text), hex(cp)

    def test_cue_characters_and_keyword_fragments(self):
        for text in _EDGE_CHARS + _KEYWORD_PIECES:
            for padded in (text, f" {text} ", f"John {text}x"):
                assert classify_locale(padded) is reference_classify_locale(padded), padded

    @given(
        st.lists(
            st.sampled_from(_EDGE_CHARS + _KEYWORD_PIECES)
            | st.text(alphabet="aAeEnNsStT 0-", max_size=3)
            | st.characters(min_codepoint=0x3000, max_codepoint=0xA0FF),
            max_size=8,
        ).map("".join)
    )
    def test_strings_built_around_the_edges(self, text):
        assert classify_locale(text) is reference_classify_locale(text)

    @given(st.text(max_size=40))
    def test_any_text(self, text):
        assert classify_locale(text) is reference_classify_locale(text)

    def test_every_pool_corpus_and_fake_table_string(self, catalog):
        strings = set()
        for module in (corpus, fakegen):
            for name, value in vars(module).items():
                if name.startswith("_") and not callable(value):
                    strings.update(_strings_in(value))
        for _, demos in catalog.iter_named_demo_sets():
            for demo in demos:
                strings.update((demo.real, demo.fake))
        for rec in corpus.synth_corpus(300, seed=1):
            strings.add(rec.text)
            strings.update(rec.gt_values())
        assert len(strings) > 2000
        for text in strings:
            assert classify_locale(text) is reference_classify_locale(text), text


class TestClassifyDateFormat:
    def test_four_shapes(self):
        assert classify_date_format("04/12/1975") is DateFormat.MDY_SLASH
        assert classify_date_format("25/04/1975") is DateFormat.DMY_SLASH
        assert classify_date_format("1975-04-12") is DateFormat.YMD_DASH
        assert classify_date_format("12-Apr-1975") is DateFormat.DMY_DASH_MON

    def test_slash_disambiguation_on_first_field(self):
        # 12 could be a month -> month-first by default; 13 cannot
        assert classify_date_format("12/01/1975") is DateFormat.MDY_SLASH
        assert classify_date_format("13/01/1975") is DateFormat.DMY_SLASH

    def test_whitespace_tolerated(self):
        assert classify_date_format("  1975-04-12 ") is DateFormat.YMD_DASH

    def test_unknown(self):
        assert classify_date_format("March 3, 1975") is DateFormat.UNKNOWN
        assert classify_date_format("1975/04/12") is DateFormat.UNKNOWN
        assert classify_date_format("not a date") is DateFormat.UNKNOWN
        assert classify_date_format("04/12/1975 extra") is DateFormat.UNKNOWN

    @given(st.text(max_size=40))
    def test_total(self, text):
        assert classify_date_format(text) in DateFormat
