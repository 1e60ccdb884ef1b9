"""Script- and keyword-based locale routing for demonstration pools.

The classifier is a fixed-precedence heuristic, not a language identifier:
four compiled searches run in order (kana, Han, German characters and
keywords, Spanish characters and keywords) and the first that finds
anything names the locale; English is the fallback. Known consequence:
Japanese written without any kana (kanji-only names) routes to zh; callers
treat that as the documented behavior, and the shipped Japanese pools carry
kana so they route to themselves.
"""

from __future__ import annotations

import re
from enum import Enum


class Locale(Enum):
    EN = "en"
    DE = "de"
    ES = "es"
    JA = "ja"
    ZH = "zh"


class DateFormat(Enum):
    MDY_SLASH = "mdy_slash"
    YMD_DASH = "ymd_dash"
    DMY_DASH_MON = "dmy_dash_mon"
    DMY_SLASH = "dmy_slash"
    UNKNOWN = "unknown"


# Case-sensitive substrings. Address terms use substring matching on purpose:
# German street words are compound suffixes (Hauptstraße, Marienplatz). The
# surname tokens are the smallest additions under which every built-in demo
# string routes to its own pool.
_DE_KEYWORDS = (
    "straße", "Straße", "platz", "allee", "GmbH",
    "Schmidt", "Becker", "Hoffmann", "Wagner", "Weber",
    "Neumann", "Fischer", "Bauer", "Zimmermann", "Klein",
)
_ES_KEYWORDS = (
    "Calle", "Avenida", "Colonia",
    "Ortiz", "Castillo", "Morales", "Aguilar",
)

#: (search, locale) in precedence order: the first search that finds
#: anything in a string names its locale.
_LOCALE_SEARCHES = (
    (re.compile("[\u3040-\u30ff]"), Locale.JA),  # hiragana and katakana
    (re.compile("[\u4e00-\u9fff]"), Locale.ZH),  # CJK unified ideographs
    (re.compile("|".join(["[äöüßÄÖÜ]", *map(re.escape, _DE_KEYWORDS)])), Locale.DE),
    (re.compile("|".join(["[áéíóúñÑ¿¡]", *map(re.escape, _ES_KEYWORDS)])), Locale.ES),
)


def classify_locale(text: str) -> Locale:
    """Route a surface string to a demonstration-pool locale.

    Precedence is literal and ordered: kana beats Han beats German beats
    Spanish beats the English fallback. Total over all strings.
    """
    for search, locale in _LOCALE_SEARCHES:
        if search.search(text):
            return locale
    return Locale.EN


_RE_DMY_MON = re.compile(r"\d{1,2}-[A-Za-z]{3}-\d{4}")
_RE_YMD = re.compile(r"\d{4}-\d{1,2}-\d{1,2}")
_RE_SLASH = re.compile(r"(\d{1,2})/\d{1,2}/\d{4}")


def classify_date_format(text: str) -> DateFormat:
    """Assign a date surface to one of four shape classes, else UNKNOWN.

    Slash dates disambiguate on the first field: a value over 12 cannot be a
    month, so it is read day-first; anything else defaults to month-first.
    """
    value = text.strip()
    if _RE_DMY_MON.fullmatch(value):
        return DateFormat.DMY_DASH_MON
    if _RE_YMD.fullmatch(value):
        return DateFormat.YMD_DASH
    m = _RE_SLASH.fullmatch(value)
    if m:
        return DateFormat.DMY_SLASH if int(m.group(1)) > 12 else DateFormat.MDY_SLASH
    return DateFormat.UNKNOWN
