"""Deterministic fake-value generation for the non-model substitution path.

Values are composed from fixed word tables via a seeded PRNG. Each cache key
seeds its own stream (`draw_seed`), so a key's value is a pure function of
the key and the fake-value secret: it does not depend on which document
proposes it first, on the order of the records, or on how many workers run
them. With a secret the seed is an HMAC keyed by it, so without the secret
a fake value says nothing about the real value it replaced. With the empty
secret the seed is a plain hash: anyone holding this code can recompute the
fake of a guessed real value, and one real value gets the same fake in every
run.

The tables are chosen to be disjoint from both the demonstration pools and
the synthetic-corpus source pools: fake date years sit in 2020-2039, name
and street vocabularies do not overlap. That keeps leak-guard redraws rare;
the guard in the pipeline is still the hard enforcement.
"""

from __future__ import annotations

import hmac
import random
from json.encoder import encode_basestring

from .locales import DateFormat, Locale
from .model import CacheKey, Label
from .prompting import stable_seed


def draw_seed(key: CacheKey, secret: bytes = b"") -> int:
    """Seed of the fake-draw stream for one cache key.

    The key's fields are JSON-encoded so that no two keys share a message,
    whatever text a family or canonical form holds: the message is
    `json.dumps(["fake", mode, family, label, canonical],
    ensure_ascii=False)`, each string through the encoder it uses. The seed
    is the big-endian head of the message's HMAC-SHA256 keyed by `secret`,
    or, with no secret, the project's unkeyed `stable_seed` of it.
    """
    fields = (key.mode.value, key.family, key.label.name, key.canonical)
    message = '["fake", ' + ", ".join(map(encode_basestring, fields)) + "]"
    if not secret:
        return stable_seed(message)
    digest = hmac.digest(secret, message.encode("utf-8"), "sha256")
    return int.from_bytes(digest[:8], "big")


_FIRST = {
    Locale.EN: (
        "Aiden", "Brooke", "Caleb", "Dana", "Elliot", "Felicia", "Grant",
        "Harper", "Isaac", "Jocelyn", "Kendall", "Logan", "Margot", "Nolan",
        "Paige", "Quentin",
    ),
    Locale.DE: (
        "Matthias", "Friederike", "Wolfgang", "Annelie", "Sebastian",
        "Katharina", "Tobias", "Marlene", "Johann", "Gisela",
    ),
    Locale.ES: (
        "Mateo", "Valentina", "Andrés", "Camila", "Rodrigo", "Isabela",
        "Joaquín", "Renata", "Emilio", "Catalina",
    ),
}

_LAST = {
    Locale.EN: (
        "Ashford", "Boyle", "Calloway", "Druitt", "Ellery", "Fontaine",
        "Garrick", "Holloway", "Ingram", "Jarvis", "Kessler", "Lockwood",
        "Mercer", "Norwood", "Pemberley", "Quimby",
    ),
    Locale.DE: (
        "Eichel", "Brandt", "Falkner", "Grünewald", "Hartmann", "Lindner",
        "Vogel", "Seidel", "Krause", "Albrecht",
    ),
    Locale.ES: (
        "Paredes", "Villanueva", "Cordero", "Saldaña", "Esquivel", "Montoya",
        "Arellano", "Zepeda", "Fuentes", "Carrasco",
    ),
}

_JA_FAMILY = ("藤本", "大野", "柴田", "宮崎", "石井", "村上", "谷口", "岡田")
_JA_GIVEN = ("ひかる", "つばさ", "れん", "あおい", "みずき", "そら", "かなで", "いつき")
_ZH_FAMILY = ("何", "罗", "高", "林", "郭", "曹", "董", "袁")
_ZH_GIVEN = ("建华", "秀兰", "志强", "桂英", "文杰", "丽华", "国栋", "雅静")

_EN_STREETS = (
    "Alder Row", "Bristlecone Avenue", "Copperfield Lane", "Dunmore Street",
    "Elmwood Drive", "Fairholm Road", "Gladstone Court", "Hollis Way",
    "Ivybridge Terrace", "Juniper Close",
)
_EN_CITIES = (
    "Fairview OH 44126", "Brookhaven NY 11719", "Lakewood CO 80226",
    "Riverton UT 84065", "Ashland OR 97520", "Dunwoody GA 30338",
    "Mill Valley CA 94941", "New Paltz NY 12561",
)
_DE_STREETS = (
    "Amselstraße", "Buchenallee", "Dorfstraße", "Eschenplatz",
    "Fliederstraße", "Ginsterallee",
)
_DE_CITIES = (
    "04103 Leipzig", "90402 Nürnberg", "39104 Magdeburg", "99084 Erfurt",
    "24103 Kiel", "55116 Mainz",
)
_ES_STREET_TYPES = ("Calle", "Avenida")
_ES_STREET_NAMES = ("Libertad", "Primavera", "Del Sol", "Mirador", "Esperanza", "Las Flores")
_ES_CITIES = (
    "20000 Aguascalientes", "83000 Hermosillo", "91000 Xalapa",
    "58000 Morelia", "31000 Chihuahua", "97000 Mérida",
)
_JA_CITIES = ("川崎市", "北九州市", "浜松市", "岡山市")
_JA_WARDS = ("東区", "西区", "南区", "北区")
_JA_TOWNS = ("もみじ町", "ひばり台", "こすもす通り", "わかば町")
_ZH_CITIES = ("长沙市", "青岛市", "大连市", "厦门市")
_ZH_DISTRICTS = ("岳麓区", "市南区", "甘井子区", "思明区")
_ZH_ROADS = ("湘江路", "海风路", "星海路", "环岛路")

_DOMAINS = (
    "vexmail.com", "fastpigeon.net", "bluequill.org", "driftpost.io",
    "plumecourier.com", "glasswing.net",
)
_URL_PATHS = ("portal", "account", "docs", "billing", "status")
_MONTHS_ABBR = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_MONTHS_FULL = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)

# Fake years never overlap synthetic source years (<2000) or demo years.
_FAKE_YEARS = (2020, 2039)


def _fake_person(rng: random.Random, locale: Locale) -> str:
    if locale is Locale.JA:
        return rng.choice(_JA_FAMILY) + rng.choice(_JA_GIVEN)
    if locale is Locale.ZH:
        return rng.choice(_ZH_FAMILY) + rng.choice(_ZH_GIVEN)
    pool = locale if locale in _FIRST else Locale.EN
    return f"{rng.choice(_FIRST[pool])} {rng.choice(_LAST[pool])}"


def _fake_address(rng: random.Random, locale: Locale) -> str:
    if locale is Locale.DE:
        return (
            f"{rng.choice(_DE_STREETS)} {rng.randrange(1, 120)}, "
            f"{rng.choice(_DE_CITIES)}"
        )
    if locale is Locale.ES:
        return (
            f"{rng.choice(_ES_STREET_TYPES)} {rng.choice(_ES_STREET_NAMES)} "
            f"{rng.randrange(1, 500)}, {rng.choice(_ES_CITIES)}"
        )
    if locale is Locale.JA:
        return (
            f"{rng.choice(_JA_CITIES)}{rng.choice(_JA_WARDS)}{rng.choice(_JA_TOWNS)}"
            f"{rng.randrange(1, 9)}-{rng.randrange(1, 20)}-{rng.randrange(1, 20)}"
        )
    if locale is Locale.ZH:
        return (
            f"{rng.choice(_ZH_CITIES)}{rng.choice(_ZH_DISTRICTS)}"
            f"{rng.choice(_ZH_ROADS)}{rng.randrange(1, 300)}号"
        )
    return (
        f"{rng.randrange(100, 9999)} {rng.choice(_EN_STREETS)}, "
        f"{rng.choice(_EN_CITIES)}"
    )


def draw_date(rng: random.Random, fmt: DateFormat, years: tuple[int, int]) -> str:
    """A date in the format, its year drawn from the inclusive range, then
    its month, then its day."""
    year = rng.randrange(years[0], years[1] + 1)
    month = rng.randrange(1, 13)
    if fmt is DateFormat.YMD_DASH:
        return f"{year}-{month:02d}-{rng.randrange(1, 29):02d}"
    if fmt is DateFormat.DMY_DASH_MON:
        return f"{rng.randrange(1, 29):02d}-{_MONTHS_ABBR[month - 1]}-{year}"
    if fmt is DateFormat.DMY_SLASH:
        # day must exceed 12 or the rendering reads as month-first
        return f"{rng.randrange(13, 29):02d}/{month:02d}/{year}"
    if fmt is DateFormat.UNKNOWN:
        return f"{_MONTHS_FULL[month - 1]} {rng.randrange(1, 29)}, {year}"
    return f"{month:02d}/{rng.randrange(1, 29):02d}/{year}"


def fake_value(
    label: Label,
    locale: Locale,
    rng: random.Random,
    *,
    date_format: DateFormat | None = None,
) -> str:
    """Draw one fake value shaped like the label (and locale, where it applies)."""
    if label is Label.PERSON:
        return _fake_person(rng, locale)
    if label is Label.ADDRESS:
        return _fake_address(rng, locale)
    if label is Label.DATE:
        return draw_date(rng, date_format or DateFormat.MDY_SLASH, _FAKE_YEARS)
    if label is Label.EMAIL:
        # ASCII only: accented locale names would not survive re-detection
        first = rng.choice(_FIRST[Locale.EN]).lower()
        last = rng.choice(_LAST[Locale.EN]).lower()
        return f"{first}.{last}{rng.randrange(10, 100)}@{rng.choice(_DOMAINS)}"
    if label is Label.PHONE:
        return f"({rng.randrange(200, 990)}) 555-{rng.randrange(0, 10000):04d}"
    if label is Label.ACCOUNT:
        return str(rng.randrange(6_000_000_000, 9_000_000_000))
    if label is Label.URL:
        return (
            f"https://{rng.choice(_DOMAINS)}/{rng.choice(_URL_PATHS)}/"
            f"{rng.randrange(100, 10000)}"
        )
    if label is Label.SECRET:
        return "sk_" + "".join(rng.choices("0123456789abcdef", k=20))
    raise ValueError(f"no fake generator for label {label!r}")
