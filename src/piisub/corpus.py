"""Corpus I/O and the synthetic document generator.

Synthetic documents are form-like English scaffolds (invoices, paystubs,
tax forms) carrying locale-specific PII values. The source value pools are
deliberately disjoint from both the demonstration pools and the fake-value
tables: source dates sit in the 1970s, demo dates after 2000, generated
fakes after 2019, and the name/street vocabularies do not overlap. A
surrogate therefore never accidentally equals or contains a ground-truth
value.

Each template is one `TEMPLATES` entry: its PII fields in draw order and
its text with a `{slot}` per value. One renderer fills it from the record's
stream: the PII fields first, each distinct from the values its label
already has, then the other slots (invoice number, amount, company, bank)
in order of appearance. Dates go through `fakegen.draw_date` with 1970s
years, in the format of the record's locale.

Every template mentions its person at least twice, so the consistency
metric is defined on essentially every document.
"""

from __future__ import annotations

import json
import math
import random
import string
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .fakegen import draw_date
from .locales import DateFormat
from .model import CorpusRecord, Label

DEFAULT_LOCALE_MIX: dict[str, float] = {
    "en_US": 0.42,
    "en_IN": 0.16,
    "de_DE": 0.12,
    "es_MX": 0.10,
    "ja_JP": 0.10,
    "zh_CN": 0.10,
}


class CorpusFormatError(ValueError):
    """A corpus file entry is structurally invalid; names the record."""


def load_corpus(path: str | Path) -> list[CorpusRecord]:
    """Read a line-delimited corpus file, validating each record. A record
    ends at a newline only: `save_corpus` writes U+2028, U+2029, U+0085 raw."""
    records: list[CorpusRecord] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as lines:
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"record {lineno}: not valid JSON: {exc}") from exc
            if not isinstance(raw, dict):
                raise CorpusFormatError(f"record {lineno}: expected an object")
            for key in ("id", "text", "locale"):
                if not isinstance(raw.get(key), str) or not raw.get(key):
                    raise CorpusFormatError(f"record {lineno}: missing or empty {key!r}")
            if raw["id"] in seen_ids:
                raise CorpusFormatError(f"record {lineno}: duplicate id {raw['id']!r}")
            seen_ids.add(raw["id"])
            gt_raw = raw.get("pii_gt", {})
            if not isinstance(gt_raw, dict):
                raise CorpusFormatError(f"record {lineno}: pii_gt must be an object")
            pii_gt: dict[Label, list[str]] = {}
            for label_name, values in gt_raw.items():
                try:
                    label = Label.from_name(label_name)
                except ValueError as exc:
                    raise CorpusFormatError(f"record {lineno}: {exc}") from exc
                if not isinstance(values, list) or not all(
                    isinstance(v, str) and v for v in values
                ):
                    raise CorpusFormatError(
                        f"record {lineno}: {label_name} values must be non-empty strings"
                    )
                for value in values:
                    if not value.strip():
                        # it could name no entity: canonicalize refuses it
                        raise CorpusFormatError(
                            f"record {lineno}: {label_name} value {value!r} is whitespace only"
                        )
                pii_gt[label] = list(values)
            template = raw.get("template", "")
            if not isinstance(template, str):
                raise CorpusFormatError(f"record {lineno}: template must be a string")
            records.append(
                CorpusRecord(
                    id=raw["id"],
                    text=raw["text"],
                    locale=raw["locale"],
                    template=template,
                    pii_gt=pii_gt,
                )
            )
    return records


def save_corpus(records: Iterable[CorpusRecord], path: str | Path) -> None:
    lines = [
        json.dumps(
            {
                "id": rec.id,
                "text": rec.text,
                "locale": rec.locale,
                "template": rec.template,
                "pii_gt": {label.name: values for label, values in rec.pii_gt.items()},
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        for rec in records
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_EN_US_FIRST = (
    "Walter", "Edith", "Raymond", "Bernice", "Clifford", "Mabel",
    "Russell", "Doreen", "Vernon", "Lucille", "Stanley", "Phyllis",
)
_EN_US_LAST = (
    "Abernathy", "Birchfield", "Crowhurst", "Dunleavy", "Eastwick",
    "Goodwin", "Hargreaves", "Kirkland", "Mansfield", "Oakes",
    "Renshaw", "Thackeray",
)
#: locale -> (first-drawn, second-drawn) name parts; CJK names are written
#: family name first with no space
_NAMES = {
    "en_US": (_EN_US_FIRST, _EN_US_LAST),
    "en_IN": (
        ("Rajesh", "Sunita", "Vikram", "Anita", "Deepak", "Kavita"),
        ("Sharma", "Verma", "Reddy", "Nair", "Banerjee", "Chopra"),
    ),
    # umlauted first names keep the full name routed to the de pool
    "de_DE": (
        ("Jürgen", "Günter", "Sören", "Björn", "Jörg", "Käthe"),
        ("Sauer", "Engel", "Thiele", "Lorenz", "Haas", "Winkler"),
    ),
    "es_MX": (
        ("Ramón", "Inés", "Tomás", "Verónica", "Jesús", "Begoña"),
        ("Quintero", "Bravo", "Palacios", "Serrano", "Duarte", "Olvera"),
    ),
    "ja_JP": (
        ("黒田", "長谷川", "桑原", "三浦", "福田", "小川"),
        ("まこと", "ゆうた", "さとみ", "こうじ", "なおこ", "てつや"),
    ),
    "zh_CN": (
        ("冯", "蒋", "沈", "韩", "杨", "朱"),
        ("天翼", "雪梅", "宏伟", "春燕", "国平", "晓东"),
    ),
}

_EN_US_STREETS = (
    "Keystone Boulevard", "Larch Hollow Road", "Newbury Crossing",
    "Orchard Bend", "Pelican Point Drive", "Quail Run Lane",
)
_EN_US_CITIES = (
    "Dayton OH 45402", "Mesa AZ 85201", "Topeka KS 66603",
    "Norfolk VA 23510", "Eugene OR 97401", "Augusta ME 04330",
)
_EN_IN_STREETS = ("Brigade Road", "Linking Road", "Anna Salai", "Park Street")
_EN_IN_CITIES = (
    "Bengaluru 560001", "Chennai 600002", "Kolkata 700016", "Hyderabad 500001",
)
_DE_STREETS = ("Talstraße", "Wiesenallee", "Feldstraße", "Birkenplatz")
_DE_CITIES = ("50667 Köln", "30159 Hannover", "18055 Rostock", "79098 Freiburg")
_ES_STREETS = ("Pino Suárez", "Matamoros", "Independencia", "Abasolo")
_ES_CITIES = (
    "62000 Cuernavaca", "76000 Querétaro", "50000 Toluca", "29000 Tuxtla",
)
_JA_CITIES = ("熊本市", "新潟市", "金沢市", "松山市")
_JA_WARDS = ("中央区", "花畑区", "青山区", "本町区")
_JA_TOWNS = ("さくらぎ町", "ふじみ野", "あさひ丘", "ことぶき町")
_ZH_CITIES = ("郑州市", "合肥市", "昆明市", "南昌市")
_ZH_DISTRICTS = ("金水区", "蜀山区", "五华区", "红谷滩区")
_ZH_ROADS = ("花园路", "黄山路", "翠湖路", "赣江大道")

_SRC_DOMAINS = ("northmail.com", "cityletter.net", "harborpost.org", "quietpine.com")
_PHONE_CC = {
    "en_US": "1", "en_IN": "91", "de_DE": "49",
    "es_MX": "52", "ja_JP": "81", "zh_CN": "86",
}
_DATE_FORMAT = {
    "en_US": DateFormat.MDY_SLASH,
    "en_IN": DateFormat.DMY_DASH_MON,
    "de_DE": DateFormat.DMY_SLASH,
    "es_MX": DateFormat.DMY_SLASH,
    "ja_JP": DateFormat.YMD_DASH,
    "zh_CN": DateFormat.YMD_DASH,
}
_COMPANIES = (
    "Meridian Holdings", "Cascade Partners", "Beacon Logistics",
    "Summit Works", "Harborline Group", "Crestway Services",
)
_BANKS = ("First Union Trust", "Lakeside Savings", "Pioneer Mutual", "Granite Bank")

# Source years never reach 2000; demo and fake years never go below it.
_SRC_YEARS = (1970, 1979)


def _src_person(rng: random.Random, locale: str) -> str:
    first, second = _NAMES[locale]
    sep = "" if locale in ("ja_JP", "zh_CN") else " "
    return f"{rng.choice(first)}{sep}{rng.choice(second)}"


def _src_address(rng: random.Random, locale: str) -> str:
    if locale == "de_DE":
        return f"{rng.choice(_DE_STREETS)} {rng.randrange(1, 90)}, {rng.choice(_DE_CITIES)}"
    if locale == "es_MX":
        return (
            f"Calle {rng.choice(_ES_STREETS)} {rng.randrange(1, 400)}, "
            f"{rng.choice(_ES_CITIES)}"
        )
    if locale == "ja_JP":
        return (
            f"{rng.choice(_JA_CITIES)}{rng.choice(_JA_WARDS)}{rng.choice(_JA_TOWNS)}"
            f"{rng.randrange(1, 9)}-{rng.randrange(1, 20)}-{rng.randrange(1, 20)}"
        )
    if locale == "zh_CN":
        return (
            f"{rng.choice(_ZH_CITIES)}{rng.choice(_ZH_DISTRICTS)}"
            f"{rng.choice(_ZH_ROADS)}{rng.randrange(1, 200)}号"
        )
    streets, cities = (
        (_EN_IN_STREETS, _EN_IN_CITIES)
        if locale == "en_IN"
        else (_EN_US_STREETS, _EN_US_CITIES)
    )
    return f"{rng.randrange(10, 999)} {rng.choice(streets)}, {rng.choice(cities)}"


def _src_date(rng: random.Random, locale: str) -> str:
    return draw_date(rng, _DATE_FORMAT[locale], _SRC_YEARS)


def _src_email(rng: random.Random, locale: str) -> str:
    first = rng.choice(_EN_US_FIRST).lower()
    last = rng.choice(_EN_US_LAST).lower()
    return f"{first}.{last}{rng.randrange(10, 100)}@{rng.choice(_SRC_DOMAINS)}"


def _src_phone(rng: random.Random, locale: str) -> str:
    return (
        f"+{_PHONE_CC[locale]}-{rng.randrange(200, 990)}-555-"
        f"{rng.randrange(0, 10000):04d}"
    )


def _src_account(rng: random.Random, locale: str) -> str:
    return str(rng.randrange(100_000_000, 500_000_000))


def _src_url(rng: random.Random, locale: str) -> str:
    return (
        f"https://portal.{rng.choice(_SRC_DOMAINS)}/"
        f"{rng.choice(('claims', 'forms', 'login'))}/{rng.randrange(100, 10000)}"
    )


def _src_secret(rng: random.Random, locale: str) -> str:
    return "tok_" + "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=16))


#: PII slot -> (label, draw). Two slots of one label ("date", "date2") draw
#: distinct values.
_PII_SLOTS: dict[str, tuple[Label, Callable[[random.Random, str], str]]] = {
    "person": (Label.PERSON, _src_person),
    "address": (Label.ADDRESS, _src_address),
    "date": (Label.DATE, _src_date),
    "date2": (Label.DATE, _src_date),
    "email": (Label.EMAIL, _src_email),
    "phone": (Label.PHONE, _src_phone),
    "account": (Label.ACCOUNT, _src_account),
    "url": (Label.URL, _src_url),
    "secret": (Label.SECRET, _src_secret),
}

#: The slots that carry no PII.
_OTHER_SLOTS: dict[str, Callable[[random.Random], str]] = {
    "number": lambda rng: str(rng.randrange(1000, 99999)),
    "amount": lambda rng: f"{rng.randrange(120, 9000)}.{rng.randrange(0, 100):02d}",
    "company": lambda rng: rng.choice(_COMPANIES),
    "bank": lambda rng: rng.choice(_BANKS),
}


_FORMATTER = string.Formatter()


class Template(NamedTuple):
    """A document scaffold: its PII slots in draw order, and its text with
    a `{slot}` for every value."""

    fields: tuple[str, ...]
    text: str


TEMPLATES: dict[str, Template] = {
    "invoice": Template(
        ("person", "address", "date", "email", "account", "phone"),
        "INVOICE #{number}\n"
        "Billed to: {person}\n"
        "Address: {address}\n"
        "Issue date: {date}\n"
        "Contact: {email}\n"
        "Amount due: ${amount}\n"
        "Please remit payment to account {account}.\n"
        "Questions? Reach {person} at {phone}.",
    ),
    "paystub": Template(
        ("person", "address", "date", "date2", "account"),
        "PAYSTUB - {company}\n"
        "Employee: {person}\n"
        "Home address: {address}\n"
        "Pay period ending: {date}\n"
        "Net pay: ${amount}\n"
        "Direct deposit to account {account}.\n"
        "This stub was issued to {person} on {date2}.",
    ),
    "bank_statement": Template(
        ("person", "address", "date", "email", "account", "phone"),
        "{bank} MONTHLY STATEMENT\n"
        "Account holder: {person}\n"
        "Account number: {account}\n"
        "Statement date: {date}\n"
        "Mailing address: {address}\n"
        "Closing balance: ${amount}\n"
        "For disputes contact {person} via {email} or call {phone}.",
    ),
    "auto_insurance": Template(
        ("person", "address", "date", "account", "url"),
        "AUTO POLICY DECLARATION\n"
        "Policyholder: {person}\n"
        "Garaging address: {address}\n"
        "Policy effective: {date}\n"
        "Policy number: {account}\n"
        "Premium: ${amount}\n"
        "Claims portal: {url}\n"
        "{person} must report incidents within 30 days.",
    ),
    "mortgage_insurance": Template(
        ("person", "address", "date", "account", "email"),
        "MORTGAGE INSURANCE CERTIFICATE\n"
        "Borrower: {person}\n"
        "Property: {address}\n"
        "Certificate issued: {date}\n"
        "Loan account: {account}\n"
        "Monthly premium: ${amount}\n"
        "Servicer contact: {email}\n"
        "Borrower {person} acknowledges the coverage terms.",
    ),
    "w2": Template(
        ("person", "address", "date", "phone", "email"),
        "FORM W-2 WAGE AND TAX STATEMENT\n"
        "Employee: {person}\n"
        "Employee address: {address}\n"
        "Employer: {company}\n"
        "Issued: {date}\n"
        "Wages: ${amount}\n"
        "Employer contact: {phone}\n"
        "Payroll questions: {email}\n"
        "Copy furnished to {person} for filing.",
    ),
    "ten99": Template(
        ("person", "address", "date", "account", "url", "secret"),
        "FORM 1099-MISC\n"
        "Recipient: {person}\n"
        "Recipient address: {address}\n"
        "Tax year statement issued {date}\n"
        "Payer account: {account}\n"
        "Nonemployee compensation: ${amount}\n"
        "Access your form at {url}\n"
        "API token for e-delivery: {secret}\n"
        "{person} should retain this copy.",
    ),
}


def _render(
    template: Template, rng: random.Random, locale: str
) -> tuple[str, dict[Label, list[str]]]:
    """The template's text and ground truth, drawn as the module says."""
    values: dict[str, str] = {}
    pii_gt: dict[Label, list[str]] = {}
    for name in template.fields:
        label, draw = _PII_SLOTS[name]
        seen = pii_gt.setdefault(label, [])
        value = draw(rng, locale)
        while value in seen:
            value = draw(rng, locale)
        seen.append(value)
        values[name] = value
    for _, name, _, _ in _FORMATTER.parse(template.text):
        if name and name not in values:
            values[name] = _OTHER_SLOTS[name](rng)
    return template.text.format_map(values), pii_gt


def largest_remainder(n: int, weights: dict[str, float]) -> dict[str, int]:
    """Split n into whole counts in proportion to the weights: every key gets
    the floor of its share, and the units left over go to the largest
    remainders, ties broken by key. Keys come out sorted. The weights are
    totalled exactly (`math.fsum`), the same on every interpreter."""
    total = math.fsum(weights.values())
    keys = sorted(weights)
    shares = {key: n * weights[key] / total for key in keys}
    counts = {key: int(shares[key]) for key in keys}
    shortfall = n - sum(counts.values())
    by_remainder = sorted(keys, key=lambda key: (-(shares[key] - counts[key]), key))
    for key in by_remainder[:shortfall]:
        counts[key] += 1
    return counts


def synth_corpus(
    n: int,
    seed: int = 0,
    *,
    locale_mix: dict[str, float] | None = None,
) -> list[CorpusRecord]:
    """Generate n synthetic documents, deterministically in (n, seed, mix)."""
    if n < 0:
        raise ValueError(f"number of records must not be negative, got {n}")
    mix = dict(DEFAULT_LOCALE_MIX if locale_mix is None else locale_mix)
    unknown = set(mix) - set(_PHONE_CC)
    if unknown:
        raise ValueError(f"unsupported locales in mix: {sorted(unknown)}")
    for locale, weight in mix.items():
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(
                f"locale {locale}: weight must be finite and not negative, got {weight}"
            )
    if sum(mix.values()) <= 0:
        raise ValueError("locale mix weights must sum to a positive value")
    rng = random.Random(seed)
    locales = [
        loc for loc, count in largest_remainder(n, mix).items() for _ in range(count)
    ]
    rng.shuffle(locales)
    template_names = sorted(TEMPLATES)
    records: list[CorpusRecord] = []
    for i, locale in enumerate(locales):
        name = template_names[rng.randrange(len(template_names))]
        text, pii_gt = _render(TEMPLATES[name], rng, locale)
        records.append(
            CorpusRecord(
                id=f"doc-{i:04d}",
                text=text,
                locale=locale,
                template=name,
                pii_gt=pii_gt,
            )
        )
    return records
