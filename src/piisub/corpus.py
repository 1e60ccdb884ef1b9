"""Corpus I/O and the synthetic document generator.

Synthetic documents are form-like English scaffolds (invoices, paystubs,
tax forms) carrying locale-specific PII values. The source value pools are
deliberately disjoint from both the demonstration pools and the fake-value
tables: source dates sit in the 1970s, demo dates after 2000, generated
fakes after 2019, and the name/street vocabularies do not overlap. A
surrogate therefore never accidentally equals or contains a ground-truth
value.

Every template mentions its person at least twice, so the consistency
metric is defined on essentially every document.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Callable, Iterable

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
    """Read a line-delimited corpus file, validating each record."""
    records: list[CorpusRecord] = []
    seen_ids: set[str] = set()
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
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
            pii_gt[label] = list(values)
        records.append(
            CorpusRecord(
                id=raw["id"],
                text=raw["text"],
                locale=raw["locale"],
                template=str(raw.get("template", "")),
                pii_gt=pii_gt,
            )
        )
    return records


def save_corpus(records: Iterable[CorpusRecord], path: str | Path) -> None:
    lines = []
    for rec in records:
        lines.append(
            json.dumps(
                {
                    "id": rec.id,
                    "text": rec.text,
                    "locale": rec.locale,
                    "template": rec.template,
                    "pii_gt": {
                        label.name: list(values)
                        for label, values in sorted(
                            rec.pii_gt.items(), key=lambda kv: kv[0].name
                        )
                    },
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
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
_EN_IN_FIRST = ("Rajesh", "Sunita", "Vikram", "Anita", "Deepak", "Kavita")
_EN_IN_LAST = ("Sharma", "Verma", "Reddy", "Nair", "Banerjee", "Chopra")
# umlauted first names keep the full name routed to the de pool
_DE_FIRST = ("Jürgen", "Günter", "Sören", "Björn", "Jörg", "Käthe")
_DE_LAST = ("Sauer", "Engel", "Thiele", "Lorenz", "Haas", "Winkler")
_ES_FIRST = ("Ramón", "Inés", "Tomás", "Verónica", "Jesús", "Begoña")
_ES_LAST = ("Quintero", "Bravo", "Palacios", "Serrano", "Duarte", "Olvera")
_JA_FAMILY = ("黒田", "長谷川", "桑原", "三浦", "福田", "小川")
_JA_GIVEN = ("まこと", "ゆうた", "さとみ", "こうじ", "なおこ", "てつや")
_ZH_FAMILY = ("冯", "蒋", "沈", "韩", "杨", "朱")
_ZH_GIVEN = ("天翼", "雪梅", "宏伟", "春燕", "国平", "晓东")

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
_COMPANIES = (
    "Meridian Holdings", "Cascade Partners", "Beacon Logistics",
    "Summit Works", "Harborline Group", "Crestway Services",
)
_BANKS = ("First Union Trust", "Lakeside Savings", "Pioneer Mutual", "Granite Bank")
_MONTHS_ABBR = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)

# Source years never reach 2000; demo and fake years never go below it.
_SRC_YEAR_LO, _SRC_YEAR_HI = 1970, 1979


def _src_person(rng: random.Random, locale: str) -> str:
    if locale == "ja_JP":
        return rng.choice(_JA_FAMILY) + rng.choice(_JA_GIVEN)
    if locale == "zh_CN":
        return rng.choice(_ZH_FAMILY) + rng.choice(_ZH_GIVEN)
    first, last = {
        "en_US": (_EN_US_FIRST, _EN_US_LAST),
        "en_IN": (_EN_IN_FIRST, _EN_IN_LAST),
        "de_DE": (_DE_FIRST, _DE_LAST),
        "es_MX": (_ES_FIRST, _ES_LAST),
    }[locale]
    return f"{rng.choice(first)} {rng.choice(last)}"


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
    year = rng.randrange(_SRC_YEAR_LO, _SRC_YEAR_HI + 1)
    month = rng.randrange(1, 13)
    if locale == "en_IN":
        return f"{rng.randrange(1, 29):02d}-{_MONTHS_ABBR[month - 1]}-{year}"
    if locale in ("ja_JP", "zh_CN"):
        return f"{year}-{month:02d}-{rng.randrange(1, 29):02d}"
    if locale in ("de_DE", "es_MX"):
        return f"{rng.randrange(13, 29):02d}/{month:02d}/{year}"
    return f"{month:02d}/{rng.randrange(1, 29):02d}/{year}"


def _src_email(rng: random.Random) -> str:
    first = rng.choice(_EN_US_FIRST).lower()
    last = rng.choice(_EN_US_LAST).lower()
    return f"{first}.{last}{rng.randrange(10, 100)}@{rng.choice(_SRC_DOMAINS)}"


def _src_phone(rng: random.Random, locale: str) -> str:
    return (
        f"+{_PHONE_CC[locale]}-{rng.randrange(200, 990)}-555-"
        f"{rng.randrange(0, 10000):04d}"
    )


def _src_account(rng: random.Random) -> str:
    return str(rng.randrange(100_000_000, 500_000_000))


def _src_url(rng: random.Random) -> str:
    return (
        f"https://portal.{rng.choice(_SRC_DOMAINS)}/"
        f"{rng.choice(('claims', 'forms', 'login'))}/{rng.randrange(100, 10000)}"
    )


def _src_secret(rng: random.Random) -> str:
    return "tok_" + "".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=16))


def _amount(rng: random.Random) -> str:
    return f"{rng.randrange(120, 9000)}.{rng.randrange(0, 100):02d}"


_Template = Callable[[random.Random, str], tuple[str, dict[Label, list[str]]]]


def _t_invoice(rng: random.Random, locale: str) -> tuple[str, dict[Label, list[str]]]:
    person = _src_person(rng, locale)
    address = _src_address(rng, locale)
    date = _src_date(rng, locale)
    email = _src_email(rng)
    account = _src_account(rng)
    phone = _src_phone(rng, locale)
    text = (
        f"INVOICE #{rng.randrange(1000, 99999)}\n"
        f"Billed to: {person}\n"
        f"Address: {address}\n"
        f"Issue date: {date}\n"
        f"Contact: {email}\n"
        f"Amount due: ${_amount(rng)}\n"
        f"Please remit payment to account {account}.\n"
        f"Questions? Reach {person} at {phone}."
    )
    return text, {
        Label.PERSON: [person],
        Label.ADDRESS: [address],
        Label.DATE: [date],
        Label.EMAIL: [email],
        Label.ACCOUNT: [account],
        Label.PHONE: [phone],
    }


def _t_paystub(rng: random.Random, locale: str) -> tuple[str, dict[Label, list[str]]]:
    person = _src_person(rng, locale)
    address = _src_address(rng, locale)
    date = _src_date(rng, locale)
    date2 = _src_date(rng, locale)
    while date2 == date:
        date2 = _src_date(rng, locale)
    account = _src_account(rng)
    text = (
        f"PAYSTUB - {rng.choice(_COMPANIES)}\n"
        f"Employee: {person}\n"
        f"Home address: {address}\n"
        f"Pay period ending: {date}\n"
        f"Net pay: ${_amount(rng)}\n"
        f"Direct deposit to account {account}.\n"
        f"This stub was issued to {person} on {date2}."
    )
    return text, {
        Label.PERSON: [person],
        Label.ADDRESS: [address],
        Label.DATE: [date, date2],
        Label.ACCOUNT: [account],
    }


def _t_bank_statement(
    rng: random.Random, locale: str
) -> tuple[str, dict[Label, list[str]]]:
    person = _src_person(rng, locale)
    address = _src_address(rng, locale)
    date = _src_date(rng, locale)
    email = _src_email(rng)
    account = _src_account(rng)
    phone = _src_phone(rng, locale)
    text = (
        f"{rng.choice(_BANKS)} MONTHLY STATEMENT\n"
        f"Account holder: {person}\n"
        f"Account number: {account}\n"
        f"Statement date: {date}\n"
        f"Mailing address: {address}\n"
        f"Closing balance: ${_amount(rng)}\n"
        f"For disputes contact {person} via {email} or call {phone}."
    )
    return text, {
        Label.PERSON: [person],
        Label.ADDRESS: [address],
        Label.DATE: [date],
        Label.EMAIL: [email],
        Label.ACCOUNT: [account],
        Label.PHONE: [phone],
    }


def _t_auto_insurance(
    rng: random.Random, locale: str
) -> tuple[str, dict[Label, list[str]]]:
    person = _src_person(rng, locale)
    address = _src_address(rng, locale)
    date = _src_date(rng, locale)
    account = _src_account(rng)
    url = _src_url(rng)
    text = (
        f"AUTO POLICY DECLARATION\n"
        f"Policyholder: {person}\n"
        f"Garaging address: {address}\n"
        f"Policy effective: {date}\n"
        f"Policy number: {account}\n"
        f"Premium: ${_amount(rng)}\n"
        f"Claims portal: {url}\n"
        f"{person} must report incidents within 30 days."
    )
    return text, {
        Label.PERSON: [person],
        Label.ADDRESS: [address],
        Label.DATE: [date],
        Label.ACCOUNT: [account],
        Label.URL: [url],
    }


def _t_mortgage_insurance(
    rng: random.Random, locale: str
) -> tuple[str, dict[Label, list[str]]]:
    person = _src_person(rng, locale)
    address = _src_address(rng, locale)
    date = _src_date(rng, locale)
    account = _src_account(rng)
    email = _src_email(rng)
    text = (
        f"MORTGAGE INSURANCE CERTIFICATE\n"
        f"Borrower: {person}\n"
        f"Property: {address}\n"
        f"Certificate issued: {date}\n"
        f"Loan account: {account}\n"
        f"Monthly premium: ${_amount(rng)}\n"
        f"Servicer contact: {email}\n"
        f"Borrower {person} acknowledges the coverage terms."
    )
    return text, {
        Label.PERSON: [person],
        Label.ADDRESS: [address],
        Label.DATE: [date],
        Label.ACCOUNT: [account],
        Label.EMAIL: [email],
    }


def _t_w2(rng: random.Random, locale: str) -> tuple[str, dict[Label, list[str]]]:
    person = _src_person(rng, locale)
    address = _src_address(rng, locale)
    date = _src_date(rng, locale)
    phone = _src_phone(rng, locale)
    email = _src_email(rng)
    text = (
        f"FORM W-2 WAGE AND TAX STATEMENT\n"
        f"Employee: {person}\n"
        f"Employee address: {address}\n"
        f"Employer: {rng.choice(_COMPANIES)}\n"
        f"Issued: {date}\n"
        f"Wages: ${_amount(rng)}\n"
        f"Employer contact: {phone}\n"
        f"Payroll questions: {email}\n"
        f"Copy furnished to {person} for filing."
    )
    return text, {
        Label.PERSON: [person],
        Label.ADDRESS: [address],
        Label.DATE: [date],
        Label.PHONE: [phone],
        Label.EMAIL: [email],
    }


def _t_ten99(rng: random.Random, locale: str) -> tuple[str, dict[Label, list[str]]]:
    person = _src_person(rng, locale)
    address = _src_address(rng, locale)
    date = _src_date(rng, locale)
    account = _src_account(rng)
    url = _src_url(rng)
    secret = _src_secret(rng)
    text = (
        f"FORM 1099-MISC\n"
        f"Recipient: {person}\n"
        f"Recipient address: {address}\n"
        f"Tax year statement issued {date}\n"
        f"Payer account: {account}\n"
        f"Nonemployee compensation: ${_amount(rng)}\n"
        f"Access your form at {url}\n"
        f"API token for e-delivery: {secret}\n"
        f"{person} should retain this copy."
    )
    return text, {
        Label.PERSON: [person],
        Label.ADDRESS: [address],
        Label.DATE: [date],
        Label.ACCOUNT: [account],
        Label.URL: [url],
        Label.SECRET: [secret],
    }


TEMPLATES: dict[str, _Template] = {
    "invoice": _t_invoice,
    "paystub": _t_paystub,
    "bank_statement": _t_bank_statement,
    "auto_insurance": _t_auto_insurance,
    "mortgage_insurance": _t_mortgage_insurance,
    "w2": _t_w2,
    "ten99": _t_ten99,
}


def largest_remainder(n: int, weights: dict[str, float]) -> dict[str, int]:
    """Split n into whole counts in proportion to the weights: every key gets
    the floor of its share, and the units left over go to the largest
    remainders, ties broken by key. Keys come out sorted."""
    total = sum(weights.values())
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
        text, pii_gt = TEMPLATES[name](rng, locale)
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
