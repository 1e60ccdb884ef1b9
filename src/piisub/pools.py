"""Demonstration pools: built-in per-locale data, override loading, validation.

Each pool is an ordered list of (real, fake) demonstration pairs keyed by the
classifier output for its family: PERSON and ADDRESS pools by Locale, DATE
pools by DateFormat. Every string in a pool must classify back to the pool's
own key, so a sampled demonstration always matches the input it is shown
with. The Japanese pools deliberately carry kana: kanji-only Japanese routes
to zh (a documented classifier limit), so kanji-only entries could never
satisfy that closure.

A separate three-demo "pilot" set per family backs the fixed-demonstration
strategy used to reproduce the naive-prompting failure mode; it is exempt
from closure and size rules.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from .locales import DateFormat, Locale, classify_date_format, classify_locale
from .model import Label

FAMILY_PERSON = "person"
FAMILY_ADDRESS = "address"
FAMILY_DATE = "date"

#: Pools with fewer demos than this cannot be sampled from.
MIN_POOL_SIZE = 3


@dataclass(frozen=True, slots=True)
class Demo:
    """One demonstration pair with a stable identifier (pool key + index)."""

    real: str
    fake: str
    id: str

    def __post_init__(self) -> None:
        if not self.real or not self.fake:
            raise ValueError(f"demo {self.id}: real and fake must be non-empty")
        if self.real == self.fake:
            raise ValueError(f"demo {self.id}: real and fake must differ")


@dataclass(frozen=True)
class DemoPool:
    """An ordered, closed set of demonstrations for one (family, key)."""

    family: str
    key: Locale | DateFormat
    demos: tuple[Demo, ...]

    @property
    def name(self) -> str:
        return f"{self.family}/{self.key.value}"

    def __len__(self) -> int:
        return len(self.demos)


def _classify_for(family: str, text: str) -> Locale | DateFormat:
    if family == FAMILY_DATE:
        return classify_date_format(text)
    return classify_locale(text)


def _build_pool(
    family: str, key: Locale | DateFormat, pairs: list[tuple[str, str]]
) -> DemoPool:
    demos = tuple(
        Demo(real, fake, f"{family}/{key.value}/{i}")
        for i, (real, fake) in enumerate(pairs)
    )
    pool = DemoPool(family, key, demos)
    validate_pool(pool)
    return pool


def validate_pool(pool: DemoPool) -> None:
    """Check closure and size; raises ValueError naming the offending string.

    The date 'unknown' pool is exempt from the size minimum: it exists as
    data parity but is never sampled (unknown-format inputs fall back to the
    fake generator).
    """
    exempt = pool.family == FAMILY_DATE and pool.key is DateFormat.UNKNOWN
    if not exempt and len(pool) < MIN_POOL_SIZE:
        raise ValueError(
            f"pool {pool.name}: {len(pool)} demos, need at least {MIN_POOL_SIZE}"
        )
    for demo in pool.demos:
        for side, text in (("real", demo.real), ("fake", demo.fake)):
            got = _classify_for(pool.family, text)
            if got is not pool.key:
                raise ValueError(
                    f"pool {pool.name}: {side} string {text!r} classifies "
                    f"to {got.value}, breaking closure"
                )


_PERSON_PAIRS: dict[Locale, list[tuple[str, str]]] = {
    Locale.EN: [
        ("John Carter", "Marcus Chen"),
        ("Linda Vasquez", "Olivia Brennan"),
        ("David Kim", "Theo Pemberton"),
        ("Sarah Patel", "Maya Iyer"),
        ("Robert Williams", "Daniel Foster"),
        ("Priya Krishnamurthy", "Nadia Subramanian"),
        ("Michael O'Brien", "Patrick Donovan"),
        ("Jennifer Wong", "Cynthia Park"),
    ],
    Locale.DE: [
        ("Hans Müller", "Karl Schmidt"),
        ("Anna Becker", "Lena Hoffmann"),
        ("Klaus Wagner", "Erik Krüger"),
        ("Ingrid Weber", "Petra Neumann"),
        ("Stefan Fischer", "Dietrich Bauer"),
        ("Helga Zimmermann", "Brigitte Klein"),
    ],
    Locale.ES: [
        ("Juan García", "Carlos Hernández"),
        ("María Rodríguez", "Ana Fernández"),
        ("Diego Sánchez", "Luis Castillo"),
        ("Carmen Ortiz", "Lucía Vázquez"),
        ("Roberto Jiménez", "Pablo Morales"),
        ("Sofía Ramírez", "Elena Aguilar"),
    ],
    Locale.JA: [
        ("山田さくら", "鈴木ひなた"),
        ("佐藤ひろし", "田中あきら"),
        ("渡辺みどり", "高橋ゆい"),
        ("中村けんじ", "小林まさお"),
        ("加藤えみ", "斎藤かおる"),
        ("井上たけし", "松本りょう"),
    ],
    Locale.ZH: [
        ("李伟", "王芳"),
        ("张敏", "刘洋"),
        ("陈杰", "黄燕"),
        ("周磊", "吴娟"),
        ("徐明", "孙丽"),
        ("郑强", "马晶"),
    ],
}

_ADDRESS_PAIRS: dict[Locale, list[tuple[str, str]]] = {
    Locale.EN: [
        ("412 Birchwood Lane, Portland OR 97205", "88 Commerce Street, Austin TX 78701"),
        ("1509 Willow Court, Madison WI 53703", "964 Harper Road, Nashville TN 37210"),
        ("23 Marine Drive, Mumbai 400020", "31 Nehru Road, Pune 411001"),
        ("7 Lakeview Terrace, Denver CO 80211", "450 Cedar Hollow, Boise ID 83702"),
        ("1120 Foxglove Avenue, Savannah GA 31401", "66 Pinecrest Way, Tulsa OK 74103"),
        ("305 Ridgeline Drive, Burlington VT 05401", "929 Quarry Street, Reno NV 89501"),
    ],
    Locale.DE: [
        ("Hauptstraße 45, 10117 Berlin", "Bahnhofstraße 7, 60313 Frankfurt"),
        ("Lindenallee 12, 80331 München", "Uferstraße 22, 28195 Bremen"),
        ("Marienplatz 8, 80331 München", "Schloßallee 1, 01067 Dresden"),
        ("Gartenstraße 19, 70173 Stuttgart", "Mühlenweg 5, 23552 Lübeck"),
        ("Königsallee 60, 40212 Düsseldorf", "Rathausplatz 2, 86150 Augsburg"),
        ("Bergstraße 14, 69117 Heidelberg", "Seestraße 9, 78464 Konstanz"),
    ],
    Locale.ES: [
        ("Calle Reforma 123, 06600 CDMX", "Avenida Insurgentes 456, 03100 CDMX"),
        ("Avenida Juárez 88, 44100 Guadalajara", "Calle Morelos 210, 64000 Monterrey"),
        ("Calle Hidalgo 35, 72000 Puebla", "Avenida Universidad 300, 04510 CDMX"),
        ("Colonia Roma Norte, Calle Orizaba 12", "Colonia Condesa, Avenida Ámsterdam 73"),
        ("Avenida Chapultepec 540, 06700 CDMX", "Calle Allende 27, 37700 San Miguel"),
        ("Calle 5 de Mayo 19, 68000 Oaxaca", "Avenida Victoria 150, 22000 Tijuana"),
    ],
    Locale.JA: [
        ("東京都渋谷区さくら通り3-2-1", "大阪市北区うめだ1-1-3"),
        ("横浜市中区みなと大通り5-6", "名古屋市中村区ささしま町2-7"),
        ("京都市左京区ひえい平町8-1", "神戸市中央区はとば町4-9"),
        ("札幌市北区あいの里1条6-2", "福岡市博多区すみよし3-11"),
        ("千代田区霞が関1-2-3", "港区とらのもん2-5-8"),
        ("仙台市青葉区いちばん町7-4", "広島市中区かみや町6-10"),
    ],
    Locale.ZH: [
        ("北京市朝阳区建国路1号", "上海市浦东新区世纪大道100号"),
        ("广州市天河区体育西路8号", "深圳市南山区科技园路22号"),
        ("杭州市西湖区文三路45号", "南京市鼓楼区中山北路12号"),
        ("成都市锦江区春熙路9号", "重庆市渝中区解放碑步行街5号"),
        ("武汉市武昌区中南路33号", "西安市雁塔区小寨东路18号"),
        ("天津市和平区南京路76号", "苏州市姑苏区观前街3号"),
    ],
}

# Fake-side years stay at 2001+; synthetic corpus source dates stay below
# 2000, so a copied demonstration can never collide with a ground-truth value.
_DATE_PAIRS: dict[DateFormat, list[tuple[str, str]]] = {
    DateFormat.MDY_SLASH: [
        ("04/12/2003", "09/27/2008"),
        ("11/05/2002", "02/14/2011"),
        ("07/30/2004", "12/08/2006"),
        ("01/19/2009", "06/22/2013"),
        ("10/03/2005", "03/15/2017"),
    ],
    DateFormat.YMD_DASH: [
        ("2003-04-12", "2008-09-27"),
        ("2002-11-05", "2011-02-14"),
        ("2004-07-30", "2006-12-08"),
        ("2009-01-19", "2013-06-22"),
    ],
    DateFormat.DMY_DASH_MON: [
        ("14-Feb-2003", "28-Oct-2009"),
        ("11-Jul-2001", "05-Aug-2003"),
        ("09-Jan-2006", "17-Nov-2015"),
        ("23-Apr-2007", "30-Sep-2018"),
    ],
    DateFormat.DMY_SLASH: [
        ("25/04/2002", "13/09/2010"),
        ("31/12/2003", "19/06/2008"),
        ("16/02/2005", "27/11/2014"),
    ],
    DateFormat.UNKNOWN: [
        ("March 3, 2004", "August 19, 2011"),
        ("Spring 2006", "Autumn 2012"),
    ],
}

# Fixed demonstrations for the naive single-template strategy: one English,
# one Japanese, one Spanish pair per family, shown to every input regardless
# of its script or format.
_PILOT_PAIRS: dict[str, list[tuple[str, str]]] = {
    FAMILY_PERSON: [
        ("John Smith", "Alice Johnson"),
        ("山田花子", "佐藤由美"),
        ("José Martínez", "Luis Delgado"),
    ],
    FAMILY_ADDRESS: [
        ("45 Oak Avenue, Denver CO 80203", "123 Main Street, Boston MA 02101"),
        ("東京都新宿区西新宿2-8-1", "大阪市北区梅田1-1-3"),
        ("Calle Juárez 45, 44100 Guadalajara", "Avenida Reforma 222, 06600 CDMX"),
    ],
    FAMILY_DATE: [
        ("12/25/2002", "03/15/1985"),
        ("2003-05-20", "1982-08-14"),
        ("14/07/2004", "23/10/1994"),
    ],
}


@dataclass(frozen=True)
class PoolCatalog:
    """All demonstration pools for one run, plus the fixed pilot demos."""

    person: dict[Locale, DemoPool]
    address: dict[Locale, DemoPool]
    date: dict[DateFormat, DemoPool]
    pilot: dict[str, tuple[Demo, ...]]

    def pool_for(self, label: Label, surface: str) -> DemoPool:
        """Route an entity surface to its demonstration pool."""
        if label is Label.PERSON:
            return self.person[classify_locale(surface)]
        if label is Label.ADDRESS:
            return self.address[classify_locale(surface)]
        if label is Label.DATE:
            return self.date[classify_date_format(surface)]
        raise ValueError(f"no demonstration pools for label {label.name}")

    def pilot_demos(self, label: Label) -> tuple[Demo, ...]:
        family = {
            Label.PERSON: FAMILY_PERSON,
            Label.ADDRESS: FAMILY_ADDRESS,
            Label.DATE: FAMILY_DATE,
        }[label]
        return self.pilot[family]

    def iter_named_demo_sets(self) -> Iterator[tuple[str, tuple[Demo, ...]]]:
        """Every demo set under its name, pilot sets included."""
        for pools in (self.person, self.address, self.date):
            for pool in pools.values():
                yield pool.name, pool.demos
        for family, demos in self.pilot.items():
            yield f"{family}/pilot", demos


def _pilot_set(family: str, pairs: list[tuple[str, str]]) -> tuple[Demo, ...]:
    return tuple(
        Demo(real, fake, f"{family}/pilot/{i}") for i, (real, fake) in enumerate(pairs)
    )


@lru_cache(maxsize=1)
def builtin_catalog() -> PoolCatalog:
    """The shipped pools; validated on first use."""
    return PoolCatalog(
        person={
            loc: _build_pool(FAMILY_PERSON, loc, pairs)
            for loc, pairs in _PERSON_PAIRS.items()
        },
        address={
            loc: _build_pool(FAMILY_ADDRESS, loc, pairs)
            for loc, pairs in _ADDRESS_PAIRS.items()
        },
        date={
            fmt: _build_pool(FAMILY_DATE, fmt, pairs)
            for fmt, pairs in _DATE_PAIRS.items()
        },
        pilot={
            family: _pilot_set(family, pairs)
            for family, pairs in _PILOT_PAIRS.items()
        },
    )


def load_pool_file(path: str | Path) -> PoolCatalog:
    """Load a pool override file on top of the built-in catalog.

    The file maps family -> pool key -> list of {real, fake}. Pools present
    in the file replace the built-in pool for that key; everything else is
    kept. Every replacement pool is re-validated for closure and size, and
    a sampled one with fewer than 4 demos draws a warning: every prompt
    would show the same three. (Some shipped pools have 3 demos; growing
    them would change hybrid outputs.)
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("pool file must be an object mapping families to pools")
    base = builtin_catalog()
    person = dict(base.person)
    address = dict(base.address)
    date = dict(base.date)
    for family, pools in data.items():
        if family not in (FAMILY_PERSON, FAMILY_ADDRESS, FAMILY_DATE):
            raise ValueError(f"unknown pool family {family!r}")
        if not isinstance(pools, dict):
            raise ValueError(f"family {family!r} must map keys to demo lists")
        for key_name, entries in pools.items():
            try:
                key: Locale | DateFormat = (
                    DateFormat(key_name) if family == FAMILY_DATE else Locale(key_name)
                )
            except ValueError:
                raise ValueError(
                    f"unknown pool key {key_name!r} for family {family!r}"
                ) from None
            pairs = []
            for i, entry in enumerate(entries):
                if not isinstance(entry, dict) or "real" not in entry or "fake" not in entry:
                    raise ValueError(
                        f"pool {family}/{key_name} entry {i} needs real and fake"
                    )
                pairs.append((str(entry["real"]), str(entry["fake"])))
            pool = _build_pool(family, key, pairs)
            if len(pool) < 4 and key is not DateFormat.UNKNOWN:
                warnings.warn(
                    f"pool {pool.name} has only {len(pool)} demos; rotation is weak",
                    stacklevel=2,
                )
            if family == FAMILY_PERSON:
                person[key] = pool  # type: ignore[index]
            elif family == FAMILY_ADDRESS:
                address[key] = pool  # type: ignore[index]
            else:
                date[key] = pool  # type: ignore[index]
    return PoolCatalog(person=person, address=address, date=date, pilot=base.pilot)
