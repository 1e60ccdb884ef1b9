"""Demonstration pools: built-in per-locale data, override loading, validation.

Pools are keyed by model label (`model.SLM_LABELS`) and then by the pool
key that `pool_key` gives a surface of that label: its Locale for PERSON and
ADDRESS, its DateFormat for DATE. A label's family name, used in pool files
and demo ids (`person/en/0`), is its name in lower case. Every string in a
pool must classify back to the pool's own key, so a sampled demonstration
always matches the input it is shown with. The Japanese pools deliberately
carry kana: kanji-only Japanese routes to zh (a documented classifier
limit), so kanji-only entries could never satisfy that closure.

A separate three-demo "pilot" set per label backs the fixed-demonstration
strategy used to reproduce the naive-prompting failure mode; it is exempt
from closure and size rules. No demo may contain a line break: a demo is a
prompt line, so one that could not be rendered is refused when it is built.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator

from .locales import DateFormat, Locale, classify_date_format, classify_locale
from .model import SLM_LABELS, Label

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
        if any(brk in text for text in (self.real, self.fake) for brk in "\n\r"):
            raise ValueError(f"demo {self.id}: contains a line break")


def _family(label: Label) -> str:
    """The label's name in pool files, pool names and demo ids."""
    return label.name.lower()


@dataclass(frozen=True)
class DemoPool:
    """An ordered, closed set of demonstrations for one (label, key)."""

    label: Label
    key: Locale | DateFormat
    demos: tuple[Demo, ...]

    @cached_property
    def name(self) -> str:
        return f"{_family(self.label)}/{self.key.value}"

    def __len__(self) -> int:
        return len(self.demos)


def pool_key(label: Label, text: str) -> Locale | DateFormat:
    """The key of the pool that a surface of this label routes to."""
    if label is Label.DATE:
        return classify_date_format(text)
    return classify_locale(text)


def _build_pool(
    label: Label, key: Locale | DateFormat, pairs: list[tuple[str, str]]
) -> DemoPool:
    demos = tuple(
        Demo(real, fake, f"{_family(label)}/{key.value}/{i}")
        for i, (real, fake) in enumerate(pairs)
    )
    pool = DemoPool(label, key, demos)
    validate_pool(pool)
    return pool


def validate_pool(pool: DemoPool) -> None:
    """Check closure and size; raises ValueError naming the offending string.

    The date 'unknown' pool is exempt from the size minimum: it exists as
    data parity but is never sampled (unknown-format inputs fall back to the
    fake generator).
    """
    if pool.key is not DateFormat.UNKNOWN and len(pool) < MIN_POOL_SIZE:
        raise ValueError(
            f"pool {pool.name}: {len(pool)} demos, need at least {MIN_POOL_SIZE}"
        )
    for demo in pool.demos:
        for side, text in (("real", demo.real), ("fake", demo.fake)):
            got = pool_key(pool.label, text)
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
# one Japanese, one Spanish pair per label, shown to every input regardless
# of its script or format.
_PILOT_PAIRS: dict[Label, list[tuple[str, str]]] = {
    Label.PERSON: [
        ("John Smith", "Alice Johnson"),
        ("山田花子", "佐藤由美"),
        ("José Martínez", "Luis Delgado"),
    ],
    Label.ADDRESS: [
        ("45 Oak Avenue, Denver CO 80203", "123 Main Street, Boston MA 02101"),
        ("東京都新宿区西新宿2-8-1", "大阪市北区梅田1-1-3"),
        ("Calle Juárez 45, 44100 Guadalajara", "Avenida Reforma 222, 06600 CDMX"),
    ],
    Label.DATE: [
        ("12/25/2002", "03/15/1985"),
        ("2003-05-20", "1982-08-14"),
        ("14/07/2004", "23/10/1994"),
    ],
}


_PAIRS: dict[Label, dict] = {
    Label.PERSON: _PERSON_PAIRS,
    Label.ADDRESS: _ADDRESS_PAIRS,
    Label.DATE: _DATE_PAIRS,
}


@dataclass(frozen=True)
class PoolCatalog:
    """All demonstration pools for one run, plus the fixed pilot demos."""

    pools: dict[Label, dict[Locale | DateFormat, DemoPool]]
    pilot: dict[Label, tuple[Demo, ...]]

    def pool_for(self, label: Label, surface: str) -> DemoPool:
        """Route an entity surface of a model label (`SLM_LABELS`) to its
        demonstration pool. Both catalog builders fill every model label
        with a pool for every key, so the lookup cannot miss."""
        return self.pools[label][pool_key(label, surface)]

    def iter_named_demo_sets(self) -> Iterator[tuple[str, tuple[Demo, ...]]]:
        """Every demo set under its name, pilot sets included."""
        for by_key in self.pools.values():
            for pool in by_key.values():
                yield pool.name, pool.demos
        for label, demos in self.pilot.items():
            yield f"{_family(label)}/pilot", demos


@lru_cache(maxsize=1)
def builtin_catalog() -> PoolCatalog:
    """The shipped pools; validated on first use."""
    return PoolCatalog(
        pools={
            label: {
                key: _build_pool(label, key, pairs)
                for key, pairs in _PAIRS[label].items()
            }
            for label in SLM_LABELS
        },
        pilot={
            label: tuple(
                Demo(real, fake, f"{_family(label)}/pilot/{i}")
                for i, (real, fake) in enumerate(_PILOT_PAIRS[label])
            )
            for label in SLM_LABELS
        },
    )


def load_pool_file(path: str | Path) -> PoolCatalog:
    """Load a pool override file on top of the built-in catalog.

    The file maps family -> pool key -> list of {real, fake}. Pools present
    in the file replace the built-in pool for that key; everything else is
    kept. Every replacement pool is re-validated for closure, size and line
    breaks, and a sampled one with fewer than 4 demos draws a warning: every
    prompt would show the same three. (Some shipped pools have 3 demos;
    growing them would change hybrid outputs.)
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read pool file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"pool file {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("pool file must be an object mapping families to pools")
    base = builtin_catalog()
    pools = {label: dict(by_key) for label, by_key in base.pools.items()}
    labels = {_family(label): label for label in pools}
    for family, entries_by_key in data.items():
        if family not in labels:
            raise ValueError(f"unknown pool family {family!r}")
        if not isinstance(entries_by_key, dict):
            raise ValueError(f"family {family!r} must map keys to demo lists")
        by_key = pools[labels[family]]
        # the shipped catalog has a pool for every key, so it names them all
        keys = {key.value: key for key in by_key}
        for key_name, entries in entries_by_key.items():
            if key_name not in keys:
                raise ValueError(
                    f"unknown pool key {key_name!r} for family {family!r}"
                )
            if not isinstance(entries, list):
                raise ValueError(f"pool {family}/{key_name} must be a list of demos")
            pairs = []
            for i, entry in enumerate(entries):
                if not isinstance(entry, dict) or "real" not in entry or "fake" not in entry:
                    raise ValueError(
                        f"pool {family}/{key_name} entry {i} needs real and fake"
                    )
                real, fake = entry["real"], entry["fake"]
                if not isinstance(real, str) or not isinstance(fake, str):
                    raise ValueError(
                        f"pool {family}/{key_name} entry {i}: real and fake must be strings"
                    )
                pairs.append((real, fake))
            pool = _build_pool(labels[family], keys[key_name], pairs)
            if len(pool) < 4 and pool.key is not DateFormat.UNKNOWN:
                warnings.warn(
                    f"pool {pool.name} has only {len(pool)} demos; rotation is weak",
                    stacklevel=2,
                )
            by_key[pool.key] = pool
    return PoolCatalog(pools=pools, pilot=base.pilot)
