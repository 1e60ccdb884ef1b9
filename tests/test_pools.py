import json
import warnings

import pytest

from piisub.locales import DateFormat, Locale, classify_date_format, classify_locale
from piisub.model import Label
from piisub.pools import (
    FAMILY_DATE,
    MIN_POOL_SIZE,
    Demo,
    DemoPool,
    builtin_catalog,
    load_pool_file,
    validate_pool,
)


def test_every_builtin_demo_classifies_to_its_own_pool(catalog):
    """Closure: both sides of every pair route back to the pool they live in."""
    for pools in (catalog.person, catalog.address):
        for key, pool in pools.items():
            for demo in pool.demos:
                assert classify_locale(demo.real) is key, demo.id
                assert classify_locale(demo.fake) is key, demo.id
    for key, pool in catalog.date.items():
        for demo in pool.demos:
            assert classify_date_format(demo.real) is key, demo.id
            assert classify_date_format(demo.fake) is key, demo.id


def test_builtin_pool_sizes(catalog):
    for pools in (catalog.person, catalog.address):
        for pool in pools.values():
            assert len(pool) >= MIN_POOL_SIZE
    for key, pool in catalog.date.items():
        if key is not DateFormat.UNKNOWN:
            assert len(pool) >= MIN_POOL_SIZE


def test_demo_ids_are_stable_and_unique(catalog):
    ids = [d.id for _, demos in catalog.iter_named_demo_sets() for d in demos]
    assert len(ids) == len(set(ids))
    assert "person/en/0" in ids
    assert "person/pilot/0" in ids


def test_pool_for_routes_by_surface(catalog):
    assert catalog.pool_for(Label.PERSON, "Walter Abernathy").key is Locale.EN
    assert catalog.pool_for(Label.PERSON, "Hans Müller").key is Locale.DE
    assert catalog.pool_for(Label.PERSON, "山田さくら").key is Locale.JA
    assert catalog.pool_for(Label.PERSON, "李伟").key is Locale.ZH
    assert catalog.pool_for(Label.ADDRESS, "Calle Reforma 12").key is Locale.ES
    assert catalog.pool_for(Label.DATE, "04/12/1975").key is DateFormat.MDY_SLASH
    assert catalog.pool_for(Label.DATE, "yesterday").key is DateFormat.UNKNOWN


def test_pool_for_rejects_non_slm_labels(catalog):
    with pytest.raises(ValueError):
        catalog.pool_for(Label.EMAIL, "a@b.com")


def test_pilot_demos_fixed_per_family(catalog):
    person = catalog.pilot_demos(Label.PERSON)
    assert len(person) == 3
    assert person[0].real == "John Smith"
    assert person[0].fake == "Alice Johnson"
    assert len(catalog.pilot_demos(Label.ADDRESS)) == 3
    assert len(catalog.pilot_demos(Label.DATE)) == 3


def test_demo_pair_validation():
    with pytest.raises(ValueError):
        Demo("", "x", "d/0")
    with pytest.raises(ValueError):
        Demo("same", "same", "d/1")


def test_validate_pool_rejects_closure_break():
    # an English name inside the de pool breaks closure
    demos = (
        Demo("Hans Müller", "Karl Schmidt", "person/de/0"),
        Demo("Anna Becker", "Lena Hoffmann", "person/de/1"),
        Demo("Plain Name", "Other Name", "person/de/2"),
    )
    pool = DemoPool("person", Locale.DE, demos)
    with pytest.raises(ValueError, match="closure"):
        validate_pool(pool)


def test_validate_pool_rejects_undersized():
    demos = (Demo("Hans Müller", "Karl Schmidt", "person/de/0"),)
    with pytest.raises(ValueError, match="need at least"):
        validate_pool(DemoPool("person", Locale.DE, demos))


def test_builtin_catalog_does_not_warn_about_itself():
    builtin_catalog.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        builtin_catalog()


def test_date_unknown_pool_exempt_from_size(catalog):
    assert len(catalog.date[DateFormat.UNKNOWN]) == 2  # parity data, never sampled


class TestLoadPoolFile:
    def _write(self, tmp_path, payload):
        path = tmp_path / "pools.json"
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
        return path

    def test_replaces_one_pool_keeps_rest(self, tmp_path, catalog):
        pairs = [
            {"real": "Kenji Tanaka", "fake": "Hiro Yamamoto"},
            {"real": "Aiko Suzuki", "fake": "Mei Kobayashi"},
            {"real": "Ren Watanabe", "fake": "Yuna Ito"},
            {"real": "Sora Nakamura", "fake": "Kaito Mori"},
        ]
        # plain-ASCII romaji names classify EN, so override the en pool
        path = self._write(tmp_path, {"person": {"en": pairs}})
        loaded = load_pool_file(path)
        assert [d.real for d in loaded.person[Locale.EN].demos] == [
            p["real"] for p in pairs
        ]
        assert loaded.person[Locale.DE] == catalog.person[Locale.DE]
        assert loaded.date == catalog.date

    def test_weak_rotation_warns(self, tmp_path):
        pairs = [
            ("Hans Müller", "Karl Schmidt"),
            ("Anna Becker", "Lena Hoffmann"),
            ("Ingrid Weber", "Petra Neumann"),
        ]
        path = self._write(
            tmp_path, {"person": {"de": [{"real": r, "fake": f} for r, f in pairs]}}
        )
        with pytest.warns(UserWarning, match="person/de has only 3 demos"):
            load_pool_file(path)

    def test_closure_enforced_on_override(self, tmp_path):
        path = self._write(
            tmp_path,
            {"person": {"de": [{"real": "Plain Name", "fake": "Om Nom"}] * 3}},
        )
        with pytest.raises(ValueError, match="closure"):
            load_pool_file(path)

    def test_unknown_family_rejected(self, tmp_path):
        path = self._write(tmp_path, {"passport": {}})
        with pytest.raises(ValueError, match="unknown pool family"):
            load_pool_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = self._write(tmp_path, {FAMILY_DATE: {"roman": []}})
        with pytest.raises(ValueError, match="unknown pool key"):
            load_pool_file(path)

    def test_entry_shape_enforced(self, tmp_path):
        path = self._write(tmp_path, {"person": {"en": [{"real": "only real"}]}})
        with pytest.raises(ValueError, match="needs real and fake"):
            load_pool_file(path)


def test_builtin_catalog_is_cached():
    assert builtin_catalog() is builtin_catalog()
