import json
import warnings
from pathlib import Path

import pytest

from piisub.locales import DateFormat, Locale, classify_date_format, classify_locale
from piisub.model import SLM_LABELS, Label
from piisub.pools import (
    MIN_POOL_SIZE,
    Demo,
    DemoPool,
    builtin_catalog,
    load_pool_file,
    pool_key,
    validate_pool,
)


def test_every_builtin_demo_classifies_to_its_own_pool(catalog):
    """Closure: both sides of every pair route back to the pool they live in."""
    for pools in (catalog.pools[Label.PERSON], catalog.pools[Label.ADDRESS]):
        for key, pool in pools.items():
            for demo in pool.demos:
                assert classify_locale(demo.real) is key, demo.id
                assert classify_locale(demo.fake) is key, demo.id
    for key, pool in catalog.pools[Label.DATE].items():
        for demo in pool.demos:
            assert classify_date_format(demo.real) is key, demo.id
            assert classify_date_format(demo.fake) is key, demo.id


def test_builtin_pool_sizes(catalog):
    for pools in (catalog.pools[Label.PERSON], catalog.pools[Label.ADDRESS]):
        for pool in pools.values():
            assert len(pool) >= MIN_POOL_SIZE
    for key, pool in catalog.pools[Label.DATE].items():
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


def test_catalog_is_keyed_by_the_model_labels(catalog):
    assert tuple(catalog.pools) == SLM_LABELS
    assert tuple(catalog.pilot) == SLM_LABELS
    for label, pools in catalog.pools.items():
        for key, pool in pools.items():
            assert pool.label is label and pool.key is key
            assert pool.name == f"{label.name.lower()}/{key.value}"


def test_pool_key_reads_locale_or_date_format():
    assert pool_key(Label.PERSON, "Hans Müller") is Locale.DE
    assert pool_key(Label.ADDRESS, "東京都渋谷区さくら通り") is Locale.JA
    assert pool_key(Label.DATE, "1975-04-12") is DateFormat.YMD_DASH
    assert pool_key(Label.DATE, "Hans Müller") is DateFormat.UNKNOWN


def test_pilot_demos_fixed_per_family(catalog):
    person = catalog.pilot[Label.PERSON]
    assert len(person) == 3
    assert person[0].real == "John Smith"
    assert person[0].fake == "Alice Johnson"
    assert len(catalog.pilot[Label.ADDRESS]) == 3
    assert len(catalog.pilot[Label.DATE]) == 3


def test_demo_pair_validation():
    with pytest.raises(ValueError):
        Demo("", "x", "d/0")
    with pytest.raises(ValueError):
        Demo("same", "same", "d/1")


def test_demo_with_line_break_rejected():
    # a demo is one prompt line; build_prompt relies on this check
    for real, fake in (("a\nb", "c"), ("a", "b\rc")):
        with pytest.raises(ValueError, match="line break"):
            Demo(real, fake, "p/x/0")


def test_validate_pool_rejects_closure_break():
    # an English name inside the de pool breaks closure
    demos = (
        Demo("Hans Müller", "Karl Schmidt", "person/de/0"),
        Demo("Anna Becker", "Lena Hoffmann", "person/de/1"),
        Demo("Plain Name", "Other Name", "person/de/2"),
    )
    pool = DemoPool(Label.PERSON, Locale.DE, demos)
    with pytest.raises(ValueError, match="closure"):
        validate_pool(pool)


def test_validate_pool_rejects_undersized():
    demos = (Demo("Hans Müller", "Karl Schmidt", "person/de/0"),)
    with pytest.raises(ValueError, match="need at least"):
        validate_pool(DemoPool(Label.PERSON, Locale.DE, demos))


def test_builtin_catalog_does_not_warn_about_itself():
    builtin_catalog.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        builtin_catalog()


def test_date_unknown_pool_exempt_from_size(catalog):
    assert len(catalog.pools[Label.DATE][DateFormat.UNKNOWN]) == 2  # parity data, never sampled


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
        person = loaded.pools[Label.PERSON]
        assert [d.real for d in person[Locale.EN].demos] == [p["real"] for p in pairs]
        assert list(person) == list(catalog.pools[Label.PERSON])
        assert person[Locale.DE] == catalog.pools[Label.PERSON][Locale.DE]
        assert loaded.pools[Label.DATE] == catalog.pools[Label.DATE]
        assert loaded.pilot == catalog.pilot

    def test_readme_example_pair_loads(self, tmp_path):
        pairs = [
            ("Dörte Hübner", "Bärbel Möller"),
            ("Götz Färber", "Rüdiger Jäger"),
            ("Ute Köhler", "Jörn Brückner"),
        ]
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert '{"real": "Dörte Hübner", "fake": "Bärbel Möller"}' in readme
        path = self._write(
            tmp_path, {"person": {"de": [{"real": r, "fake": f} for r, f in pairs]}}
        )
        with pytest.warns(UserWarning, match="person/de has only 3 demos"):
            loaded = load_pool_file(path)
        demos = loaded.pools[Label.PERSON][Locale.DE].demos
        assert [(d.real, d.fake) for d in demos] == pairs

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
        path = self._write(tmp_path, {"date": {"roman": []}})
        with pytest.raises(ValueError, match="unknown pool key"):
            load_pool_file(path)

    def test_line_break_demo_fails_at_load(self, tmp_path):
        pairs = [
            {"real": "Kenji\nTanaka", "fake": "Hiro Yamamoto"},
            {"real": "Aiko Suzuki", "fake": "Mei Kobayashi"},
            {"real": "Ren Watanabe", "fake": "Yuna Ito"},
            {"real": "Sora Nakamura", "fake": "Kaito Mori"},
        ]
        path = self._write(tmp_path, {"person": {"en": pairs}})
        with pytest.raises(ValueError, match="person/en/0: contains a line break"):
            load_pool_file(path)

    def test_every_label_loads_through_one_path(self, tmp_path, catalog):
        # one replacement per family: its first shipped pool with the sides
        # swapped, which keeps closure
        payload = {
            label.name.lower(): {
                pool.key.value: [{"real": d.fake, "fake": d.real} for d in pool.demos]
            }
            for label, pools in catalog.pools.items()
            for pool in list(pools.values())[:1]
        }
        loaded = load_pool_file(self._write(tmp_path, payload))
        for label, pools in catalog.pools.items():
            first = next(iter(pools.values()))
            swapped = loaded.pools[label][first.key]
            assert swapped.name == first.name
            assert [d.id for d in swapped.demos] == [d.id for d in first.demos]
            assert [(d.real, d.fake) for d in swapped.demos] == [
                (d.fake, d.real) for d in first.demos
            ]
            assert list(loaded.pools[label]) == list(pools)

    def test_entry_list_shape_enforced(self, tmp_path):
        path = self._write(tmp_path, {"person": {"en": 5}})
        with pytest.raises(ValueError, match="pool person/en must be a list of demos"):
            load_pool_file(path)

    def test_unreadable_file_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read pool file .*missing.json"):
            load_pool_file(tmp_path / "missing.json")
        path = tmp_path / "pools.json"
        path.write_text("{bad", encoding="utf-8")
        with pytest.raises(ValueError, match="pool file .*pools.json is not JSON"):
            load_pool_file(path)

    def test_entry_shape_enforced(self, tmp_path):
        path = self._write(tmp_path, {"person": {"en": [{"real": "only real"}]}})
        with pytest.raises(ValueError, match="needs real and fake"):
            load_pool_file(path)

    @pytest.mark.parametrize("side", ["real", "fake"])
    @pytest.mark.parametrize("value", [None, 123, ["Ada Byron"]], ids=repr)
    def test_a_side_that_is_not_a_string_is_refused(self, tmp_path, side, value):
        entries = [
            {"real": "Kenji Tanaka", "fake": "Hiro Yamamoto"},
            {"real": "Aiko Suzuki", "fake": "Mei Kobayashi"},
            {"real": "Ren Watanabe", "fake": "Yuna Ito"},
            {"real": "Sora Nakamura", "fake": "Kaito Mori"},
        ]
        entries[2] = {**entries[2], side: value}
        path = self._write(tmp_path, {"person": {"en": entries}})
        with pytest.raises(
            ValueError, match="^pool person/en entry 2: real and fake must be strings$"
        ):
            load_pool_file(path)


def test_builtin_catalog_is_cached():
    assert builtin_catalog() is builtin_catalog()
