"""Shape and determinism of the seeded fake-value generator."""

import hmac
import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from piisub.detection import detect_rules
from piisub.fakegen import draw_seed, fake_value
from piisub.locales import DateFormat, Locale, classify_date_format, classify_locale
from piisub.model import CacheKey, Label, Mode
from piisub.prompting import stable_seed

ALL_LOCALES = list(Locale)


def fresh(name="doc-1"):
    return random.Random(stable_seed(name))


def key(canonical="walter abernathy", label=Label.PERSON, mode=Mode.FAKER, family="faker"):
    return CacheKey(mode=mode, family=family, canonical=canonical, label=label)


def draw(k, locale=Locale.EN):
    return fake_value(k.label, locale, random.Random(draw_seed(k)))


class TestDeterminism:
    def test_same_key_same_value(self):
        assert draw_seed(key()) == draw_seed(key())
        assert draw(key()) == draw(key())
        for label in Label:
            assert draw(key(label=label)) == draw(key(label=label))

    def test_different_keys_diverge(self):
        seeds = {
            draw_seed(k)
            for k in (
                key(),
                key(canonical="walter abernathy."),
                key(label=Label.ADDRESS),
                key(mode=Mode.HYBRID),
                key(family="mock-pool"),
                # the fields are kept apart, not joined into one string
                key(family="command:x", canonical="y"),
                key(family="command", canonical="x:y"),
            )
        }
        assert len(seeds) == 7
        values = [draw(key(canonical=f"person {i}")) for i in range(20)]
        assert len(set(values)) > 10

    def test_secret_keys_every_seed(self):
        keys = [key(canonical=f"person {i}") for i in range(20)]
        unkeyed = {draw_seed(k) for k in keys}
        assert {draw_seed(k, b"") for k in keys} == unkeyed
        seen = set(unkeyed)
        for secret in (b"s3cret", b"s3creT", b"\0"):
            keyed = [draw_seed(k, secret) for k in keys]
            assert keyed == [draw_seed(k, secret) for k in keys]
            assert not seen & set(keyed)
            seen.update(keyed)

    @given(st.permutations(range(12)))
    def test_value_does_not_depend_on_other_keys_draws(self, order):
        keys = [key(canonical=f"entity {i}", label=list(Label)[i % 8]) for i in range(12)]
        alone = [draw(k) for k in keys]
        # one shared pass in another order, with extra draws between keys
        shared = {}
        noise = fresh("noise")
        for i in order:
            fake_value(Label.PHONE, Locale.EN, noise)
            shared[i] = draw(keys[i])
        assert [shared[i] for i in range(12)] == alone


#: Characters JSON escapes or that are easy to mis-encode: quotes,
#: backslashes, control characters, U+2028/U+2029, non-BMP text.
_AWKWARD = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\u2028\u2029é東😀\U0010fffd'),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=12,
)


class TestSeedMessage:
    """`draw_seed` hashes `json.dumps(["fake", mode, family, label,
    canonical], ensure_ascii=False)`, however it builds that message."""

    @given(
        mode=st.sampled_from(list(Mode)),
        label=st.sampled_from(list(Label)),
        family=_AWKWARD,
        canonical=_AWKWARD,
    )
    def test_message_is_the_json_of_the_key(self, mode, label, family, canonical):
        k = key(canonical=canonical, label=label, mode=mode, family=family)
        message = json.dumps(
            ["fake", mode.value, family, label.name, canonical], ensure_ascii=False
        )
        assert draw_seed(k) == stable_seed(message)
        digest = hmac.digest(b"s3cret", message.encode("utf-8"), "sha256")
        assert draw_seed(k, b"s3cret") == int.from_bytes(digest[:8], "big")

    @pytest.mark.parametrize(
        "k, unkeyed, keyed",
        [
            (key(), 13416438763288135807, 8817084613049826391),
            (
                key(
                    canonical='東京都 "quoted" \\ back\u2028',
                    label=Label.ADDRESS,
                    mode=Mode.HYBRID,
                    family="mock-pool",
                ),
                17908177984139264940,
                3123681493833934382,
            ),
            (
                key(
                    canonical="x\x01\U0001F600",
                    label=Label.SECRET,
                    mode=Mode.REDACT,
                    family="redact",
                ),
                12432065278776193458,
                7802612152206721924,
            ),
        ],
    )
    def test_pinned_seeds(self, k, unkeyed, keyed):
        assert draw_seed(k) == unkeyed
        assert draw_seed(k, b"s3cret") == keyed


class TestShapes:
    @pytest.mark.parametrize("locale", ALL_LOCALES)
    def test_person_matches_locale(self, locale):
        value = fake_value(Label.PERSON, locale, fresh())
        assert classify_locale(value) in (locale, Locale.EN)
        if locale in (Locale.JA, Locale.ZH):
            assert classify_locale(value) is locale
        else:
            assert " " in value

    @pytest.mark.parametrize("locale", ALL_LOCALES)
    def test_address_nonempty_per_locale(self, locale):
        value = fake_value(Label.ADDRESS, locale, fresh())
        assert value.strip() == value and value

    @pytest.mark.parametrize(
        "fmt",
        [
            DateFormat.MDY_SLASH,
            DateFormat.YMD_DASH,
            DateFormat.DMY_DASH_MON,
            DateFormat.DMY_SLASH,
        ],
    )
    def test_date_round_trips_format(self, fmt):
        for i in range(30):
            value = fake_value(
                Label.DATE, Locale.EN, fresh(f"d{i}"), date_format=fmt
            )
            assert classify_date_format(value) is fmt

    def test_dmy_slash_day_always_past_twelve(self):
        # a day of 12 or less would re-classify as month-first
        for i in range(50):
            value = fake_value(
                Label.DATE, Locale.EN, fresh(f"x{i}"), date_format=DateFormat.DMY_SLASH
            )
            assert int(value.split("/")[0]) >= 13

    def test_date_years_fenced(self):
        for fmt in DateFormat:
            for i in range(20):
                value = fake_value(
                    Label.DATE, Locale.EN, fresh(f"y{fmt.value}{i}"), date_format=fmt
                )
                year = max(int(n) for n in re.findall(r"\d+", value))
                assert 2020 <= year <= 2039

    def test_unknown_format_falls_back_to_prose(self):
        value = fake_value(
            Label.DATE, Locale.EN, fresh(), date_format=DateFormat.UNKNOWN
        )
        assert classify_date_format(value) is DateFormat.UNKNOWN
        assert re.fullmatch(r"[A-Z][a-z]+ \d{1,2}, \d{4}", value)

    def test_email_is_ascii(self):
        for locale in ALL_LOCALES:
            for i in range(10):
                value = fake_value(Label.EMAIL, locale, fresh(f"e{i}"))
                assert value.isascii()
                assert re.fullmatch(r"[a-z]+\.[a-z]+\d{2}@[a-z]+\.(com|net|org|io)", value)

    def test_phone_shape(self):
        value = fake_value(Label.PHONE, Locale.EN, fresh())
        assert re.fullmatch(r"\(\d{3}\) 555-\d{4}", value)

    def test_account_shape(self):
        value = fake_value(Label.ACCOUNT, Locale.EN, fresh())
        assert value.isdigit() and len(value) == 10

    def test_url_shape(self):
        value = fake_value(Label.URL, Locale.EN, fresh())
        assert re.fullmatch(r"https://[a-z.]+/[a-z]+/\d+", value)

    def test_secret_shape(self):
        value = fake_value(Label.SECRET, Locale.EN, fresh())
        assert re.fullmatch(r"sk_[0-9a-f]{20}", value)

    @pytest.mark.parametrize(
        "label", [Label.EMAIL, Label.PHONE, Label.ACCOUNT, Label.URL, Label.DATE]
    )
    def test_rule_detector_recognizes_own_fakes(self, label):
        # substituted values must stay detectable, or a second pass would leak
        for i in range(10):
            value = fake_value(label, Locale.EN, fresh(f"r{label.name}{i}"))
            text = f"field: {value} end"
            hits = [s for s in detect_rules(text) if s.label is label]
            assert hits, (label, value)
            assert any(s.surface == value for s in hits)

    @given(st.text(min_size=1, max_size=12))
    def test_all_labels_total_and_stripped(self, record_id):
        state = fresh(record_id)
        for label in Label:
            value = fake_value(label, Locale.EN, state)
            assert value == value.strip() and value
