"""Demo sampling and prompt round-trip behavior.

The sampler's frozen values below were produced independently (MD5 head plus
a hand-rolled splitmix64 step), so a regression in either primitive shows up
as a value mismatch, not just as self-consistency.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piisub.locales import Locale
from piisub.model import (
    SLM_LABELS,
    Label,
    RejectionReason,
    Source,
    SurrogateDecision,
    canonicalize,
)
from piisub.pools import Demo, load_pool_file
from piisub.prompting import (
    SAMPLE_SIZE,
    DemoStrategy,
    InvalidInput,
    PoolRegurgStats,
    PoolTooSmall,
    RegurgitationReport,
    analyze_regurgitation,
    build_prompt,
    sample_demos,
    splitmix64,
    stable_seed,
    validate_response,
)

# Reference stream for splitmix64 seeded with 0.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_splitmix64_reference_vectors():
    state = 0
    for expected in SPLITMIX64_SEED0:
        out, state = splitmix64(state)
        assert out == expected


def test_splitmix64_outputs_fit_64_bits():
    state = 12345
    for _ in range(100):
        out, state = splitmix64(state)
        assert 0 <= out < 2**64
        assert 0 <= state < 2**64


def test_stable_seed_is_md5_head():
    # md5("") = d41d8cd98f00b204e9800998ecf8427e
    assert stable_seed("") == 0xD41D8CD98F00B204
    assert stable_seed("John Carter") == 0x0D6BD998E7D8BCBF


def _pool(n):
    return tuple(Demo(f"real{i}", f"fake{i}", f"p/x/{i}") for i in range(n))


class TestSampleDemos:
    def test_frozen_picks(self):
        # independently computed partial Fisher-Yates selections
        demos = _pool(8)
        assert [d.id for d in sample_demos(demos, "Walter Abernathy")] == [
            "p/x/4",
            "p/x/6",
            "p/x/7",
        ]
        assert [d.id for d in sample_demos(demos, "Edith Goodwin")] == [
            "p/x/2",
            "p/x/3",
            "p/x/5",
        ]
        assert [d.id for d in sample_demos(_pool(5), "04/12/1975")] == [
            "p/x/2",
            "p/x/1",
            "p/x/3",
        ]

    def test_too_small(self):
        with pytest.raises(PoolTooSmall, match="has 2 demos, need 3"):
            sample_demos(_pool(2), "x")

    def test_exact_minimum_uses_all(self):
        picked = sample_demos(_pool(3), "anything")
        assert sorted(d.id for d in picked) == ["p/x/0", "p/x/1", "p/x/2"]

    @given(st.text(max_size=30), st.integers(min_value=3, max_value=10))
    def test_deterministic_and_distinct(self, text, n):
        demos = _pool(n)
        first = sample_demos(demos, text)
        second = sample_demos(demos, text)
        assert first == second
        assert len({d.id for d in first}) == SAMPLE_SIZE

    def test_different_inputs_rotate(self):
        demos = _pool(8)
        picks = {tuple(d.id for d in sample_demos(demos, f"input-{i}")) for i in range(40)}
        assert len(picks) > 10  # rotation, not a fixed subset


class TestBuildPrompt:
    def test_byte_exact_template(self):
        demos = (
            Demo("John Carter", "Marcus Chen", "person/en/0"),
            Demo("Linda Vasquez", "Olivia Brennan", "person/en/1"),
            Demo("David Kim", "Theo Pemberton", "person/en/2"),
        )
        assert build_prompt(demos, "Walter Abernathy") == (
            "Real: John Carter\nFake: Marcus Chen\n"
            "Real: Linda Vasquez\nFake: Olivia Brennan\n"
            "Real: David Kim\nFake: Theo Pemberton\n"
            "Real: Walter Abernathy\nFake:"
        )

    def test_input_trimmed(self):
        demos = _pool(3)
        assert build_prompt(demos, "  x  ").endswith("Real: x\nFake:")

    def test_wrong_demo_count(self):
        with pytest.raises(InvalidInput):
            build_prompt(_pool(2), "x")

    @pytest.mark.parametrize("bad", ["", "   ", "a\nb", "a\rb"])
    def test_unrenderable_input(self, bad):
        with pytest.raises(InvalidInput):
            build_prompt(_pool(3), bad)


class TestValidateResponse:
    def test_accepts_clean_value(self):
        assert validate_response("Maria Lind", "Walter A") == ("Maria Lind", None)

    def test_strips_fake_prefix_and_whitespace(self):
        assert validate_response("  Fake: Maria Lind \n", "W") == ("Maria Lind", None)

    def test_first_nonempty_line_wins(self):
        assert validate_response("\n\nMaria Lind\nReal: junk", "W")[0] == "Maria Lind"

    @pytest.mark.parametrize(
        "raw",
        ['"Maria Lind"', "'Maria Lind'", "“Maria Lind”", "‘Maria Lind’", '" Maria Lind "'],
    )
    def test_quote_unwrapping(self, raw):
        assert validate_response(raw, "W") == ("Maria Lind", None)

    def test_empty_rejected(self):
        assert validate_response("", "W") == (None, RejectionReason.EMPTY)
        assert validate_response("  \n ", "W") == (None, RejectionReason.EMPTY)
        assert validate_response("Fake:", "W") == (None, RejectionReason.EMPTY)

    def test_identity_rejected_canonically(self):
        assert validate_response("walter  SMITH", "Walter Smith") == (
            None,
            RejectionReason.IDENTITY,
        )

    def test_punctuation_only_rejected(self):
        assert validate_response("-- ?!", "W") == (
            None,
            RejectionReason.PUNCTUATION_ONLY,
        )

    @settings(max_examples=120)
    @given(st.text(max_size=40), st.text(min_size=1, max_size=20).filter(str.strip))
    def test_never_raises(self, completion, input_text):
        value, reason = validate_response(completion, input_text)
        assert (value is None) != (reason is None)


class TestAnalyzeRegurgitation:
    def slm(self, value):
        return SurrogateDecision(value, Source.SLM, demos_used=("a", "b", "c"))

    def test_copy_classification(self, catalog):
        en_fake = catalog.pools[Label.PERSON][Locale.EN].demos[0].fake  # "Marcus Chen"
        en_real = catalog.pools[Label.PERSON][Locale.EN].demos[1].real  # "Linda Vasquez"
        samples = [
            ("Walter A", Label.PERSON, self.slm(en_fake)),  # output copy
            ("Edith G", Label.PERSON, self.slm(en_real)),  # input copy
            ("Vernon O", Label.PERSON, self.slm("Totally Novel")),
            (
                "Doreen K",
                Label.PERSON,
                SurrogateDecision(
                    "Fallback Name",
                    Source.FALLBACK_FAKE,
                    rejection_reasons=(RejectionReason.IDENTITY,),
                ),
            ),
        ]
        report = analyze_regurgitation(samples, catalog)
        assert report.total_unique == 4
        assert report.slm_decisions == 3
        assert report.output_copies == 1
        assert report.input_copies == 1
        assert report.novel == 1
        assert report.fallback_decisions == 1
        assert report.fallback_reasons == Counter({"identity": 1})
        assert report.cross_pool_copies == 0
        stats = report.by_input_pool["person/en"]
        assert stats.slm_decisions == 3
        assert stats.ceiling == 16  # both sides of the 8-pair en pool

    def test_cross_pool_copy_detected(self, catalog):
        ja_fake = catalog.pools[Label.PERSON][Locale.JA].demos[0].fake
        report = analyze_regurgitation(
            [("Walter A", Label.PERSON, self.slm(ja_fake))], catalog
        )
        assert report.output_copies == 1
        assert report.cross_pool_copies == 1

    def test_dedupe_by_canonical_surface(self, catalog):
        fake = catalog.pools[Label.PERSON][Locale.EN].demos[0].fake
        samples = [
            ("Walter A", Label.PERSON, self.slm(fake)),
            ("walter  a", Label.PERSON, self.slm(fake)),
        ]
        report = analyze_regurgitation(samples, catalog)
        assert report.total_unique == 1

    def test_non_slm_labels_ignored(self, catalog):
        samples = [("x@y.com", Label.EMAIL, SurrogateDecision("z@w.com", Source.FAKE))]
        report = analyze_regurgitation(samples, catalog)
        assert report.total_unique == 0


def reference_analyze_regurgitation(samples, catalog):
    """The scanning analysis that the copy index replaced, kept verbatim: it
    searches every demo set, fake sides first, for each decision."""
    report = RegurgitationReport()
    named_sets = list(catalog.iter_named_demo_sets())
    seen = set()
    for surface, label, decision in samples:
        if label not in SLM_LABELS:
            continue
        key = (canonicalize(surface), label)
        if key in seen:
            continue
        seen.add(key)
        report.total_unique += 1
        if decision.source is Source.FALLBACK_FAKE:
            report.fallback_decisions += 1
            for reason in decision.rejection_reasons:
                report.fallback_reasons[reason.value] += 1
            continue
        if decision.source is not Source.SLM:
            continue
        report.slm_decisions += 1
        own_pool = catalog.pool_for(label, surface)
        stats = report.by_input_pool.get(own_pool.name)
        if stats is None:
            stats = PoolRegurgStats(ceiling=2 * len(own_pool))
            report.by_input_pool[own_pool.name] = stats
        stats.slm_decisions += 1
        stats.surrogates.add(decision.surrogate)
        trimmed = decision.surrogate.strip()
        matched_pool = None
        side = None
        for name, demos in named_sets:
            if any(d.fake.strip() == trimmed for d in demos):
                matched_pool, side = name, "fake"
                break
        if matched_pool is None:
            for name, demos in named_sets:
                if any(d.real.strip() == trimmed for d in demos):
                    matched_pool, side = name, "real"
                    break
        if matched_pool is None:
            report.novel += 1
            continue
        if side == "fake":
            report.output_copies += 1
            stats.output_copies += 1
        else:
            report.input_copies += 1
            stats.input_copies += 1
        if matched_pool != own_pool.name:
            report.cross_pool_copies += 1
    return report


@pytest.fixture(scope="module")
def overlapping_catalog(tmp_path_factory):
    """The shipped pools plus an address/en pool whose real sides are fake
    sides of person/en ("Marcus Chen", "Olivia Brennan") and whose fake
    sides include a real side of person/en ("Linda Vasquez")."""
    pairs = [
        ("Marcus Chen", "88 Commerce Street, Austin TX 78701"),
        ("Olivia Brennan", "964 Harper Road, Nashville TN 37210"),
        ("Theo Pemberton", "Linda Vasquez"),
        ("450 Cedar Hollow, Boise ID 83702", "Maya Iyer"),
    ]
    path = tmp_path_factory.mktemp("pools") / "pools.json"
    path.write_text(
        json.dumps({"address": {"en": [{"real": r, "fake": f} for r, f in pairs]}}),
        encoding="utf-8",
    )
    return load_pool_file(path)


def _demo_strings(catalog):
    return sorted(
        {text for _, demos in catalog.iter_named_demo_sets()
         for d in demos for text in (d.real, d.fake)}
    )


class TestCopyIndexEqualsTheScan:
    def test_overlap_is_present(self, overlapping_catalog):
        report = analyze_regurgitation(
            [
                ("Walter A", Label.ADDRESS, _decision("Marcus Chen", Source.SLM)),
                ("Edith G", Label.PERSON, _decision("Linda Vasquez", Source.SLM)),
            ],
            overlapping_catalog,
        )
        # fake sides win over the input's own pool: both strings are output
        # copies matched in the other pool
        assert report.output_copies == 2 and report.input_copies == 0
        assert report.cross_pool_copies == 2

    def test_every_demo_string_from_every_pool(self, overlapping_catalog):
        surfaces = ["Walter A", "Hans Müller", "Calle Luna 3", "山田さくら", "李伟",
                    "04/12/1975", "1975-04-12", "spring"]
        samples = [
            # distinct surfaces, so no sample is folded into another
            (f"{surface} {i} {len(pad)}", label, _decision(pad + text + pad, Source.SLM))
            for i, text in enumerate(_demo_strings(overlapping_catalog) + ["Novel"])
            for surface in surfaces
            for label in SLM_LABELS
            for pad in ("", " ")
        ]
        expected = reference_analyze_regurgitation(samples, overlapping_catalog)
        got = analyze_regurgitation(samples, overlapping_catalog)
        assert got == expected
        assert got.output_copies and got.input_copies and got.cross_pool_copies

    @settings(max_examples=150)
    @given(st.data())
    def test_drawn_samples(self, overlapping_catalog, data):
        strings = _demo_strings(overlapping_catalog) + ["Novel Name"]
        surfaces = ["Walter A", "walter  a", "Hans Müller", "山田さくら", "李伟",
                    "12-Apr-1975", "13/01/1975", "x@y.com"]
        drawn = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(surfaces),
                    st.sampled_from(list(Label)),
                    st.sampled_from(strings),
                    st.sampled_from(["", " ", "\t"]),
                    st.sampled_from([Source.SLM, Source.FALLBACK_FAKE, Source.FAKE]),
                ),
                max_size=30,
            )
        )
        samples = [
            (surface, label, _decision(pad + text + pad, source))
            for surface, label, text, pad, source in drawn
        ]
        assert analyze_regurgitation(samples, overlapping_catalog) == (
            reference_analyze_regurgitation(samples, overlapping_catalog)
        )


def _decision(surrogate, source):
    if source is Source.SLM:
        return SurrogateDecision(surrogate, source, demos_used=("a", "b", "c"))
    if source is Source.FALLBACK_FAKE:
        return SurrogateDecision(
            surrogate, source, rejection_reasons=(RejectionReason.EMPTY,)
        )
    return SurrogateDecision(surrogate, source)


def test_demo_strategy_values():
    # pinned: these spellings are the CLI contract
    assert DemoStrategy.ROTATING_LOCALE.value == "rotating_locale"
    assert DemoStrategy.FIXED_THREE.value == "fixed_three"
