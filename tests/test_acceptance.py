"""Release gate: the numbered reproduction targets, one test per target.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Everything here goes through public entry points (the CLI or the
pipeline API); expected numbers are frozen literals, not recomputed.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from conftest import run_records

from piisub.cli import main
from piisub.corpus import save_corpus, synth_corpus
from piisub.generation import splice
from piisub.locales import Locale, classify_date_format, classify_locale
from piisub.metrics import distinctness_rows, welch_from_stats
from piisub.model import Label, Mode, PiiSpan
from piisub.pipeline import RunConfig, compute_metrics
from piisub.prompting import sample_demos

CJK_POOLS = ("person/zh", "person/ja", "person/de")


@pytest.fixture(scope="module")
def multilingual_corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept-corpus") / "corpus-50.jsonl"
    main(["synth", "--n", "50", "--seed", "7", "--out", str(path)])
    return path


@pytest.fixture(scope="module")
def ner_payload(tmp_path_factory):
    """The full downstream-utility experiment at its default scale.

    200 synthetic documents, 160/40 split, seeds 11..15, 30 training passes,
    all three transformation modes against the untouched originals.
    """
    root = tmp_path_factory.mktemp("accept-ner")
    corpus_path = root / "corpus-200.jsonl"
    save_corpus(synth_corpus(200, seed=1), corpus_path)
    main(["ner", "--corpus", str(corpus_path), "--out", str(root)])
    return json.loads((root / "ner.json").read_text(encoding="utf-8"))


def _load(run_dir, name):
    return json.loads((run_dir / name).read_text(encoding="utf-8"))


def sample_sd_from_population(pop_sd: float, n: int) -> float:
    """Convert a population SD to the sample (n-1) convention."""
    if n < 2:
        raise ValueError("need n >= 2 to form a sample SD")
    return pop_sd * math.sqrt(n / (n - 1))


def test_c01_sample_sd_conversion():
    assert sample_sd_from_population(2.0, 5) == pytest.approx(2.0 * math.sqrt(5 / 4))
    with pytest.raises(ValueError):
        sample_sd_from_population(1.0, 1)


def test_c01_welch_reference_statistics():
    pop = welch_from_stats(0.506, 0.056, 5, 0.346, 0.044, 5)
    assert pop.se == pytest.approx(0.032, abs=1e-3)
    assert pop.t == pytest.approx(5.02, abs=0.02)
    assert pop.dof == pytest.approx(7.6, abs=0.1)
    assert pop.p < 0.001

    sample = welch_from_stats(
        0.506, sample_sd_from_population(0.056, 5), 5,
        0.346, sample_sd_from_population(0.044, 5), 5,
    )
    assert sample.t == pytest.approx(4.49, abs=0.03)


def test_c02_ttr_reference_display():
    # 9*28 + 22 = 274 mentions over 10 distinct surrogates
    (row,) = distinctness_rows(
        (Label.PERSON, f"name-{i}", 28 if i < 9 else 22) for i in range(10)
    )
    assert (row.mentions, row.unique_surrogates) == (274, 10)
    assert row.ttr_display == 0.037

    (row,) = distinctness_rows(
        (Label.PERSON, f"name-{i}", 9) for i in range(18)
    )
    assert (row.mentions, row.unique_surrogates) == (162, 18)
    assert row.ttr_display == 0.111


def test_c03_fixed_demos_echo_but_rotation_stays_clean(
    multilingual_corpus_file, tmp_path, catalog
):
    main([
        "run", "--mode", "hybrid",
        "--demo-strategy", "fixed_three", "--slm-backend", "mock-echo-demo",
        "--corpus", str(multilingual_corpus_file),
        "--out", str(tmp_path), "--run-id", "echo", "--no-ppl",
    ])
    echo_dir = tmp_path / "echo"
    regurg = _load(echo_dir, "regurgitation.json")
    pools = regurg["by_input_pool"]
    slm = sum(pools[name]["slm_decisions"] for name in CJK_POOLS)
    copies = sum(pools[name]["output_copies"] for name in CJK_POOLS)
    assert slm > 0
    assert copies / slm >= 0.95

    # the copies are specifically the first fixed demo's fake side
    first_fake = catalog.pilot[Label.PERSON][0].fake
    echoed = total = 0
    for doc in _load(echo_dir, "results.json")["documents"]:
        if doc["locale"] not in ("zh_CN", "ja_JP", "de_DE"):
            continue
        for group in doc["groups"]:
            if group["label"] != "PERSON":
                continue
            total += 1
            decision = group["decision"]
            if decision["source"] == "slm" and decision["surrogate"] == first_fake:
                echoed += 1
    assert total > 0
    assert echoed / total >= 0.95

    main([
        "run", "--mode", "hybrid",
        "--demo-strategy", "rotating_locale", "--slm-backend", "mock-pool",
        "--corpus", str(multilingual_corpus_file),
        "--out", str(tmp_path), "--run-id", "rotating", "--no-ppl",
    ])
    regurg = _load(tmp_path / "rotating", "regurgitation.json")
    assert regurg["cross_pool_copies"] == 0
    assert regurg["fallback_decisions"] == 0
    assert regurg["fallback_reasons"] == {}
    assert regurg["slm_decisions"] == regurg["total_unique"]


def test_c04_copying_backend_hits_the_2x_pool_ceiling(catalog):
    corpus = synth_corpus(160, seed=11, locale_mix={"en_US": 1.0})
    hybrid = run_records(corpus, RunConfig(mode=Mode.HYBRID))
    faker = run_records(corpus, RunConfig(mode=Mode.FAKER))

    def unique_person_surrogates(results):
        return len({
            g.decision.surrogate
            for doc in results.documents
            for g in doc.groups
            if g.group.label is Label.PERSON
        })

    ceiling = 2 * len(catalog.pools[Label.PERSON][Locale.EN])
    assert ceiling == 16
    hybrid_unique = unique_person_surrogates(hybrid)
    assert 0 < hybrid_unique <= ceiling
    assert unique_person_surrogates(faker) >= 2 * hybrid_unique


def test_c05_placeholder_trained_tagger_scores_exactly_zero(ner_payload):
    scores = ner_payload["scores"]["redact"]
    assert scores["f1_by_seed"] == [0.0, 0.0, 0.0, 0.0, 0.0]
    assert scores["mean"] == 0.0
    # degenerate despite having plenty of placeholder spans to train on
    assert all(spans > 0 for spans in scores["train_spans_by_seed"])


def test_c06_downstream_utility_ordering(ner_payload):
    mean = {
        name: ner_payload["scores"][name]["mean"]
        for name in ("original", "faker", "hybrid", "redact")
    }
    assert mean["original"] > mean["faker"] > mean["hybrid"] > mean["redact"]
    assert mean["redact"] == 0.0
    welch = ner_payload["comparisons"]["faker_vs_hybrid"]
    assert welch is not None
    assert welch["p"] < 0.05


def test_c07_leak_floor_identical_across_modes():
    def leak_by_mode(records):
        blobs = {}
        for mode in Mode:
            results = run_records(records, RunConfig(mode=mode))
            leak = compute_metrics(results).leak
            blobs[mode] = json.dumps(leak.to_json_dict(), sort_keys=True)
        return blobs

    rng = random.Random(99)
    for _ in range(6):
        corpus = synth_corpus(rng.randint(2, 6), seed=rng.randint(0, 10_000))
        blobs = leak_by_mode(corpus)
        assert len(set(blobs.values())) == 1
        assert json.loads(blobs[Mode.REDACT])["rate"] == 0.0


def test_c08_consistency_is_always_perfect(small_corpus):
    for mode in Mode:
        results = run_records(small_corpus, RunConfig(mode=mode))
        report = compute_metrics(results).consistency
        assert report.multi_mention_groups > 0
        assert report.rate == 1.0
        # every written span of a group reads the group's surrogate
        assert report.occurrence_discrepancies == 0
        # decision level: one surrogate per entity across the whole run
        by_entity: dict[tuple, set[str]] = {}
        for doc in results.documents:
            for g in doc.groups:
                key = (g.group.label, g.group.canonical)
                by_entity.setdefault(key, set()).add(g.decision.surrogate)
        assert all(len(surrogates) == 1 for surrogates in by_entity.values())


def test_c09_splice_preserves_every_byte_outside_the_spans():
    chars = "abcdefg 東京市北区 \t\n.,-ABC012"
    rng = random.Random(0x5EED)
    for _ in range(1000):
        text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 160)))
        points = sorted(rng.sample(range(len(text) + 1), min(8, len(text) + 1)))
        spans = [
            (points[2 * i], points[2 * i + 1])
            for i in range(len(points) // 2)
            if points[2 * i + 1] > points[2 * i]
        ]
        replacements = [
            (
                PiiSpan(start, end, Label.PERSON, text[start:end]),
                "".join(rng.choice("XYZ≈ 12") for _ in range(rng.randint(0, 8))),
            )
            for start, end in spans
        ]
        rng.shuffle(replacements)
        out, starts = splice(text, replacements)

        expected = []
        cursor = 0
        for span, new in sorted(replacements, key=lambda item: item[0].start):
            expected.append(text[cursor:span.start])
            stripped = span.surface.strip()
            if stripped == span.surface:
                expected.append(new)
            elif not stripped:
                expected.append(span.surface)
            else:
                head = len(span.surface) - len(span.surface.lstrip())
                expected.append(
                    span.surface[:head] + new + span.surface[len(span.surface.rstrip()):]
                )
            cursor = span.end
        expected.append(text[cursor:])
        assert out == "".join(expected)

        # each start, in the order given, is where its new value was written;
        # a whitespace-only surface is kept where it landed
        assert len(starts) == len(replacements)
        for (span, new), start in zip(replacements, starts):
            written = new if span.surface.strip() else span.surface
            assert out[start:start + len(written)] == written


def test_c10_reruns_are_byte_identical_and_sampling_is_stable(
    multilingual_corpus_file, tmp_path, catalog
):
    out_dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        main(["run", "--mode", "all", "--corpus", str(multilingual_corpus_file), "--out", str(out)])
        out_dirs.append(out)
    run_names = sorted(p.name for p in out_dirs[0].iterdir())
    assert run_names == sorted(p.name for p in out_dirs[1].iterdir())
    assert len(run_names) == 3
    for run_name in run_names:
        # timings are wall-clock; everything else must not vary
        artifacts = sorted(
            p.name for p in (out_dirs[0] / run_name).iterdir() if p.name != "timings.json"
        )
        assert "results.json" in artifacts and "metrics.json" in artifacts
        for artifact in artifacts:
            first = (out_dirs[0] / run_name / artifact).read_bytes()
            second = (out_dirs[1] / run_name / artifact).read_bytes()
            assert first == second, f"{run_name}/{artifact} differs between reruns"

    demos = catalog.pools[Label.PERSON][Locale.EN].demos
    rng = random.Random(123)
    for _ in range(10_000):
        s = "".join(chr(rng.randint(32, 0x2FA0)) for _ in range(rng.randint(0, 24)))
        picked = [d.id for d in sample_demos(demos, s)]
        assert picked == [d.id for d in sample_demos(demos, s)]
        assert len(set(picked)) == 3


def test_c11_builtin_demos_classify_back_to_their_own_pool(catalog):
    for locale, pool in catalog.pools[Label.PERSON].items():
        for demo in pool.demos:
            assert classify_locale(demo.real) is locale, demo.id
            assert classify_locale(demo.fake) is locale, demo.id
    for locale, pool in catalog.pools[Label.ADDRESS].items():
        for demo in pool.demos:
            assert classify_locale(demo.real) is locale, demo.id
            assert classify_locale(demo.fake) is locale, demo.id
    for fmt, pool in catalog.pools[Label.DATE].items():
        for demo in pool.demos:
            assert classify_date_format(demo.real) is fmt, demo.id
            assert classify_date_format(demo.fake) is fmt, demo.id
