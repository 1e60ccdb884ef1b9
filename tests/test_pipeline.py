"""End-to-end run behavior: determinism, caching, metrics, artifacts."""

import json
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import fields, replace

import pytest
from conftest import run_records
from hypothesis import given, settings
from hypothesis import strategies as st

from piisub.corpus import synth_corpus
from piisub.detection import ExternalDetector, detect_oracle
from piisub.metrics import CharNgramScorer
from piisub.model import (
    SLM_LABELS,
    CorpusRecord,
    EntityGroup,
    Label,
    Mode,
    PiiSpan,
    RejectionReason,
    Source,
    SurrogateDecision,
    canonicalize,
    ci_any_matcher,
    ci_fold,
    folded_contains,
)
from piisub.pipeline import (
    EXECUTION_FIELDS,
    DocumentResult,
    GroupResult,
    RunConfig,
    RunResults,
    _document_json,
    compute_metrics,
    corpus_digest,
    corpus_fingerprint,
    derive_run_id,
    perplexity_reference,
    persist_run,
    regurgitation_for_results,
    write_json,
    write_results,
)
from piisub.prompting import DemoStrategy


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(20, seed=5)


def run(corpus, mode, **overrides):
    return run_records(corpus, RunConfig(mode=mode, **overrides))


def written(results):
    """What results.json holds of a run besides its config and id: each
    document as written, and the cache counters."""
    documents = [_document_json(d) for d in results.documents]
    return documents, results.proposals_made, results.cache_hits


def persist(results, out_dir):
    """Persist a run with its metrics, perplexity off; the run directory."""
    run_dir, _ = persist_run(results, out_dir, compute_metrics(results))
    return run_dir


def with_planted_collisions(corpus, mode):
    """The corpus plus one record whose values collide with its surrogates.

    Synthetic fakes never collide with synthetic ground truth, so the leak
    guard never fires on a plain synthetic corpus. This plants every fifth
    unguarded surrogate, upper-cased, as one more record's values.
    """
    planted: dict[Label, list[str]] = {}
    for doc in run(corpus, mode, leak_guard=False).documents:
        for g in doc.groups[::5]:
            value = g.decision.surrogate.upper()
            planted.setdefault(g.group.label, []).append(value)
    text = "; ".join(v for values in planted.values() for v in values)
    return [*corpus, CorpusRecord("planted", text, "en_US", "planted", planted)]


class ExternalOracle:
    """Detection through the external detector, answered in process: its
    transport replies to each text with the record's oracle spans as span
    lines, after the record's delay, if it has one. A run through it builds
    an `ExternalDetector`, so at `parallelism` > 1 its tasks go to a pool;
    `pooled` is true when the last run's detector calls all came from
    threads other than the caller's."""

    def __init__(self, monkeypatch, delays=None):
        self.records = {}
        self.delays = delays or {}
        self.threads = set()

        def transport(detector, text):
            self.threads.add(threading.current_thread())
            record = self.records[text]
            time.sleep(self.delays.get(record.id, 0))
            return "".join(
                json.dumps({"start": s.start, "end": s.end, "label": s.label.name})
                + "\n"
                for s in detect_oracle(record)
            )

        monkeypatch.setattr(ExternalDetector, "_transport", transport)

    def run(self, records, mode, *, fake_secret=b"", **overrides):
        self.records.update((r.text, r) for r in records)
        self.threads.clear()
        config = RunConfig(
            mode=mode, detector="external", detector_command="unused", **overrides
        )
        return run_records(records, config, fake_secret=fake_secret)

    @property
    def pooled(self):
        return bool(self.threads) and threading.current_thread() not in self.threads


class TestRunIdentity:
    def test_fingerprint_depends_on_text(self, corpus):
        base = corpus_fingerprint(corpus)
        changed = [
            CorpusRecord(r.id, r.text + "!", r.locale, r.template, r.pii_gt)
            for r in corpus
        ]
        assert corpus_fingerprint(changed) != base
        assert corpus_fingerprint(corpus) == base

    def test_run_id_stable_and_config_sensitive(self, corpus):
        digest = corpus_digest(corpus)
        a = derive_run_id(RunConfig(mode=Mode.REDACT), digest)
        b = derive_run_id(RunConfig(mode=Mode.REDACT), corpus_digest(corpus))
        c = derive_run_id(RunConfig(mode=Mode.FAKER), digest)
        assert a == b
        assert a != c
        assert len(a) == 12

    def test_run_id_ignores_execution_settings(self, corpus):
        base = derive_run_id(RunConfig(mode=Mode.HYBRID), corpus_digest(corpus))
        tuned = RunConfig(mode=Mode.HYBRID, parallelism=8)
        assert derive_run_id(tuned, corpus_digest(corpus)) == base
        recorded = tuned.to_json_dict()
        assert not EXECUTION_FIELDS & set(recorded)
        assert recorded["mode"] == "hybrid"
        assert recorded["demo_strategy"] == "rotating_locale"
        assert "run_id" not in recorded

    @pytest.mark.parametrize(
        "setting",
        [{"backend_timeout": 1.5}, {"failure_threshold": 2}, {"detector_timeout": 2.5}],
        ids=lambda s: next(iter(s)),
    )
    def test_run_id_keeps_settings_that_can_change_outputs(self, corpus, setting):
        # with a slow backend or detector these decide which calls fail
        adapters = {
            "backend_kind": "command",
            "backend_command": "echo {prompt}",
            "detector": "external",
            "detector_command": "detect",
        }
        config = RunConfig(mode=Mode.HYBRID, **adapters, **setting)
        assert config.to_json_dict().items() >= setting.items()
        digest = corpus_digest(corpus)
        assert derive_run_id(config, digest) != derive_run_id(
            RunConfig(mode=Mode.HYBRID, **adapters), digest
        )

    @pytest.mark.parametrize(
        "mode, setting",
        [
            (Mode.REDACT, {"backend_timeout": 5.0, "backend_command": "echo {prompt}"}),
            (Mode.REDACT, {"leak_guard": False}),
            (Mode.FAKER, {"backend_kind": "command", "failure_threshold": 2}),
            (Mode.FAKER, {"pool_file": "pools.json"}),
            (Mode.HYBRID, {"backend_command": "echo {prompt}", "backend_timeout": 5.0}),
            (Mode.HYBRID, {"detector_timeout": 2.5, "detector_url": "http://x"}),
            (Mode.HYBRID, {"detector": "rules", "detector_command": "detect"}),
        ],
        ids=lambda v: v.value if isinstance(v, Mode) else ",".join(v),
    )
    def test_a_setting_the_run_does_not_read_keeps_the_run_id(
        self, corpus, mode, setting
    ):
        config = RunConfig(mode=mode, **setting)
        plain = RunConfig(mode=mode, detector=config.detector)
        assert config.to_json_dict() == plain.to_json_dict()
        digest = corpus_digest(corpus)
        assert derive_run_id(config, digest) == derive_run_id(plain, digest)

    def test_every_setting_is_read_by_some_run(self):
        read = set().union(
            *(
                RunConfig(
                    mode=mode, backend_kind="command", detector="external"
                ).settings_read()
                for mode in Mode
            )
        )
        assert read == {f.name for f in fields(RunConfig)} - EXECUTION_FIELDS - {
            "run_id"
        }

    @pytest.mark.parametrize(
        "change",
        [
            lambda r: replace(r, locale=r.locale + "x"),
            lambda r: replace(r, template=r.template + "x"),
            lambda r: replace(r, pii_gt={}),
            lambda r: replace(
                r, pii_gt={label: values[:1] for label, values in r.pii_gt.items()}
            ),
            lambda r: replace(
                r,
                pii_gt={
                    Label.EMAIL if label is Label.PERSON else label: values
                    for label, values in r.pii_gt.items()
                },
            ),
        ],
        ids=["locale", "template", "no-ground-truth", "fewer-values", "other-label"],
    )
    def test_run_id_covers_what_the_fingerprint_leaves_out(self, corpus, change):
        # the run reads these too: two corpora that differ only here must
        # not write into one run directory
        changed = [change(corpus[0]), *corpus[1:]]
        assert changed[0] != corpus[0]
        assert corpus_fingerprint(changed) == corpus_fingerprint(corpus)
        config = RunConfig(mode=Mode.FAKER)
        assert derive_run_id(config, corpus_digest(changed)) != derive_run_id(
            config, corpus_digest(corpus)
        )

    def test_run_id_ignores_the_order_of_labels_in_the_ground_truth(self, corpus):
        # every reader of the ground truth walks it in label order
        reordered = [
            replace(r, pii_gt=dict(reversed(r.pii_gt.items())))
            for r in corpus
        ]
        config = RunConfig(mode=Mode.FAKER)
        assert derive_run_id(config, corpus_digest(reordered)) == derive_run_id(
            config, corpus_digest(corpus)
        )

    def test_explicit_run_id_wins(self, corpus):
        config = RunConfig(mode=Mode.REDACT, run_id="my-run")
        assert derive_run_id(config, corpus_digest(corpus)) == "my-run"


class TestModes:
    def test_redact_outputs_placeholders(self, corpus):
        results = run(corpus, Mode.REDACT)
        assert not results.failed_documents
        for doc in results.documents:
            assert "[PERSON]" in doc.output
            for g in doc.groups:
                assert g.decision.source is Source.REDACT

    def test_faker_outputs_no_placeholders(self, corpus):
        results = run(corpus, Mode.FAKER)
        assert not results.failed_documents
        for doc in results.documents:
            assert "[PERSON]" not in doc.output
            for g in doc.groups:
                assert g.decision.source is Source.FAKE

    def test_hybrid_mixes_sources(self, corpus):
        results = run(corpus, Mode.HYBRID)
        assert not results.failed_documents
        sources = {
            (g.group.label in {Label.PERSON, Label.ADDRESS, Label.DATE}, g.decision.source)
            for doc in results.documents
            for g in doc.groups
        }
        slm_side = {src for is_slm, src in sources if is_slm}
        fake_side = {src for is_slm, src in sources if not is_slm}
        assert slm_side <= {Source.SLM, Source.FALLBACK_FAKE}
        assert fake_side == {Source.FAKE}

    def test_redact_placeholder_is_the_label(self, corpus):
        results = run(corpus, Mode.REDACT)
        decisions = {
            g.group.label: g.decision.surrogate
            for doc in results.documents
            for g in doc.groups
        }
        assert len(decisions) > 1
        assert decisions == {label: f"[{label.name}]" for label in decisions}


class TestDeterminismAndLeak:
    def test_rerun_is_identical(self, corpus):
        for mode in (Mode.REDACT, Mode.FAKER, Mode.HYBRID):
            first = run(corpus, mode)
            second = run(corpus, mode)
            assert written(first) == written(second)

    def test_leak_zero_all_modes(self, corpus):
        for mode in (Mode.REDACT, Mode.FAKER, Mode.HYBRID):
            results = run(corpus, mode)
            metrics = compute_metrics(results)
            assert metrics.leak.rate == 0.0, mode

    def test_leak_totals_match_across_modes(self, corpus):
        totals = set()
        for mode in (Mode.REDACT, Mode.FAKER, Mode.HYBRID):
            metrics = compute_metrics(run(corpus, mode))
            totals.add(metrics.leak.total)
        assert len(totals) == 1

    def test_consistency_is_one(self, corpus):
        for mode in (Mode.REDACT, Mode.FAKER, Mode.HYBRID):
            results = run(corpus, mode)
            metrics = compute_metrics(results)
            assert metrics.consistency.rate == 1.0
            assert metrics.consistency.occurrence_discrepancies == 0

    def test_surrogates_never_contain_other_documents_pii(self, corpus):
        corpus = with_planted_collisions(corpus, Mode.FAKER)
        gt_values = {v.strip() for r in corpus for v in r.gt_values()}

        def leaks(results):
            return [
                (value, g.decision.surrogate)
                for doc in results.documents
                for g in doc.groups
                for value in gt_values
                if folded_contains(value, ci_fold(g.decision.surrogate))
            ]

        # the check must be able to fail: without the guard the planted
        # values come back as surrogates
        assert leaks(run(corpus, Mode.FAKER, leak_guard=False))
        assert leaks(run(corpus, Mode.FAKER)) == []

    @pytest.mark.parametrize("mode", [Mode.FAKER, Mode.HYBRID])
    def test_guard_decides_like_a_per_value_scan(self, mode, monkeypatch):
        import piisub.pipeline as pipeline

        corpus = with_planted_collisions(synth_corpus(200, seed=9), mode)
        fast = run(corpus, mode)
        hits = []

        def re_scan_matcher(values):
            patterns = [re.compile(re.escape(v), re.IGNORECASE) for v in values if v]

            def blocked(value):
                hit = any(p.search(value) for p in patterns)
                hits.append(hit)
                return hit

            return blocked

        monkeypatch.setattr(pipeline, "ci_any_matcher", re_scan_matcher)
        naive = run(corpus, mode)
        assert any(hits) and not all(hits)
        assert written(fast) == written(naive)

    @pytest.mark.parametrize("mode", [Mode.REDACT, Mode.FAKER, Mode.HYBRID])
    def test_guarded_run_builds_its_matcher_once(self, corpus, mode, monkeypatch):
        import piisub.pipeline as pipeline

        built = []

        def counting_matcher(values):
            built.append(list(values))
            return ci_any_matcher(built[-1])

        monkeypatch.setattr(pipeline, "ci_any_matcher", counting_matcher)
        external = ExternalOracle(monkeypatch)
        external.run(corpus, mode, parallelism=4)
        assert external.pooled
        assert len(built) == 1
        if mode is Mode.REDACT:
            # placeholders never reach the guard, so it blocks nothing
            assert built[0] == []
        else:
            assert set(built[0]) == {v.strip() for r in corpus for v in r.gt_values()}


class TestCacheBehavior:
    def test_shared_entities_hit_cache(self):
        base = synth_corpus(4, seed=2)
        # duplicate each document under a new id: same entities, new docs
        doubled = base + [
            CorpusRecord(r.id + "-copy", r.text, r.locale, r.template, r.pii_gt)
            for r in base
        ]
        results = run(doubled, Mode.FAKER)
        assert results.cache_hits > 0
        unique_groups = {
            (g.group.canonical, g.group.label)
            for d in results.documents
            for g in d.groups
        }
        assert results.proposals_made == len(unique_groups)

    def test_same_entity_same_surrogate_across_documents(self, corpus):
        results = run(corpus, Mode.FAKER)
        by_key = {}
        for doc in results.documents:
            for g in doc.groups:
                key = (g.group.canonical, g.group.label)
                by_key.setdefault(key, set()).add(g.decision.surrogate)
        assert all(len(s) == 1 for s in by_key.values())


@pytest.fixture(scope="module")
def shared_corpus():
    # large enough that many entities recur across documents
    return synth_corpus(300, seed=3)


def documents_by_id(results):
    return {d.record.id: _document_json(d) for d in results.documents}


class TestOrderIndependence:
    """Every decision is a pure function of its cache key, so neither the
    worker count, nor the record order, nor sharding can change a document."""

    @pytest.fixture(scope="class")
    def serial_dirs(self, shared_corpus, tmp_path_factory):
        out = tmp_path_factory.mktemp("serial")
        with pytest.MonkeyPatch.context() as monkeypatch:
            external = ExternalOracle(monkeypatch)
            return {
                mode: persist(external.run(shared_corpus, mode), out)
                for mode in Mode
            }

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_the_external_oracle_detects_like_the_oracle(
        self, corpus, mode, monkeypatch
    ):
        external = ExternalOracle(monkeypatch)
        assert documents_by_id(external.run(corpus, mode)) == documents_by_id(
            run(corpus, mode)
        )
        assert not external.pooled

    @pytest.mark.parametrize("parallelism", [2, 8])
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_parallel_equals_serial(
        self, shared_corpus, serial_dirs, mode, parallelism, tmp_path, monkeypatch
    ):
        external = ExternalOracle(monkeypatch)
        results = external.run(shared_corpus, mode, parallelism=parallelism)
        assert external.pooled
        run_dir = persist(results, tmp_path)
        serial_dir = serial_dirs[mode]
        assert run_dir.name == serial_dir.name
        for name in ("results.json", "metrics.json"):
            assert (run_dir / name).read_bytes() == (serial_dir / name).read_bytes()
        timings = json.loads((run_dir / "timings.json").read_text(encoding="utf-8"))
        assert timings["execution"]["parallelism"] == parallelism

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_reversed_order_keeps_each_document(self, mode):
        corpus = synth_corpus(100, seed=3)
        forward = documents_by_id(run(corpus, mode))
        backward = documents_by_id(run(corpus[::-1], mode))
        assert backward == forward

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_shards_equal_the_whole_run(self, mode):
        # the leak guard blocks the whole input corpus, so a shard's guard
        # differs from the whole run's; with it off nothing else may
        corpus = synth_corpus(100, seed=3)
        whole = documents_by_id(run(corpus, mode, leak_guard=False))
        shards = {}
        for shard in (corpus[:50], corpus[50:]):
            shards.update(documents_by_id(run(shard, mode, leak_guard=False)))
        assert shards == whole


#: Ten names, each written eight ways that differ only in case and spacing:
#: one key each, but a proposal reads the surface of the mention it is given.
PLANTED_NAMES = [
    "Walter Abernathy", "Edith Goodwin", "Marisol Ibarra", "Kenji Watanabe",
    "Fatima Okafor", "Lars Henriksen", "Priya Raman", "Tomasz Nowak",
    "Ingrid Solberg", "Diego Paredes",
]
SPELLINGS = [
    str,
    str.upper,
    str.lower,
    str.swapcase,
    lambda name: name.replace(" ", "  "),
    lambda name: name.upper().replace(" ", "   "),
    lambda name: name.lower().replace(" ", "\t"),
    lambda name: " ".join(w[0] + w[1:].upper() for w in name.split()),
]


def planted_spellings():
    records = []
    for i, spell in enumerate(SPELLINGS):
        names = [spell(name) for name in PLANTED_NAMES]
        text = "Present: " + "; ".join(names) + ". Minutes follow."
        records.append(
            CorpusRecord(f"v{i}", text, "en_US", "planted", {Label.PERSON: names})
        )
    return records


class TestRecordWalk:
    """The calling thread walks the records in order and alone asks the
    cache, so the first mention in record order proposes every key."""

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_parallel_equals_serial_when_the_first_document_is_slow(
        self, mode, monkeypatch
    ):
        records = planted_spellings()
        serial = run(records, mode)
        # every other worker reaches the names first
        external = ExternalOracle(monkeypatch, delays={"v0": 0.3})
        parallel = external.run(records, mode, parallelism=8)
        assert external.pooled
        assert documents_by_id(parallel) == documents_by_id(serial)
        assert (parallel.proposals_made, parallel.cache_hits) == (
            serial.proposals_made,
            serial.cache_hits,
        )

    @pytest.mark.parametrize("mode", [Mode.FAKER, Mode.HYBRID], ids=lambda m: m.value)
    def test_a_failed_proposal_fails_its_documents_alike_at_any_parallelism(
        self, shared_corpus, mode, monkeypatch
    ):
        import piisub.pipeline as pipeline
        from piisub.generation import dispatch

        corpus = shared_corpus[:120]
        mentions = {}
        for doc in run(corpus, mode).documents:
            for g in doc.groups:
                mentions.setdefault(g.group.canonical, set()).add(doc.record.id)
        doomed = max(mentions, key=lambda c: (len(mentions[c]), c))
        assert len(mentions[doomed]) > 1
        tries = []

        def dispatch_failing_one_key(surface, key, **kwargs):
            if key.canonical == doomed:
                tries.append(key)
                raise RuntimeError(f"no surrogate for {key.canonical}")
            return dispatch(surface, key, **kwargs)

        monkeypatch.setattr(pipeline, "dispatch", dispatch_failing_one_key)
        external = ExternalOracle(monkeypatch)
        runs = []
        for parallelism in (1, 4):
            tries.clear()
            results = external.run(corpus, mode, parallelism=parallelism)
            assert external.pooled == (parallelism > 1)
            # proposed once, by its first mention; the others read its error
            assert len(tries) == len(set(tries))
            assert {d.record.id for d in results.failed_documents} == mentions[doomed]
            assert {d.error for d in results.failed_documents} == {
                f"no surrogate for {doomed}"
            }
            assert all(d.output is None and not d.groups for d in results.failed_documents)
            runs.append(results)
        serial, parallel = runs
        assert documents_by_id(parallel) == documents_by_id(serial)
        assert (parallel.proposals_made, parallel.cache_hits) == (
            serial.proposals_made,
            serial.cache_hits,
        )

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_an_unhealthy_backend_stops_the_run(self, parallelism):
        from piisub.backends import BackendUnhealthy

        with pytest.raises(BackendUnhealthy, match="consecutive failures"):
            run(
                synth_corpus(50, seed=1),
                Mode.HYBRID,
                backend_kind="command",
                backend_command=f"{sys.executable} -c 'raise SystemExit(1)' '{{prompt}}'",
                failure_threshold=3,
                parallelism=parallelism,
            )

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_an_in_process_run_starts_no_pool(self, corpus, mode, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("an in-process run started a pool")

        serial = run(corpus, mode)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert documents_by_id(run(corpus, mode, parallelism=4)) == documents_by_id(
            serial
        )

    def test_a_command_backend_admits_parallelism_calls(self, monkeypatch):
        from piisub.backends import CommandBackend

        # Each call waits until four are inside the backend at once; a limit
        # narrower than the worker count breaks the barrier.
        barrier = threading.Barrier(4, timeout=10)

        def invoke(self, prompt):
            barrier.wait()
            return " Robin Vale"

        monkeypatch.setattr(CommandBackend, "_invoke", invoke)
        names = PLANTED_NAMES[:4]
        text = "Present: " + "; ".join(names) + "."
        records = [CorpusRecord("d0", text, "en_US", "t", {Label.PERSON: names})]
        results = run(
            records,
            Mode.HYBRID,
            backend_kind="command",
            backend_command="unused {prompt}",
            parallelism=4,
        )
        (doc,) = results.documents
        assert doc.error is None
        assert [g.decision.source for g in doc.groups] == [Source.SLM] * 4

    def test_a_waiting_document_holds_no_worker(self, monkeypatch):
        from piisub.backends import CommandBackend

        # Eight calls pass a barrier of four only in two full rounds: a
        # worker that waits for the first document's three proposals to
        # finish it leaves three calls in flight, and the barrier breaks.
        barrier = threading.Barrier(4, timeout=5)

        def invoke(self, prompt):
            barrier.wait()
            return " Robin Vale"

        monkeypatch.setattr(CommandBackend, "_invoke", invoke)
        records = []
        for rid, names in (("d0", PLANTED_NAMES[:3]), ("d1", PLANTED_NAMES[3:8])):
            text = "Present: " + "; ".join(names) + "."
            records.append(CorpusRecord(rid, text, "en_US", "t", {Label.PERSON: names}))
        results = run(
            records,
            Mode.HYBRID,
            backend_kind="command",
            backend_command="unused {prompt}",
            parallelism=4,
        )
        assert not results.failed_documents
        sources = [g.decision.source for d in results.documents for g in d.groups]
        assert sources == [Source.SLM] * 8

    def test_the_model_is_asked_once_per_key_at_parallelism_eight(
        self, shared_corpus, monkeypatch
    ):
        import threading
        from collections import Counter

        from piisub.backends import SlmBackend, parse_prompt

        asked = Counter()
        lock = threading.Lock()
        propose = SlmBackend.propose

        def counting_propose(self, prompt):
            with lock:
                asked[canonicalize(parse_prompt(prompt)[1])] += 1
            return propose(self, prompt)

        monkeypatch.setattr(SlmBackend, "propose", counting_propose)
        external = ExternalOracle(monkeypatch)
        results = external.run(shared_corpus, Mode.HYBRID, parallelism=8)
        assert external.pooled
        model_keys = {
            (g.group.canonical, g.group.label)
            for d in results.documents
            for g in d.groups
            if g.group.label in SLM_LABELS
        }
        assert sum(asked.values()) == len(model_keys)
        assert set(asked) == {canonical for canonical, _ in model_keys}


class TestFakeSecret:
    """The secret keys every fake draw but stays out of the run's identity
    and files, and a keyed run is as order-independent as an unkeyed one."""

    SECRET = b"test-secret-7f3a"

    def test_secret_changes_the_fakes_only(self, corpus, tmp_path):
        plain = run(corpus, Mode.FAKER)
        keyed = run_records(corpus, RunConfig(mode=Mode.FAKER), fake_secret=self.SECRET)
        assert keyed.run_id == plain.run_id
        pairs = [
            (a.decision.surrogate, b.decision.surrogate)
            for da, db in zip(plain.documents, keyed.documents)
            for a, b in zip(da.groups, db.groups)
        ]
        assert pairs
        assert sum(a != b for a, b in pairs) > len(pairs) // 2
        run_dir = persist(keyed, tmp_path)
        for path in run_dir.iterdir():
            assert self.SECRET not in path.read_bytes()
        redact = run_records(corpus, RunConfig(mode=Mode.REDACT), fake_secret=self.SECRET)
        assert documents_by_id(redact) == documents_by_id(run(corpus, Mode.REDACT))

    @pytest.mark.parametrize("mode", [Mode.FAKER, Mode.HYBRID], ids=lambda m: m.value)
    def test_keyed_parallel_equals_keyed_serial(self, shared_corpus, mode, monkeypatch):
        serial = run_records(shared_corpus, RunConfig(mode=mode), fake_secret=self.SECRET)
        external = ExternalOracle(monkeypatch)
        parallel = external.run(
            shared_corpus[::-1], mode, parallelism=4, fake_secret=self.SECRET
        )
        assert external.pooled
        assert documents_by_id(parallel) == documents_by_id(serial)


class TestErrorIsolation:
    @pytest.fixture
    def failing_detector(self, corpus, monkeypatch):
        import piisub.pipeline as pipeline
        from piisub.detection import detect_oracle

        bad_id = corpus[3].id

        def oracle_with_one_failure(record):
            if record.id == bad_id:
                raise RuntimeError("induced failure")
            return detect_oracle(record)

        monkeypatch.setattr(pipeline, "detect_oracle", oracle_with_one_failure)
        return bad_id

    def test_document_error_does_not_abort_run(self, corpus, failing_detector):
        results = run(corpus, Mode.REDACT)
        failed = results.failed_documents
        assert [d.record.id for d in failed] == [failing_detector]
        assert failed[0].error == "induced failure"
        assert failed[0].output is None
        ok = [d for d in results.documents if d.error is None]
        assert len(ok) == len(corpus) - 1

    def test_metrics_skip_failed_documents(self, corpus, failing_detector):
        metrics = compute_metrics(run(corpus, Mode.REDACT))
        assert metrics.documents_failed == 1
        assert metrics.leak.rate == 0.0  # scored over the surviving documents

    def test_perplexity_of_a_failed_run_uses_the_corpus_reference(
        self, corpus, monkeypatch
    ):
        # the failure is raised by the proposal of a key only the record
        # holds, not by the detector, which the reference calls too
        import piisub.pipeline as pipeline
        from piisub.generation import dispatch

        bad = corpus[3]
        held = {
            d.record.id: {g.group.canonical for g in d.groups}
            for d in run(corpus, Mode.FAKER).documents
        }
        holders = Counter(c for keys in held.values() for c in keys)
        doomed = min(c for c in held[bad.id] if holders[c] == 1)

        def dispatch_with_one_failure(surface, key, **kwargs):
            if key.canonical == doomed:
                raise RuntimeError("induced failure")
            return dispatch(surface, key, **kwargs)

        monkeypatch.setattr(pipeline, "dispatch", dispatch_with_one_failure)
        results = run(corpus, Mode.FAKER)
        ok = [d for d in results.documents if d.error is None]
        assert [d.record.id for d in results.failed_documents] == [bad.id]

        reference = perplexity_reference(corpus)
        metrics = compute_metrics(results, reference=reference)
        # the means run over the documents that succeeded ...
        scorer = reference.scorer
        assert metrics.perplexity_original == scorer.corpus_perplexity(
            d.record.text for d in ok
        )
        assert metrics.perplexity_transformed == scorer.corpus_perplexity(
            d.output for d in ok
        )
        # ... under the model trained on every record, the failed one too
        survivors_only = perplexity_reference([d.record for d in ok]).scorer
        assert metrics.perplexity_original != survivors_only.corpus_perplexity(
            d.record.text for d in ok
        )


class TestDetectors:
    def test_rules_detector_finds_regular_labels_only(self, corpus):
        results = run(corpus, Mode.FAKER, detector="rules")
        labels = {
            g.group.label for d in results.documents for g in d.groups
        }
        assert Label.EMAIL in labels or Label.ACCOUNT in labels
        assert Label.PERSON not in labels  # names need the oracle

    def test_external_detector_admits_parallelism_calls(self, monkeypatch):
        import threading

        from piisub.detection import ExternalDetector

        # Each call waits until four are inside the adapter at once; a gate
        # narrower than the worker count breaks the barrier.
        barrier = threading.Barrier(4, timeout=10)

        def transport(self, text):
            barrier.wait()
            return ""

        monkeypatch.setattr(ExternalDetector, "_transport", transport)
        records = [CorpusRecord(f"d{i}", "no pii", "en_US", "t") for i in range(4)]
        results = run(
            records,
            Mode.REDACT,
            detector="external",
            detector_command="unused",
            parallelism=4,
        )
        assert [d.error for d in results.documents] == [None] * 4

    def test_external_reply_lines_in_any_order_with_repeats(self, corpus, monkeypatch):
        # each span line twice, in reverse order, writes what the plain
        # reply writes: the adapter resolves its reply like every detector
        by_text = {r.text: r for r in corpus}
        twice = False

        def transport(self, text):
            spans = detect_oracle(by_text[text])
            if twice:
                spans = [*spans, *spans][::-1]
            return "".join(
                json.dumps({"start": s.start, "end": s.end, "label": s.label.name})
                + "\n"
                for s in spans
            )

        monkeypatch.setattr(ExternalDetector, "_transport", transport)
        external = dict(detector="external", detector_command="unused")
        plain = run(corpus, Mode.FAKER, **external)
        twice = True
        assert written(run(corpus, Mode.FAKER, **external)) == written(plain)
        assert written(plain) == written(run(corpus, Mode.FAKER))

    def test_undecodable_detector_reply_is_a_protocol_error(self, tmp_path):
        script = tmp_path / "binary.py"
        script.write_text(
            "import sys; sys.stdin.read(); sys.stdout.buffer.write(b'\\377')\n"
        )
        records = [CorpusRecord("d0", "no pii", "en_US", "t")]
        results = run(
            records,
            Mode.REDACT,
            detector="external",
            detector_command=f"{sys.executable} {script}",
        )
        (doc,) = results.failed_documents
        assert doc.output is None
        assert doc.error.startswith("detector: response is not UTF-8: ")

    def test_unknown_detector(self, corpus):
        with pytest.raises(ValueError, match="unknown detector"):
            run(corpus, Mode.FAKER, detector="psychic")


class TestRunConfig:
    @pytest.mark.parametrize("mode", [Mode.FAKER, Mode.HYBRID], ids=lambda m: m.value)
    @pytest.mark.parametrize("value", [0, -1])
    def test_execution_setting_below_one_is_rejected(self, corpus, mode, value):
        with pytest.raises(ValueError, match=f"^parallelism must be at least 1, got {value}$"):
            run(corpus, mode, parallelism=value)


class TestComputeMetrics:
    def test_length_preservation_high_for_faker(self, corpus):
        metrics = compute_metrics(run(corpus, Mode.FAKER))
        assert metrics.length_preservation_mean is not None
        assert metrics.length_preservation_mean > 0.85

    def test_distinctness_lists_labels(self, corpus):
        metrics = compute_metrics(run(corpus, Mode.FAKER))
        assert {row.label for row in metrics.distinctness} >= {Label.PERSON, Label.DATE}

    def test_redact_distinctness_is_degenerate(self, corpus):
        metrics = compute_metrics(run(corpus, Mode.REDACT))
        for row in metrics.distinctness:
            assert row.unique_surrogates == 1  # one placeholder per label

    def test_perplexity_optional(self, corpus):
        with_ppl = compute_metrics(
            run(corpus, Mode.FAKER), reference=perplexity_reference(corpus)
        )
        without = compute_metrics(run(corpus, Mode.FAKER))
        assert with_ppl.perplexity_original is not None
        assert with_ppl.perplexity_transformed is not None
        assert without.perplexity_original is None

    def test_each_original_is_counted_once_per_reference(self, corpus, monkeypatch):
        counted = []
        count = CharNgramScorer.count

        def counting(scorer, texts):
            texts = list(texts)
            counted.extend(texts)
            return count(scorer, texts)

        monkeypatch.setattr(CharNgramScorer, "count", counting)
        reference = perplexity_reference(corpus)
        outputs, ppl = [], []
        for mode in Mode:
            results = run(corpus, mode)
            ppl.append(compute_metrics(results, reference=reference).perplexity_original)
            outputs.extend(d.output for d in results.documents)
        # once by the reference; any more only where a mode's output is the
        # original itself
        times = Counter(counted)
        for rec in corpus:
            assert times[rec.text] == 1 + outputs.count(rec.text)
        expected = reference.scorer.corpus_perplexity(r.text for r in corpus)
        assert list(map(repr, ppl)) == [repr(expected)] * len(Mode)

    def test_aggregate_is_mean_of_defined_rates(self, corpus):
        metrics = compute_metrics(run(corpus, Mode.FAKER))
        expected = (
            metrics.leak.rate
            + metrics.consistency.rate
            + metrics.length_preservation_mean
        ) / 3
        assert metrics.aggregate == pytest.approx(expected)


class TestRegurgitationAnalysis:
    def test_hybrid_mock_pool_only_output_copies(self, corpus):
        results = run(corpus, Mode.HYBRID, backend_kind="mock-pool")
        report = regurgitation_for_results(results)
        assert report.slm_decisions > 0
        assert report.novel == 0  # the mock can only ever echo a demo fake
        assert report.output_copies == report.slm_decisions
        assert report.cross_pool_copies == 0

    def test_analysis_uses_the_pools_the_run_used(self, corpus, tmp_path):
        def write_pools(names):
            pairs = [{"real": real, "fake": fake} for real, fake in names]
            path.write_text(json.dumps({"person": {"en": pairs}}), encoding="utf-8")

        path = tmp_path / "pools.json"
        write_pools(
            [
                ("Kenji Tanaka", "Hiro Yamamoto"),
                ("Aiko Suzuki", "Mei Kobayashi"),
                ("Ren Watanabe", "Yuna Ito"),
            ]
        )
        results = run(corpus, Mode.HYBRID, pool_file=str(path))
        analysed = regurgitation_for_results(results).to_json_dict()
        assert analysed["output_copies"] == analysed["slm_decisions"] > 0
        # editing the file after the run must not change what is analysed
        write_pools(
            [
                ("Sora Nakamura", "Kaito Mori"),
                ("Yui Hayashi", "Riku Saito"),
                ("Nao Kimura", "Emi Ogawa"),
            ]
        )
        assert regurgitation_for_results(results).to_json_dict() == analysed

    def test_faker_run_has_no_slm_decisions(self, corpus):
        results = run(corpus, Mode.FAKER)
        report = regurgitation_for_results(results)
        assert report.slm_decisions == 0
        assert report.output_copies == 0


class TestPersistRun:
    def test_artifact_set_for_hybrid(self, corpus, tmp_path):
        results = run(corpus, Mode.HYBRID)
        run_dir = persist(results, tmp_path)
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == [
            "metrics.json",
            "regurgitation.json",
            "report.txt",
            "results.json",
            "timings.json",
        ]

    def test_no_regurgitation_for_redact(self, corpus, tmp_path):
        results = run(corpus, Mode.REDACT)
        run_dir = persist(results, tmp_path)
        assert not (run_dir / "regurgitation.json").exists()
        assert (run_dir / "metrics.json").exists()

    def test_rerun_byte_identical(self, corpus, tmp_path):
        first_dir = persist(run(corpus, Mode.HYBRID), tmp_path / "a")
        second_dir = persist(run(corpus, Mode.HYBRID), tmp_path / "b")
        for name in ("results.json", "metrics.json", "regurgitation.json", "report.txt"):
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes(), name

    def test_timings_have_stage_names(self, corpus, tmp_path):
        run_dir = persist(run(corpus, Mode.REDACT), tmp_path)
        timings = json.loads((run_dir / "timings.json").read_text(encoding="utf-8"))
        assert sorted(timings["seconds"]) == ["detect", "splice", "surrogate"]

    def test_results_json_excludes_timings(self, corpus, tmp_path):
        run_dir = persist(run(corpus, Mode.REDACT), tmp_path)
        payload = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))
        assert "timings" not in payload
        assert payload["run_id"] == run_dir.name

    def test_write_json_streams_the_same_bytes_as_dumps(self, tmp_path):
        payload = {
            "zeta": [1, 2.5, [0.1, 1e-07, -0.0], {"b": None, "a": True}],
            "名前": "Müller 山田さくら ¿qué?",
            "empty": {},
            "floats": [1 / 3, 1e300, 12.0],
            "nested": {"lists": [[], [[]], ["x"]]},
        }
        path = tmp_path / "out.json"
        write_json(path, payload)
        expected = (
            json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
        )
        assert path.read_bytes() == expected.encode("utf-8")


#: Strings JSON must escape or that stress an encoder: quote, backslash,
#: control characters, the JS line separators and non-BMP characters.
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x08\n\x1f\x7f\u2028\u2029\U0001f600\U00010348é山'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)


@st.composite
def _decisions(draw):
    source = draw(st.sampled_from(Source))
    if source is Source.SLM:
        demos, reasons = draw(st.lists(_TEXT, min_size=3, max_size=3)), []
    else:
        demos = draw(st.lists(_TEXT, max_size=2))
        reasons = draw(
            st.lists(
                st.sampled_from(RejectionReason),
                min_size=1 if source is Source.FALLBACK_FAKE else 0,
                max_size=3,
            )
        )
    return SurrogateDecision(draw(_TEXT), source, tuple(demos), tuple(reasons))


@st.composite
def _groups(draw):
    label = draw(st.sampled_from(Label))
    members = []
    for start, surface in draw(
        st.lists(st.tuples(st.integers(0, 10**6), _TEXT.filter(bool)), min_size=1, max_size=3)
    ):
        members.append(PiiSpan(start, start + len(surface), label, surface))
    group = EntityGroup(draw(_TEXT), label, tuple(members))
    return GroupResult(group, draw(_decisions()))


@st.composite
def _documents(draw):
    record = CorpusRecord(draw(_TEXT), "", draw(_TEXT), draw(_TEXT))
    if draw(st.booleans()):
        return DocumentResult(record, None, [], error=draw(_TEXT))
    return DocumentResult(record, draw(_TEXT), draw(st.lists(_groups(), max_size=3)))


@st.composite
def _run_results(draw):
    config = RunConfig(
        mode=draw(st.sampled_from(Mode)),
        backend_command=draw(st.none() | _TEXT),
        leak_guard=draw(st.booleans()),
    )
    return RunResults(
        run_id=draw(_TEXT),
        config=config,
        documents=draw(st.lists(_documents(), max_size=4)),
        proposals_made=draw(st.integers(0, 10**6)),
        cache_hits=draw(st.integers(0, 10**6)),
        timings={},
        catalog=None,
    )


@pytest.fixture(scope="module")
def results_path(tmp_path_factory):
    return tmp_path_factory.mktemp("encoder") / "results.json"


@settings(max_examples=100, deadline=None)
@given(_run_results())
def test_write_results_writes_the_dataclasses_in_write_json_layout(
    results_path, results
):
    write_results(results, results_path)
    written = results_path.read_bytes()
    data = json.loads(written.decode("utf-8"))
    # layout: the bytes `json` itself writes for what the file holds
    relaid = json.dumps(data, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    assert written == relaid.encode("utf-8")
    # content: the envelope, then each document and group from its dataclasses
    envelope = json.loads(json.dumps(results.json_envelope()))
    assert {**data, "documents": []} == envelope
    assert len(data["documents"]) == len(results.documents)
    for document, doc in zip(data["documents"], results.documents):
        groups = document.pop("groups")
        assert document == {
            "id": doc.record.id,
            "locale": doc.record.locale,
            "template": doc.record.template,
            "output": doc.output,
            "error": doc.error,
        }
        assert len(groups) == len(doc.groups)
        for group, result in zip(groups, doc.groups):
            members = result.group.members
            assert group == {
                "label": result.group.label.name,
                "canonical": result.group.canonical,
                "surface": members[0].surface,
                "mentions": len(members),
                "spans": [[span.start, span.end] for span in members],
                "decision": result.decision.to_json_dict(),
            }


def test_scorer_trained_on_non_pii_only(corpus):
    # perplexity training text must not contain any ground-truth value
    from piisub.pipeline import _non_pii_portions

    for rec in corpus:
        portions = _non_pii_portions(rec.text, detect_oracle(rec))
        joined = " ".join(portions)
        for value in rec.gt_values():
            assert value not in joined


def test_char_ngram_scorer_used_by_metrics_is_order_five():
    assert CharNgramScorer.order == 5
