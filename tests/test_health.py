"""A failing backend ends a run the same way at any `--parallelism`.

A backend holds no health state: `pipeline.run_corpus` reads the outcomes
of its proposals in the order it made them and raises BackendUnhealthy at
the first key where `failure_threshold` consecutive model calls have
failed. The model here is `backends.run_command` replaced in process by a
pure function of `(argv, data)`: the command backend's template has no
`{prompt}`, so the prompt arrives as `data`.
"""

import hashlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from conftest import run_records
from hypothesis import given, settings
from hypothesis import strategies as st

import piisub.backends as backends
import piisub.generation as generation
from piisub.backends import BackendUnhealthy
from piisub.corpus import synth_corpus
from piisub.generation import NoCleanFake, slm_propose
from piisub.model import (
    SLM_LABELS,
    CacheKey,
    CorpusRecord,
    Label,
    Mode,
    RejectionReason,
)
from piisub.pipeline import RunConfig, _document_json, check_config
from piisub.pools import builtin_catalog

ID = "command:model"


def model_input(prompt):
    """The entity a prompt asks about: its last `Real:` line."""
    return [line for line in prompt.split("\n") if line.startswith("Real: ")][-1][6:]


def share_of(text, salt):
    """A hash of `text` in [0, 1)."""
    digest = hashlib.sha256(f"{salt}:{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def hybrid(records, parallelism=1, threshold=5, command="model"):
    config = RunConfig(
        mode=Mode.HYBRID,
        backend_kind="command",
        backend_command=command,
        failure_threshold=threshold,
        parallelism=parallelism,
    )
    return run_records(records, config)


def outcome(records, **run):
    """What a run shows: the documents and counters it writes, or the
    message it aborts with."""
    try:
        results = hybrid(records, **run)
    except BackendUnhealthy as exc:
        return "aborted", str(exc)
    documents = [_document_json(d) for d in results.documents]
    return "written", documents, results.proposals_made, results.cache_hits


class Model:
    """A stand-in for the model's process. `answer(rank, text)` is the
    reply to the `rank`-th entity the serial run asks about, or None to
    fail the call with `exit 1: <entity>`; `delay(rank, text)` is how long
    the call takes. `calls` lists the entities asked about, in the order the
    calls started."""

    def __init__(self, monkeypatch, ranks, answer, delay=lambda rank, text: 0.0):
        self.calls = []

        def run_command(argv, data, timeout):
            text = model_input(data)
            self.calls.append(text)
            rank = ranks[text]
            time.sleep(delay(rank, text))
            reply = answer(rank, text)
            if reply is None:
                raise OSError(f"exit 1: {text}")
            return reply

        monkeypatch.setattr(backends, "run_command", run_command)


def asked(records):
    """Each entity the model is asked about, by its rank in a serial run."""
    calls = []

    def run_command(argv, data, timeout):
        calls.append(model_input(data))
        return " Robin Vale"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "run_command", run_command)
        hybrid(records)
    assert len(set(calls)) == len(calls)
    return {text: rank for rank, text in enumerate(calls)}


@pytest.fixture(scope="module")
def gate_corpus():
    records = synth_corpus(16, seed=1)
    return records, asked(records)


@pytest.fixture(scope="module")
def many_keys():
    records = synth_corpus(40, seed=2)
    return records, asked(records)


@settings(max_examples=12, deadline=None)
@given(
    share=st.floats(0.0, 1.0),
    threshold=st.integers(1, 6),
    salt=st.integers(0, 2**16),
)
def test_a_failing_backend_ends_a_run_the_same_way_at_any_parallelism(
    gate_corpus, share, threshold, salt
):
    # a hash-chosen share of the calls fail; a call sleeps 0-5 ms, longer
    # for earlier entities, so calls finish in about the reverse of the
    # order they were proposed in
    records, ranks = gate_corpus
    n = len(ranks)

    def answer(rank, text):
        return None if share_of(text, salt) < share else " Robin Vale"

    def delay(rank, text):
        return 0.005 * (n - rank - share_of(text, ~salt)) / n

    seen = []
    with pytest.MonkeyPatch.context() as patch:
        Model(patch, ranks, answer, delay)
        for parallelism in (1, 2, 4, 8):
            seen.append(outcome(records, parallelism=parallelism, threshold=threshold))
    serial = seen[0]
    assert seen[1:] == [serial] * 3


def test_only_keys_that_call_the_model_go_to_the_pool(gate_corpus, monkeypatch):
    # hybrid fakes emails, phones, accounts, URLs and secrets in the walk's
    # own thread: the pool gets one task per model call, and the run writes
    # the serial run's bytes
    records, ranks = gate_corpus
    submitted = []
    submit = ThreadPoolExecutor.submit

    def counted(pool, fn, *args, **kwargs):
        submitted.append(args)
        return submit(pool, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    Model(monkeypatch, ranks, lambda rank, text: " Robin Vale")
    serial = outcome(records)
    assert submitted == []
    assert outcome(records, parallelism=4) == serial
    assert len(submitted) == len(ranks) < serial[2]
    assert {key.label for _, _, key in submitted} <= set(SLM_LABELS)


class TestTheWalksRule:
    """The cases of the backend-level rule it replaces, as run outcomes."""

    def test_an_answered_call_resets_the_count(self, gate_corpus, monkeypatch):
        # four failures, an answer, four failures, ...: five in a row never
        # come, however long the run
        records, ranks = gate_corpus

        def answer(rank, text):
            return " Robin Vale" if rank % 5 == 4 else None

        model = Model(monkeypatch, ranks, answer)
        results = hybrid(records, threshold=5)
        assert not results.failed_documents
        assert len(model.calls) == len(ranks) > 10
        with pytest.raises(BackendUnhealthy) as exc:
            hybrid(records, threshold=4)
        (fourth,) = [text for text, rank in ranks.items() if rank == 3]
        assert str(exc.value) == (
            f"backend {ID}: 4 consecutive failures, last: {ID}: exit 1: {fourth}"
        )

    def test_the_run_stops_at_the_call_that_reaches_the_threshold(
        self, gate_corpus, monkeypatch
    ):
        records, ranks = gate_corpus
        model = Model(monkeypatch, ranks, lambda rank, text: None)
        with pytest.raises(BackendUnhealthy) as exc:
            hybrid(records, threshold=5)
        # no call is made after the fifth failure
        assert [ranks[text] for text in model.calls] == [0, 1, 2, 3, 4]
        last = f"{ID}: exit 1: {model.calls[-1]}"
        assert str(exc.value) == f"backend {ID}: 5 consecutive failures, last: {last}"

    @pytest.mark.parametrize("slow_first", [False, True])
    def test_a_dead_backend_makes_at_most_threshold_plus_parallelism_calls(
        self, many_keys, monkeypatch, slow_first
    ):
        # the first call may take longest: the calls behind it fail at once,
        # and still no more than `parallelism` run past the verdict
        records, ranks = many_keys

        def delay(rank, text):
            return 0.05 if slow_first and rank == 0 else 0.001

        model = Model(monkeypatch, ranks, lambda rank, text: None, delay)
        with pytest.raises(BackendUnhealthy, match=f"^backend {ID}: 3 consecutive"):
            hybrid(records, parallelism=4, threshold=3)
        assert len(ranks) > 100
        assert len(model.calls) <= 3 + 4

    def test_a_slow_call_does_not_hold_back_the_calls_behind_it(
        self, many_keys, monkeypatch
    ):
        # once the backend has answered, the walk reads ahead of a slow call:
        # the second call answers only after the seven behind it have
        records, ranks = many_keys
        behind = threading.Semaphore(0)
        deadline = time.monotonic() + 5

        def answer(rank, text):
            if rank == 1:
                for _ in range(7):
                    if not behind.acquire(timeout=max(0, deadline - time.monotonic())):
                        return None
            elif rank > 1:
                behind.release()
            return " Robin Vale"

        Model(monkeypatch, ranks, answer)
        results = hybrid(records, parallelism=4, threshold=1)
        assert not results.failed_documents

    def test_a_key_that_calls_no_model_leaves_the_count_alone(self, monkeypatch):
        # between the two failed calls: a date whose pool is too small to
        # sample three demos from, and an email, which hybrid fakes
        walter, edith = {Label.PERSON: ["Walter Abernathy"]}, {Label.PERSON: ["Edith Goodwin"]}
        between = {Label.DATE: ["Spring 1999"], Label.EMAIL: ["ada@example.org"]}
        records = [
            CorpusRecord("a", "Dear Walter Abernathy,", "en_US", "t", walter),
            CorpusRecord("b", "Since Spring 1999: ada@example.org", "en_US", "t", between),
            CorpusRecord("c", "Dear Edith Goodwin,", "en_US", "t", edith),
        ]
        ranks = {"Walter Abernathy": 0, "Edith Goodwin": 1}
        model = Model(monkeypatch, ranks, lambda rank, text: None)
        with pytest.raises(BackendUnhealthy) as exc:
            hybrid(records, threshold=2)
        assert model.calls == ["Walter Abernathy", "Edith Goodwin"]
        assert str(exc.value).endswith("exit 1: Edith Goodwin")

    def test_a_failed_call_counts_when_no_fake_value_can_be_drawn(
        self, gate_corpus, monkeypatch
    ):
        # every fake draw is a value of the corpus, which the leak guard
        # blocks, so each fallback fails its documents, and its failed call
        # still counts
        records, ranks = gate_corpus
        leaked = records[0].gt_values()[0]

        def leak(label, locale, rng, date_format=None):
            return leaked

        monkeypatch.setattr(generation, "fake_value", leak)
        model = Model(monkeypatch, ranks, lambda rank, text: None)
        with pytest.raises(BackendUnhealthy, match="3 consecutive failures"):
            hybrid(records, threshold=3)
        assert len(model.calls) == 3

    def test_an_undecodable_reply_is_a_counted_call_failure(self, tmp_path):
        script = tmp_path / "binary.py"
        script.write_text("import sys; sys.stdout.buffer.write(b'\\377')\n")
        records = synth_corpus(4, seed=1)
        with pytest.raises(BackendUnhealthy) as exc:
            hybrid(records, threshold=2, command=f"{sys.executable} {script}")
        assert "2 consecutive failures, last: command:python" in str(exc.value)
        assert "can't decode" in str(exc.value)


class TestDecisionsRecordTheirCall:
    def slm(self, completions, **kwargs):
        class Scripted(backends.SlmBackend):
            id = "scripted"

            def _invoke(self, prompt):
                item = completions.pop(0)
                if isinstance(item, Exception):
                    raise item
                return item

        key = CacheKey(Mode.HYBRID, "scripted", "walter abernathy", Label.PERSON)
        catalog = builtin_catalog()
        return slm_propose(
            "Walter Abernathy", key, backend=Scripted(), catalog=catalog, **kwargs
        )

    def test_an_answer_is_one_call_with_no_error(self):
        assert self.slm([" Maria Lind"]).backend_errors == (None,)
        rejected = self.slm(["Walter Abernathy"])
        assert rejected.rejection_reasons == (RejectionReason.IDENTITY,)
        assert rejected.backend_errors == (None,)

    def test_a_failed_call_is_its_error_text(self):
        failed = self.slm([backends.BackendInvocationError("down")])
        assert failed.rejection_reasons == (RejectionReason.EMPTY,)
        assert failed.backend_errors == ("down",)
        assert "backend_errors" not in failed.to_json_dict()

    def test_a_fallback_that_cannot_draw_keeps_the_call(self):
        with pytest.raises(NoCleanFake) as exc:
            self.slm([backends.BackendInvocationError("down")], blocked=lambda v: True)
        assert exc.value.backend_errors == ("down",)


class TestThresholdCheck:
    @pytest.mark.parametrize("kind", ["mock-pool", "mock-echo-demo", "command"])
    def test_failure_threshold_must_be_positive(self, kind):
        config = RunConfig(
            mode=Mode.HYBRID,
            backend_kind=kind,
            backend_command="runner '{prompt}'",
            failure_threshold=0,
        )
        message = "failure_threshold must be at least 1, got 0"
        with pytest.raises(ValueError, match=message):
            check_config(config)

    @pytest.mark.parametrize("mode", [Mode.REDACT, Mode.FAKER])
    def test_a_run_that_calls_no_model_does_not_read_it(self, mode):
        check_config(RunConfig(mode=mode, failure_threshold=0))
