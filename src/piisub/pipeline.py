"""End-to-end corpus runs: detect, resolve, substitute, splice, measure.

A run is identified by a short hash over its configuration and its corpus
(`corpus_digest`: each record's id, text, locale, template and ground
truth, hashed once per command). Rerunning the same setup lands in the same
directory with byte-identical result files, and corpora that differ in
anything a run reads land apart. A setting the run does not read
(`RunConfig.settings_read`), such as a backend's outside hybrid, is written
as its default, so it cannot split the run id. Timeouts and the failure
threshold stay in it: with a slow backend or detector they decide which
calls fail. The fake-value secret is in neither the run id nor any file.
`parallelism`, the one execution setting, is how many calls to an
out-of-process adapter (a command backend, an external detector, both
through `model.run_command`) may be in flight. It is written to
`timings.json` with the stages' `detect`, `surrogate` and `splice`
seconds, each the sum of its tasks' seconds: busy time, which overlaps
above a `parallelism` of 1, and so can exceed the command's wall-clock.
`_calls` runs the tasks of both stages: on a pool of workers (it imports
`concurrent.futures`) for such an adapter, in place for any other; a key
whose proposal calls no model is drawn in place either way.

Detection is the costly stage (an on-device model in the paper), so
`detect_corpus` detects and resolves every record once per command, before
any mode runs, for every mode's `run_corpus`; a detector that does not
answer stops the command before any mode has written. `run_corpus` walks
the records in order in the calling thread, the surrogate cache's only
caller, so the first mention in record order proposes each key. It reads
the proposals' outcomes in the order it made them, whatever order they
finish in, and stops the run at the first key where `failure_threshold`
consecutive model calls have failed.
Then it splices the documents, which says where each surrogate landed
(`GroupResult.starts`) for the consistency metric and the NER gold. It
splices the spans `detection.resolve_overlaps` kept, and that function owns
the span contract, so no splice fails a document. Fake draws are seeded by
the cache key, not by the document. So a serial and a
parallel run of the same work share one run id and the same bytes, or stop
at the same key with the same message.

The leak guard is corpus-level: every ground-truth value in the input corpus
is blocked as a substring for every surrogate, no matter which document it
came from. Entity substitution itself cannot reintroduce someone else's PII.
`run_corpus` folds the blocked values into one matcher once per run; a check
costs time in the candidate's length, not in the number of blocked values.

Perplexity is judged by one reference per corpus, built from the corpus
alone: `perplexity_reference` takes the oracle's spans of every record
itself, whatever the run's detector, trains the scorer on the non-PII
portions, and scores every record's original under it, once (no score,
and so None, where the corpus has no non-PII text). Scores are integer
counts that add in any order: `compute_metrics` takes a mode's originals as
that score less its failed documents', and scores its outputs.

`persist_run` writes results.json one document at a time: the envelope
(config, counters, run id, version) goes through `json.dumps`, and each
document is rendered straight from its dataclasses by `_document_json` and
written before the next. The renderer is a few f-strings, compiled once,
that hold the schema's fixed layout at each depth (document, group, span);
every string goes through the encoder `json.dump` uses, so the file is laid
out as `write_json` lays out every other artifact: sorted keys, UTF-8, a
two-space indent. The smaller artifacts go through `write_json`.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import islice
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .backends import (
    DEFAULT_TIMEOUT,
    BackendUnhealthy,
    CommandBackend,
    SlmBackend,
    make_backend,
)
from .cache import SurrogateCache, resolve_entities
from .detection import (
    DetectorProtocolError,
    DetectorUnavailable,
    ExternalDetector,
    detect_oracle,
    detect_rules,
)
from .generation import calls_model, dispatch, splice
from .metrics import (
    CharNgramScorer,
    ConsistencyReport,
    LeakReport,
    agg_mean,
    consistency_report,
    distinctness_rows,
    leak_report,
    length_preservation,
)
from .model import (
    CacheKey,
    CorpusRecord,
    EntityGroup,
    JsonReport,
    Label,
    Mode,
    PiiSpan,
    SurrogateDecision,
    ci_any_matcher,
    json_value,
)
from .pools import PoolCatalog, builtin_catalog, load_pool_file
from .prompting import DemoStrategy, analyze_regurgitation
from .report import render_runs

RESULTS_VERSION = 1

#: RunConfig fields that shape how a run executes but not its outputs; they
#: stay out of the run id and results.json and are recorded in timings.json.
EXECUTION_FIELDS = frozenset({"parallelism"})

#: The one table of the settings a run reads: a (setting, value) pair names
#: the settings that value makes the run read, starting from the mode's. A
#: backend is read in hybrid only, the leak guard not in redact (it writes
#: placeholders only), and a detector's transport and timeout only by the
#: external detector.
_SETTINGS_READ: dict[tuple[str, object], tuple[str, ...]] = {
    ("mode", Mode.REDACT): ("detector",),
    ("mode", Mode.FAKER): ("detector", "leak_guard"),
    ("mode", Mode.HYBRID): (
        "detector",
        "leak_guard",
        "backend_kind",
        "failure_threshold",
        "demo_strategy",
        "pool_file",
    ),
    ("detector", "external"): ("detector_command", "detector_url", "detector_timeout"),
    ("backend_kind", "command"): ("backend_command", "backend_timeout"),
}


@dataclass(frozen=True)
class RunConfig:
    mode: Mode
    backend_kind: str = "mock-pool"
    backend_command: str | None = None
    backend_timeout: float = DEFAULT_TIMEOUT
    failure_threshold: int = 5
    demo_strategy: DemoStrategy = DemoStrategy.ROTATING_LOCALE
    detector: str = "oracle"
    detector_command: str | None = None
    detector_url: str | None = None
    detector_timeout: float = 30.0
    pool_file: str | None = None
    leak_guard: bool = True
    parallelism: int = 1
    run_id: str | None = None

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be at least 1, got {self.parallelism}")

    def settings_read(self) -> frozenset[str]:
        """The settings this run reads, by `_SETTINGS_READ`."""
        read: set[str] = set()
        pending = ["mode"]
        while pending:
            name = pending.pop()
            read.add(name)
            pending.extend(_SETTINGS_READ.get((name, getattr(self, name)), ()))
        return frozenset(read)

    def to_json_dict(self) -> dict:
        """The settings that decide the outputs: the run-id fingerprint. A
        setting the run does not read is written as its field default, so it
        cannot split the run id."""
        read = self.settings_read()
        return {
            f.name: json_value(getattr(self, f.name) if f.name in read else f.default)
            for f in fields(self)
            if f.name != "run_id" and f.name not in EXECUTION_FIELDS
        }


def corpus_fingerprint(records: Sequence[CorpusRecord]) -> str:
    digest = hashlib.sha256()
    for rec in records:
        digest.update(rec.id.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(rec.text.encode("utf-8"))
        digest.update(b"\x01")
    return digest.hexdigest()


def corpus_digest(records: Sequence[CorpusRecord]) -> dict[str, str]:
    """What a run id reads of the corpus: its fingerprint, and a hash of each
    record's locale, template and ground truth (in label order), which the
    run reads too. A command computes it once for all its modes."""
    truth = hashlib.sha256()
    for rec in records:
        gt = [(label.name, rec.pii_gt[label]) for label in Label if label in rec.pii_gt]
        truth.update(json.dumps([rec.locale, rec.template, gt]).encode("ascii"))
    return {"corpus": corpus_fingerprint(records), "ground_truth": truth.hexdigest()}


def derive_run_id(config: RunConfig, digest: dict[str, str]) -> str:
    """The config's pinned id, else a hash over the run-id fingerprint of the
    config and the `corpus_digest` of its records."""
    if config.run_id:
        return config.run_id
    payload = json.dumps(
        {"config": config.to_json_dict(), **digest}, sort_keys=True, ensure_ascii=False
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass
class GroupResult:
    group: EntityGroup
    decision: SurrogateDecision
    #: The output start of each member's written surrogate; not serialized.
    starts: Sequence[int] = ()


@dataclass
class DocumentResult:
    """One document's outcome. `ok` is the one test of success: `output` is
    None exactly when `error` is set."""

    record: CorpusRecord
    output: str | None
    groups: list[GroupResult] = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def written_spans(self) -> list[tuple[int, int]]:
        """The output span of each mention's surrogate, in output order."""
        return sorted(
            (a, a + len(g.decision.surrogate)) for g in self.groups for a in g.starts
        )


@dataclass
class RunResults:
    run_id: str
    config: RunConfig
    documents: list[DocumentResult]
    proposals_made: int
    cache_hits: int
    timings: dict[str, float]
    #: The demo pools the run used, so the regurgitation analysis judges
    #: the decisions against the same pools; not serialized.
    catalog: PoolCatalog

    @property
    def failed_documents(self) -> list[DocumentResult]:
        return [d for d in self.documents if not d.ok]

    def json_envelope(self) -> dict:
        """results.json with an empty list in place of its documents."""
        return {
            "version": RESULTS_VERSION,
            "run_id": self.run_id,
            "config": self.config.to_json_dict(),
            "proposals_made": self.proposals_made,
            "cache_hits": self.cache_hits,
            "documents": [],
        }


def _build_backend(config: RunConfig) -> SlmBackend | None:
    """The model backend of a run that reads one (hybrid); the other modes
    call none."""
    if "backend_kind" not in config.settings_read():
        return None
    return make_backend(
        config.backend_kind, command=config.backend_command, timeout=config.backend_timeout
    )


def _build_detector(config: RunConfig) -> Callable[[CorpusRecord], list]:
    if config.detector == "oracle":
        return detect_oracle
    if config.detector == "rules":
        return lambda rec: detect_rules(rec.text)
    if config.detector == "external":
        return ExternalDetector(
            command=config.detector_command,
            url=config.detector_url,
            timeout=config.detector_timeout,
        )
    raise ValueError(f"unknown detector {config.detector!r}")


def _build_catalog(config: RunConfig) -> PoolCatalog:
    """The demo pools of the run: the pool file's over the shipped ones
    where the run reads a pool file (hybrid), else the shipped ones."""
    if config.pool_file and "pool_file" in config.settings_read():
        return load_pool_file(config.pool_file)
    return builtin_catalog()


def check_config(config: RunConfig) -> PoolCatalog:
    """Build the backend, the detector and the demo pools a run of `config`
    reads (see `RunConfig.settings_read`): a setting they reject raises its
    ValueError here, before any document is touched, and so does a failure
    threshold below 1 where the run reads one. Returns the pools, so that
    the run (`run_corpus(..., catalog=...)`) reads a pool file once."""
    threshold = config.failure_threshold
    if threshold < 1 and "failure_threshold" in config.settings_read():
        raise ValueError(f"failure_threshold must be at least 1, got {threshold}")
    _build_backend(config)
    _build_detector(config)
    return _build_catalog(config)


class _Outcome(NamedTuple):
    """A task's value, or the exception it raised and the error that fails
    the documents that need it, and its seconds; `done()` and `result()`
    read it like a pool task's Future."""

    value: Any
    error: str | None
    seconds: float

    def done(self) -> bool:
        return True

    def result(self) -> _Outcome:
        return self


def _attempt(task: Callable, *args) -> _Outcome:
    t0 = time.perf_counter()
    value = error = None
    try:
        value = task(*args)
    except DetectorUnavailable:
        raise
    except DetectorProtocolError as exc:
        value, error = exc, f"detector: {exc}"
    except (ValueError, RuntimeError) as exc:
        value, error = exc, str(exc)
    return _Outcome(value, error, time.perf_counter() - t0)


@contextmanager
def _calls(parallelism: int, adapter: object) -> Iterator[Callable]:
    """Yield `submit(task, *args)`, which runs `_attempt(task, *args)` on a
    pool of `parallelism` workers (its queue cancelled on the way out) when
    `adapter` waits on another process, in place otherwise."""
    if parallelism == 1 or not isinstance(adapter, (CommandBackend, ExternalDetector)):
        yield _attempt
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(parallelism)
    try:
        yield partial(pool.submit, _attempt)
    finally:
        pool.shutdown(cancel_futures=True)


def detect_corpus(
    records: Sequence[CorpusRecord], config: RunConfig
) -> list[_Outcome]:
    """Detect and resolve every record once, in record order: per record,
    its entity groups or the error that fails its document, and the
    seconds they took. It reads only the detector settings of `config`, so
    every mode of one command shares one pass. An unavailable external
    detector raises `DetectorUnavailable` here, before any mode has run."""
    detector = _build_detector(config)

    def detect(record: CorpusRecord) -> list[EntityGroup]:
        return resolve_entities(detector(record))

    with _calls(config.parallelism, detector) as submit:
        tasks = [submit(detect, record) for record in records]
        return [task.result() for task in tasks]


def run_corpus(
    records: Sequence[CorpusRecord],
    config: RunConfig,
    *,
    detected: Sequence[_Outcome],
    digest: dict[str, str],
    catalog: PoolCatalog,
    fake_secret: bytes = b"",
) -> RunResults:
    """Transform every record under the config; per-document errors are
    recorded on the result instead of aborting the run. Only an unhealthy
    backend stops everything; a key whose proposal fails fails every
    document that holds it.

    The backend is unhealthy at the first key, in proposal order, where
    `config.failure_threshold` consecutive model calls have failed; a key
    that makes no call (`calls_model`) leaves the count alone and runs in
    place. The walk proposes at most `parallelism` model keys past the last
    outcome it has read, four times as many while the last call read
    answered: a dead backend makes fewer than threshold + `parallelism`
    calls, and a slow call holds up no others.

    `detected` is `detect_corpus(records, config)` and `digest` is
    `corpus_digest(records)`, which a command computes once for all its
    modes, and `catalog` is `check_config(config)`. `fake_secret` keys the
    fake-draw seeds (`fakegen.draw_seed`); it is kept out of the run id and
    every written file."""
    read = config.settings_read()
    cache = SurrogateCache()
    backend = _build_backend(config)
    family = backend.id if backend is not None else config.mode.value
    blocked = ci_any_matcher(
        (v.strip() for rec in records for v in rec.gt_values())
        if config.leak_guard and "leak_guard" in read
        else ()
    )
    propose = partial(
        dispatch,
        backend=backend,
        catalog=catalog,
        strategy=config.demo_strategy,
        blocked=blocked,
        fake_secret=fake_secret,
    )
    proposed = []  # each model key's task: its outcome or that outcome's Future
    drawn = []  # the outcome of each key that calls no model
    cursor = 0  # the proposals before it have been read
    streak = 0  # consecutive failed calls up to the cursor
    answered = False  # whether the last call up to the cursor answered

    def read_proposals(until: int) -> None:
        """Read, in proposal order, every outcome before `until`, waiting on
        it if need be, and then each that is done, counting failed calls."""
        nonlocal cursor, streak, answered
        while cursor < len(proposed) and (cursor < until or proposed[cursor].done()):
            outcome = proposed[cursor].result()
            cursor += 1
            for error in getattr(outcome.value, "backend_errors", ()):
                answered = error is None
                streak = 0 if answered else streak + 1
                if not answered and streak >= config.failure_threshold:
                    message = f"{streak} consecutive failures, last: {error}"
                    raise BackendUnhealthy(f"backend {family}: {message}")

    def finish(record: CorpusRecord, found: _Outcome, tasks: list) -> tuple:
        """The document from its groups and its keys' outcomes, which the
        first error among them fails, and its splice's seconds."""
        decided = [task.result() for task in tasks]
        failed = next((o for o in (found, *decided) if o.error is not None), None)
        if failed is not None:
            return DocumentResult(record, None, error=failed.error), 0.0
        groups = [GroupResult(g, o.value) for g, o in zip(found.value, decided)]
        pairs = [(s, r.decision.surrogate) for r in groups for s in r.group.members]
        t0 = time.perf_counter()
        output, starts = splice(record.text, pairs)
        seconds = time.perf_counter() - t0
        at = iter(starts)  # in the order of `pairs`: group by group
        for r in groups:
            r.starts = tuple(islice(at, len(r.group.members)))
        return DocumentResult(record, output, groups), seconds

    # the seconds of the shared pass, the same in every mode that reads it
    detect_s = sum(found.seconds for found in detected)
    timings = {"detect": detect_s, "surrogate": 0.0, "splice": 0.0}
    with _calls(config.parallelism, backend) as submit:

        def propose_once(surface: str, key: CacheKey):
            if not calls_model(key):
                drawn.append(_attempt(propose, surface, key))
                return drawn[-1]
            read_proposals(len(proposed) + 1 - config.parallelism * (4 if answered else 1))
            proposed.append(submit(propose, surface, key))
            return proposed[-1]

        walked = []
        for record, found in zip(records, detected, strict=True):
            tasks = []
            for group in found.value if found.error is None else ():
                key = CacheKey(config.mode, family, group.canonical, group.label)
                first = partial(propose_once, group.members[0].surface, key)
                tasks.append(cache.get_or_propose(key, first))
            walked.append((record, found, tasks))
        read_proposals(len(proposed))
        # every key is decided, so no document waits on a worker
        finished = [finish(*doc) for doc in walked]
        documents = [doc for doc, _ in finished]
        timings["splice"] = sum(seconds for _, seconds in finished)
        timings["surrogate"] = sum(t.result().seconds for t in (*proposed, *drawn))
    return RunResults(
        run_id=derive_run_id(config, digest),
        config=config,
        documents=documents,
        proposals_made=cache.proposals_made,
        cache_hits=cache.cache_hits,
        timings=timings,
        catalog=catalog,
    )


@dataclass
class MetricsReport(JsonReport):
    json_extra = ("aggregate",)

    leak: LeakReport
    consistency: ConsistencyReport
    length_preservation_mean: float | None
    distinctness: list
    perplexity_original: float | None
    perplexity_transformed: float | None
    documents_failed: int

    @property
    def aggregate(self) -> float | None:
        return agg_mean(
            [self.leak.rate, self.consistency.rate, self.length_preservation_mean]
        )


def _non_pii_portions(text: str, spans: Iterable[PiiSpan]) -> list[str]:
    """The non-empty stretches of `text` outside its non-overlapping spans."""
    pieces = []
    cursor = 0
    for span in sorted(spans, key=lambda s: s.start):
        pieces.append(text[cursor : span.start])
        cursor = span.end
    pieces.append(text[cursor:])
    return [p for p in pieces if p]


class PerplexityReference(NamedTuple):
    """A corpus's perplexity scorer and its originals' score."""

    scorer: CharNgramScorer
    originals: Counter[int]


def perplexity_reference(records: Sequence[CorpusRecord]) -> PerplexityReference:
    """Train the scorer on the non-PII portions of every record, by the
    oracle's spans whatever the run's detector, so every mode is scored by
    one model, and score every original once. It reads the corpus alone."""
    scorer = CharNgramScorer()
    scorer.train(
        portion
        for rec in records
        for portion in _non_pii_portions(rec.text, detect_oracle(rec))
    )
    originals = scorer.count(rec.text for rec in records)
    return PerplexityReference(scorer, originals)


def compute_metrics(
    results: RunResults, *, reference: PerplexityReference | None = None
) -> MetricsReport:
    """The run's metrics; perplexity only when the `reference` of the run's
    records is given, over the documents that succeeded."""
    ok_docs = [d for d in results.documents if d.ok]
    leak = leak_report((d.record.gt_values(), d.output) for d in ok_docs)
    consistency = consistency_report(
        (d.output, [(g.decision.surrogate, g.starts) for g in d.groups])
        for d in ok_docs
    )
    lengths = agg_mean(
        length_preservation(d.record.text, d.output) for d in ok_docs
    )
    distinct = distinctness_rows(
        (g.group.label, g.decision.surrogate, len(g.group.members))
        for d in ok_docs
        for g in d.groups
    )
    ppl_orig: float | None = None
    ppl_out: float | None = None
    if reference is not None and ok_docs:
        scorer = reference.scorer
        failed = scorer.count(d.record.text for d in results.failed_documents)
        ppl_orig = scorer.perplexity(reference.originals - failed)
        ppl_out = scorer.corpus_perplexity(d.output for d in ok_docs)
    return MetricsReport(
        leak=leak,
        consistency=consistency,
        length_preservation_mean=lengths,
        distinctness=distinct,
        perplexity_original=ppl_orig,
        perplexity_transformed=ppl_out,
        documents_failed=len(results.failed_documents),
    )


def regurgitation_for_results(results: RunResults):
    samples = (
        (g.group.members[0].surface, g.group.label, g.decision)
        for d in results.documents
        if d.ok
        for g in d.groups
    )
    return analyze_regurgitation(samples, results.catalog)


def write_json(path: str | Path, payload: dict) -> None:
    """Write one artifact: sorted keys, UTF-8, two-space indent, newline at
    the end. Streamed to the file, so no copy of the whole text is built."""
    with open(path, "w", encoding="utf-8") as out:
        json.dump(payload, out, sort_keys=True, ensure_ascii=False, indent=2)
        out.write("\n")


_NO_DOCUMENTS = '\n  "documents": []'


def _json_strings(values: Sequence[str]) -> str:
    """A list of strings in a group's decision, laid out as
    `json.dump(indent=2)` lays it out at that depth."""
    if not values:
        return "[]"
    items = ",\n              ".join(map(encode_basestring, values))
    return f"[\n              {items}\n            ]"


def _group_json(result: GroupResult) -> str:
    """One entry of a document's group list: the group's label, canonical
    form, first surface, mention count and `[start, end]` spans, and its
    decision, laid out as `json.dump(..., sort_keys=True, ensure_ascii=False,
    indent=2)` lays out an object at that depth."""
    group, decision = result.group, result.decision
    members = group.members
    spans = ",".join(
        [
            f"""
            [
              {span.start},
              {span.end}
            ]"""
            for span in members
        ]
    )
    reasons = [reason.value for reason in decision.rejection_reasons]
    return f"""
        {{
          "canonical": {encode_basestring(group.canonical)},
          "decision": {{
            "demos_used": {_json_strings(decision.demos_used)},
            "rejection_reasons": {_json_strings(reasons)},
            "source": {encode_basestring(decision.source.value)},
            "surrogate": {encode_basestring(decision.surrogate)}
          }},
          "label": {encode_basestring(group.label.name)},
          "mentions": {len(members)},
          "spans": [{spans}
          ],
          "surface": {encode_basestring(members[0].surface)}
        }}"""


def _document_json(doc: DocumentResult) -> str:
    """One entry of results.json's document list: the record's id, locale
    and template, the output or the error, and the groups (`_group_json`),
    rendered from the dataclasses by f-strings with the string encoder
    `json.dump` uses, in the layout it gives at that depth."""
    record = doc.record
    error = "null" if doc.error is None else encode_basestring(doc.error)
    output = "null" if doc.output is None else encode_basestring(doc.output)
    groups = "[]"
    if doc.groups:
        groups = "[" + ",".join([_group_json(g) for g in doc.groups]) + "\n      ]"
    return f"""{{
      "error": {error},
      "groups": {groups},
      "id": {encode_basestring(record.id)},
      "locale": {encode_basestring(record.locale)},
      "output": {output},
      "template": {encode_basestring(record.template)}
    }}"""


def write_results(results: RunResults, path: str | Path) -> None:
    """Write results.json one document at a time: the envelope goes through
    `json.dumps` with `write_json`'s settings, each document through
    `_document_json`, and no tree of the whole run is built."""
    envelope = json.dumps(
        results.json_envelope(), sort_keys=True, ensure_ascii=False, indent=2
    )
    head, tail = envelope.split(_NO_DOCUMENTS)
    with open(path, "w", encoding="utf-8") as out:
        out.write(head + '\n  "documents": [')
        separator = "\n    "
        for doc in results.documents:
            out.write(separator + _document_json(doc))
            separator = ",\n    "
        out.write(("\n  ]" if results.documents else "]") + tail + "\n")


def persist_run(
    results: RunResults,
    out_dir: str | Path,
    metrics: MetricsReport,
) -> tuple[Path, tuple[str, dict, dict | None]]:
    """Write results, the given metrics, regurgitation and timings (with the
    execution settings) under the run id, and `report.txt`. Returns the run
    directory and the run as `report.render_runs` takes it."""
    run_dir = Path(out_dir) / results.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    write_results(results, run_dir / "results.json")
    metrics_dict = metrics.to_json_dict()
    write_json(run_dir / "metrics.json", metrics_dict)
    regurg_dict = None
    # Regurgitation only makes sense when a model produced the surrogates.
    if results.config.mode is Mode.HYBRID:
        regurg_dict = regurgitation_for_results(results).to_json_dict()
        write_json(run_dir / "regurgitation.json", regurg_dict)
    write_json(
        run_dir / "timings.json",
        {
            "execution": {
                name: getattr(results.config, name) for name in EXECUTION_FIELDS
            },
            "seconds": results.timings,
        },
    )
    run = (f"{results.config.mode.value}@{results.run_id}", metrics_dict, regurg_dict)
    (run_dir / "report.txt").write_text(render_runs([run]), encoding="utf-8")
    return run_dir, run
