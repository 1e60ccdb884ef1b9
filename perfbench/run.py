#!/usr/bin/env python3
"""The piisub benchmark: end-to-end metrics per workload, or a per-layer trace.

    python3 perfbench/run.py --workload all-modes-guard --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; nothing needs building. The benchmark
generates the workload's corpus with `synth_corpus(n, seed)`, writes it to a
file, and runs the `piisub` CLI on that file in fresh worker processes
(`perfbench/worker.py`), one job at a time: a closed loop with one client
and `--parallelism 1`. It repeats the job until `--seconds` have passed
(at least twice), checks every job's outputs, and prints as its last line
one JSON object: `correct`, `attempted` and `failed` documents, and the
metrics.

With `--trace 0` the metrics are the end-to-end ones: `job_s` is the mean
over the jobs, `docs_per_s` pools all documents over all time spent in
`run_corpus`, and the others are medians. With `--trace 1` one untraced job
is followed by traced jobs for `--seconds` and a traced job at half the
corpus size, and the metrics are the per-layer ones from the span tracer
(`perfbench/tracer.py`).

`perfbench/workloads.json` pins each workload's corpus size and, for one
seed, the corpus fingerprint: if `synth_corpus` no longer reproduces it the
benchmark refuses to run, so a generator change cannot silently change a
workload. It also records each layer's measured share of `job_s`. Scratch
files go to `.perfbench_work/` in the checkout; a traced run leaves its span
dumps there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402

WORKLOADS_FILE = HERE / "workloads.json"
WORK_ROOT = Path(".perfbench_work")
ARTIFACTS = ("results.json", "metrics.json", "regurgitation.json", "ner.json")
NER_VARIANTS = ["original", "redact", "faker", "hybrid"]
SETUP_PROBES_PER_JOB = 1
MIN_SETUP_PROBES = 9
MIN_JOBS = 2
JOB_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "docs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "doc_ok_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "generation.dispatch.self_s": "s",
    "generation.dispatch.calls": "count",
    "generation.fake_draws": "count",
    "generation.draw_accept_ratio": "ratio",
    "fakegen.fake_value.self_s": "s",
    "pipeline.doc_cost_growth": "ratio",
    "pipeline.doc_ms.p50": "ms",
    "pipeline.doc_ms.p99": "ms",
    "detection.detect_oracle.self_s": "s",
    "detection.detect_oracle.calls": "count",
    "detection.spans": "count",
    "cache.resolve_entities.self_s": "s",
    "cache.get_or_propose.self_s": "s",
    "cache.hit_ratio": "ratio",
    "locales.classify.self_s": "s",
    "prompting.self_s": "s",
    "pools.pool_for.self_s": "s",
    "pools.builtin_catalog_s": "s",
    "backends.propose.calls": "count",
    "backends.propose.failures": "count",
    "backends.propose.self_s": "s",
    "backends.call_ms.p50": "ms",
    "backends.call_ms.p99": "ms",
    "backends.slm_accept_ratio": "ratio",
    "metrics.leak_report.self_s": "s",
    "metrics.consistency_report.self_s": "s",
    "metrics.ppl_train.self_s": "s",
    "metrics.ppl_score.self_s": "s",
    "pipeline.persist_run.self_s": "s",
    "pipeline.run_corpus.self_s": "s",
    "corpus.load_corpus.self_s": "s",
    "ner.train_tagger.self_s": "s",
    "ner.features.calls": "count",
    "ner.predict_tags.self_s": "s",
    "ner.annotate_from_gt.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed check)."""


def _run_process(cmd: list[str], log_path: Path) -> None:
    """Run a child in its own process group; kill the group on timeout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PIISUB_")}
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=env, start_new_session=True
        )
        try:
            code = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{cmd[1]} timed out after {JOB_TIMEOUT_S:.0f} s") from None
    if code != 0:
        raise BenchError(f"{cmd[1]} exited {code}; see {log_path}")


def setup_seconds(work: Path, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        log = work / "setup.log"
        _run_process([sys.executable, "perfbench/setup_probe.py"], log)
        samples.append(float(log.read_text(encoding="utf-8").strip().splitlines()[-1]))
    return samples


class Job:
    """One worker run of the workload's command, with its outputs digested."""

    def __init__(self, work: Path, tag: str, args: list[str], corpus: Path, trace: bool):
        out = work / tag
        report_path = work / f"{tag}.report.json"
        trace_path = work / f"{tag}.spans.json"
        cmd = [sys.executable, "perfbench/worker.py", str(report_path)]
        if trace:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", *args, "--corpus", str(corpus), "--out", str(out)]
        _run_process(cmd, work / f"{tag}.log")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        self.tag = tag
        self.exit_code: int = report["exit_code"]
        self.job_s: float = report["job_s"]
        self.peak_rss_mb: float = report["peak_rss_mb"]
        self.calls: list[dict] = report["run_corpus"]
        self.problems = check_outputs(out, self)
        self.digests = {
            str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.name in ARTIFACTS
        }
        shutil.rmtree(out)
        self.layers = None
        if trace:
            self.layers = layer_metrics(_load(trace_path))

    @property
    def documents(self) -> int:
        return sum(c["documents"] for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(c["failed"] for c in self.calls)

    @property
    def run_corpus_s(self) -> float:
        return sum(c["seconds"] for c in self.calls)


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_outputs(out: Path, job: Job) -> list[str]:
    """Correctness of one job's artifacts; returns the problems found."""
    problems = []
    if job.exit_code != 0:
        problems.append(f"piisub exited {job.exit_code}")
    if not job.calls:
        problems.append("run_corpus was never called")
    if job.failed:
        problems.append(f"{job.failed} document(s) failed")
    runs = sorted(p.parent for p in out.glob("*/results.json"))
    ner_file = out / "ner.json"
    if not runs and not ner_file.exists():
        problems.append("no results.json or ner.json written")
    if runs and len(runs) != len(job.calls):
        problems.append(f"{len(runs)} run directories, {len(job.calls)} run_corpus calls")
    for run in runs:
        results = _load(run / "results.json")
        metrics = _load(run / "metrics.json")
        name = results["config"]["mode"]
        if any(d["error"] is not None for d in results["documents"]):
            problems.append(f"{name}: results.json has failed documents")
        if metrics["documents_failed"] != 0:
            problems.append(f"{name}: documents_failed = {metrics['documents_failed']}")
        if metrics["consistency"]["rate"] != 1.0:
            problems.append(f"{name}: consistency.rate = {metrics['consistency']['rate']}")
        if results["config"]["leak_guard"] and metrics["leak"]["rate"] != 0:
            problems.append(f"{name}: leak.rate = {metrics['leak']['rate']} with guard on")
    if ner_file.exists():
        report = _load(ner_file)
        if report["variant_order"] != NER_VARIANTS:
            problems.append(f"ner: variants {report['variant_order']}")
        for variant in report["variant_order"]:
            f1 = report["scores"][variant]["f1_by_seed"]
            if len(f1) != len(report["seeds"]) or not all(
                isinstance(x, (int, float)) and math.isfinite(x) for x in f1
            ):
                problems.append(f"ner: {variant} lacks an F1 for every seed: {f1}")
    return problems


def check_identical(jobs: list[Job]) -> list[str]:
    reference = jobs[0].digests
    if not reference:
        return ["no artifacts to compare"]
    return [
        f"{job.tag}: artifacts differ from {jobs[0].tag}"
        for job in jobs[1:]
        if job.digests != reference
    ]


def _job_args(spec: dict, n: int) -> list[str]:
    train = n * 4 // 5
    return [a.format(train=train, test=n - train) for a in spec["args"]]


def _write_corpus(work: Path, name: str, n: int, seed: int) -> Path:
    from piisub.corpus import save_corpus, synth_corpus

    path = work / name
    save_corpus(synth_corpus(n, seed), path)
    return path


def check_pin(workload: str, spec: dict) -> None:
    from piisub.corpus import synth_corpus
    from piisub.pipeline import corpus_fingerprint

    got = corpus_fingerprint(synth_corpus(spec["n"], spec["pin_seed"]))
    if got != spec["fingerprint"]:
        raise BenchError(
            f"{workload}: synth_corpus({spec['n']}, {spec['pin_seed']}) has fingerprint "
            f"{got}, pinned {spec['fingerprint']}; the workload's inputs changed"
        )


def end_to_end(work: Path, args: list[str], corpus: Path, seconds: float):
    # set-up probes are spread between the jobs, so that they sample the
    # machine over the whole run as the jobs do
    setup: list[float] = []
    jobs: list[Job] = []
    t0 = perf_counter()
    # stop when the next job would most likely end past the run length
    while len(jobs) < MIN_JOBS or (
        perf_counter() - t0 + statistics.median([j.job_s for j in jobs]) / 2 < seconds
    ):
        setup += setup_seconds(work, SETUP_PROBES_PER_JOB)
        jobs.append(Job(work, f"job{len(jobs)}", args, corpus, trace=False))
        print(
            f"{jobs[-1].tag}: job_s={jobs[-1].job_s:.4f} "
            f"run_corpus_s={jobs[-1].run_corpus_s:.4f} rss_mb={jobs[-1].peak_rss_mb:.1f}"
        )
    setup += setup_seconds(work, max(MIN_SETUP_PROBES - len(setup), 0))
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    attempted = sum(j.documents for j in jobs)
    failed = sum(j.failed for j in jobs)
    metrics = {
        "setup_s": statistics.median(setup),
        # a mean, not a median: the machine's speed flips between two levels
        # from one job to the next, and the median of a few jobs then jumps
        # between them where the mean moves smoothly with the mix
        "job_s": statistics.fmean([j.job_s for j in jobs]),
        # pooled over the run: all documents over all time in run_corpus
        "docs_per_s": attempted / sum(j.run_corpus_s for j in jobs),
        "peak_rss_mb": statistics.median([j.peak_rss_mb for j in jobs]),
        "doc_ok_ratio": 1.0 - failed / attempted if attempted else 0.0,
    }
    return jobs, metrics, END_TO_END_UNITS


def per_layer(
    work: Path,
    args: list[str],
    corpus: Path,
    half_args: list[str],
    half: Path,
    seconds: float,
):
    t0 = perf_counter()
    base = Job(work, "untraced", args, corpus, trace=False)
    traced: list[Job] = []
    while not traced or perf_counter() - t0 < seconds:
        traced.append(Job(work, f"traced{len(traced)}", args, corpus, trace=True))
    half_job = Job(work, "traced-half", half_args, half, trace=True)
    metrics = {
        name: statistics.median([j.layers[name] for j in traced])
        for name in traced[0].layers
    }
    full_doc_s = statistics.median([j.run_corpus_s / j.documents for j in traced])
    metrics["pipeline.doc_cost_growth"] = full_doc_s / (
        half_job.run_corpus_s / half_job.documents
    )
    hits = sum(c["cache_hits"] for c in base.calls)
    proposals = sum(c["proposals_made"] for c in base.calls)
    metrics["cache.hit_ratio"] = hits / (hits + proposals) if hits + proposals else 0.0
    metrics["trace.overhead_s"] = statistics.median([j.job_s for j in traced]) - base.job_s
    print(f"untraced job_s={base.job_s:.4f}")
    for job in traced + [half_job]:
        print(f"{job.tag}: job_s={job.job_s:.4f} docs={job.documents}")
    print("self seconds by layer (first traced job):")
    shares = sorted(
        ((k, v) for k, v in traced[0].layers.items() if k.endswith("self_s")),
        key=lambda kv: -kv[1],
    )
    for name, value in shares:
        print(f"  {name:40s} {value:9.4f} s  {value / traced[0].job_s:6.1%} of job_s")
    return [base, *traced, half_job], metrics, PER_LAYER_UNITS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--docs", type=int, help="override the corpus size (toy runs for tests)"
    )
    args = parser.parse_args(argv)

    if not Path("src/piisub/cli.py").is_file():
        print("run.py: no src/piisub in the current directory", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    spec_all = json.loads(WORKLOADS_FILE.read_text(encoding="utf-8"))
    if args.workload not in spec_all:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = spec_all[args.workload]
    n = args.docs or spec["n"]
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        check_pin(args.workload, spec)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        corpus = _write_corpus(work, "corpus.jsonl", n, args.seed)
        job_args = _job_args(spec, n)
        if args.trace:
            half = _write_corpus(work, "corpus-half.jsonl", n // 2, args.seed)
            jobs, metrics, units = per_layer(
                work, job_args, corpus, _job_args(spec, n // 2), half, args.seconds
            )
            # the half-size job is checked on its own; it has other bytes
            same = jobs[:-1]
        else:
            jobs, metrics, units = end_to_end(work, job_args, corpus, args.seconds)
            same = jobs
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    problems = [f"{j.tag}: {p}" for j in jobs for p in j.problems]
    problems += check_identical(same)
    for path, digest in same[0].digests.items():
        print(f"sha256 {digest}  {path}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if not args.trace:
        # only a traced run leaves something worth keeping: its span dumps
        shutil.rmtree(work)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(j.documents for j in jobs),
                "failed": sum(j.failed for j in jobs),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
