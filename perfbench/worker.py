"""One benchmark job in a fresh interpreter: `piisub.cli.main(argv)`, timed.

    python3 perfbench/worker.py REPORT.json [--trace SPANS.json] -- piisub-args...

Run from the root of a checkout. The worker imports piisub from `src/`,
puts one timer around each `run_corpus` call the CLI makes, optionally
installs the span tracer, runs the command and writes a JSON report: exit
code, wall seconds of `main`, peak RSS of this process, and per
`run_corpus` call its seconds, document count, failed documents, cache hits
and proposals. Tracing adds the span dump named by `--trace`.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, "src")
sys.path.insert(1, str(Path(__file__).resolve().parent))

import piisub.cli as cli  # noqa: E402

from tracer import Tracer  # noqa: E402


def _timed_run_corpus(calls: list[dict]):
    run_corpus = cli.run_corpus

    def timed(records, config, **kwargs):
        t0 = perf_counter()
        results = run_corpus(records, config, **kwargs)
        calls.append(
            {
                "seconds": perf_counter() - t0,
                "documents": len(results.documents),
                "failed": len(results.failed_documents),
                "cache_hits": results.cache_hits,
                "proposals_made": results.proposals_made,
            }
        )
        return results

    return timed


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, job_argv = argv[:split], argv[split + 1 :]
    report_path = Path(own[0])
    trace_path = Path(own[own.index("--trace") + 1]) if "--trace" in own else None

    calls: list[dict] = []
    cli.run_corpus = _timed_run_corpus(calls)
    tracer = None
    if trace_path is not None:
        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    code = cli.main(job_argv)
    job_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_path)
    report_path.write_text(
        json.dumps(
            {
                "exit_code": code,
                "job_s": job_s,
                "peak_rss_mb": peak_rss_mb,
                "run_corpus": calls,
            }
        ),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
