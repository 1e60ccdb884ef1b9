"""Command-line interface.

Settings resolve in order: explicit flag, then config file (--config, JSON),
then environment (PIISUB_RESULTS_DIR, PIISUB_CORPUS, PIISUB_POOL_FILE), then
the built-in default. The fake-value secret is a credential, so it is read
from the environment only (PIISUB_FAKE_SECRET, empty when unset).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .backends import DEFAULT_FAILURE_THRESHOLD, DEFAULT_TIMEOUT, BackendUnhealthy
from .corpus import DEFAULT_LOCALE_MIX, load_corpus, save_corpus, synth_corpus
from .detection import DetectorUnavailable
from .model import CorpusRecord, Label, Mode
from .ner import run_ner_experiment
from .pipeline import RunConfig, compute_metrics, persist_run, run_corpus
from .prompting import DemoStrategy
from .report import (
    distinctness_table,
    ner_table,
    primary_table,
    regurgitation_table,
)

_ENV_RESULTS = "PIISUB_RESULTS_DIR"
_ENV_CORPUS = "PIISUB_CORPUS"
_ENV_POOLS = "PIISUB_POOL_FILE"
_ENV_FAKE_SECRET = "PIISUB_FAKE_SECRET"


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise SystemExit("config file must contain a JSON object")
    return data


def _setting(
    flag_value,
    config: dict,
    key: str,
    *,
    env: str | None = None,
    default=None,
):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    if env and os.environ.get(env):
        return os.environ[env]
    return default


def _fake_secret() -> bytes:
    return os.environ.get(_ENV_FAKE_SECRET, "").encode("utf-8")


def _parse_locale_mix(text: str) -> dict[str, float]:
    mix: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        locale, _, weight = part.partition("=")
        try:
            mix[locale.strip()] = float(weight)
        except ValueError:
            raise SystemExit(f"bad locale mix entry {part!r}") from None
    if not mix:
        raise SystemExit("locale mix is empty")
    return mix


def _parse_modes(text: str) -> list[Mode]:
    if text == "all":
        return [Mode.REDACT, Mode.FAKER, Mode.HYBRID]
    try:
        return [Mode.from_name(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _run_config(
    args: argparse.Namespace,
    config: dict,
    mode: Mode,
    run_id: str | None = None,
) -> RunConfig:
    return RunConfig(
        mode=mode,
        backend_kind=_setting(args.slm_backend, config, "slm_backend", default="mock-pool"),
        backend_command=_setting(args.slm_command, config, "slm_command"),
        prompt_via=_setting(args.prompt_via, config, "prompt_via", default="arg"),
        backend_timeout=float(
            _setting(args.slm_timeout, config, "slm_timeout", default=DEFAULT_TIMEOUT)
        ),
        failure_threshold=int(
            _setting(
                args.failure_threshold,
                config,
                "failure_threshold",
                default=DEFAULT_FAILURE_THRESHOLD,
            )
        ),
        max_inflight=int(_setting(args.max_inflight, config, "max_inflight", default=1)),
        demo_strategy=DemoStrategy(
            _setting(
                args.demo_strategy, config, "demo_strategy", default="rotating_locale"
            )
        ),
        placeholder_prefix=_setting(
            args.placeholder_prefix, config, "placeholder_prefix", default=""
        ),
        detector=_setting(args.detector, config, "detector", default="oracle"),
        detector_command=_setting(args.detector_command, config, "detector_command"),
        detector_url=_setting(args.detector_url, config, "detector_url"),
        detector_timeout=float(
            _setting(args.detector_timeout, config, "detector_timeout", default=30.0)
        ),
        pool_file=_setting(args.pool_file, config, "pool_file", env=_ENV_POOLS),
        leak_guard=not args.no_leak_guard,
        parallelism=int(_setting(args.parallelism, config, "parallelism", default=1)),
        run_id=run_id if run_id is not None else args.run_id,
    )


def _corpus_path(args: argparse.Namespace, config: dict) -> str:
    path = _setting(args.corpus, config, "corpus", env=_ENV_CORPUS)
    if not path:
        raise SystemExit("no corpus given (use --corpus, config, or PIISUB_CORPUS)")
    return path


def _out_dir(args: argparse.Namespace, config: dict) -> str:
    return _setting(args.out, config, "out", env=_ENV_RESULTS, default="results")


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", help="corpus file (line-delimited JSON)")
    sub.add_argument("--config", help="JSON config file with defaults")
    sub.add_argument(
        "--slm-backend", choices=["mock-pool", "mock-echo-demo", "command"]
    )
    sub.add_argument("--slm-command", help="command template for --slm-backend command")
    sub.add_argument("--prompt-via", choices=["arg", "stdin"])
    sub.add_argument("--slm-timeout", type=float)
    sub.add_argument("--failure-threshold", type=int)
    sub.add_argument("--max-inflight", type=int)
    sub.add_argument("--demo-strategy", choices=[s.value for s in DemoStrategy])
    sub.add_argument("--placeholder-prefix")
    sub.add_argument("--detector", choices=["oracle", "rules", "external"])
    sub.add_argument("--detector-command")
    sub.add_argument("--detector-url")
    sub.add_argument("--detector-timeout", type=float)
    sub.add_argument("--pool-file")
    sub.add_argument("--no-leak-guard", action="store_true")
    sub.add_argument("--parallelism", type=int)
    sub.add_argument("--run-id")
    sub.add_argument("--out", help="results directory")


def _cmd_synth(args: argparse.Namespace) -> int:
    mix = _parse_locale_mix(args.locale_mix) if args.locale_mix else dict(DEFAULT_LOCALE_MIX)
    records = synth_corpus(args.n, args.seed, locale_mix=mix)
    save_corpus(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    records = load_corpus(_corpus_path(args, config))
    out_dir = _out_dir(args, config)
    metrics_by_mode: dict[str, dict] = {}
    modes = _parse_modes(args.mode)
    for mode in modes:
        run_id = args.run_id
        if run_id and len(modes) > 1:
            # an explicit id must not make the modes clobber one run directory
            run_id = f"{run_id}-{mode.value}"
        run_config = _run_config(args, config, mode, run_id=run_id)
        results = run_corpus(records, run_config, fake_secret=_fake_secret())
        metrics = compute_metrics(results, with_perplexity=not args.no_ppl)
        run_dir = persist_run(results, out_dir, metrics=metrics)
        metrics_by_mode[mode.value] = metrics.to_json_dict()
        print(f"{mode.value}: run {results.run_id} -> {run_dir}")
        if results.failed_documents:
            print(f"  {len(results.failed_documents)} document(s) failed", file=sys.stderr)
    print()
    print(primary_table(metrics_by_mode))
    print()
    print(distinctness_table(metrics_by_mode))
    return 0


def _transformed_records(records, results) -> list[CorpusRecord]:
    out = []
    for rec, doc in zip(records, results.documents):
        if doc.error is not None or doc.output is None:
            out.append(None)
            continue
        gt: dict[Label, list[str]] = {}
        for g in doc.groups:
            values = gt.setdefault(g.group.label, [])
            if g.decision.surrogate not in values:
                values.append(g.decision.surrogate)
        out.append(
            CorpusRecord(
                id=rec.id,
                text=doc.output,
                locale=rec.locale,
                template=rec.template,
                pii_gt=gt,
            )
        )
    return out


def _cmd_ner(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    records = load_corpus(_corpus_path(args, config))
    variants: dict[str, list] = {"original": list(records)}
    for mode in _parse_modes(args.mode):
        run_config = _run_config(args, config, mode)
        results = run_corpus(records, run_config, fake_secret=_fake_secret())
        variants[mode.value] = _transformed_records(records, results)
    # drop any index that failed in any variant so corpora stay parallel
    bad = {
        i
        for docs in variants.values()
        for i, doc in enumerate(docs)
        if doc is None
    }
    if bad:
        for name, docs in variants.items():
            variants[name] = [d for i, d in enumerate(docs) if i not in bad]
        print(f"dropped {len(bad)} failed document(s)", file=sys.stderr)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    report = run_ner_experiment(
        variants,
        train_size=args.train_size,
        test_size=args.test_size,
        seeds=seeds,
        iterations=args.iterations,
    )
    payload = report.to_json_dict()
    out_dir = Path(_out_dir(args, config))
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / "ner.json"
    out_file.write_text(
        json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    print(ner_table(payload))
    print(f"\nwrote {out_file}")
    return 0


def _load_run_artifact(run_dir: str, name: str) -> dict:
    path = Path(run_dir) / name
    if not path.exists():
        raise SystemExit(f"no {name} in {run_dir}")
    return json.loads(path.read_text(encoding="utf-8"))


def _cmd_distinct(args: argparse.Namespace) -> int:
    metrics = _load_run_artifact(args.run, "metrics.json")
    results = _load_run_artifact(args.run, "results.json")
    mode = results["config"]["mode"]
    print(distinctness_table({mode: metrics}))
    return 0


def _cmd_regurg(args: argparse.Namespace) -> int:
    path = Path(args.run) / "regurgitation.json"
    if not path.exists():
        raise SystemExit(
            f"no regurgitation.json in {args.run}; "
            "the analysis is only recorded for hybrid (model-backed) runs"
        )
    print(regurgitation_table(json.loads(path.read_text(encoding="utf-8"))))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    metrics_by_run: dict[str, dict] = {}
    for run_dir in args.run:
        metrics = _load_run_artifact(run_dir, "metrics.json")
        results = _load_run_artifact(run_dir, "results.json")
        key = f"{results['config']['mode']}@{results['run_id']}"
        metrics_by_run[key] = metrics
    print(primary_table(metrics_by_run))
    print()
    print(distinctness_table(metrics_by_run))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="piisub",
        description="Deterministic PII substitution and its evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--n", type=int, default=200)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--locale-mix", help="e.g. en_US=0.5,ja_JP=0.5")
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="transform a corpus and compute metrics")
    p_run.add_argument("--mode", default="hybrid", help="mode name, list, or 'all'")
    p_run.add_argument("--no-ppl", action="store_true", help="skip perplexity")
    _add_run_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_ner = sub.add_parser("ner", help="train/test the tagger on mode variants")
    p_ner.add_argument("--mode", default="all")
    p_ner.add_argument("--train-size", type=int, default=160)
    p_ner.add_argument("--test-size", type=int, default=40)
    p_ner.add_argument("--seeds", default="11,12,13,14,15")
    p_ner.add_argument("--iterations", type=int, default=30)
    _add_run_options(p_ner)
    p_ner.set_defaults(func=_cmd_ner)

    p_distinct = sub.add_parser("distinct", help="distinctness table for a run")
    p_distinct.add_argument("--run", required=True, help="run directory")
    p_distinct.set_defaults(func=_cmd_distinct)

    p_regurg = sub.add_parser("regurg", help="regurgitation table for a run")
    p_regurg.add_argument("--run", required=True, help="run directory")
    p_regurg.set_defaults(func=_cmd_regurg)

    p_report = sub.add_parser("report", help="compare metrics across runs")
    p_report.add_argument("--run", action="append", required=True, help="run directory")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BackendUnhealthy, DetectorUnavailable) as exc:
        # operational aborts surface as one line, not a traceback
        print(f"aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
