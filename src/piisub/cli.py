"""Command-line interface.

Every long option of `run` and `ner` except --config resolves the same way:
the flag, else the config-file key of the same name (--config, a JSON
object whose keys are the option names with underscores), else the
environment for the corpus, results and pool-file options
(PIISUB_CORPUS, PIISUB_RESULTS_DIR, PIISUB_POOL_FILE), else the default of
the RunConfig field or experiment parameter it sets. Config and environment
values are parsed as the option's own argument, so they go through its type
and choices; a config key that names no option is an error. The fake-value
secret is a credential, so it is read from the environment only
(PIISUB_FAKE_SECRET, empty when unset).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .backends import BackendUnhealthy
from .corpus import DEFAULT_LOCALE_MIX, load_corpus, save_corpus, synth_corpus
from .detection import DetectorUnavailable
from .model import CorpusRecord, Mode
from .ner import Gold, NerSettings, check_seeds, run_ner_experiment
from .pipeline import (
    RunConfig,
    RunResults,
    check_config,
    compute_metrics,
    corpus_digest,
    detect_corpus,
    perplexity_reference,
    persist_run,
    run_corpus,
    write_json,
)
from .pools import PoolCatalog
from .prompting import DemoStrategy
from .report import ner_table, regurgitation_table, render_runs

_ENV_FAKE_SECRET = "PIISUB_FAKE_SECRET"

#: Options the environment supplies when neither a flag nor the config does.
_ENV_OPTIONS = {
    "corpus": "PIISUB_CORPUS",
    "out": "PIISUB_RESULTS_DIR",
    "pool_file": "PIISUB_POOL_FILE",
}

#: RunConfig fields an option sets: each option's `dest` is its field.
_OPTION_FIELDS = {f.name for f in fields(RunConfig)} - {"mode", "run_id"}

_NER_OPTIONS = tuple(f.name for f in fields(NerSettings))


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"cannot read config file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise SystemExit(f"config file {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SystemExit(f"config file {path} must contain a JSON object")
    return data


def _fallback_args(
    subparser: argparse.ArgumentParser, config_path: str | None
) -> list[str]:
    """Environment and config-file settings as `--option=value` arguments,
    environment first, so that argparse lets the config override the
    environment and any flag that follows override both."""
    options = {
        action.option_strings[-1][2:].replace("-", "_"): action
        for action in subparser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    out = [
        f"--{name.replace('_', '-')}={os.environ[var]}"
        for name, var in _ENV_OPTIONS.items()
        if os.environ.get(var)
    ]
    for key, value in _load_config_file(config_path).items():
        action = options.get(key)
        if action is None:
            raise SystemExit(
                f"config key {key!r} names no option of {subparser.prog}"
            )
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise SystemExit(f"config key {key!r} must be true or false")
            if value:
                out.append(flag)
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            out.append(f"{flag}={value}")
        else:
            raise SystemExit(f"config key {key!r} must be a string or a number")
    return out


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
    """The modes named, each once, in the order of first mention."""
    if text == "all":
        return [Mode.REDACT, Mode.FAKER, Mode.HYBRID]
    try:
        modes = [Mode.from_name(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if not modes:
        raise SystemExit(f"no mode in --mode {text!r}")
    return list(dict.fromkeys(modes))


def _parse_seeds(text: str) -> list[int]:
    seeds = [int(part) for part in text.split(",") if part.strip()]
    try:
        check_seeds(seeds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seeds


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _run_id(text: str) -> str:
    """A pinned run id names one directory inside --out."""
    if text in (".", "..") or any(c and c in text for c in (os.sep, os.altsep, "\0")):
        raise argparse.ArgumentTypeError(f"must name one directory inside --out, not {text!r}")
    return text


def _run_configs(args: argparse.Namespace) -> list[tuple[RunConfig, PoolCatalog]]:
    """One RunConfig per mode of --mode, of the settings that were given (the
    rest keep the field defaults), with the demo pools its run reads, all
    checked before any of them runs: a setting that the run's backend,
    detector or pool file rejects is a usage error, and no run directory is
    written."""
    modes = _parse_modes(args.mode)
    pinned = getattr(args, "run_id", None)
    given = {
        name: value
        for name, value in vars(args).items()
        if name in _OPTION_FIELDS and value is not None
    }
    configs = []
    for mode in modes:
        run_id = pinned
        if pinned and len(modes) > 1:
            # an explicit id must not make the modes clobber one run directory
            run_id = f"{pinned}-{mode.value}"
        config = RunConfig(mode=mode, run_id=run_id, **given)
        try:
            catalog = check_config(config)
        except ValueError as exc:
            args.subparser.error(str(exc))
        configs.append((config, catalog))
    return configs


def _load_records(args: argparse.Namespace) -> list[CorpusRecord]:
    path = args.corpus
    if not path:
        raise SystemExit("no corpus given (use --corpus, config, or PIISUB_CORPUS)")
    try:
        return load_corpus(path)
    except OSError as exc:
        raise SystemExit(f"cannot read corpus {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise SystemExit(f"corpus {path}: {exc}") from None


def _make_out_dir(args: argparse.Namespace) -> Path:
    """Create --out before any record is detected, so that a directory
    that cannot be written ends the command in one line with no work done."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", help="corpus file (line-delimited JSON)")
    sub.add_argument("--config", help="JSON config file; keys are option names")
    sub.add_argument(
        "--slm-backend",
        dest="backend_kind",
        choices=["mock-pool", "mock-echo-demo", "command"],
    )
    sub.add_argument(
        "--slm-command",
        dest="backend_command",
        help="command template for --slm-backend command",
    )
    sub.add_argument("--slm-timeout", dest="backend_timeout", type=float)
    sub.add_argument("--failure-threshold", type=int)
    sub.add_argument(
        "--demo-strategy",
        type=DemoStrategy,
        metavar="{" + ",".join(s.value for s in DemoStrategy) + "}",
    )
    sub.add_argument("--detector", choices=["oracle", "rules", "external"])
    sub.add_argument("--detector-command")
    sub.add_argument("--detector-url")
    sub.add_argument("--detector-timeout", type=float)
    sub.add_argument("--pool-file")
    sub.add_argument(
        "--no-leak-guard", dest="leak_guard", action="store_false", default=None
    )
    sub.add_argument("--parallelism", type=_positive_int)
    sub.add_argument("--out", default="results", help="results directory")
    sub.set_defaults(subparser=sub)


def _cmd_synth(args: argparse.Namespace) -> int:
    mix = _parse_locale_mix(args.locale_mix) if args.locale_mix else dict(DEFAULT_LOCALE_MIX)
    try:
        records = synth_corpus(args.n, args.seed, locale_mix=mix)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        save_corpus(records, args.out)
    except OSError as exc:
        raise SystemExit(f"cannot write corpus {args.out}: {exc.strerror}") from None
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _runs(
    records: list[CorpusRecord], configs: list[tuple[RunConfig, PoolCatalog]], detected: list
) -> Iterator[RunResults]:
    """Each mode's run, in --mode order. The modes share every detector
    setting, so one detection pass serves them all, and one corpus digest."""
    digest = corpus_digest(records)
    for config, catalog in configs:
        yield run_corpus(
            records,
            config,
            fake_secret=_fake_secret(),
            detected=detected,
            digest=digest,
            catalog=catalog,
        )


def _cmd_run(args: argparse.Namespace) -> int:
    configs = _run_configs(args)
    records = _load_records(args)
    out = _make_out_dir(args)
    detected = detect_corpus(records, configs[0][0])
    reference = None if args.no_ppl else perplexity_reference(records)
    runs = []
    for results in _runs(records, configs, detected):
        metrics = compute_metrics(results, reference=reference)
        run_dir, run = persist_run(results, out, metrics)
        runs.append(run)
        print(f"{results.config.mode.value}: run {results.run_id} -> {run_dir}")
        if results.failed_documents:
            print(f"  {len(results.failed_documents)} document(s) failed", file=sys.stderr)
    print()
    sys.stdout.write(render_runs(runs))
    return 0


def _written_variant(results: RunResults) -> list[Gold | None]:
    """Each output with the spans its surrogates were written at, its NER
    gold; None where the document failed."""
    return [
        Gold(doc.record.id, doc.output, doc.written_spans()) if doc.ok else None
        for doc in results.documents
    ]


def _cmd_ner(args: argparse.Namespace) -> int:
    configs = _run_configs(args)
    experiment = {
        name: getattr(args, name)
        for name in _NER_OPTIONS
        if getattr(args, name) is not None
    }
    records = _load_records(args)
    try:
        settings = NerSettings(**experiment)
        settings.check_corpus(len(records))
    except ValueError as exc:
        args.subparser.error(str(exc))
    out_dir = _make_out_dir(args)
    detected = detect_corpus(records, configs[0][0])
    variants = {
        results.config.mode.value: _written_variant(results)
        for results in _runs(records, configs, detected)
    }
    # drop any index that failed in any variant so corpora stay parallel
    bad = {i for docs in variants.values() for i, d in enumerate(docs) if d is None}
    if bad:
        records = [r for i, r in enumerate(records) if i not in bad]
        for name, docs in variants.items():
            variants[name] = [d for i, d in enumerate(docs) if i not in bad]
        print(f"dropped {len(bad)} failed document(s)", file=sys.stderr)
        try:
            settings.check_corpus(len(records))
        except ValueError as exc:
            raise SystemExit(f"piisub ner: {exc} once the failed ones are dropped")
    report = run_ner_experiment(records, variants, **experiment)
    payload = report.to_json_dict()
    out_file = out_dir / "ner.json"
    write_json(out_file, payload)
    print(ner_table(payload))
    print(f"\nwrote {out_file}")
    return 0


def _load_run_artifact(run_dir: str, name: str, read: Callable[[Any], object]) -> Any:
    """The JSON of the run's artifact `name`, once `read` has taken from it
    what the report reads: a file that is missing, unreadable, not JSON or
    without what `read` takes ends the command with one line naming it."""
    path = Path(run_dir) / name
    if not path.exists():
        raise SystemExit(f"no {name} in {run_dir}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise SystemExit(f"{path} is not JSON: {exc}") from None
    try:
        read(data)
    except (LookupError, TypeError, AttributeError, ValueError) as exc:
        raise SystemExit(
            f"{path} is not a piisub {name}: {type(exc).__name__}: {exc}"
        ) from None
    return data


def _run_label(results: dict) -> str:
    return f"{results['config']['mode']}@{results['run_id']}"


def _cmd_report(args: argparse.Namespace) -> int:
    runs = []
    # each run directory once, however many paths name it
    run_dirs = {}
    for run_dir in args.run:
        run_dirs.setdefault(Path(run_dir).resolve(), run_dir)
    for run_dir in run_dirs.values():
        metrics = _load_run_artifact(
            run_dir, "metrics.json", lambda m: render_runs([("", m, None)])
        )
        results = _load_run_artifact(run_dir, "results.json", _run_label)
        regurg = None
        if (Path(run_dir) / "regurgitation.json").exists():
            regurg = _load_run_artifact(
                run_dir, "regurgitation.json", lambda r: regurgitation_table("", r)
            )
        runs.append((_run_label(results), metrics, regurg))
    sys.stdout.write(render_runs(runs))
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
    p_run.add_argument("--run-id", type=_run_id, help="name the run directory")
    _add_run_options(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_ner = sub.add_parser("ner", help="train/test the tagger on mode variants")
    p_ner.add_argument("--mode", default="all")
    p_ner.add_argument("--train-size", type=_positive_int)
    p_ner.add_argument("--test-size", type=_positive_int)
    p_ner.add_argument("--seeds", type=_parse_seeds, help="e.g. 11,12,13,14,15")
    p_ner.add_argument("--iterations", type=_positive_int)
    _add_run_options(p_ner)
    p_ner.set_defaults(func=_cmd_ner)

    p_report = sub.add_parser("report", help="print the tables of run directories")
    p_report.add_argument("--run", action="append", required=True, help="run directory")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if hasattr(args, "subparser"):
        # The top-level parser takes no options, so argv[0] is the
        # subcommand; the fallbacks go right after it, before every flag.
        args = parser.parse_args(
            [argv[0], *_fallback_args(args.subparser, args.config), *argv[1:]]
        )
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (BackendUnhealthy, DetectorUnavailable) as exc:
        # operational aborts surface as one line, not a traceback
        print(f"aborted: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (`piisub run ... | head`): stop quietly, and
        # point stdout at devnull so the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
