"""CLI subcommands exercised in-process through main()."""

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import piisub
from piisub.cli import build_parser, main
from piisub.corpus import load_corpus, save_corpus, synth_corpus
from piisub.model import CorpusRecord, Label
from piisub.pipeline import RunConfig

#: A value for every option that sets a RunConfig field. `slm_timeout` is a
#: JSON integer on purpose: the config must record the float the flag does.
RUN_SETTINGS = {
    "slm_backend": "mock-echo-demo",
    "slm_command": "unused {prompt}",
    "slm_timeout": 60,
    "failure_threshold": 2,
    "demo_strategy": "fixed_three",
    "detector": "rules",
    "detector_command": "unused",
    "detector_url": "http://localhost:1/unused",
    "detector_timeout": 2.5,
    "pool_file": "<written by the test>",
    "no_leak_guard": True,
    "parallelism": 2,
    "run_id": "pinned",
}


#: Settings that the backend or the detector of a `--mode all` run rejects,
#: each with the message of its usage error.
REJECTED_SETTINGS = {
    "zero-slm-timeout": (
        {"slm_backend": "command", "slm_command": "x {prompt}", "slm_timeout": 0},
        "backend timeout must be above 0, got 0.0",
    ),
    "negative-slm-timeout": (
        {"slm_backend": "command", "slm_command": "x {prompt}", "slm_timeout": -1},
        "backend timeout must be above 0, got -1.0",
    ),
    "zero-failure-threshold": (
        {"failure_threshold": 0},
        "failure_threshold must be at least 1, got 0",
    ),
    "external-without-transport": (
        {"detector": "external"},
        "the external detector needs exactly one of a command or a url",
    ),
    "zero-detector-timeout": (
        {"detector": "external", "detector_command": "x", "detector_timeout": 0},
        "detector timeout must be above 0, got 0.0",
    ),
    # a transport raises OverflowError on every call past 2**31 ms
    "infinite-slm-timeout": (
        {"slm_backend": "command", "slm_command": "x {prompt}", "slm_timeout": "inf"},
        "backend timeout must be at most 2147483 s, got inf",
    ),
    "huge-slm-timeout": (
        {"slm_backend": "command", "slm_command": "x {prompt}", "slm_timeout": 3000000},
        "backend timeout must be at most 2147483 s, got 3000000.0",
    ),
    "huge-detector-timeout": (
        {"detector": "external", "detector_command": "x", "detector_timeout": 1e300},
        "detector timeout must be at most 2147483 s, got 1e+300",
    ),
    # each failed every document, or died in a traceback, once the run began
    "unclosed-quote-in-detector-command": (
        {"detector": "external", "detector_command": "python3 'x"},
        "detector command \"python3 'x\": No closing quotation",
    ),
    "unclosed-quote-in-slm-command": (
        {"slm_backend": "command", "slm_command": "echo '{prompt}"},
        "backend command \"echo '{prompt}\": No closing quotation",
    ),
    # no OS argument can hold a NUL
    "nul-in-slm-command": (
        {"slm_backend": "command", "slm_command": "echo a\0b {prompt}"},
        "backend command 'echo a\\x00b {prompt}': holds a NUL",
    ),
    "nul-in-detector-command": (
        {"detector": "external", "detector_command": "cat\0"},
        "detector command 'cat\\x00': holds a NUL",
    ),
    "blank-detector-command": (
        {"detector": "external", "detector_command": "   "},
        "empty detector command",
    ),
    "detector-url-not-http": (
        {"detector": "external", "detector_url": "notaurl"},
        "detector url must be http:// or https://, got 'notaurl'",
    ),
    "detector-url-unparseable": (
        {"detector": "external", "detector_url": "http://[::1/spans"},
        "detector url 'http://[::1/spans' does not parse: Invalid IPv6 URL",
    ),
    "detector-url-port-not-a-number": (
        {"detector": "external", "detector_url": "http://localhost:port/spans"},
        "detector url 'http://localhost:port/spans' does not parse: Port could not"
        " be cast to integer value as 'port'",
    ),
}

#: Pool files that no hybrid run can use, each with the message of its
#: usage error.
UNUSABLE_POOL_FILES = {
    "one-demo": (
        {"person": {"en": [{"real": "Kenji Tanaka", "fake": "Hiro Yamamoto"}]}},
        "pool person/en: 1 demos, need at least 3",
    ),
    "entries-not-a-list": (
        {"person": {"en": 5}},
        "pool person/en must be a list of demos",
    ),
    "missing": (None, "cannot read pool file "),
    "demo-side-not-a-string": (
        {
            "person": {
                "en": [
                    {"real": None, "fake": "Hiro Yamamoto"},
                    {"real": "Aiko Suzuki", "fake": "Mei Kobayashi"},
                    {"real": "Ren Watanabe", "fake": "Yuna Ito"},
                    {"real": "Sora Nakamura", "fake": "Kaito Mori"},
                ]
            }
        },
        "pool person/en entry 0: real and fake must be strings",
    ),
}


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert main(["synth", "--n", "12", "--seed", "3", "--out", str(path)]) == 0
    return path


def run_dirs(out_dir):
    return sorted(p for p in out_dir.iterdir() if p.is_dir())


def write_config(path, settings):
    path.write_text(json.dumps(settings), encoding="utf-8")
    return str(path)


def write_pool_file(path):
    # plain-ASCII romaji names classify EN, so they replace the en pool
    pairs = [
        {"real": "Kenji Tanaka", "fake": "Hiro Yamamoto"},
        {"real": "Aiko Suzuki", "fake": "Mei Kobayashi"},
        {"real": "Ren Watanabe", "fake": "Yuna Ito"},
    ]
    path.write_text(json.dumps({"person": {"en": pairs}}), encoding="utf-8")
    return str(path)


def only_results(out_dir):
    (run_dir,) = run_dirs(out_dir)
    return json.loads((run_dir / "results.json").read_text(encoding="utf-8"))


class TestSynth:
    def test_writes_loadable_corpus(self, corpus_file):
        records = load_corpus(corpus_file)
        assert len(records) == 12

    def test_locale_mix_flag(self, tmp_path, capsys):
        path = tmp_path / "ja.jsonl"
        main(["synth", "--n", "5", "--seed", "0", "--out", str(path), "--locale-mix", "ja_JP=1.0"])
        assert {r.locale for r in load_corpus(path)} == {"ja_JP"}
        assert "wrote 5 records" in capsys.readouterr().out

    def test_bad_locale_mix(self, tmp_path):
        with pytest.raises(SystemExit, match="bad locale mix"):
            main(["synth", "--n", "5", "--out", str(tmp_path / "x.jsonl"), "--locale-mix", "oops"])

    @pytest.mark.parametrize("weight", ["-1", "nan"])
    def test_bad_locale_weight_exits_naming_the_locale(self, tmp_path, weight):
        out = tmp_path / "x.jsonl"
        mix = f"en_US={weight},de_DE=2"
        with pytest.raises(SystemExit, match="locale en_US: weight must be finite"):
            main(["synth", "--n", "5", "--out", str(out), "--locale-mix", mix])
        assert not out.exists()

    def test_negative_size_exits_and_writes_nothing(self, tmp_path):
        out = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit, match="must not be negative, got -1"):
            main(["synth", "--n", "-1", "--out", str(out)])
        assert not out.exists()

    def test_a_missing_directory_ends_in_one_line(self, tmp_path):
        out = tmp_path / "missing-dir" / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--n", "5", "--out", str(out)])
        assert exc.value.code == f"cannot write corpus {out}: No such file or directory"


class TestRun:
    def test_single_mode_run(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(
            [
                "run",
                "--mode", "redact",
                "--corpus", str(corpus_file),
                "--out", str(out),
                "--no-ppl",
            ]
        )
        assert code == 0
        dirs = run_dirs(out)
        assert len(dirs) == 1
        metrics = json.loads((dirs[0] / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["leak"]["rate"] == 0.0
        stdout = capsys.readouterr().out
        assert "redact" in stdout
        assert "leak" in stdout

    def test_all_modes_creates_three_runs(self, corpus_file, tmp_path):
        out = tmp_path / "results"
        main(
            [
                "run",
                "--mode", "all",
                "--corpus", str(corpus_file),
                "--out", str(out),
                "--no-ppl",
            ]
        )
        assert len(run_dirs(out)) == 3

    def test_a_repeated_mode_runs_once(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "results"
        argv = ["run", "--mode", "redact,faker,redact", "--no-ppl"]
        assert main([*argv, "--corpus", str(corpus_file), "--out", str(out)]) == 0
        started = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert started[:3] == ["redact", "faker", ""]
        assert len(run_dirs(out)) == 2

    @pytest.mark.parametrize("parallelism", ["1", "4"])
    def test_modes_share_only_the_perplexity_reference(
        self, corpus_file, tmp_path, parallelism
    ):
        # every mode is scored by the one reference of the corpus, so a mode
        # run among all three writes the bytes it writes when run alone
        def metrics_by_mode(out, mode):
            main(
                [
                    "run",
                    "--mode", mode,
                    "--corpus", str(corpus_file),
                    "--out", str(out),
                    "--parallelism", parallelism,
                ]
            )
            return {
                json.loads((d / "results.json").read_text(encoding="utf-8"))[
                    "config"
                ]["mode"]: (d / "metrics.json").read_bytes()
                for d in run_dirs(out)
            }

        together = metrics_by_mode(tmp_path / "all", "all")
        assert sorted(together) == ["faker", "hybrid", "redact"]
        for mode, metrics in together.items():
            assert json.loads(metrics)["perplexity_original"] is not None
            alone = metrics_by_mode(tmp_path / mode, mode)
            assert alone == {mode: metrics}

    def test_demo_strategy_and_backend_flags(self, corpus_file, tmp_path):
        out = tmp_path / "results"
        main(
            [
                "run",
                "--mode", "hybrid",
                "--corpus", str(corpus_file),
                "--out", str(out),
                "--slm-backend", "mock-echo-demo",
                "--demo-strategy", "fixed_three",
                "--no-ppl",
            ]
        )
        (run_dir,) = run_dirs(out)
        results = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))
        assert results["config"]["backend_kind"] == "mock-echo-demo"
        assert results["config"]["demo_strategy"] == "fixed_three"

    def test_missing_corpus_is_an_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PIISUB_CORPUS", raising=False)
        with pytest.raises(SystemExit, match="no corpus"):
            main(["run", "--mode", "redact", "--out", str(tmp_path)])

    def test_corpus_from_environment(self, corpus_file, tmp_path, monkeypatch):
        monkeypatch.setenv("PIISUB_CORPUS", str(corpus_file))
        monkeypatch.setenv("PIISUB_RESULTS_DIR", str(tmp_path / "env-results"))
        assert main(["run", "--mode", "redact", "--no-ppl"]) == 0
        assert run_dirs(tmp_path / "env-results")

    def test_fake_secret_from_environment(self, corpus_file, tmp_path, monkeypatch):
        args = ["run", "--mode", "faker", "--corpus", str(corpus_file), "--no-ppl"]
        assert main([*args, "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("PIISUB_FAKE_SECRET", "env-secret-91c2")
        assert main([*args, "--out", str(tmp_path / "keyed")]) == 0
        [plain] = run_dirs(tmp_path / "plain")
        [keyed] = run_dirs(tmp_path / "keyed")
        assert keyed.name == plain.name
        assert (keyed / "results.json").read_bytes() != (plain / "results.json").read_bytes()
        for path in keyed.iterdir():
            assert b"env-secret-91c2" not in path.read_bytes()

    def test_config_file_supplies_defaults(self, corpus_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"corpus": str(corpus_file), "out": str(tmp_path / "cfg-results")}),
            encoding="utf-8",
        )
        assert main(["run", "--mode", "redact", "--config", str(config), "--no-ppl"]) == 0
        assert run_dirs(tmp_path / "cfg-results")

    def test_config_mode_is_read(self, corpus_file, tmp_path):
        config = write_config(tmp_path / "config.json", {"mode": "redact"})
        out = tmp_path / "results"
        main(["run", "--corpus", str(corpus_file), "--config", config, "--out", str(out)])
        assert only_results(out)["config"]["mode"] == "redact"

    def test_config_no_leak_guard_is_read(self, corpus_file, tmp_path):
        config = write_config(tmp_path / "config.json", {"no_leak_guard": True})
        out = tmp_path / "results"
        main(
            [
                "run",
                "--mode", "faker",
                "--corpus", str(corpus_file),
                "--config", config,
                "--out", str(out),
                "--no-ppl",
            ]
        )
        assert only_results(out)["config"]["leak_guard"] is False

    def test_config_no_ppl_is_read(self, corpus_file, tmp_path):
        config = write_config(tmp_path / "config.json", {"no_ppl": True})
        out = tmp_path / "results"
        main(
            [
                "run",
                "--mode", "redact",
                "--corpus", str(corpus_file),
                "--config", config,
                "--out", str(out),
            ]
        )
        (run_dir,) = run_dirs(out)
        metrics = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["perplexity_original"] is None

    @pytest.mark.parametrize("key", ["slm_backnd", "config", "seeds"])
    def test_unknown_config_key_is_an_error(self, corpus_file, tmp_path, key):
        # `seeds` is an option of `ner`, not of `run`
        config = write_config(tmp_path / "config.json", {key: "command"})
        with pytest.raises(SystemExit, match=f"config key '{key}' names no option"):
            main(["run", "--corpus", str(corpus_file), "--config", config])
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("mode", ["redact", "faker", "hybrid"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_execution_setting_below_one_is_a_usage_error(
        self, corpus_file, tmp_path, capsys, given, mode
    ):
        out = tmp_path / "results"
        argv = ["run", "--mode", mode, "--corpus", str(corpus_file), "--out", str(out)]
        if given == "flag":
            argv += ["--parallelism", "0"]
        else:
            argv += ["--config", write_config(tmp_path / "config.json", {"parallelism": 0})]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --parallelism: must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ner"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize(
        "key, value",
        [
            # --parallelism alone bounds the calls in flight
            ("max_inflight", "2"),
            # the --slm-command template decides the prompt's transport
            ("prompt_via", "stdin"),
            # a redact placeholder is always [LABEL]
            ("placeholder_prefix", "PII_"),
        ],
    )
    def test_a_removed_setting_is_no_option(
        self, corpus_file, tmp_path, capsys, given, command, key, value
    ):
        out = tmp_path / "results"
        argv = [command, "--mode", "all", "--corpus", str(corpus_file), "--out", str(out)]
        if given == "flag":
            flag = "--" + key.replace("_", "-")
            argv += [flag, value]
            message = f"unrecognized arguments: {flag} {value}"
        else:
            argv += ["--config", write_config(tmp_path / "config.json", {key: value})]
            message = f"config key {key!r} names no option of piisub {command}"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        if given == "flag":
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
        else:
            assert str(exc.value) == message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ner"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("case", sorted(REJECTED_SETTINGS))
    def test_a_setting_the_backend_or_detector_rejects_is_a_usage_error(
        self, corpus_file, tmp_path, capsys, monkeypatch, case, given, command
    ):
        import piisub.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("ran a mode before the settings were checked")

        monkeypatch.setattr(cli, "run_corpus", no_run)
        settings, message = REJECTED_SETTINGS[case]
        out = tmp_path / "out"
        argv = [command, "--mode", "all", "--corpus", str(corpus_file), "--out", str(out)]
        if given == "flag":
            for key, value in settings.items():
                argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            argv += ["--config", write_config(tmp_path / "config.json", settings)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"piisub {command}: error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("case", sorted(UNUSABLE_POOL_FILES))
    def test_an_unusable_pool_file_is_a_usage_error_before_any_mode_runs(
        self, corpus_file, tmp_path, capsys, case, given
    ):
        payload, message = UNUSABLE_POOL_FILES[case]
        pool_file = tmp_path / "pools.json"
        if payload is not None:
            pool_file.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["run", "--mode", "all", "--no-ppl", "--corpus", str(corpus_file)]
        argv += ["--out", str(out)]
        if given == "flag":
            argv += ["--pool-file", str(pool_file)]
        else:
            settings = {"pool_file": str(pool_file)}
            argv += ["--config", write_config(tmp_path / "config.json", settings)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"piisub run: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ner"])
    @pytest.mark.parametrize(
        "case, message",
        [
            pytest.param(
                "missing-corpus",
                "cannot read corpus {path}: No such file or directory",
                id="missing-corpus",
            ),
            pytest.param(
                "corpus-record-without-id",
                "corpus {path}: record 1: missing or empty 'id'",
                id="corpus-record-without-id",
            ),
            pytest.param(
                "config-not-json",
                "config file {path} is not JSON: ",
                id="config-not-json",
            ),
        ],
    )
    def test_an_unreadable_input_exits_with_one_line_naming_it(
        self, corpus_file, tmp_path, command, case, message
    ):
        path = tmp_path / "input"
        argv = [command, "--out", str(tmp_path / "out")]
        if case == "missing-corpus":
            argv += ["--corpus", str(path)]
        elif case == "corpus-record-without-id":
            path.write_text('{"text": "t", "locale": "en_US"}\n', encoding="utf-8")
            argv += ["--corpus", str(path)]
        else:
            path.write_text("{bad", encoding="utf-8")
            argv += ["--corpus", str(corpus_file), "--config", str(path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert isinstance(exc.value.code, str)
        assert exc.value.code.startswith(message.format(path=path))
        assert "\n" not in exc.value.code
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "ner"])
    def test_an_out_directory_that_cannot_be_made_ends_before_detection(
        self, corpus_file, tmp_path, monkeypatch, command
    ):
        import piisub.pipeline as pipeline

        detected = []
        monkeypatch.setattr(
            pipeline, "detect_oracle", lambda record: detected.append(record) or []
        )
        blocker = tmp_path / "a-file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "out"
        argv = [command, "--corpus", str(corpus_file), "--out", str(out)]
        if command == "ner":
            argv += ["--train-size", "8", "--test-size", "3"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == f"cannot create output directory {out}: Not a directory"
        assert detected == []

    @pytest.mark.parametrize("command", ["run", "ner"])
    def test_a_pool_file_is_read_once_per_command(
        self, corpus_file, tmp_path, monkeypatch, command
    ):
        import piisub.pipeline as pipeline

        loaded = []
        load_pool_file = pipeline.load_pool_file
        monkeypatch.setattr(
            pipeline,
            "load_pool_file",
            lambda path: loaded.append(path) or load_pool_file(path),
        )
        pool_file = write_pool_file(tmp_path / "pools.json")
        argv = [command, "--mode", "all", "--corpus", str(corpus_file)]
        argv += ["--pool-file", pool_file, "--out", str(tmp_path / "out")]
        if command == "run":
            argv += ["--no-ppl"]
        else:
            argv += ["--train-size", "8", "--test-size", "3", "--iterations", "2"]
        with pytest.warns(UserWarning, match="rotation is weak"):
            assert main(argv) == 0
        assert loaded == [pool_file]

    def test_backend_settings_of_a_run_without_a_model_are_unused(
        self, corpus_file, tmp_path
    ):
        # only hybrid builds a backend, so only hybrid checks its settings
        settings, _ = REJECTED_SETTINGS["zero-slm-timeout"]
        argv = ["run", "--mode", "redact,faker", "--corpus", str(corpus_file)]
        for key, value in settings.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        assert main([*argv, "--no-ppl", "--out", str(tmp_path / "out")]) == 0
        assert len(run_dirs(tmp_path / "out")) == 2

    def test_settings_a_run_does_not_read_keep_its_directory(
        self, corpus_file, tmp_path
    ):
        # redact calls no model, so the model's settings cannot split its id
        out = tmp_path / "out"
        argv = ["run", "--mode", "redact", "--no-ppl", "--corpus", str(corpus_file)]
        assert main([*argv, "--out", str(out)]) == 0
        unread = ["--slm-timeout", "5", "--slm-command", "sh -c 'echo {prompt}'"]
        assert main([*argv, *unread, "--out", str(out)]) == 0
        config = only_results(out)["config"]  # the one directory's
        assert config["backend_timeout"] == RunConfig.backend_timeout
        assert config["backend_command"] is None

    def test_config_value_goes_through_choices(self, corpus_file, tmp_path, capsys):
        config = write_config(tmp_path / "config.json", {"detector": "psychic"})
        with pytest.raises(SystemExit):
            main(["run", "--corpus", str(corpus_file), "--config", config])
        assert "invalid choice: 'psychic'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"no_ppl": "yes"}, "'no_ppl' must be true or false"),
            ({"parallelism": [2]}, "'parallelism' must be a string or a number"),
            ({"slm_timeout": True}, "'slm_timeout' must be a string or a number"),
        ],
    )
    def test_config_value_shape(self, corpus_file, tmp_path, settings, message):
        config = write_config(tmp_path / "config.json", settings)
        with pytest.raises(SystemExit, match=message):
            main(["run", "--corpus", str(corpus_file), "--config", config])

    def test_flag_beats_config_beats_environment(self, corpus_file, tmp_path, monkeypatch):
        monkeypatch.setenv("PIISUB_RESULTS_DIR", str(tmp_path / "env"))
        config = write_config(tmp_path / "config.json", {"out": str(tmp_path / "cfg")})
        run = ["run", "--mode", "redact", "--corpus", str(corpus_file), "--no-ppl"]
        main(run)
        main([*run, "--config", config])
        main([*run, "--config", config, "--out", str(tmp_path / "flag")])
        for name in ("env", "cfg", "flag"):
            assert len(run_dirs(tmp_path / name)) == 1, name

    def test_every_run_setting_is_covered(self):
        args = build_parser().parse_args(["run"])
        options = {
            a.option_strings[-1][2:].replace("-", "_")
            for a in args.subparser._actions
        }
        not_settings = {"help", "config", "corpus", "out", "mode", "no_ppl"}
        assert options - not_settings == set(RUN_SETTINGS)

    def test_each_setting_option_stores_its_run_config_field(self):
        args = build_parser().parse_args(["run"])
        dests = {a.dest for a in args.subparser._actions if a.option_strings}
        fields = {f.name for f in dataclasses.fields(RunConfig)} - {"mode"}
        assert dests & fields == fields

    @pytest.mark.parametrize("option", sorted(RUN_SETTINGS))
    def test_config_key_equals_its_flag(self, corpus_file, tmp_path, option):
        value = RUN_SETTINGS[option]
        if option == "pool_file":
            value = write_pool_file(tmp_path / "pools.json")
        flag = "--" + option.replace("_", "-")
        run = ["run", "--mode", "hybrid", "--corpus", str(corpus_file), "--no-ppl"]
        by_flag = [flag] if value is True else [flag, str(value)]
        config = write_config(tmp_path / "config.json", {option: value})
        main([*run, *by_flag, "--out", str(tmp_path / "flag")])
        main([*run, "--config", config, "--out", str(tmp_path / "config")])
        (flag_dir,) = run_dirs(tmp_path / "flag")
        (config_dir,) = run_dirs(tmp_path / "config")
        assert config_dir.name == flag_dir.name
        for name in ("results.json", "metrics.json"):
            assert (config_dir / name).read_bytes() == (flag_dir / name).read_bytes()
        timings = [
            json.loads((d / "timings.json").read_text(encoding="utf-8"))["execution"]
            for d in (flag_dir, config_dir)
        ]
        assert timings[0] == timings[1]

    def test_unknown_mode(self, corpus_file, tmp_path):
        with pytest.raises(SystemExit, match="unknown mode"):
            main(
                [
                    "run",
                    "--mode", "shred",
                    "--corpus", str(corpus_file),
                    "--out", str(tmp_path),
                ]
            )

    @pytest.mark.parametrize("command", ["run", "ner"])
    def test_empty_mode_list(self, corpus_file, tmp_path, command):
        argv = [command, "--mode", ",", "--corpus", str(corpus_file), "--out", str(tmp_path)]
        with pytest.raises(SystemExit, match="no mode in --mode ','"):
            main(argv)
        assert list(tmp_path.iterdir()) == [corpus_file]

    def test_explicit_run_id(self, corpus_file, tmp_path):
        out = tmp_path / "results"
        main(
            [
                "run",
                "--mode", "faker",
                "--corpus", str(corpus_file),
                "--out", str(out),
                "--run-id", "pinned",
                "--no-ppl",
            ]
        )
        assert (out / "pinned" / "results.json").exists()

    def test_explicit_run_id_with_all_modes_keeps_runs_apart(self, corpus_file, tmp_path):
        out = tmp_path / "results"
        main(
            [
                "run",
                "--mode", "all",
                "--corpus", str(corpus_file),
                "--out", str(out),
                "--run-id", "pinned",
                "--no-ppl",
            ]
        )
        names = {d.name for d in run_dirs(out)}
        assert names == {"pinned-redact", "pinned-faker", "pinned-hybrid"}

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("run_id", [".", "..", "a/b", "../b", "a\0b"])
    def test_a_run_id_outside_one_directory_is_a_usage_error(
        self, corpus_file, tmp_path, capsys, monkeypatch, run_id, given
    ):
        import piisub.cli as cli

        def no_read(*args, **kwargs):
            raise AssertionError("read the corpus before the run id was checked")

        monkeypatch.setattr(cli, "load_corpus", no_read)
        out = tmp_path / "parent" / "out"
        argv = ["run", "--mode", "redact", "--corpus", str(corpus_file), "--out", str(out)]
        if given == "flag":
            argv.append(f"--run-id={run_id}")
        else:
            argv += ["--config", write_config(tmp_path / "config.json", {"run_id": run_id})]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        message = f"argument --run-id: must name one directory inside --out, not {run_id!r}"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "parent").exists()

    def test_unhealthy_backend_exits_cleanly(self, corpus_file, tmp_path, capsys):
        code = main(
            [
                "run",
                "--mode", "hybrid",
                "--corpus", str(corpus_file),
                "--out", str(tmp_path),
                "--slm-backend", "command",
                "--slm-command", "/nonexistent-slm {prompt}",
                "--no-ppl",
            ]
        )
        assert code == 1
        assert "aborted:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["redact", "faker"])
    def test_a_mode_that_calls_no_model_reads_no_failure_threshold(
        self, corpus_file, tmp_path, mode
    ):
        argv = ["run", "--mode", mode, "--no-ppl", "--corpus", str(corpus_file)]
        zero = tmp_path / "zero"
        assert main([*argv, "--failure-threshold", "0", "--out", str(zero)]) == 0
        assert main([*argv, "--out", str(tmp_path / "default")]) == 0
        # written as its default, so it does not split the run id either
        assert [d.name for d in run_dirs(zero)] == [
            d.name for d in run_dirs(tmp_path / "default")
        ]


class TestDetectionOncePerCommand:
    """Every mode of a command reads one detection pass over the corpus;
    the perplexity reference takes the oracle's spans itself."""

    @staticmethod
    def count_oracle(monkeypatch):
        import piisub.pipeline as pipeline

        seen = []
        detect_oracle = pipeline.detect_oracle

        def counted(record):
            seen.append(record.id)
            return detect_oracle(record)

        monkeypatch.setattr(pipeline, "detect_oracle", counted)
        return seen

    @staticmethod
    def stub_external(monkeypatch, fail_on=None):
        """Answer the external detector in process with the rules detector;
        the record whose text is `fail_on` finds the detector dead."""
        import threading

        from piisub.detection import (
            DetectorUnavailable,
            ExternalDetector,
            detect_rules,
        )

        seen = []
        lock = threading.Lock()

        def transport(detector, text):
            with lock:
                seen.append(text)
            if text == fail_on:
                raise DetectorUnavailable("detector command exited 1")
            return "".join(
                json.dumps({"start": s.start, "end": s.end, "label": s.label.name})
                + "\n"
                for s in detect_rules(text)
            )

        monkeypatch.setattr(ExternalDetector, "_transport", transport)
        return seen

    @pytest.mark.parametrize("ppl, passes", [([], 2), (["--no-ppl"], 1)])
    def test_run_all_detects_each_record_once_per_pass(
        self, corpus_file, tmp_path, monkeypatch, ppl, passes
    ):
        # the modes' one pass, and the perplexity reference's own
        seen = self.count_oracle(monkeypatch)
        argv = ["run", "--mode", "all", "--corpus", str(corpus_file), *ppl]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert len(run_dirs(tmp_path / "out")) == 3
        assert sorted(seen) == sorted(r.id for r in load_corpus(corpus_file) * passes)

    @pytest.mark.parametrize("parallelism", ["1", "4"])
    def test_run_all_with_an_external_detector_detects_each_record_once(
        self, corpus_file, tmp_path, monkeypatch, parallelism
    ):
        seen = self.stub_external(monkeypatch)
        argv = ["run", "--mode", "all", "--no-ppl", "--corpus", str(corpus_file)]
        argv += ["--detector", "external", "--detector-command", "unused"]
        argv += ["--parallelism", parallelism, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(run_dirs(tmp_path / "out")) == 3
        assert sorted(seen) == sorted(r.text for r in load_corpus(corpus_file))

    @pytest.mark.parametrize("command", ["run", "ner"])
    def test_all_modes_hash_the_corpus_once(
        self, corpus_file, tmp_path, monkeypatch, command
    ):
        import piisub.pipeline as pipeline

        hashed = []
        corpus_fingerprint = pipeline.corpus_fingerprint

        def counted(records):
            hashed.append(len(records))
            return corpus_fingerprint(records)

        monkeypatch.setattr(pipeline, "corpus_fingerprint", counted)
        argv = [command, "--mode", "all", "--corpus", str(corpus_file)]
        if command == "ner":
            argv += ["--train-size", "8", "--test-size", "3", "--iterations", "2"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert hashed == [12]

    def test_ner_detects_each_record_once(self, corpus_file, tmp_path, monkeypatch):
        seen = self.count_oracle(monkeypatch)
        argv = ["ner", "--corpus", str(corpus_file), "--out", str(tmp_path / "ner")]
        argv += ["--train-size", "8", "--test-size", "3", "--iterations", "2"]
        assert main(argv) == 0
        assert sorted(seen) == sorted(r.id for r in load_corpus(corpus_file))

    @pytest.mark.parametrize("parallelism", ["1", "4"])
    def test_a_dead_detector_stops_every_mode_before_any_is_written(
        self, corpus_file, tmp_path, monkeypatch, capsys, parallelism
    ):
        records = load_corpus(corpus_file)
        self.stub_external(monkeypatch, fail_on=records[len(records) // 2].text)
        out = tmp_path / "out"
        argv = ["run", "--mode", "all", "--corpus", str(corpus_file)]
        argv += ["--detector", "external", "--detector-command", "unused"]
        assert main([*argv, "--parallelism", parallelism, "--out", str(out)]) == 1
        assert "aborted: detector command exited 1" in capsys.readouterr().err
        # --out is made before detection starts, and nothing is written in it
        assert list(out.iterdir()) == []


class TestNer:
    def test_small_experiment(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "ner-out"
        code = main(
            [
                "ner",
                "--mode", "redact",
                "--corpus", str(corpus_file),
                "--out", str(out),
                "--train-size", "8",
                "--test-size", "3",
                "--seeds", "1,2",
                "--iterations", "3",
            ]
        )
        assert code == 0
        payload = json.loads((out / "ner.json").read_text(encoding="utf-8"))
        assert payload["variant_order"] == ["original", "redact"]
        assert payload["scores"]["redact"]["mean"] == 0.0
        stdout = capsys.readouterr().out
        assert "variant" in stdout
        assert "original" in stdout


    def test_a_repeated_mode_is_one_variant(self, corpus_file, tmp_path, monkeypatch):
        import piisub.cli as cli

        modes = []
        run_corpus = cli.run_corpus

        def counted(records, config, **kwargs):
            modes.append(config.mode.value)
            return run_corpus(records, config, **kwargs)

        monkeypatch.setattr(cli, "run_corpus", counted)
        out = tmp_path / "ner-out"
        argv = ["ner", "--mode", "hybrid,redact,hybrid", "--corpus", str(corpus_file)]
        sizes = ["--train-size", "8", "--test-size", "3", "--iterations", "2"]
        assert main([*argv, *sizes, "--out", str(out)]) == 0
        assert modes == ["hybrid", "redact"]
        payload = json.loads((out / "ner.json").read_text(encoding="utf-8"))
        assert payload["variant_order"] == ["original", "hybrid", "redact"]

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("seeds", ["11", "11,"])
    def test_fewer_than_two_seeds_is_a_usage_error(
        self, corpus_file, tmp_path, capsys, monkeypatch, seeds, given
    ):
        import piisub.ner as ner

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the seeds were checked")

        monkeypatch.setattr(ner, "train_tagger", no_training)
        out = tmp_path / "ner-out"
        argv = ["ner", "--mode", "redact", "--corpus", str(corpus_file), "--out", str(out)]
        if given == "flag":
            argv += ["--seeds", seeds]
        else:
            argv += ["--config", write_config(tmp_path / "config.json", {"seeds": seeds})]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --seeds: need at least two seeds" in capsys.readouterr().err
        assert not (out / "ner.json").exists()

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("train_size", "-5", "must be at least 1, got -5"),
            ("test_size", "0", "must be at least 1, got 0"),
            ("iterations", "-2", "must be at least 1, got -2"),
            ("seeds", "11,11", "need at least two seeds, each given once"),
        ],
        ids=["train-size", "test-size", "iterations", "seeds"],
    )
    def test_a_setting_that_mis_measures_is_a_usage_error(
        self, corpus_file, tmp_path, capsys, monkeypatch, option, value, message, given
    ):
        import piisub.ner as ner

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the settings were checked")

        monkeypatch.setattr(ner, "train_tagger", no_training)
        out = tmp_path / "ner-out"
        argv = ["ner", "--mode", "redact", "--corpus", str(corpus_file), "--out", str(out)]
        flag = "--" + option.replace("_", "-")
        if given == "flag":
            argv += [flag, value]
        else:
            setting = value if option == "seeds" else int(value)
            argv += ["--config", write_config(tmp_path / "config.json", {option: setting})]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not (out / "ner.json").exists()

    @pytest.mark.parametrize("given", ["flag", "config", "default"])
    def test_a_split_larger_than_the_corpus_is_a_usage_error(
        self, corpus_file, tmp_path, capsys, monkeypatch, given
    ):
        import piisub.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("transformed before the split size was checked")

        monkeypatch.setattr(cli, "run_corpus", no_run)
        out = tmp_path / "ner-out"
        argv = ["ner", "--corpus", str(corpus_file), "--out", str(out)]
        # the corpus holds 12 records; the experiment's defaults are 160 + 40
        split = (10, 3) if given != "default" else (160, 40)
        if given == "flag":
            argv += ["--train-size", "10", "--test-size", "3"]
        elif given == "config":
            sizes = {"train_size": 10, "test_size": 3}
            argv += ["--config", write_config(tmp_path / "config.json", sizes)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        message = (
            f"piisub ner: error: train size {split[0]} + test size {split[1]} "
            f"need {sum(split)} records, corpus has 12\n"
        )
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_gold_tags_sit_only_where_the_surrogate_was_written(
        self, tmp_path, monkeypatch
    ):
        # the model answers "Robin Vale" for every name, and every record's
        # ordinary text already holds "Robin Vale"
        import piisub.ner as ner

        names = ["Walter Abernathy", "Edith Crane", "Hugo Brandt", "Ines Moreau"]
        names += ["Otto Lindqvist", "Clara Voss"]
        records = [
            CorpusRecord(
                id=f"doc-{i}",
                text=f"Ask Robin Vale about {name}.",
                locale="en_US",
                template="planted",
                pii_gt={Label.PERSON: (name,)},
            )
            for i, name in enumerate(names)
        ]
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(records, corpus)
        tags_of = {}
        annotate = ner.annotate_from_gt

        def recorded(*args):
            result = annotate(*args)
            tokens, tags = result[0], result[1]
            tags_of[" ".join(t.text for t in tokens)] = tags
            return result

        monkeypatch.setattr(ner, "annotate_from_gt", recorded)
        model = "sh -c 'cat >/dev/null; echo Robin Vale'"
        out = tmp_path / "ner-out"
        argv = ["ner", "--mode", "hybrid", "--corpus", str(corpus), "--out", str(out)]
        argv += ["--slm-backend", "command", "--slm-command", model]
        argv += ["--train-size", "4", "--test-size", "2", "--seeds", "1,2"]
        assert main([*argv, "--iterations", "2"]) == 0
        written = {
            text: tags for text, tags in tags_of.items() if text.count("Robin Vale") == 2
        }
        assert written  # the hybrid variant was annotated
        for tags in written.values():
            assert tags == ["O", "O", "O", "O", "B-PII", "I-PII"]
        scores = json.loads((out / "ner.json").read_text(encoding="utf-8"))["scores"]
        assert scores["hybrid"]["train_spans_by_seed"] == [4, 4]
        assert scores["original"]["train_spans_by_seed"] == [4, 4]

    def test_failed_documents_below_the_split_end_in_one_line(
        self, corpus_file, tmp_path, capsys, monkeypatch
    ):
        import piisub.cli as cli

        run_corpus = cli.run_corpus

        def two_fail(records, config, **kwargs):
            results = run_corpus(records, config, **kwargs)
            for doc in results.documents[:2]:
                doc.output, doc.error = None, "planted failure"
            return results

        monkeypatch.setattr(cli, "run_corpus", two_fail)
        out = tmp_path / "ner-out"
        argv = ["ner", "--mode", "redact", "--corpus", str(corpus_file)]
        argv += ["--train-size", "8", "--test-size", "3", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == (
            "piisub ner: train size 8 + test size 3 need 11 records, "
            "corpus has 10 once the failed ones are dropped"
        )
        assert "dropped 2 failed document(s)" in capsys.readouterr().err
        # --out is made before detection starts, and no ner.json is written
        assert list(out.iterdir()) == []

    def test_config_keys_equal_their_flags(self, corpus_file, tmp_path):
        settings = {
            "mode": "redact",
            "train_size": 8,
            "test_size": 3,
            "seeds": "1,2",
            "iterations": 3,
        }
        by_flag = []
        for key, value in settings.items():
            by_flag += ["--" + key.replace("_", "-"), str(value)]
        config = write_config(tmp_path / "config.json", settings)
        ner = ["ner", "--corpus", str(corpus_file)]
        assert main([*ner, *by_flag, "--out", str(tmp_path / "flag")]) == 0
        assert main([*ner, "--config", config, "--out", str(tmp_path / "cfg")]) == 0
        assert (tmp_path / "cfg" / "ner.json").read_bytes() == (
            tmp_path / "flag" / "ner.json"
        ).read_bytes()

    def test_run_id_is_not_an_ner_option(self, corpus_file, tmp_path, capsys):
        ner = ["ner", "--corpus", str(corpus_file), "--out", str(tmp_path / "ner-out")]
        with pytest.raises(SystemExit) as exc:
            main([*ner, "--run-id", "pinned"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --run-id" in capsys.readouterr().err
        config = write_config(tmp_path / "config.json", {"run_id": "pinned"})
        with pytest.raises(SystemExit, match="'run_id' names no option of piisub ner"):
            main([*ner, "--config", config])

    def test_run_only_option_is_an_unknown_key(self, corpus_file, tmp_path):
        config = write_config(tmp_path / "config.json", {"no_ppl": True})
        with pytest.raises(SystemExit, match="'no_ppl' names no option of piisub ner"):
            main(["ner", "--corpus", str(corpus_file), "--config", config])


class TestRunArtifactCommands:
    MODES = ("redact", "faker", "hybrid")

    @pytest.fixture
    def all_modes(self, corpus_file, tmp_path, capsys):
        """The run directories of `run --mode all`, by mode, and what the
        run printed after its per-mode lines."""
        out = tmp_path / "results"
        argv = ["run", "--mode", "all", "--no-ppl", "--corpus", str(corpus_file)]
        assert main([*argv, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        dirs = {}
        for run_dir in run_dirs(out):
            results = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))
            dirs[results["config"]["mode"]] = run_dir
        return dirs, printed.split("\n\n", 1)[1]

    def report(self, capsys, *run_dirs):
        argv = ["report"]
        for run_dir in run_dirs:
            argv += ["--run", str(run_dir)]
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("mode", MODES)
    def test_report_prints_report_txt(self, all_modes, capsys, mode):
        run_dir = all_modes[0][mode]
        printed = self.report(capsys, run_dir)
        assert printed == (run_dir / "report.txt").read_text(encoding="utf-8")
        assert f"{mode}@{run_dir.name}" in printed

    @pytest.mark.parametrize("first, latest", [
        ("hybrid", "faker"),
        ("hybrid", "redact"),
        ("faker", "hybrid"),
    ])
    def test_a_pinned_run_directory_holds_only_its_latest_run(
        self, corpus_file, tmp_path, capsys, first, latest
    ):
        out = tmp_path / "results"
        argv = ["run", "--no-ppl", "--corpus", str(corpus_file), "--out", str(out)]
        for mode in (first, latest):
            assert main([*argv, "--mode", mode, "--run-id", "x"]) == 0
        capsys.readouterr()
        run_dir = out / "x"
        hybrid = latest == "hybrid"
        assert (run_dir / "regurgitation.json").exists() == hybrid
        printed = self.report(capsys, run_dir)
        assert printed == (run_dir / "report.txt").read_text(encoding="utf-8")
        assert f"{latest}@x" in printed and ("output_copies" in printed) == hybrid

    def test_run_prints_the_report_of_its_runs(self, all_modes, capsys):
        dirs, printed = all_modes
        assert printed == self.report(capsys, *(dirs[mode] for mode in self.MODES))

    def test_report_shows_distinctness_per_label(self, all_modes, capsys):
        run_dir = all_modes[0]["hybrid"]
        rows = self.report(capsys, run_dir).splitlines()
        assert any(row.split()[:2] == [f"hybrid@{run_dir.name}", "PERSON"] for row in rows)

    def test_report_shows_regurgitation_for_hybrid(self, all_modes, capsys):
        run_dir = all_modes[0]["hybrid"]
        printed = self.report(capsys, run_dir)
        assert printed.count("output_copies") == 1
        assert ["metric", f"hybrid@{run_dir.name}"] in [
            line.split() for line in printed.splitlines()
        ]

    def test_report_shows_no_regurgitation_for_redact(self, all_modes, capsys):
        printed = self.report(capsys, all_modes[0]["redact"])
        assert "output_copies" not in printed and "pool" not in printed

    def test_report_compares_runs(self, all_modes, capsys):
        dirs = all_modes[0]
        out = self.report(capsys, dirs["hybrid"], dirs["redact"])
        assert "hybrid@" in out
        assert "redact@" in out
        # the one regurgitation section is the hybrid run's
        assert out.count("output_copies") == 1

    def test_report_renders_a_run_directory_once(self, all_modes, capsys):
        run_dir = all_modes[0]["hybrid"]
        again = run_dir.parent / "." / run_dir.name
        assert self.report(capsys, run_dir, again, run_dir) == self.report(capsys, run_dir)

    def test_report_missing_metrics_names_the_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no metrics.json"):
            main(["report", "--run", str(tmp_path)])

    @pytest.mark.parametrize(
        "name, text, problem",
        [
            pytest.param(name, "{bad", "is not JSON: ", id=name)
            for name in ("metrics.json", "results.json", "regurgitation.json")
        ]
        + [
            # valid JSON without a field the report reads
            pytest.param(
                "results.json",
                '{"x":1}',
                "is not a piisub results.json: KeyError: 'config'",
                id="results.json-without-config",
            ),
            pytest.param(
                "metrics.json",
                '{"leak": {}}',
                "is not a piisub metrics.json: KeyError: 'rate'",
                id="metrics.json-without-leak-rate",
            ),
        ],
    )
    def test_report_over_a_corrupt_artifact_names_the_file(
        self, all_modes, name, text, problem
    ):
        run_dir = all_modes[0]["hybrid"]
        (run_dir / name).write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["report", "--run", str(run_dir)])
        assert exc.value.code.startswith(f"{run_dir / name} {problem}")
        assert "\n" not in exc.value.code

    def test_report_over_an_unreadable_artifact_names_the_file(self, all_modes):
        run_dir = all_modes[0]["redact"]
        (run_dir / "metrics.json").unlink()
        (run_dir / "metrics.json").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["report", "--run", str(run_dir)])
        assert exc.value.code == f"cannot read {run_dir / 'metrics.json'}: Is a directory"


#: The sha256 of every compared artifact that `run --mode all` writes for
#: `synth_corpus(240, 1)` with no fake-value secret, by run directory. The
#: equivalence oracle: every supported interpreter writes these bytes.
RUN_ALL_DIGESTS = {
    "b37838fa9ba3/metrics.json": (
        "ac4d0437b06470fadff500649e10bc3faee755cf59ce27c9ee190345d7f5aa04"
    ),
    "b37838fa9ba3/results.json": (
        "d9e3c29767af8bc15381e7911990b856475eed647db115d47a1dfa699fd9bde6"
    ),
    "b81fed7c7151/metrics.json": (
        "2264860eded08f31f628e88eb7af4b4b02d617799fce6898fc15600cb34f7572"
    ),
    "b81fed7c7151/results.json": (
        "79caf94dbe59f7a9ad019e20356f4be6676a04a29176b60689c68452eb3ba122"
    ),
    "d2bde0b66bfe/metrics.json": (
        "4c5dcd48f25beeee03639beb562e588df3c1824a0101b8789c901dadbbd5f794"
    ),
    "d2bde0b66bfe/regurgitation.json": (
        "636f3d55643b6ec70ff8f608e8e61910d4ae02ea52445fe6f783b2c98b53076d"
    ),
    "d2bde0b66bfe/results.json": (
        "64f1f6f8a26e3c123916a5464b75478e11687947457aba55ea192d8d968f56c9"
    ),
}


def test_run_all_writes_the_pinned_bytes(tmp_path, monkeypatch):
    for name in list(os.environ):
        if name.startswith("PIISUB_"):
            monkeypatch.delenv(name)
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(synth_corpus(240, 1), corpus)
    out = tmp_path / "results"
    assert main(["run", "--mode", "all", "--corpus", str(corpus), "--out", str(out)]) == 0
    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*/*.json"))
        if path.name != "timings.json"
    }
    assert digests == RUN_ALL_DIGESTS


@pytest.mark.parametrize("guard", [[], ["--no-leak-guard"]], ids=["guard", "no-guard"])
def test_metrics_depend_on_the_documents_not_their_order(tmp_path, monkeypatch, guard):
    """Every sum in metrics.json is exact: the records reversed or shuffled
    give each mode the same bytes. The run ids differ (the corpus digest
    reads the order), so each run is matched to its mode."""
    for name in list(os.environ):
        if name.startswith("PIISUB_"):
            monkeypatch.delenv(name)
    records = synth_corpus(240, 1)
    orders = {"forward": records, "reversed": records[::-1]}
    for seed in range(3):
        orders[f"shuffled{seed}"] = random.Random(seed).sample(records, len(records))

    def metrics_by_mode(name, corpus):
        path = tmp_path / f"{name}.jsonl"
        save_corpus(corpus, path)
        out = tmp_path / name
        argv = ["run", "--mode", "all", "--corpus", str(path), "--out", str(out)]
        assert main([*argv, *guard]) == 0
        return {
            json.loads((run / "results.json").read_bytes())["config"]["mode"]: (
                run / "metrics.json"
            ).read_bytes()
            for run in out.iterdir()
        }

    forward = metrics_by_mode("forward", records)
    assert sorted(forward) == ["faker", "hybrid", "redact"]
    for data in forward.values():
        metrics = json.loads(data)
        assert None not in (metrics["perplexity_original"], metrics["perplexity_transformed"])
    for name, corpus in orders.items():
        assert metrics_by_mode(name, corpus) == forward, name


@pytest.mark.parametrize(
    "records",
    [
        [],
        [CorpusRecord("a", "Ann Lee", "en_US", "", {Label.PERSON: ["Ann Lee"]})],
    ],
    ids=["empty", "all-pii"],
)
def test_a_corpus_with_no_non_pii_text_has_no_perplexity(tmp_path, records):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(records, corpus)
    out = tmp_path / "out"
    assert main(["run", "--mode", "all", "--corpus", str(corpus), "--out", str(out)]) == 0
    written = [json.loads(p.read_bytes()) for p in out.glob("*/metrics.json")]
    assert len(written) == 3
    for metrics in written:
        assert metrics["perplexity_original"] is None
        assert metrics["perplexity_transformed"] is None


@pytest.mark.parametrize("step", [math.inf, -math.inf])
def test_metrics_do_not_read_libm_log_or_exp(tmp_path, monkeypatch, step):
    """Perplexity is exact in `decimal`: a libm whose log and exp round
    one ulp off writes the same metrics.json."""
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(synth_corpus(40, 1), corpus)

    def metrics(out):
        argv = ["run", "--mode", "all", "--corpus", str(corpus), "--out", str(out)]
        assert main(argv) == 0
        return {p.parent.name: p.read_bytes() for p in out.glob("*/metrics.json")}

    expected = metrics(tmp_path / "libm")
    log, exp = math.log, math.exp
    monkeypatch.setattr(math, "log", lambda *args: math.nextafter(log(*args), step))
    monkeypatch.setattr(math, "exp", lambda x: math.nextafter(exp(x), step))
    assert math.log(math.e) != 1.0 and math.exp(1.0) != math.e
    assert metrics(tmp_path / "off") == expected


def test_ner_probe_writes_the_pinned_bytes(tmp_path, monkeypatch):
    """The benchmark's ner-probe shape: `ner.json` is the NER table's
    equivalence oracle, as RUN_ALL_DIGESTS is the run artifacts'."""
    for name in list(os.environ):
        if name.startswith("PIISUB_"):
            monkeypatch.delenv(name)
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(synth_corpus(80, 1), corpus)
    out = tmp_path / "ner"
    argv = ["ner", "--corpus", str(corpus), "--out", str(out), "--iterations", "10"]
    assert main([*argv, "--train-size", "64", "--test-size", "16"]) == 0
    assert hashlib.sha256((out / "ner.json").read_bytes()).hexdigest() == (
        "f8e293b356b748a7188bed0e4989b857f6584bd5fdd004618a8ea1ec92265cb0"
    )


def child_env(**settings):
    """The environment of a child interpreter that imports this piisub."""
    return {**os.environ, "PYTHONPATH": str(Path(piisub.__file__).parents[1]), **settings}


def test_closed_stdout_exits_without_a_traceback(corpus_file, tmp_path):
    command = [sys.executable, "-m", "piisub.cli", "run", "--mode", "all"]
    command += ["--no-ppl", "--corpus", str(corpus_file), "--out", str(tmp_path)]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()
    )
    proc.stdout.close()  # the reader is gone before the first print
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr


def piisub_command(*argv):
    return [sys.executable, "-m", "piisub.cli", *argv]


def test_an_arg_mode_model_reads_an_empty_stdin(corpus_file, tmp_path):
    """The model gets its own stdin, not piisub's: text piped into piisub
    never reaches a completion."""
    model = "sh -c 'cat; echo Zed Quill' {prompt}"
    command = piisub_command(
        "run", "--mode", "hybrid", "--corpus", str(corpus_file), "--out", str(tmp_path),
        "--slm-backend", "command", "--slm-command", model,
    )
    subprocess.run(
        command, input=b"Hello There\n", env=child_env(), check=True,
        capture_output=True, timeout=120,
    )
    (run_dir,) = run_dirs(tmp_path)
    documents = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))
    surrogates = {
        group["decision"]["surrogate"]
        for doc in documents["documents"]
        for group in doc["groups"]
    }
    assert "Zed Quill" in surrogates and "Hello There" not in surrogates


#: A model that answers with the transport its prompt came by, and fails
#: on a prompt that came by both or by neither.
TRANSPORT_MODEL = """\
import sys
stdin = sys.stdin.read()
argv = sys.argv[1:]
if [p.startswith("Real: ") for p in (*argv, stdin) if p] != [True]:
    sys.exit(1)
print("Argv Quill" if argv else "Stdin Quill")
"""


@pytest.mark.parametrize(
    "template, answer",
    [
        # a usage error under the default --prompt-via arg until it went
        ("{model}", "Stdin Quill"),
        # a usage error under --prompt-via stdin until it went
        ("{model} {{prompt}}", "Argv Quill"),
    ],
    ids=["no-placeholder-pipes-stdin", "placeholder-goes-in-argv"],
)
def test_the_template_decides_the_prompt_transport(
    corpus_file, tmp_path, template, answer
):
    script = tmp_path / "model.py"
    script.write_text(TRANSPORT_MODEL, encoding="utf-8")
    model = template.format(model=f"{sys.executable} {script}")
    out = tmp_path / "out"
    argv = ["run", "--mode", "hybrid", "--no-ppl", "--corpus", str(corpus_file)]
    argv += ["--slm-backend", "command", "--slm-command", model, "--out", str(out)]
    assert main(argv) == 0
    documents = only_results(out)["documents"]
    assert [doc["error"] for doc in documents] == [None] * len(documents)
    decisions = [group["decision"] for doc in documents for group in doc["groups"]]
    assert any(d["source"] == "slm" and d["surrogate"] == answer for d in decisions)
    assert all(d["rejection_reasons"] != ["empty"] for d in decisions)


@pytest.mark.parametrize("threshold, code", [(5, 0), (1, 1)])
def test_a_prompt_no_os_argument_can_hold_is_a_failed_call(
    tmp_path, capsys, threshold, code
):
    """A NUL in a prompt that goes in an argument keeps the model from
    starting: the call fails, falls back and counts toward the failure
    threshold, and the document is ok."""
    (rec,) = synth_corpus(1, seed=1)
    (person,) = rec.pii_gt[Label.PERSON]
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(
        [
            dataclasses.replace(
                rec,
                text=rec.text.replace(person, "Ann\0Lee"),
                pii_gt={**rec.pii_gt, Label.PERSON: ("Ann\0Lee",)},
            )
        ],
        corpus,
    )
    out = tmp_path / "out"
    argv = ["run", "--mode", "hybrid", "--no-ppl", "--corpus", str(corpus)]
    argv += ["--slm-backend", "command", "--slm-command", "echo {prompt}"]
    argv += ["--failure-threshold", str(threshold), "--out", str(out)]
    assert main(argv) == code
    if code:
        assert (
            "1 consecutive failures, last: command:echo: cannot run echo: "
            "embedded null byte"
        ) in capsys.readouterr().err
        return
    (doc,) = only_results(out)["documents"]
    assert doc["error"] is None
    (group,) = [g for g in doc["groups"] if g["label"] == "PERSON"]
    assert group["decision"]["source"] == "fallback_fake"
    assert group["decision"]["rejection_reasons"] == ["empty"]


def test_a_detector_endpoint_outside_http_aborts_without_a_traceback(
    corpus_file, tmp_path, not_http_endpoint
):
    command = piisub_command(
        "run", "--mode", "redact", "--corpus", str(corpus_file), "--out", str(tmp_path),
        "--detector", "external", "--detector-url", not_http_endpoint,
    )
    proc = subprocess.run(command, env=child_env(), capture_output=True, timeout=120)
    stderr = proc.stderr.decode("utf-8")
    assert proc.returncode == 1
    assert "aborted: detector endpoint failed: BadStatusLine" in stderr
    assert "Traceback" not in stderr


#: Modules that only an out-of-process backend or detector, or the worker
#: pool of a run that calls one, needs.
OUT_OF_PROCESS_MODULES = (
    "subprocess",
    "socket",
    "ssl",
    "http.client",
    "urllib.request",
    "email",
    "concurrent.futures",
)


@pytest.mark.parametrize("parallelism", ["1", "4"])
def test_an_in_process_run_loads_no_out_of_process_module(
    corpus_file, tmp_path, parallelism
):
    """A fresh interpreter that runs every mode with the mock backend and the
    oracle leaves each out-of-process module unloaded, unless the bare
    interpreter of the same environment loads it already: such a run starts
    no pool at any --parallelism."""
    script = (
        "import json, sys\n"
        "argv, listing = sys.argv[1:-1], sys.argv[-1]\n"
        "if argv:\n"
        "    import piisub.cli\n"
        "    assert piisub.cli.main(argv) == 0\n"
        "with open(listing, 'w') as out:\n"
        "    json.dump(sorted(sys.modules), out)\n"
    )

    def loaded(*argv):
        listing = tmp_path / "modules.json"
        command = [sys.executable, "-c", script, *argv, str(listing)]
        subprocess.run(
            command, env=child_env(), check=True, capture_output=True, timeout=120
        )
        return set(json.loads(listing.read_text(encoding="utf-8")))

    bare = loaded()
    run = ["run", "--mode", "all", "--parallelism", parallelism, "--corpus", str(corpus_file)]
    after_run = loaded(*run, "--out", str(tmp_path / "results"))
    assert "piisub.pipeline" in after_run
    assert len(run_dirs(tmp_path / "results")) == 3
    unexpected = [m for m in OUT_OF_PROCESS_MODULES if m in after_run - bare]
    assert unexpected == []
