"""CLI subcommands exercised in-process through main()."""

import json

import pytest

from piisub.cli import main
from piisub.corpus import load_corpus


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert main(["synth", "--n", "12", "--seed", "3", "--out", str(path)]) == 0
    return path


def run_dirs(out_dir):
    return sorted(p for p in out_dir.iterdir() if p.is_dir())


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


class TestRunArtifactCommands:
    @pytest.fixture
    def hybrid_run_dir(self, corpus_file, tmp_path):
        out = tmp_path / "results"
        main(
            [
                "run",
                "--mode", "hybrid",
                "--corpus", str(corpus_file),
                "--out", str(out),
                "--no-ppl",
            ]
        )
        (run_dir,) = run_dirs(out)
        return run_dir

    @pytest.fixture
    def redact_run_dir(self, corpus_file, tmp_path):
        out = tmp_path / "redact-results"
        main(
            [
                "run",
                "--mode", "redact",
                "--corpus", str(corpus_file),
                "--out", str(out),
                "--no-ppl",
            ]
        )
        (run_dir,) = run_dirs(out)
        return run_dir

    def test_distinct(self, hybrid_run_dir, capsys):
        assert main(["distinct", "--run", str(hybrid_run_dir)]) == 0
        assert "PERSON" in capsys.readouterr().out

    def test_regurg(self, hybrid_run_dir, capsys):
        assert main(["regurg", "--run", str(hybrid_run_dir)]) == 0
        out = capsys.readouterr().out
        assert "output_copies" in out or "copies" in out

    def test_regurg_refuses_non_hybrid_run(self, redact_run_dir):
        with pytest.raises(SystemExit, match="only recorded for hybrid"):
            main(["regurg", "--run", str(redact_run_dir)])

    def test_report_compares_runs(self, hybrid_run_dir, redact_run_dir, capsys):
        code = main(
            ["report", "--run", str(hybrid_run_dir), "--run", str(redact_run_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hybrid@" in out
        assert "redact@" in out

    def test_distinct_missing_artifact(self, tmp_path):
        with pytest.raises(SystemExit, match="no metrics.json"):
            main(["distinct", "--run", str(tmp_path)])
