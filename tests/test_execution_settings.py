"""Execution settings do not move a written byte.

Each row of `ROWS` runs `python -m piisub.cli` in a fresh interpreter with
one setting of its reference changed: `--parallelism`, `PYTHONHASHSEED`, an
ASCII locale, or the working directory of an out-of-process adapter. The row
must end the way its reference does: the same exit status, the same files,
the same bytes in every compared artifact, and, when it fails, the same
message. A reference runs once per module, however many rows compare with it.
"""

import hashlib
import json
import shlex
import subprocess
import sys
from typing import NamedTuple

import pytest

from piisub.cli import main
from piisub.corpus import load_corpus, save_corpus
from piisub.model import CorpusRecord, Label

from test_cli import child_env, piisub_command

#: The artifacts that README promises are the same under every setting.
COMPARED = ("results.json", "metrics.json", "regurgitation.json", "ner.json")

#: A locale whose encoding is ASCII, with both of Python's UTF-8 rescues off.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

#: A model that fails some of its calls. Its reply depends only on the
#: prompt's last `Real:` line, through that line's cksum h: a call sleeps
#: h mod 61 ms, so calls finish out of order on a pool, and an even h fails.
#: On `synth --n 40 --seed 1` the serial run completes at failure threshold
#: 8 and aborts at 7.
FLAKY_MODEL = r"""h=$(grep '^Real: ' | tail -n 1 | cksum | cut -d' ' -f1)
sleep "$(awk "BEGIN { printf \"%.3f\", ($h % 61) / 1000 }")"
if [ $((h % 2)) -eq 0 ]; then echo "down $h" >&2; exit 1; fi
echo "Robin Vale 12"
"""

#: An external detector that logs each call and answers with the rules
#: detector's spans, one JSON line each, as REPLY orders them.
DETECTOR = """\
import json, sys
from piisub.detection import detect_rules
with open("detector-calls.txt", "a") as calls:
    calls.write("call\\n")
spans = detect_rules(sys.stdin.buffer.read().decode("utf-8"))
for span in REPLY:
    print(json.dumps({"start": span.start, "end": span.end, "label": span.label.name}))
"""

#: The detector's reply in each working directory. The command line is the
#: same in both, so it records the same config: reply lines may come in any
#: order and repeat.
DETECTOR_REPLIES = {".": "spans", "twice": "[*spans, *spans][::-1]"}


class Cell(NamedTuple):
    """A command line without `--corpus` and `--out`, and the process
    settings it runs under."""

    argv: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()
    cwd: str = "."
    corpus: str = "corpus.jsonl"


def command_model(model):
    return ("run", "--mode", "hybrid", "--slm-backend", "command", "--slm-command", model)


REFERENCES = {
    "run-all": Cell(("run", "--mode", "all")),
    "ner": Cell(("ner", "--train-size", "30", "--test-size", "10", "--iterations", "5")),
    # the template holds no {prompt}, so the prompt goes on stdin
    "command-stdin": Cell(
        command_model("sh -c 'cat >/dev/null; echo Robin Vale'"), (("PYTHONUTF8", "1"),)
    ),
    "command-arg": Cell(
        command_model("sh -c 'echo Robin Vale' {prompt}"), (("PYTHONUTF8", "1"),)
    ),
    "flaky-threshold-8": Cell(
        (*command_model("sh flaky.sh"), "--no-ppl", "--failure-threshold", "8")
    ),
    "flaky-threshold-7": Cell(
        (*command_model("sh flaky.sh"), "--no-ppl", "--failure-threshold", "7")
    ),
    "external-detector": Cell(
        (
            "run", "--mode", "all", "--no-ppl", "--detector", "external",
            "--detector-command", f"{shlex.quote(sys.executable)} detector.py",
        )
    ),
    # records end at "\n" only: U+2028, U+2029 and U+0085 stay inside a text
    "line-separators": Cell(("run", "--mode", "all"), corpus="separators.jsonl"),
}


def varied(reference, *argv, cwd=None, **env):
    """The row that runs `reference` with `argv` added, `env` set and, if
    given, from the working directory `cwd`."""
    base = REFERENCES[reference]
    cell = base._replace(
        argv=(*base.argv, *argv), env=(*base.env, *env.items()), cwd=cwd or base.cwd
    )
    return reference, cell


P4 = ("--parallelism", "4")

#: Each row: its reference and its cell.
ROWS = {
    "run-all-hash-seed-1": varied("run-all", PYTHONHASHSEED="1"),
    "run-all-hash-seed-12345": varied("run-all", PYTHONHASHSEED="12345"),
    "run-all-parallelism-4": varied("run-all", *P4),
    "ner-hash-seed-1": varied("ner", PYTHONHASHSEED="1"),
    "ner-hash-seed-12345": varied("ner", PYTHONHASHSEED="12345"),
    "ner-parallelism-4": varied("ner", *P4),
    "command-stdin-parallelism-4": varied("command-stdin", *P4),
    # the model's prompt and reply are UTF-8 whatever the locale
    "command-stdin-ascii-locale": varied("command-stdin", **ASCII_LOCALE),
    "command-arg-ascii-locale": varied("command-arg", **ASCII_LOCALE),
    # a failing model ends a run the same way at any --parallelism
    "flaky-threshold-8-parallelism-8": varied("flaky-threshold-8", "--parallelism", "8"),
    "flaky-threshold-7-parallelism-8": varied("flaky-threshold-7", "--parallelism", "8"),
    "external-detector-parallelism-4": varied("external-detector", *P4),
    "external-detector-twice-reversed": varied("external-detector", cwd="twice"),
    "external-detector-twice-reversed-parallelism-4": varied(
        "external-detector", *P4, cwd="twice"
    ),
}


class Outcome(NamedTuple):
    """How a cell's command ended: its exit status, every path it left
    under `--out`, the sha256 of each compared artifact, its stderr if it
    failed, and the number of external detector calls it made."""

    code: int
    paths: tuple[str, ...]
    digests: dict[str, str]
    stderr: str
    detector_calls: int


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The inputs every cell reads: the corpus, the flaky model and the
    detector in each of its working directories."""
    root = tmp_path_factory.mktemp("settings")
    synth = ["synth", "--n", "40", "--seed", "1", "--out", str(root / "corpus.jsonl")]
    assert main(synth) == 0
    text = "Ann Lee\u2028paid\u2029on time.\x85Thanks, Ann Lee"
    record = CorpusRecord("a", text, "en_US", "t", {Label.PERSON: ["Ann Lee"]})
    save_corpus([record], root / "separators.jsonl")
    (root / "flaky.sh").write_text(FLAKY_MODEL, encoding="utf-8")
    for cwd, reply in DETECTOR_REPLIES.items():
        (root / cwd).mkdir(exist_ok=True)
        script = DETECTOR.replace("REPLY", reply)
        (root / cwd / "detector.py").write_text(script, encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def outcome(workdir):
    """The Outcome of the named cell, each run once per module."""
    done = {}

    def run(name):
        if name not in done:
            cell = REFERENCES[name] if name in REFERENCES else ROWS[name][1]
            calls = workdir / cell.cwd / "detector-calls.txt"
            calls.unlink(missing_ok=True)
            out = workdir / "out" / name
            argv = [*cell.argv, "--corpus", str(workdir / cell.corpus), "--out", str(out)]
            proc = subprocess.run(
                piisub_command(*argv), cwd=workdir / cell.cwd,
                env=child_env(**dict(cell.env)), capture_output=True, timeout=300,
            )
            paths = sorted(out.rglob("*")) if out.exists() else []
            done[name] = Outcome(
                proc.returncode,
                tuple(p.relative_to(out).as_posix() for p in paths),
                {
                    p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in paths
                    if p.name in COMPARED
                },
                proc.stderr.decode("utf-8") if proc.returncode else "",
                len(calls.read_text().splitlines()) if calls.exists() else 0,
            )
        return done[name]

    return run


def written_results(workdir, name):
    """The results.json of each run the named cell wrote."""
    paths = sorted((workdir / "out" / name).glob("*/results.json"))
    return [json.loads(path.read_bytes()) for path in paths]


@pytest.mark.parametrize("row", list(ROWS))
def test_a_setting_writes_its_reference_bytes(outcome, row):
    reference, _ = ROWS[row]
    assert outcome(row) == outcome(reference)


@pytest.mark.parametrize("name", ["run-all", "line-separators"])
def test_run_all_writes_one_run_per_mode(outcome, workdir, name):
    assert outcome(name).code == 0
    runs = written_results(workdir, name)
    modes = sorted(results["config"]["mode"] for results in runs)
    assert modes == ["faker", "hybrid", "redact"]
    assert {doc["error"] for results in runs for doc in results["documents"]} == {None}


def test_the_ner_probe_writes_its_table(outcome):
    assert outcome("ner").code == 0
    assert list(outcome("ner").digests) == ["ner.json"]


@pytest.mark.parametrize("name", ["command-stdin", "command-arg"])
def test_a_command_model_answers_every_document(outcome, workdir, name):
    assert outcome(name).code == 0
    (results,) = written_results(workdir, name)
    documents = results["documents"]
    assert [doc["error"] for doc in documents] == [None] * len(documents)
    sources = {group["decision"]["source"] for doc in documents for group in doc["groups"]}
    assert "slm" in sources


def test_the_ascii_locale_rows_run_non_ascii_text_under_another_encoding(workdir):
    probe = "import locale; print(locale.getpreferredencoding(False))"
    encoding = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(**ASCII_LOCALE),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.strip()
    assert encoding != "UTF-8"
    assert not all(record.text.isascii() for record in load_corpus(workdir / "corpus.jsonl"))


def test_the_flaky_model_completes_at_threshold_8_and_aborts_at_7(outcome, workdir):
    assert outcome("flaky-threshold-8").code == 0
    (results,) = written_results(workdir, "flaky-threshold-8")
    sources = {
        group["decision"]["source"]
        for doc in results["documents"]
        for group in doc["groups"]
    }
    assert {"slm", "fallback_fake"} <= sources
    aborted = outcome("flaky-threshold-7")
    assert (aborted.code, aborted.paths) == (1, ())
    assert aborted.stderr.startswith("aborted: backend command:sh: 7 consecutive failures")


def test_the_external_detector_is_called_once_per_record(outcome, workdir):
    """One detection pass serves all three modes."""
    assert outcome("external-detector").code == 0
    assert outcome("external-detector").detector_calls == 40
    labels = {
        group["label"]
        for results in written_results(workdir, "external-detector")
        for doc in results["documents"]
        for group in doc["groups"]
    }
    assert "EMAIL" in labels
