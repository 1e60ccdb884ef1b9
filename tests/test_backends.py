"""Mock and command backends and prompt parsing."""

import json
import sys

import pytest

from piisub.backends import (
    BackendInvocationError,
    CommandBackend,
    MockEchoDemoBackend,
    MockPoolBackend,
    make_backend,
    parse_prompt,
)
from piisub.model import MAX_TIMEOUT_S, Label
from piisub.pools import builtin_catalog
from piisub.prompting import build_prompt, sample_demos

PROMPT = (
    "Real: John Carter\nFake: Marcus Chen\n"
    "Real: Linda Vasquez\nFake: Olivia Brennan\n"
    "Real: David Kim\nFake: Theo Pemberton\n"
    "Real: Walter Abernathy\nFake:"
)


class TestParsePrompt:
    def test_round_trip(self):
        demos, input_text = parse_prompt(PROMPT)
        assert demos == [
            ("John Carter", "Marcus Chen"),
            ("Linda Vasquez", "Olivia Brennan"),
            ("David Kim", "Theo Pemberton"),
        ]
        assert input_text == "Walter Abernathy"

    def test_round_trip_from_builder(self):
        pool = builtin_catalog().pool_for(Label.PERSON, "Edith Goodwin")
        picked = sample_demos(pool.demos, "Edith Goodwin", pool_name=pool.name)
        prompt = build_prompt(picked, "Edith Goodwin")
        demos, input_text = parse_prompt(prompt)
        assert demos == [(d.real, d.fake) for d in picked]
        assert input_text == "Edith Goodwin"

    @pytest.mark.parametrize("prompt", ["garbage", "Real:x\nFake: y\nReal: z\nFake:"])
    def test_malformed_line(self, prompt):
        # "Real:x" lacks the space after the colon, so it is not a valid line
        with pytest.raises(BackendInvocationError, match="unparseable"):
            parse_prompt(prompt)

    def test_shape_errors(self):
        with pytest.raises(BackendInvocationError, match="shape"):
            parse_prompt("Real: a\nFake:")  # no completed demos at all
        with pytest.raises(BackendInvocationError, match="shape"):
            parse_prompt("Real: a\nFake: b\n")  # missing trailing input line


class TestMockPool:
    def test_frozen_pick(self):
        # pick index = splitmix64(md5-head("mock-pool:Walter Abernathy")) % 3 == 0
        completion = MockPoolBackend().propose(PROMPT)
        assert completion == " Marcus Chen"

    def test_deterministic_per_input(self):
        backend = MockPoolBackend()
        assert backend.propose(PROMPT) == backend.propose(PROMPT)

    def test_answer_always_a_prompt_fake(self):
        backend = MockPoolBackend()
        fakes = {"Marcus Chen", "Olivia Brennan", "Theo Pemberton"}
        for i in range(25):
            prompt = PROMPT.replace("Walter Abernathy", f"Person Number{i}")
            assert backend.propose(prompt).strip() in fakes

    def test_pick_varies_with_input(self):
        backend = MockPoolBackend()
        picks = {
            backend.propose(PROMPT.replace("Walter Abernathy", f"P {i}")).strip()
            for i in range(25)
        }
        assert len(picks) == 3


class TestMockEchoDemo:
    def test_always_first_fake(self):
        backend = MockEchoDemoBackend()
        assert backend.propose(PROMPT) == " Marcus Chen"
        other = PROMPT.replace("Walter Abernathy", "Someone Else")
        assert backend.propose(other) == " Marcus Chen"


@pytest.fixture
def echo_script(tmp_path):
    path = tmp_path / "echo_fake.py"
    path.write_text(
        "import sys\n"
        "prompt = sys.argv[1] if len(sys.argv) > 1 else sys.stdin.read()\n"
        "fakes = [l[len('Fake: '):] for l in prompt.split('\\n') if l.startswith('Fake: ')]\n"
        "sys.stdout.write(' ' + fakes[-1])\n",
        encoding="utf-8",
    )
    return path


class TestCommandBackend:
    def test_prompt_via_arg(self, echo_script):
        backend = CommandBackend(f"{sys.executable} {echo_script} '{{prompt}}'")
        assert backend.propose(PROMPT) == " Theo Pemberton"

    def test_prompt_via_stdin(self, echo_script):
        backend = CommandBackend(f"{sys.executable} {echo_script}")
        assert backend.propose(PROMPT) == " Theo Pemberton"

    @pytest.mark.parametrize(
        "template, argv, stdin",
        [
            # formerly refused: arg mode without a {prompt} placeholder
            ("{script}", [], PROMPT),
            ("{script} --flag", ["--flag"], PROMPT),
            # formerly refused: stdin mode with a {prompt} placeholder
            ("{script} '{{prompt}}'", [PROMPT], ""),
            ("{script} --in=<{{prompt}}> '{{prompt}}'", [f"--in=<{PROMPT}>", PROMPT], ""),
        ],
    )
    def test_the_template_decides_the_transport(self, tmp_path, template, argv, stdin):
        script = tmp_path / "report.py"
        script.write_text(
            "import json, sys\n"
            "print(json.dumps([sys.argv[1:], sys.stdin.read()]))\n",
            encoding="utf-8",
        )
        backend = CommandBackend(template.format(script=f"{sys.executable} {script}"))
        assert json.loads(backend.propose(PROMPT)) == [argv, stdin]

    def test_empty_template(self):
        with pytest.raises(ValueError, match="empty"):
            CommandBackend("   ")

    @pytest.mark.parametrize("timeout", [0, -1.5, float("nan")])
    def test_timeout_must_be_positive(self, timeout):
        # a timeout of 0 would fail every call
        with pytest.raises(ValueError, match="backend timeout must be above 0"):
            CommandBackend("runner '{prompt}'", timeout=timeout)

    @pytest.mark.parametrize("timeout", [float("inf"), 3_000_000, MAX_TIMEOUT_S + 0.5])
    def test_timeout_must_fit_the_transport(self, timeout):
        # subprocess.run raised OverflowError on every call
        message = "backend timeout must be at most 2147483 s"
        with pytest.raises(ValueError, match=message):
            CommandBackend("runner '{prompt}'", timeout=timeout)

    def test_the_longest_timeout_is_usable(self, echo_script):
        backend = CommandBackend(
            f"{sys.executable} {echo_script} '{{prompt}}'", timeout=MAX_TIMEOUT_S
        )
        assert backend.propose("Fake: Robin Vale") == " Robin Vale"

    def test_default_id_uses_basename(self, echo_script):
        backend = CommandBackend(f"{sys.executable} {echo_script} '{{prompt}}'")
        assert backend.id.startswith("command:python")

    def test_nonzero_exit(self, tmp_path):
        script = tmp_path / "fail.py"
        script.write_text(
            "import sys; sys.stderr.write('model exploded\\n'); sys.exit(3)\n",
            encoding="utf-8",
        )
        backend = CommandBackend(f"{sys.executable} {script} '{{prompt}}'")
        with pytest.raises(BackendInvocationError, match="exit 3: model exploded"):
            backend.propose(PROMPT)

    def test_missing_binary(self):
        backend = CommandBackend("/no/such/binary-xyz '{prompt}'")
        with pytest.raises(BackendInvocationError):
            backend.propose(PROMPT)

    def test_a_failed_call_leaves_the_backend_as_it_was(self):
        # a backend holds no health state: the run judges its calls
        backend = CommandBackend("/no/such/binary-xyz '{prompt}'")
        settings = dict(vars(backend))
        for _ in range(3):
            with pytest.raises(BackendInvocationError):
                backend.propose(PROMPT)
        assert vars(backend) == settings
        assert vars(MockPoolBackend()) == vars(MockEchoDemoBackend()) == {}

    def test_undecodable_reply_is_a_counted_call_failure(self, tmp_path):
        # stdout that is not UTF-8 fails the call like any other bad reply:
        # the caller can fall back, and the run counts the failure toward the
        # threshold (test_health.py)
        script = tmp_path / "binary.py"
        script.write_text("import sys; sys.stdout.buffer.write(b'\\377')\n")
        backend = CommandBackend(f"{sys.executable} {script} '{{prompt}}'")
        with pytest.raises(BackendInvocationError, match="can't decode"):
            backend.propose(PROMPT)


class TestFactory:
    def test_mock_kinds(self):
        assert isinstance(make_backend("mock-pool"), MockPoolBackend)
        assert isinstance(make_backend("mock-echo-demo"), MockEchoDemoBackend)

    def test_command_kind(self, echo_script):
        backend = make_backend(
            "command", command=f"{sys.executable} {echo_script} '{{prompt}}'"
        )
        assert isinstance(backend, CommandBackend)

    def test_command_requires_template(self):
        with pytest.raises(ValueError, match="command"):
            make_backend("command")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpt-in-a-box")
