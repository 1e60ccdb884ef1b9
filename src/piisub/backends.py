"""Substitution-model backends.

A backend maps a rendered prompt string to a raw completion string and knows
nothing about entities or pools. The two mock backends exist to make runs
reproducible without a model: they parse the demonstrations back out of the
prompt and answer from them. The command backend runs any local model
runner through `model.run_command`, the external detector's transport too,
which imports `subprocess` on its first call: a mock run never loads it.

A backend holds no state between calls and sets no concurrency limit: the
run's worker pool is the only thing that calls `propose` from several
threads, so at most `--parallelism` calls are in flight. A failed call
raises BackendInvocationError. The run judges the backend's health
(`pipeline.run_corpus`): it raises BackendUnhealthy where
`failure_threshold` consecutive calls have failed, in proposal order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path

from .model import check_timeout, run_command, split_command
from .prompting import splitmix64, stable_seed

DEFAULT_TIMEOUT = 60.0


class BackendInvocationError(RuntimeError):
    """One call failed: transport error, timeout, nonzero exit or non-UTF-8 reply."""


class BackendUnhealthy(RuntimeError):
    """A run saw `failure_threshold` consecutive calls fail; it stops."""


class SlmBackend(ABC):
    """Base class: `propose` is the one entry every call goes through."""

    id: str

    @abstractmethod
    def _invoke(self, prompt: str) -> str:
        """Produce a raw completion; may raise BackendInvocationError."""

    def propose(self, prompt: str) -> str:
        return self._invoke(prompt)


def parse_prompt(prompt: str) -> tuple[list[tuple[str, str]], str]:
    """Recover (demo pairs, input) from a rendered prompt.

    Raises BackendInvocationError when the prompt does not follow the
    Real:/Fake: alternation, so mocks fail like a confused model would.
    """
    reals: list[str] = []
    fakes: list[str] = []
    for line in prompt.split("\n"):
        if line.startswith("Real: "):
            reals.append(line[len("Real: ") :])
        elif line.startswith("Fake: "):
            fakes.append(line[len("Fake: ") :])
        elif line == "Fake:" or line == "":
            continue
        else:
            raise BackendInvocationError(f"unparseable prompt line: {line!r}")
    if len(reals) != len(fakes) + 1 or not fakes:
        raise BackendInvocationError(
            f"prompt shape off: {len(reals)} reals, {len(fakes)} fakes"
        )
    return list(zip(reals[:-1], fakes)), reals[-1]


class MockPoolBackend(SlmBackend):
    """Answers with one of the prompt's own demo fakes, picked by input hash.

    Because the pick comes from the demonstrations shown, the output is
    always pool-consistent with the input under the rotating strategy.
    """

    id = "mock-pool"

    def _invoke(self, prompt: str) -> str:
        demos, input_text = parse_prompt(prompt)
        pick, _ = splitmix64(stable_seed(f"mock-pool:{input_text}"))
        return " " + demos[pick % len(demos)][1]


class MockEchoDemoBackend(SlmBackend):
    """Always answers with the first demo's fake, whatever the input is.

    Models the degenerate copying behaviour seen with fixed demonstrations.
    """

    id = "mock-echo-demo"

    def _invoke(self, prompt: str) -> str:
        demos, _ = parse_prompt(prompt)
        return " " + demos[0][1]


class CommandBackend(SlmBackend):
    """Runs a local command per call; stdout is the completion.

    The template decides how the prompt reaches the command: as a literal
    `{prompt}` substitution in every template word that holds one, with an
    empty stdin, or, when no word holds `{prompt}`, on stdin.
    """

    def __init__(self, template: str, *, timeout: float = DEFAULT_TIMEOUT) -> None:
        check_timeout("backend", timeout)
        self._argv = split_command("backend", template)
        self._prompt_in_argv = any("{prompt}" in a for a in self._argv)
        self._timeout = timeout
        self.id = f"command:{Path(self._argv[0]).name}"

    def _invoke(self, prompt: str) -> str:
        if self._prompt_in_argv:
            argv, data = [a.replace("{prompt}", prompt) for a in self._argv], ""
        else:
            argv, data = self._argv, prompt
        try:
            return run_command(argv, data, self._timeout)
        except (OSError, UnicodeError) as exc:
            raise BackendInvocationError(f"{self.id}: {exc}") from exc


def make_backend(
    kind: str,
    *,
    command: str | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> SlmBackend:
    """Build a backend from CLI-level settings; a mock's kind is its id."""
    for mock in (MockPoolBackend, MockEchoDemoBackend):
        if kind == mock.id:
            return mock()
    if kind == "command":
        if not command:
            raise ValueError("command backend needs a command template")
        return CommandBackend(command, timeout=timeout)
    raise ValueError(f"unknown backend kind {kind!r}")
