"""Prompt assembly: demo sampling, template rendering, response validation.

The demo sampler is deterministic in the input string alone: the seed is the
first 8 bytes of the input's MD5 (big-endian), stepped through splitmix64 to
drive a partial Fisher-Yates pick. Same input, same demos, on any platform.

Validation never raises on bad completions; it returns a rejection reason so
the caller can fall back without tearing down the run.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .model import (
    SLM_LABELS,
    JsonReport,
    Label,
    RejectionReason,
    Source,
    SurrogateDecision,
    canonicalize,
)
from .pools import Demo, PoolCatalog

SAMPLE_SIZE = 3

_MASK64 = (1 << 64) - 1


class DemoStrategy(str, Enum):
    """How demonstrations are chosen for each prompt."""

    ROTATING_LOCALE = "rotating_locale"
    FIXED_THREE = "fixed_three"


class PoolTooSmall(ValueError):
    """The pool has fewer than SAMPLE_SIZE demos."""


class InvalidInput(ValueError):
    """Input cannot be rendered into the prompt template."""


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (output, next_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


def stable_seed(text: str) -> int:
    """64-bit seed from the big-endian head of the text's MD5."""
    return int.from_bytes(hashlib.md5(text.encode("utf-8")).digest()[:8], "big")


def sample_demos(demos: Sequence[Demo], input_text: str) -> tuple[Demo, ...]:
    """Pick SAMPLE_SIZE distinct demos, deterministically keyed on the input string.

    Selection order is preserved: the i-th pick lands at prompt position i.
    """
    n = len(demos)
    if n < SAMPLE_SIZE:
        raise PoolTooSmall(f"the pool has {n} demos, need {SAMPLE_SIZE}")
    state = stable_seed(input_text)
    order = list(range(n))
    picks: list[int] = []
    for i in range(SAMPLE_SIZE):
        r, state = splitmix64(state)
        j = i + r % (n - i)
        order[i], order[j] = order[j], order[i]
        picks.append(order[i])
    return tuple(demos[p] for p in picks)


def build_prompt(demos: Sequence[Demo], input_text: str) -> str:
    """Render the substitution prompt. Byte-exact: callers may cache on it.

    Only a line break in the input is refused: the demos are `SAMPLE_SIZE`
    line-free ones (`sample_demos` or a built-in pilot; `Demo` refuses a
    line break), and `canonicalize` refuses a blank surface upstream.
    """
    trimmed = input_text.strip()
    if "\n" in trimmed or "\r" in trimmed:
        raise InvalidInput("input contains a line break")
    parts = [f"Real: {d.real}\nFake: {d.fake}\n" for d in demos]
    parts.append(f"Real: {trimmed}\nFake:")
    return "".join(parts)


_QUOTE_PAIRS = (('"', '"'), ("'", "'"), ("“", "”"), ("‘", "’"))


def _clean_completion(completion: str) -> str:
    """First non-empty line, minus a leading Fake: token and wrapping quotes."""
    candidate = ""
    for line in completion.splitlines():
        if line.strip():
            candidate = line.strip()
            break
    if candidate.startswith("Fake:"):
        candidate = candidate[len("Fake:") :].strip()
    changed = True
    while changed and len(candidate) >= 2:
        changed = False
        for left, right in _QUOTE_PAIRS:
            if candidate.startswith(left) and candidate.endswith(right):
                candidate = candidate[1:-1].strip()
                changed = True
    return candidate


def validate_response(
    completion: str, input_text: str
) -> tuple[str | None, RejectionReason | None]:
    """Clean a raw completion and accept or reject it.

    Returns (value, None) on acceptance, (None, reason) otherwise. Rejection
    is an expected outcome, not an error.
    """
    candidate = _clean_completion(completion)
    if not candidate:
        return None, RejectionReason.EMPTY
    if canonicalize(candidate) == canonicalize(input_text):
        return None, RejectionReason.IDENTITY
    if not any(ch.isalnum() for ch in candidate):
        return None, RejectionReason.PUNCTUATION_ONLY
    return candidate, None


@dataclass
class PoolRegurgStats(JsonReport):
    """Copy behaviour of model decisions grouped by the input's own pool."""

    json_skip = ("surrogates",)
    json_extra = ("unique_surrogates",)

    slm_decisions: int = 0
    output_copies: int = 0
    input_copies: int = 0
    surrogates: set[str] = field(default_factory=set)
    ceiling: int = 0

    @property
    def unique_surrogates(self) -> int:
        return len(self.surrogates)


@dataclass
class RegurgitationReport(JsonReport):
    total_unique: int = 0
    slm_decisions: int = 0
    fallback_decisions: int = 0
    output_copies: int = 0
    input_copies: int = 0
    novel: int = 0
    cross_pool_copies: int = 0
    by_input_pool: dict[str, PoolRegurgStats] = field(default_factory=dict)
    fallback_reasons: Counter = field(default_factory=Counter)


def analyze_regurgitation(
    samples: Iterable[tuple[str, Label, SurrogateDecision]],
    catalog: PoolCatalog,
) -> RegurgitationReport:
    """Measure how often model decisions copy demonstration strings.

    `samples` are (surface, label, decision) triples; duplicates of the same
    (canonical surface, label) collapse to one, mirroring the cache. Only
    labels routed through the model are considered. A surrogate equal to any
    demo's fake side (after trimming) is an output copy, equal to a real side
    an input copy; a copy matched in a pool other than the input's own pool
    counts as cross-pool. A string on both sides counts as a fake side, and a
    string in several sets is matched in the first set listed.
    """
    report = RegurgitationReport()
    copies: dict[str, tuple[str, str]] = {}
    for side in ("fake", "real"):
        for name, demos in catalog.iter_named_demo_sets():
            for demo in demos:
                copies.setdefault(getattr(demo, side).strip(), (side, name))
    seen: set[tuple[str, Label]] = set()
    for surface, label, decision in samples:
        if label not in SLM_LABELS:
            continue
        key = (canonicalize(surface), label)
        if key in seen:
            continue
        seen.add(key)
        report.total_unique += 1
        if decision.source is Source.FALLBACK_FAKE:
            report.fallback_decisions += 1
            for reason in decision.rejection_reasons:
                report.fallback_reasons[reason.value] += 1
            continue
        if decision.source is not Source.SLM:
            continue
        report.slm_decisions += 1
        own_pool = catalog.pool_for(label, surface)
        stats = report.by_input_pool.get(own_pool.name)
        if stats is None:
            stats = PoolRegurgStats(ceiling=2 * len(own_pool))
            report.by_input_pool[own_pool.name] = stats
        stats.slm_decisions += 1
        stats.surrogates.add(decision.surrogate)
        copy = copies.get(decision.surrogate.strip())
        if copy is None:
            report.novel += 1
            continue
        side, matched_pool = copy
        if side == "fake":
            report.output_copies += 1
            stats.output_copies += 1
        else:
            report.input_copies += 1
            stats.input_copies += 1
        if matched_pool != own_pool.name:
            report.cross_pool_copies += 1
    return report
