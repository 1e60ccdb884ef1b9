"""Surrogate generation: mode routing, model proposals, text splicing.

`dispatch` is the single entry point: given one entity surface and its
cache key (which carries the run mode and label) it produces a
SurrogateDecision, calling the model only for the labels that need semantic
substitutes. Model rejections and backend call failures degrade to the fake
generator; the decision records the reason and its call, which the run
reads to judge the backend's health. Fake values come from one stream
seeded by the cache key and the run's fake-value secret, and every redraw
reads on from that stream, so a key's fake value never depends on draws
made for other keys.

`blocked` is the run-level leak guard: a predicate, built once per run by
`model.ci_any_matcher`, that is true when a value contains a corpus
ground-truth value, case-insensitively. Fake draws redraw past a hit; an
accepted model output that hits one is treated like an identity rejection.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .backends import BackendInvocationError, SlmBackend
from .fakegen import draw_seed, fake_value
from .locales import DateFormat, classify_date_format, classify_locale
from .model import (
    SLM_LABELS,
    CacheKey,
    Label,
    Mode,
    PiiSpan,
    RejectionReason,
    Source,
    SurrogateDecision,
    canonicalize,
    ci_any_matcher,
)
from .pools import PoolCatalog
from .prompting import (
    DemoStrategy,
    InvalidInput,
    PoolTooSmall,
    build_prompt,
    sample_demos,
    validate_response,
)

_MAX_FAKE_REDRAWS = 64
_NOTHING_BLOCKED = ci_any_matcher(())


def _has_digit(text: str) -> bool:
    return any(c.isdigit() for c in text)


def redact_placeholder(label: Label) -> str:
    return f"[{label.name}]"


class NoCleanFake(RuntimeError):
    """No fake value passed the echo and guard checks. `backend_errors` is
    the call of the model proposal that fell back, so the run counts it."""

    backend_errors: tuple[str | None, ...] = ()


def _clean_fake_draw(
    surface: str,
    key: CacheKey,
    blocked: Callable[[str], bool],
    fake_secret: bytes,
) -> str:
    """Draw a fake value, in the surface's locale and date format, that
    neither echoes the input nor hits the guard."""
    label = key.label
    locale = classify_locale(surface)
    date_format = classify_date_format(surface) if label is Label.DATE else None
    rng = random.Random(draw_seed(key, fake_secret))
    for _ in range(_MAX_FAKE_REDRAWS):
        value = fake_value(label, locale, rng, date_format=date_format)
        if canonicalize(value) == canonicalize(surface):
            continue
        if blocked(value):
            continue
        return value
    raise NoCleanFake(
        f"no clean fake value for {label.name} after {_MAX_FAKE_REDRAWS} draws"
    )


def slm_propose(
    surface: str,
    key: CacheKey,
    *,
    backend: SlmBackend,
    catalog: PoolCatalog,
    strategy: DemoStrategy = DemoStrategy.ROTATING_LOCALE,
    blocked: Callable[[str], bool] = _NOTHING_BLOCKED,
    fake_secret: bytes = b"",
) -> SurrogateDecision:
    """Ask the model for a surrogate, falling back to a fake value on rejection.

    The fallback reason list explains what went wrong; a pool too small to
    sample from or a failed backend call both surface as `empty` (no usable
    completion existed), a guard hit as `identity`, a DATE completion in
    no known date format, for an input in one, as `not_a_date`, and an
    ADDRESS completion with no digit, for an input with one, as
    `not_an_address`. The decision records its backend call, if it made one
    (`backend_errors`), for the run to judge the backend by.
    """
    label = key.label

    def fallback(reason: RejectionReason, calls: tuple = ()) -> SurrogateDecision:
        try:
            value = _clean_fake_draw(surface, key, blocked, fake_secret)
        except NoCleanFake as exc:
            exc.backend_errors = calls
            raise
        return SurrogateDecision(
            surrogate=value,
            source=Source.FALLBACK_FAKE,
            rejection_reasons=(reason,),
            backend_errors=calls,
        )

    try:
        if strategy is DemoStrategy.FIXED_THREE:
            demos = catalog.pilot[label]
        else:
            pool = catalog.pool_for(label, surface)
            demos = sample_demos(pool.demos, surface, pool_name=pool.name)
        prompt = build_prompt(demos, surface)
    except (PoolTooSmall, InvalidInput):
        return fallback(RejectionReason.EMPTY)
    try:
        completion = backend.propose(prompt)
    except BackendInvocationError as exc:
        return fallback(RejectionReason.EMPTY, (str(exc),))
    answered = (None,)
    value, reason = validate_response(completion, surface)
    if reason is not None:
        return fallback(reason, answered)
    assert value is not None
    if blocked(value):
        return fallback(RejectionReason.IDENTITY, answered)
    if (
        label is Label.DATE
        and classify_date_format(value) is DateFormat.UNKNOWN
        and classify_date_format(surface) is not DateFormat.UNKNOWN
    ):
        return fallback(RejectionReason.NOT_A_DATE, answered)
    if label is Label.ADDRESS and _has_digit(surface) and not _has_digit(value):
        return fallback(RejectionReason.NOT_AN_ADDRESS, answered)
    return SurrogateDecision(
        surrogate=value,
        source=Source.SLM,
        demos_used=tuple(d.id for d in demos),
        backend_errors=answered,
    )


def calls_model(key: CacheKey) -> bool:
    """Whether `dispatch` asks the model for the key's surrogate."""
    return key.mode is Mode.HYBRID and key.label in SLM_LABELS


def dispatch(
    surface: str,
    key: CacheKey,
    *,
    backend: SlmBackend | None = None,
    catalog: PoolCatalog | None = None,
    strategy: DemoStrategy = DemoStrategy.ROTATING_LOCALE,
    blocked: Callable[[str], bool] = _NOTHING_BLOCKED,
    fake_secret: bytes = b"",
) -> SurrogateDecision:
    """Produce the surrogate decision for one entity under its key's mode."""
    label = key.label
    if key.mode is Mode.REDACT:
        return SurrogateDecision(surrogate=redact_placeholder(label), source=Source.REDACT)
    if calls_model(key):
        if backend is None or catalog is None:
            raise ValueError("hybrid mode needs a backend and a pool catalog")
        return slm_propose(
            surface,
            key,
            backend=backend,
            catalog=catalog,
            strategy=strategy,
            blocked=blocked,
            fake_secret=fake_secret,
        )
    value = _clean_fake_draw(surface, key, blocked, fake_secret)
    return SurrogateDecision(surrogate=value, source=Source.FAKE)


def _with_surface_whitespace(surface: str, replacement: str) -> tuple[int, str]:
    """The new value between the surface's own leading and trailing
    whitespace, and its offset there: a detector's span may swallow spaces,
    and they stay put. A whitespace-only surface is kept as it is."""
    stripped = surface.strip()
    if stripped == surface:
        return 0, replacement
    if not stripped:
        return 0, surface
    lead = len(surface) - len(surface.lstrip())
    return lead, surface[:lead] + replacement + surface[len(surface.rstrip()) :]


def splice(
    text: str, replacements: Sequence[tuple[PiiSpan, str]]
) -> tuple[str, list[int]]:
    """Apply span replacements left to right in one join, leaving all other
    bytes alone. Also returns, in the order of `replacements`, where each new
    value starts in the output, after the whitespace its span swallowed (a
    kept whitespace-only surface starts where its span did). It checks no
    span: `detection.resolve_overlaps` owns the span contract."""
    positions = [(span.start, span.end) for span, _ in replacements]
    starts = [0] * len(replacements)
    pieces = []
    cursor = 0  # the end of the previous span
    written = 0  # the length of the output so far
    for i in sorted(range(len(replacements)), key=positions.__getitem__):
        span, new_value = replacements[i]
        offset, patched = _with_surface_whitespace(span.surface, new_value)
        starts[i] = written + span.start - cursor + offset
        written += span.start - cursor + len(patched)
        pieces.append(text[cursor : span.start])
        pieces.append(patched)
        cursor = span.end
    pieces.append(text[cursor:])
    return "".join(pieces), starts
