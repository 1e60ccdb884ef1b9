"""Detectors producing non-overlapping PII spans from documents.

Three backends, a ground-truth oracle, a pattern-rule detector for
high-regularity labels and an adapter for an external detector process or
endpoint, slice candidate spans from the text and return what
`resolve_overlaps`, the one owner of the span contract (sorted, disjoint, in
bounds, each surface equal to its text), keeps of them. A command runs through
`model.run_command`, the transport the command backend shares, which imports
`subprocess` on its first call; a url imports `urllib.request` and
`http.client` on its first call. So a run with the oracle or the rules loads
neither. A command that does not split into words, and a url that is not
http(s), does not parse (`urllib.parse` reads its host and port) or names no
host, is refused when the adapter is built.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

from .model import (
    CorpusRecord,
    Label,
    PiiSpan,
    check_timeout,
    ci_fold,
    folded_occurrences,
    run_command,
    split_command,
)


class DetectorUnavailable(RuntimeError):
    """The external detector process or endpoint failed to respond."""


class DetectorProtocolError(ValueError):
    """The external detector responded outside the span protocol."""


#: Each label's place in `Label`'s order, which breaks ties between spans
#: and orders the oracle's search.
_LABEL_ORDER = {label: i for i, label in enumerate(Label)}
_START = attrgetter("start")


def resolve_overlaps(candidates: list[PiiSpan]) -> list[PiiSpan]:
    """Greedy non-overlap selection: longest first, then leftmost, then label
    order, kept in start order. The kept spans are disjoint, so sorted by end
    too: a candidate is tested against its two kept neighbours only."""
    unique = {(s.start, s.end, s.label): s for s in candidates}
    kept: list[PiiSpan] = []
    for span in sorted(
        unique.values(),
        key=lambda s: (s.start - s.end, s.start, _LABEL_ORDER[s.label]),
    ):
        i = bisect_right(kept, span.start, key=_START)
        if (i == 0 or kept[i - 1].end <= span.start) and (
            i == len(kept) or span.end <= kept[i].start
        ):
            kept.insert(i, span)
    return kept


def detect_oracle(record: CorpusRecord) -> list[PiiSpan]:
    """Detect every case-insensitive occurrence of every ground-truth value."""
    text = record.text
    folded = ci_fold(text)
    candidates: list[PiiSpan] = []
    for label in _LABEL_ORDER:
        for value in record.pii_gt.get(label, ()):
            for start, end in folded_occurrences(value, folded):
                candidates.append(PiiSpan(start, end, label, text[start:end]))
    return resolve_overlaps(candidates)


_RULES: list[tuple[Label, re.Pattern[str]]] = [
    (Label.EMAIL, re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")),
    (Label.URL, re.compile(r"https?://\S+")),
    (Label.DATE, re.compile(r"(?<!\d)\d{1,2}-[A-Za-z]{3}-\d{4}(?!\d)")),
    (Label.DATE, re.compile(r"(?<!\d)\d{4}-\d{1,2}-\d{1,2}(?!\d)")),
    (Label.DATE, re.compile(r"(?<!\d)\d{1,2}/\d{1,2}/\d{4}(?!\d)")),
    (
        Label.PHONE,
        re.compile(r"(?<!\d)\+?\(?\d{1,4}\)?(?:[-.\s]\(?\d{1,4}\)?){1,5}(?!\d)"),
    ),
    (Label.ACCOUNT, re.compile(r"(?<!\d)\d{8,}(?!\d)")),
]

_URL_TRAIL = ".,;:!?)'\""


def detect_rules(text: str) -> list[PiiSpan]:
    """Pattern detector for the high-regularity labels.

    Covers EMAIL, URL, DATE (four surface formats), PHONE (7+ digits with
    separators), and ACCOUNT (8+ digit runs). Name-like labels need the
    oracle or an external detector.
    """
    candidates: list[PiiSpan] = []
    for label, pattern in _RULES:
        for m in pattern.finditer(text):
            start, end = m.span()
            if label is Label.URL:
                # stops at the "/" of "http://": every rule's span is non-empty
                while text[end - 1] in _URL_TRAIL:
                    end -= 1
            if label is Label.PHONE:
                digits = sum(c.isdigit() for c in m.group())
                if not 7 <= digits <= 15:
                    continue
            candidates.append(PiiSpan(start, end, label, text[start:end]))
    return resolve_overlaps(candidates)


@dataclass
class ExternalDetector:
    """Adapter for an out-of-process detector.

    The document text is sent as UTF-8, either on stdin of ``command`` or as
    the POST body to ``url``. The response is one JSON object per line (a
    line ends at a newline only) with integer ``start``/``end`` character
    offsets and a ``label`` name. Transport failures raise
    DetectorUnavailable; anything unparseable, out of bounds, whitespace
    only, or mislabeled raises DetectorProtocolError. Span lines may come in
    any order, repeat or overlap: `resolve_overlaps` selects among them, as
    for every detector. A detector that finds nothing must still answer
    (with no span lines); silence is an error, never an empty result.
    Called on a record, like `detect_oracle`, it detects in the record's text.
    """

    command: str | None = None
    url: str | None = None
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if bool(self.command) == bool(self.url):
            raise ValueError("the external detector needs exactly one of a command or a url")
        check_timeout("detector", self.timeout)
        if self.command:
            self._argv = split_command("detector", self.command)
        elif not self.url.lower().startswith(("http://", "https://")):
            raise ValueError(f"detector url must be http:// or https://, got {self.url!r}")
        else:
            import urllib.parse

            try:
                parts = urllib.parse.urlsplit(self.url)
                # reading the port raises for one that is not a number in range
                host, _ = parts.hostname, parts.port
            except ValueError as exc:
                raise ValueError(f"detector url {self.url!r} does not parse: {exc}") from exc
            if not host:
                raise ValueError(f"detector url {self.url!r} names no host")

    def _transport(self, text: str) -> str:
        try:
            if self.command:
                return run_command(self._argv, text, self.timeout)
            return self._post(text)
        except UnicodeDecodeError as exc:
            raise DetectorProtocolError(f"response is not UTF-8: {exc}") from exc
        except OSError as exc:
            where = "command" if self.command else "endpoint"
            raise DetectorUnavailable(f"detector {where} failed: {exc}") from exc

    def _post(self, text: str) -> str:
        import http.client
        import urllib.request

        req = urllib.request.Request(self.url, data=text.encode("utf-8"), method="POST")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read().decode("utf-8")
        except http.client.HTTPException as exc:
            # an endpoint that answers outside HTTP fails like one that is down
            raise OSError(repr(exc)) from exc

    def __call__(self, record: CorpusRecord) -> list[PiiSpan]:
        return self.detect(record.text)

    def detect(self, text: str) -> list[PiiSpan]:
        body = self._transport(text)
        candidates: list[PiiSpan] = []
        for line_no, line in enumerate(body.split("\n"), start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DetectorProtocolError(
                    f"line {line_no}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(entry, dict):
                raise DetectorProtocolError(f"line {line_no}: expected an object")
            try:
                start, end = entry["start"], entry["end"]
                label = Label.from_name(entry["label"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DetectorProtocolError(f"line {line_no}: {exc}") from exc
            # bool is an int subclass, but `true` is not an offset
            if not all(type(v) is int for v in (start, end)):
                raise DetectorProtocolError(f"line {line_no}: offsets must be integers")
            if not (0 <= start < end <= len(text)):
                raise DetectorProtocolError(
                    f"line {line_no}: span [{start}, {end}) out of bounds"
                )
            if text[start:end].isspace():
                raise DetectorProtocolError(
                    f"line {line_no}: span [{start}, {end}) is whitespace only"
                )
            candidates.append(PiiSpan(start, end, label, text[start:end]))
        return resolve_overlaps(candidates)

