import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

import piisub.detection as detection
from piisub.detection import (
    DetectorProtocolError,
    DetectorUnavailable,
    ExternalDetector,
    detect_oracle,
    detect_rules,
    resolve_overlaps,
)
from piisub.model import MAX_TIMEOUT_S, CorpusRecord, Label, PiiSpan


def make_record(text, **gt):
    return CorpusRecord(
        id="r",
        text=text,
        locale="en_US",
        template="t",
        pii_gt={Label.from_name(k.upper()): v for k, v in gt.items()},
    )


def assert_span_contract(text, spans):
    """The detectors' output contract: sorted and disjoint, in bounds, and
    each surface the text it covers."""
    prev_end = 0
    for span in spans:
        assert span.start >= prev_end, f"spans overlap or are unsorted at {span.start}"
        assert span.end <= len(text), f"[{span.start}, {span.end}) exceeds the text"
        assert text[span.start : span.end] == span.surface, f"surface at {span.start}"
        prev_end = span.end


class TestOracle:
    def test_finds_every_occurrence(self):
        rec = make_record(
            "Walter called. walter again. WALTER signed.",
            person=["Walter"],
        )
        spans = detect_oracle(rec)
        assert [(s.start, s.end) for s in spans] == [(0, 6), (15, 21), (29, 35)]
        assert all(s.label is Label.PERSON for s in spans)

    def test_surfaces_match_text(self):
        rec = make_record("Send to Hans Müller today.", person=["hans müller"])
        (span,) = detect_oracle(rec)
        assert span.surface == "Hans Müller"

    def test_value_absent_yields_nothing(self):
        rec = make_record("no names here", person=["Walter"])
        assert detect_oracle(rec) == []

    def test_overlapping_values_resolved_longest_first(self):
        rec = make_record(
            "Account 123456789 active",
            account=["123456789", "3456"],
        )
        spans = detect_oracle(rec)
        assert [s.surface for s in spans] == ["123456789"]


def greedy_reference(candidates):
    """The selection rule, tested against every kept span: longest first,
    then leftmost, then label order."""
    order = {label: i for i, label in enumerate(Label)}
    kept = []
    for span in sorted(
        set(candidates), key=lambda s: (s.start - s.end, s.start, order[s.label])
    ):
        if all(span.end <= k.start or k.end <= span.start for k in kept):
            kept.append(span)
    return sorted(kept, key=lambda s: s.start)


@st.composite
def span_sets(draw):
    """Spans over a short text, so nested, equal and touching spans are
    common; an equal span under another label is one span under two."""
    spans = []
    for _ in range(draw(st.integers(0, 14))):
        start = draw(st.integers(0, 11))
        end = draw(st.integers(start + 1, 12))
        spans.append(PiiSpan(start, end, draw(st.sampled_from(Label)), "x" * (end - start)))
    if spans and draw(st.booleans()):
        twin = draw(st.sampled_from(spans))
        label = draw(st.sampled_from([lb for lb in Label if lb is not twin.label]))
        spans.append(PiiSpan(twin.start, twin.end, label, twin.surface))
    return draw(st.permutations(spans))


class TestResolveOverlaps:
    def test_longest_wins(self):
        a = PiiSpan(0, 10, Label.PERSON, "x" * 10)
        b = PiiSpan(2, 6, Label.ACCOUNT, "x" * 4)
        assert resolve_overlaps([a, b]) == [a]

    def test_leftmost_breaks_length_ties(self):
        a = PiiSpan(0, 4, Label.PERSON, "aaaa")
        b = PiiSpan(2, 6, Label.PERSON, "aabb")
        assert resolve_overlaps([a, b]) == [a]

    def test_duplicates_collapse(self):
        a = PiiSpan(0, 4, Label.PERSON, "aaaa")
        assert resolve_overlaps([a, a]) == [a]

    def test_disjoint_sorted_by_start(self):
        a = PiiSpan(8, 12, Label.DATE, "dddd")
        b = PiiSpan(0, 4, Label.PERSON, "pppp")
        assert resolve_overlaps([a, b]) == [b, a]

    @given(span_sets())
    def test_selects_what_the_all_kept_rule_selects(self, spans):
        assert resolve_overlaps(spans) == greedy_reference(spans)


class TestRules:
    def test_covers_regular_labels(self):
        text = (
            "Mail edith.goodwin11@northmail.com or visit "
            "https://portal.northmail.com/claims/42, ref 123456789, "
            "phone +1-555-233-0199, due 1975-04-12."
        )
        spans = detect_rules(text)
        by_label = {s.label: s.surface for s in spans}
        assert by_label[Label.EMAIL] == "edith.goodwin11@northmail.com"
        assert by_label[Label.URL] == "https://portal.northmail.com/claims/42"
        assert by_label[Label.ACCOUNT] == "123456789"
        assert by_label[Label.PHONE] == "+1-555-233-0199"
        assert by_label[Label.DATE] == "1975-04-12"

    def test_url_trailing_punctuation_trimmed(self):
        (span,) = detect_rules("see https://a.example.com/x.")
        assert span.surface == "https://a.example.com/x"

    def test_phone_digit_bounds(self):
        assert detect_rules("call 12-34") == []  # too few digits

    def test_output_is_valid(self):
        text = "04/12/1975 and 1975-04-12 overlap nothing"
        assert_span_contract(text, detect_rules(text))


def replying(reply):
    """An external detector whose command replies `reply` to any text."""

    def detect(text):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detection, "run_command", lambda *args: reply)
            return ExternalDetector(command="detector").detect(text)

    return detect


def span_lines(spans):
    return "".join(
        json.dumps({"start": s.start, "end": s.end, "label": s.label.name}) + "\n"
        for s in spans
    )


@st.composite
def oracle_cases(draw):
    """A record whose values nest, repeat and differ in case from the text,
    and the oracle's spans over it."""
    value = st.text("abAB1ßİ", min_size=1, max_size=4)
    values = draw(st.lists(value, min_size=1, max_size=4))
    values += [v[1:] for v in values if len(v) > 1]
    pieces = [
        draw(st.sampled_from([v, v.upper(), v.lower(), v.swapcase()]))
        for v in draw(st.lists(st.sampled_from(values), max_size=10))
    ]
    text = draw(st.sampled_from(["", " ", ", "])).join(pieces)
    gt = {}
    for value in values:
        gt.setdefault(draw(st.sampled_from(Label)), []).append(value)
    record = CorpusRecord(id="r", text=text, locale="en_US", template="t", pii_gt=gt)
    return text, detect_oracle(record)


_RULE_PIECES = st.sampled_from(
    ["https://a.io/x", "a.b@c.de", "+1", "(555)", "233", "-", "/", ".", " "]
    + ["04", "1975", "-Apr-", "12345678", ")"]
)


@st.composite
def rules_cases(draw):
    """Random text, rich in pieces of the rules' patterns, and its spans."""
    text = "".join(draw(st.lists(_RULE_PIECES | st.text(max_size=3), max_size=16)))
    return text, detect_rules(text)


@st.composite
def external_replies(draw):
    """A text, spans over it, and a reply of their span lines shuffled,
    repeated and overlapping."""
    text = draw(st.text("ab東京.-1", min_size=1, max_size=12))
    spans = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.integers(0, len(text) - 1))
        end = draw(st.integers(start + 1, len(text)))
        spans.append(PiiSpan(start, end, draw(st.sampled_from(Label)), text[start:end]))
    repeated = draw(st.lists(st.sampled_from(spans), max_size=4)) if spans else []
    return text, spans, span_lines(draw(st.permutations(spans + repeated)))


def external_cases():
    return external_replies().map(lambda case: (case[0], replying(case[2])(case[0])))


@given(oracle_cases() | rules_cases() | external_cases())
def test_every_detector_hands_over_spans_that_keep_the_contract(case):
    text, spans = case
    assert_span_contract(text, spans)


@pytest.fixture
def span_script(tmp_path):
    """External detector: reports the byte range of the word 'Walter'."""
    script = tmp_path / "detector.py"
    script.write_text(
        "import json, sys\n"
        "text = sys.stdin.read()\n"
        "i = text.find('Walter')\n"
        "if i >= 0:\n"
        "    print(json.dumps({'start': i, 'end': i + 6, 'label': 'PERSON'}))\n"
    )
    return f"{sys.executable} {script}"


class TestExternalDetector:
    def test_requires_exactly_one_transport(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExternalDetector()
        with pytest.raises(ValueError, match="exactly one"):
            ExternalDetector(command="x", url="http://y")

    @pytest.mark.parametrize(
        "transport, message",
        [
            ({"command": "  "}, "empty detector command"),
            ({"command": "sh -c 'x"}, "No closing quotation"),
            ({"url": "file:///etc/hosts"}, "detector url must be http:// or https://"),
            ({"url": "localhost:8080"}, "detector url must be http:// or https://"),
        ],
    )
    def test_a_transport_that_cannot_work_is_refused_when_built(self, transport, message):
        with pytest.raises(ValueError, match=message):
            ExternalDetector(**transport)

    @pytest.mark.parametrize("timeout", [0, -2.0])
    def test_timeout_must_be_positive(self, timeout):
        with pytest.raises(ValueError, match="detector timeout must be above 0"):
            ExternalDetector(command="x", timeout=timeout)

    @pytest.mark.parametrize("timeout", [float("inf"), 1e300, MAX_TIMEOUT_S + 0.5])
    def test_timeout_must_fit_the_transport(self, timeout):
        # subprocess.run and socket.settimeout raised OverflowError per call
        message = "detector timeout must be at most 2147483 s"
        with pytest.raises(ValueError, match=message):
            ExternalDetector(command="x", timeout=timeout)

    def test_command_round_trip(self, span_script):
        adapter = ExternalDetector(command=span_script)
        (span,) = adapter.detect("hello Walter bye")
        assert (span.start, span.end, span.label) == (6, 12, Label.PERSON)
        assert span.surface == "Walter"

    def test_empty_response_is_no_spans(self, span_script):
        adapter = ExternalDetector(command=span_script)
        assert adapter.detect("nobody here") == []

    def test_nonzero_exit_is_unavailable(self):
        adapter = ExternalDetector(command=f"{sys.executable} -c 'raise SystemExit(3)'")
        with pytest.raises(DetectorUnavailable):
            adapter.detect("text")

    def test_missing_binary_is_unavailable(self):
        adapter = ExternalDetector(command="/no/such/binary")
        with pytest.raises(DetectorUnavailable):
            adapter.detect("text")

    def test_reply_lines_end_at_newline_only(self, monkeypatch):
        # a raw U+2028 in an extra string value is part of its line
        reply = '{"start": 6, "end": 12, "label": "PERSON", "note": "a\u2028b"}\n'
        monkeypatch.setattr(ExternalDetector, "_transport", lambda self, text: reply)
        (span,) = ExternalDetector(command="unused").detect("hello Walter bye")
        assert (span.start, span.end, span.surface) == (6, 12, "Walter")

    @given(external_replies())
    def test_reply_spans_are_resolved_like_every_detectors(self, case):
        text, spans, reply = case
        assert replying(reply)(text) == resolve_overlaps(spans)

    def test_a_whitespace_only_span_names_its_reply_line(self):
        reply = span_lines(
            [PiiSpan(0, 5, Label.PERSON, "Alice"), PiiSpan(5, 7, Label.PERSON, "  ")]
        )
        message = r"line 2: span \[5, 7\) is whitespace only"
        with pytest.raises(DetectorProtocolError, match=message):
            replying(reply)("Alice  bye")

    def test_unicode_whitespace_is_whitespace_only_too(self):
        # canonicalizing strips these as it strips spaces
        reply = span_lines([PiiSpan(3, 5, Label.PERSON, "\u3000\xa0")])
        message = r"line 1: span \[3, 5\) is whitespace only"
        with pytest.raises(DetectorProtocolError, match=message):
            replying(reply)("Hi,\u3000\xa0bye")

    def test_a_span_with_whitespace_around_its_value_is_kept(self):
        text = "to  Walter Ames  bye"
        reply = span_lines([PiiSpan(3, 17, Label.PERSON, text[3:17])])
        (span,) = replying(reply)(text)
        assert (span.start, span.end, span.surface) == (3, 17, " Walter Ames  ")

    @pytest.mark.parametrize(
        "payload,message",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "expected an object"),
            ('{"start": 0, "end": 99, "label": "PERSON"}', "out of bounds"),
            ('{"start": "0", "end": 4, "label": "PERSON"}', "integers"),
            ('{"start": true, "end": 4, "label": "PERSON"}', "integers"),
            ('{"start": 0, "end": 4, "label": "NOPE"}', "unknown label"),
            ('{"end": 4, "label": "PERSON"}', "line 1"),
        ],
    )
    def test_protocol_errors(self, tmp_path, payload, message):
        script = tmp_path / "bad.py"
        script.write_text(f"import sys\nsys.stdin.read()\nprint({payload!r})\n")
        adapter = ExternalDetector(command=f"{sys.executable} {script}")
        with pytest.raises(DetectorProtocolError, match=message):
            adapter.detect("some text")


class _SpanHandler(BaseHTTPRequestHandler):
    """POST /spans answers a PERSON span per "Walter" in the body; POST
    /fail answers 500."""

    def do_POST(self):
        text = self.rfile.read(int(self.headers["Content-Length"])).decode("utf-8")
        if self.path == "/fail":
            self.send_error(500, "detector crashed")
            return
        i = text.find("Walter")
        body = f'{{"start": {i}, "end": {i + 6}, "label": "PERSON"}}\n' if i >= 0 else ""
        payload = body.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def span_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SpanHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join()


class TestExternalDetectorUrl:
    """The URL transport against a real HTTP endpoint on the loopback."""

    def test_span_lines_parse_into_spans(self, span_server):
        adapter = ExternalDetector(url=f"{span_server}/spans", timeout=10)
        (span,) = adapter.detect("hello Walter bye")
        assert (span.start, span.end, span.label) == (6, 12, Label.PERSON)
        assert span.surface == "Walter"
        assert adapter.detect("nobody here") == []

    def test_server_error_is_unavailable(self, span_server):
        adapter = ExternalDetector(url=f"{span_server}/fail", timeout=10)
        with pytest.raises(DetectorUnavailable, match="500"):
            adapter.detect("hello Walter bye")

    def test_closed_port_is_unavailable(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # nothing listens on the port once the probe is closed
        adapter = ExternalDetector(url=f"http://127.0.0.1:{port}/spans", timeout=10)
        with pytest.raises(DetectorUnavailable, match="endpoint failed"):
            adapter.detect("hello Walter bye")

    def test_a_reply_outside_http_is_unavailable(self, not_http_endpoint):
        # http.client raises BadStatusLine, which is no OSError
        adapter = ExternalDetector(url=not_http_endpoint, timeout=10)
        with pytest.raises(DetectorUnavailable, match="endpoint failed: BadStatusLine"):
            adapter.detect("hello Walter bye")
