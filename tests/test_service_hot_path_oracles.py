"""The screening hot path against frozen copies of the code it replaced.

``parse_request`` decodes the request head once, ``normalize_host`` accepts
with one regular-expression match, ``Destination.registered_domain`` skips
re-normalizing, and ``Histogram.observe`` finds its bucket by bisection.
Each is checked here against the implementation it replaced, kept below
as a test-only oracle: the same result, or the same exception type and
message, on seeded hypothesis inputs aimed at the edges each rewrite
touches.  The wire decoders are fuzzed too: arbitrary JSON must yield a
typed error, never an escaping ``AttributeError`` or ``OverflowError``.
"""

import ast
import json
import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import (
    HttpParseError,
    ParseError,
    ReportValidationError,
    ServiceError,
)
from repro.federation.report import (
    DeviceReport,
    _payload_checksum,
    decode_report,
    encode_report,
    token_for,
)
from repro.http.message import SUPPORTED_METHODS, HttpRequest
from repro.http.packet import Destination
from repro.http.parser import parse_request
from repro.net.fqdn import _MULTI_LABEL_SUFFIXES, normalize_host, registered_domain
from repro.obs.metrics import Histogram
from repro.service.wire import decode_event, encode_event
from repro.serving.loadgen import ScreeningEvent
from repro.serving.telemetry import DEPTH_BOUNDS, LATENCY_BOUNDS
from tests.conftest import make_packet

# ---------------------------------------------------------------------------
# oracles: the replaced implementations, verbatim apart from their names
# ---------------------------------------------------------------------------

_MAX_HEADER_COUNT = 256
_MAX_LINE_LENGTH = 16 * 1024


def _oracle_split_head_body(raw: bytes) -> tuple[bytes, bytes]:
    best_idx = -1
    best_len = 0
    for sep in (b"\r\n\r\n", b"\n\n"):
        idx = raw.find(sep)
        if idx >= 0 and (best_idx < 0 or idx < best_idx):
            best_idx, best_len = idx, len(sep)
    if best_idx < 0:
        return raw, b""
    return raw[:best_idx], raw[best_idx + best_len:]


def _oracle_decode_line(line: bytes) -> str:
    if len(line) > _MAX_LINE_LENGTH:
        raise HttpParseError("header line too long", line[:40])
    return line.decode("latin-1")


def oracle_parse_request(raw: bytes) -> HttpRequest:
    if not raw or not raw.strip():
        raise HttpParseError("empty request")
    head, body = _oracle_split_head_body(raw)
    lines = head.replace(b"\r\n", b"\n").split(b"\n")
    request_line = _oracle_decode_line(lines[0]).strip()
    parts = request_line.split()
    if len(parts) == 2:
        method, target = parts
        version = "HTTP/1.0"
    elif len(parts) == 3:
        method, target, version = parts
    else:
        raise HttpParseError("malformed request line", request_line)
    if method.upper() not in SUPPORTED_METHODS:
        raise HttpParseError("unsupported method", method)
    if not version.upper().startswith("HTTP/"):
        raise HttpParseError("malformed version", version)

    headers: list[tuple[str, str]] = []
    for line in lines[1:]:
        text = _oracle_decode_line(line)
        if not text.strip():
            continue
        if text[0] in " \t":
            if not headers:
                raise HttpParseError("continuation line before any header", text)
            name, value = headers[-1]
            headers[-1] = (name, value + " " + text.strip())
            continue
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpParseError("header line without colon", text)
        headers.append((name.strip(), value.strip()))
        if len(headers) > _MAX_HEADER_COUNT:
            raise HttpParseError("too many headers")

    request = HttpRequest(
        method=method,
        target=target,
        version=version.upper(),
        headers=headers,
        body=body,
    )
    declared = request.header("Content-Length")
    if declared.isdigit():
        length = int(declared)
        if length < len(body):
            request.body = body[:length]
    return request


_ALLOWED = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


def oracle_normalize_host(host: str) -> str:
    cleaned = host.strip().rstrip(".").lower()
    if not cleaned:
        raise ParseError("empty host name", host)
    for label in cleaned.split("."):
        if not label:
            raise ParseError("empty label in host", host)
        if any(ch not in _ALLOWED for ch in label):
            raise ParseError("illegal character in host", host)
    return cleaned


def oracle_registered_domain(host: str) -> str:
    cleaned = oracle_normalize_host(host)
    labels = cleaned.split(".")
    if len(labels) <= 2:
        return cleaned
    if tuple(labels[-2:]) in _MULTI_LABEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


def oracle_observe(histogram: Histogram, value: float) -> None:
    if histogram.count == 0:
        histogram.min_value = histogram.max_value = value
    else:
        histogram.min_value = min(histogram.min_value, value)
        histogram.max_value = max(histogram.max_value, value)
    histogram.count += 1
    histogram.total += value
    for index, bound in enumerate(histogram.bounds):
        if value <= bound:
            histogram.counts[index] += 1
            return
    histogram.counts[-1] += 1


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type, message, data)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 — the exception is the result
        return ("raised", type(exc), str(exc), getattr(exc, "data", None))


def oracle_parse_outcome(raw: bytes):
    """The oracle's outcome, with its one untyped failure mapped to the
    typed error that replaced it: a ``Content-Length`` of digits that are
    not ASCII (``"\xb2"``) made the oracle's ``int()`` raise ``ValueError``,
    and ``parse_request`` now raises ``HttpParseError`` for it."""
    result = outcome(oracle_parse_request, raw)
    if result[0] == "raised" and result[1] is ValueError:
        # int()'s message ends in the repr of the value it refused.
        declared = ast.literal_eval(result[2].partition(": ")[2])
        assert declared.isdigit() and not declared.isascii(), declared
        error = HttpParseError("bad Content-Length", declared)
        return ("raised", HttpParseError, str(error), error.data)
    return result


# ---------------------------------------------------------------------------
# parse_request
# ---------------------------------------------------------------------------

_ENDINGS = st.sampled_from(["\r\n", "\n"])
_LONG = st.sampled_from([16 * 1024 - 1, 16 * 1024, 16 * 1024 + 1, 20_000])
_text = st.text(alphabet=st.characters(max_codepoint=255), max_size=12)

_request_lines = st.one_of(
    st.builds(
        lambda method, target, version, pad: f"{pad}{method} {target}{version}{pad}",
        st.sampled_from([*SUPPORTED_METHODS, "get", "FOO", ""]),
        st.sampled_from(["/", "/ad?udid=1&x=2", "/a b", ""]),
        st.sampled_from([" HTTP/1.1", " http/1.0", " HTTP/2", " FTP/1", ""]),
        st.sampled_from(["", " ", "\t"]),
    ),
    _LONG.map(lambda n: "GET /" + "a" * n + " HTTP/1.1"),
    _text,
)

_header_lines = st.one_of(
    st.builds(lambda n, v: f"{n}: {v}", st.sampled_from(["Host", "Cookie", "X-A"]), _text),
    st.builds(
        lambda v: f"Content-Length: {v}",
        st.one_of(
            st.integers(min_value=0, max_value=80).map(str),
            st.sampled_from(["", "abc", "-1", "+3", " 4", "\xb2", "1e3", "99999"]),
        ),
    ),
    _text.map(lambda v: " " + v),  # obsolete folding
    _text.map(lambda v: "\t" + v),
    _text,  # often no colon
    st.just(""),
    _LONG.map(lambda n: "X-Long: " + "b" * n),
)


@st.composite
def raw_requests(draw) -> bytes:
    lines = [draw(_request_lines), *draw(st.lists(_header_lines, max_size=8))]
    head = "".join(line + draw(_ENDINGS) for line in lines)
    separator = draw(_ENDINGS)
    body = draw(st.binary(max_size=64))
    return (head + separator).encode("latin-1") + body


class TestParseRequestOracle:
    @seed(1801)
    @settings(max_examples=400, deadline=None)
    @given(raw=raw_requests())
    def test_structured_requests(self, raw):
        assert outcome(parse_request, raw) == oracle_parse_outcome(raw)

    @seed(1802)
    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes(self, raw):
        assert outcome(parse_request, raw) == oracle_parse_outcome(raw)

    def test_over_long_lines_keep_their_bytes_fragment(self):
        for raw in (
            b"GET /" + b"\xe9" * 20_000 + b" HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\nX: " + b"\xff" * 20_000 + b"\n\n",
        ):
            new, old = outcome(parse_request, raw), oracle_parse_outcome(raw)
            assert new == old
            assert new[1] is HttpParseError and isinstance(new[3], bytes)

    def test_short_long_and_non_numeric_content_length(self):
        for declared in (b"3", b"30", b"abc", b"\xb2"):
            raw = b"POST /t HTTP/1.1\r\nContent-Length: " + declared + b"\r\n\r\nabcdefgh"
            assert outcome(parse_request, raw) == oracle_parse_outcome(raw)


# ---------------------------------------------------------------------------
# normalize_host / registered_domain
# ---------------------------------------------------------------------------

_hosts = st.one_of(
    st.text(
        alphabet=st.sampled_from(
            list("abcXYZ019-_.") + [" ", "\t", "!", "\u212a", "\u0130", "\xe9", "ß"]
        ),
        max_size=24,
    ),
    st.builds(
        lambda labels, dots, pad: pad + ".".join(labels) + "." * dots + pad,
        st.lists(st.sampled_from(["ads", "AdMob", "co", "jp", "com", "", "a_b", "x-1"]),
                 min_size=1, max_size=5),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["", " "]),
    ),
)


class TestHostOracle:
    @seed(1803)
    @settings(max_examples=500, deadline=None)
    @given(host=_hosts)
    def test_normalize_and_registered_domain(self, host):
        assert outcome(normalize_host, host) == outcome(oracle_normalize_host, host)
        assert outcome(registered_domain, host) == outcome(oracle_registered_domain, host)

    @seed(1804)
    @settings(max_examples=200, deadline=None)
    @given(host=_hosts)
    def test_destination_registered_domain(self, host):
        made = outcome(Destination.make, "10.0.0.1", 80, host)
        if made[0] == "ok":
            assert made[1].registered_domain == oracle_registered_domain(host)
        else:
            assert made[1:3] == outcome(oracle_normalize_host, host)[1:3]

    def test_kelvin_sign_lowercases_to_ascii(self):
        host = "\u212aDDI.co.jp."  # KELVIN SIGN lowercases to ASCII "k"
        assert normalize_host(host) == oracle_normalize_host(host) == "kddi.co.jp"
        assert Destination.make("10.0.0.1", 80, host).registered_domain == "kddi.co.jp"


# ---------------------------------------------------------------------------
# Histogram.observe
# ---------------------------------------------------------------------------


def _state(histogram: Histogram) -> str:
    return json.dumps(
        [histogram.counts, histogram.count, histogram.total,
         histogram.min_value, histogram.max_value, histogram.to_dict()],
    )


@st.composite
def observations(draw):
    bounds = draw(st.sampled_from([LATENCY_BOUNDS, DEPTH_BOUNDS, (1, 1, 2)]))
    value = st.one_of(
        st.sampled_from(bounds),  # on an edge
        st.floats(min_value=-1, max_value=bounds[-1] * 2),  # between and above
        st.integers(min_value=-2, max_value=int(bounds[-1]) * 2),
        st.sampled_from([math.inf, -math.inf, math.nan]),
    )
    return bounds, draw(st.lists(value, max_size=40))


class TestHistogramOracle:
    @seed(1805)
    @settings(max_examples=300, deadline=None)
    @given(case=observations())
    def test_same_state_after_every_observation(self, case):
        bounds, values = case
        new, old = Histogram(bounds), Histogram(bounds)
        for value in values:
            new.observe(value)
            oracle_observe(old, value)
            assert _state(new) == _state(old)


# ---------------------------------------------------------------------------
# fuzzed wire decoders
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)  # float() of this overflows
    | st.floats()
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

_PACKET_FIELDS = ("ip", "port", "host", "raw", "app_id", "timestamp", "meta")

#: Replacement values that have broken a decoder before, tried first.
_NASTY = (5, 10**400, -1, 1.5, math.nan, "", "x", "\u0100", None, True, [], {}, ["ab"])


def _event_record() -> dict:
    packet = make_packet(target="/ad?udid=1", body=b"imei=2")
    return encode_event(ScreeningEvent(seq=0, tick=0.0, device_id="d", packet=packet))


def _report_record() -> dict:
    packet = make_packet(target="/ad?udid=1")
    return encode_report(
        DeviceReport(device_id="d", seq=1, token=token_for(packet), packet=packet)
    )


@st.composite
def damaged(draw, make, top_fields):
    """A valid record with one top-level or packet field replaced or removed."""
    record = make()
    where = draw(st.sampled_from(["top", "packet"]))
    target = record if where == "top" else record["packet"]
    key = draw(st.sampled_from(top_fields if where == "top" else _PACKET_FIELDS))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = draw(st.one_of(st.sampled_from(_NASTY), json_values))
    return record


class TestDecoderFuzz:
    @seed(1806)
    @settings(max_examples=300, deadline=None)
    @given(value=json_values)
    def test_decode_event_arbitrary_json(self, value):
        try:
            decode_event(value)
        except ServiceError:
            pass

    @seed(1807)
    @settings(max_examples=300, deadline=None)
    @given(record=damaged(_event_record, ("seq", "tick", "device_id", "packet")))
    def test_decode_event_damaged_record(self, record):
        try:
            decode_event(record)
        except ServiceError:
            pass

    @seed(1808)
    @settings(max_examples=300, deadline=None)
    @given(value=json_values)
    def test_decode_report_arbitrary_json(self, value):
        try:
            decode_report(value)
        except ReportValidationError:
            pass

    @seed(1809)
    @settings(max_examples=300, deadline=None)
    @given(
        record=damaged(
            _report_record, ("format_version", "device_id", "seq", "token", "packet")
        )
    )
    def test_decode_report_damaged_record_with_valid_checksum(self, record):
        # Re-sign, so the damage reaches the packet decoder behind the checksum.
        record["checksum"] = _payload_checksum(record)
        try:
            decode_report(record)
        except ReportValidationError:
            pass

    def test_out_of_float_range_ints_are_typed_errors(self):
        event = _event_record()
        event["tick"] = 10**400
        for record in (event, {**_event_record(), "packet": {
            **_event_record()["packet"], "timestamp": 10**400,
        }}):
            try:
                decode_event(record)
            except ServiceError:
                pass
        report = _report_record()
        report["packet"]["timestamp"] = 10**400
        report["checksum"] = _payload_checksum(report)
        try:
            decode_report(report)
        except ReportValidationError:
            pass

    def test_mistyped_packet_strings_are_typed_errors(self):
        for key in ("raw", "host", "ip"):
            event = _event_record()
            event["packet"][key] = 5
            try:
                decode_event(event)
            except ServiceError as exc:
                assert f"'{key}' must be a string" in str(exc)
            else:  # pragma: no cover - failure path
                raise AssertionError(f"{key}=5 decoded")
            report = _report_record()
            report["packet"][key] = 5
            report["checksum"] = _payload_checksum(report)
            try:
                decode_report(report)
            except ReportValidationError as exc:
                assert exc.reason == "schema"
            else:  # pragma: no cover - failure path
                raise AssertionError(f"{key}=5 decoded")
