"""The screening hot path against frozen copies of the code it replaced.

``parse_request`` decodes the request head once, ``normalize_host`` accepts
with one regular-expression match, ``Destination.registered_domain`` skips
re-normalizing, ``Histogram.observe`` finds its bucket by bisection, and
``HttpPacket.from_dict`` decodes a canonical record in one pass.  Each is
checked here against the implementation it replaced, kept below as a
test-only oracle: the same result, or the same exception type and
message, on seeded hypothesis inputs aimed at the edges each rewrite
touches.  The ``/v1/screen`` reply writer is checked byte for byte
against ``json.dumps`` of the records it replaced.  The wire decoders are
fuzzed too: arbitrary JSON must yield a typed error, never an escaping
``AttributeError`` or ``OverflowError``.

The fleet request path is checked the same way.  The service handler's
own request-head reader runs against the stdlib's ``parse_request`` (with
``http.client.parse_headers`` and so the ``email`` parser): the same
replies, state and header values on structured heads and arbitrary bytes.
Its reply writer runs against ``send_response``/``send_header``/
``end_headers``: the same bytes, ``Date`` aside, in one write.  And both
signature repositories, which keep the last envelope text that verified,
run against a reference that verifies on every read, over seeded
sequences of publishes, at-rest corruption and reads.
"""

import ast
import http.client
import io
import json
import math
import re
import socket
import tempfile
from dataclasses import FrozenInstanceError
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import (
    HttpParseError,
    ParseError,
    ReportValidationError,
    ServiceError,
    SignatureStoreError,
)
from repro.federation.report import (
    DeviceReport,
    _payload_checksum,
    decode_report,
    encode_report,
    token_for,
)
from repro.http.message import SUPPORTED_METHODS, HttpRequest
from repro.http.packet import Destination, HttpPacket
from repro.http.parser import parse_request
from repro.net.fqdn import _MULTI_LABEL_SUFFIXES, normalize_host, registered_domain
from repro.net.ipv4 import IPv4Address
from repro.obs.metrics import Histogram, Metrics
from repro.service import server as server_module
from repro.service.repository import (
    InMemorySignatureRepository,
    SqliteSignatureRepository,
    SqliteStore,
)
from repro.service.server import (
    MAX_HEAD_LINE_BYTES,
    MAX_HEAD_LINES,
    ServiceConfig,
    ServiceServer,
    SignatureService,
    _ServiceHandler,
    date_header_line,
)
from repro.service.wire import (
    decode_event,
    encode_event,
    encode_result,
    encode_results,
    encode_screen_reply,
)
from repro.serving.gateway import (
    DEPTH_BOUNDS,
    LATENCY_BOUNDS,
    GatewayConfig,
    ReloadEvent,
    ScreeningGateway,
    ServeOutcome,
    ServeResult,
    ShedPolicy,
)
from repro.serving.loadgen import ScreeningEvent
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.matcher import MatchResult
from repro.signatures.store import SignatureEnvelope, SignatureStore
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


def oracle_from_dict(data) -> HttpPacket:
    try:
        ip, port, host, raw = data["ip"], data["port"], data["host"], data["raw"]
    except KeyError as exc:
        raise ParseError(f"packet record missing key {exc}") from exc
    for key, value in (("ip", ip), ("host", host), ("raw", raw)):
        if not isinstance(value, str):
            raise ParseError(
                f"packet field {key!r} must be a string, got {type(value).__name__}"
            )
    return HttpPacket(
        destination=Destination.make(ip, port, host),
        request=parse_request(raw.encode("latin-1")),
        app_id=data.get("app_id", ""),
        timestamp=float(data.get("timestamp", 0.0)),
        meta=dict(data.get("meta", {})),
    )


def oracle_decode_event(record) -> ScreeningEvent:
    if not isinstance(record, dict):
        raise ServiceError(f"event must be an object, got {type(record).__name__}")
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ServiceError(f"bad event seq {seq!r}")
    tick = record.get("tick")
    if not isinstance(tick, (int, float)) or isinstance(tick, bool) or tick < 0:
        raise ServiceError(f"bad event tick {tick!r}")
    try:
        tick = float(tick)
    except OverflowError as exc:
        raise ServiceError(f"bad event tick {tick!r}") from exc
    device_id = record.get("device_id")
    if not isinstance(device_id, str) or not device_id:
        raise ServiceError(f"bad event device_id {device_id!r}")
    packet_record = record.get("packet")
    if not isinstance(packet_record, dict):
        raise ServiceError("missing or mistyped event packet")
    try:
        packet = oracle_from_dict(packet_record)
    except (ParseError, TypeError, ValueError, OverflowError) as exc:
        raise ServiceError(f"unparseable event packet: {exc}") from exc
    return ScreeningEvent(seq=seq, tick=tick, device_id=device_id, packet=packet)


def oracle_screen_reply(results, generation, set_version) -> bytes:
    return json.dumps(
        {"results": encode_results(results), "generation": generation,
         "set_version": set_version},
        sort_keys=True,
    ).encode()


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
         histogram.min_value, histogram.max_value,
         [histogram.percentile(p) for p in (0.5, 0.95, 0.99, 1.0)]],
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
# HttpPacket.from_dict / decode_event
# ---------------------------------------------------------------------------

_ascii = st.characters(min_codepoint=32, max_codepoint=126)
_latin1 = st.characters(min_codepoint=1, max_codepoint=255)
_header_names = st.one_of(
    st.sampled_from(
        ["Host", "User-Agent", "Cookie", "Accept", "Content-Type",
         "Content-Length", "content-length"]
    ),
    st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                                   blacklist_characters=":"), min_size=1, max_size=8),
)
_labels = st.text(alphabet="abcxyz019_-", min_size=1, max_size=6)


@st.composite
def packets(draw, values=_ascii) -> HttpPacket:
    """A packet whose ``to_dict`` is a canonical record; ``values`` draws
    header-value characters (latin-1 ones make the head non-ASCII)."""
    request = HttpRequest(
        method=draw(st.sampled_from(SUPPORTED_METHODS)),
        target="/" + draw(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                                  max_size=20)),
        version=draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"])),
        headers=draw(st.lists(st.tuples(_header_names, st.text(alphabet=values, max_size=12)),
                              max_size=6)),
        body=draw(st.binary(max_size=48)),
    )
    octets = draw(st.lists(st.integers(0, 255), min_size=4, max_size=4))
    return HttpPacket(
        destination=Destination(
            IPv4Address.from_octets(*octets),
            draw(st.integers(1, 65535)),
            ".".join(draw(st.lists(_labels, min_size=1, max_size=4))),
        ),
        request=request,
        app_id=draw(st.text(max_size=8)),
        timestamp=draw(st.floats(min_value=0, max_value=1e9)),
        meta=draw(st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2)),
    )


def _with_head(record: dict, edit) -> dict:
    """``record`` with its raw head's lines passed through ``edit``."""
    head, __, body = record["raw"].partition("\r\n\r\n")
    return {**record, "raw": "\r\n".join(edit(head.split("\r\n"))) + "\r\n\r\n" + body}


def _headers_edit(fn):
    return lambda record: _with_head(record, lambda lines: [lines[0], *fn(lines[1:])])


def _request_line_edit(fn):
    return lambda record: _with_head(record, lambda lines: [fn(lines[0]), *lines[1:]])


def _body_length(record: dict) -> int:
    return len(record["raw"].partition("\r\n\r\n")[2])


#: Departures from the canonical form, each one the fast path must leave
#: to the general path (or decode to the very same packet).
DAMAGE = {
    "lf_line_endings": lambda r: {
        **r, "raw": r["raw"].partition("\r\n\r\n")[0].replace("\r\n", "\n")
        + "\n\n" + r["raw"].partition("\r\n\r\n")[2],
    },
    "mixed_line_endings": _headers_edit(lambda h: [line + "\n" for line in h]),
    "folded_header": _headers_edit(lambda h: [*h[:1], " \t folded  more", *h[1:]]),
    "folded_header_with_colon": _headers_edit(lambda h: [*h[:1], "\tX-Folded: more", *h[1:]]),
    "request_line_spaces": _request_line_edit(lambda line: " " + line.replace(" ", " \t ") + "  "),
    "header_spaces": _headers_edit(
        lambda h: [name + " :\t " + value + " \t" for name, __, value in
                   (line.partition(": ") for line in h)]
    ),
    "lowercase_version": _request_line_edit(lambda line: line.replace("HTTP/", "http/")),
    "lowercase_method": _request_line_edit(lambda line: line[0].lower() + line[1:]),
    "two_word_request_line": _request_line_edit(lambda line: line.rpartition(" ")[0]),
    "vertical_tab_in_target": _request_line_edit(lambda line: line.replace(" ", "\x0b", 1)),
    "short_content_length": lambda r: _headers_edit(
        lambda h: [f"Content-Length: {_body_length(r) // 2}", *h]
    )(r),
    "duplicate_content_length": _headers_edit(lambda h: ["Content-Length: 1", *h]),
    "plus_content_length": _headers_edit(lambda h: ["Content-Length: +1", *h]),
    "non_ascii_digit_content_length": _headers_edit(lambda h: ["Content-Length: \xb2", *h]),
    "unicode_digit_content_length": _headers_edit(lambda h: ["Content-Length: \u0663", *h]),
    "header_without_colon": _headers_edit(lambda h: [*h, "no colon here"]),
    "whitespace_only_header_line": _headers_edit(lambda h: [*h, " \x0c "]),
    "bare_lf_in_value": _headers_edit(lambda h: [*h, "X-A: a\nb"]),
    "cr_in_value": _headers_edit(lambda h: [*h, "X-A: a\rb\r"]),
    "latin1_in_value": _headers_edit(lambda h: [*h, "X-A: caf\xe9\xa0"]),
    "over_long_head": _headers_edit(lambda h: [*h, "X-Long: " + "b" * (16 * 1024)]),
    "too_many_headers": _headers_edit(lambda h: [*h, *(["X-N: 1"] * 257)]),
    "no_blank_line": lambda r: {**r, "raw": r["raw"].partition("\r\n\r\n")[0]},
    "lf_blank_line_first": lambda r: {**r, "raw": r["raw"].replace("\r\n", "\n\n", 1)},
    "non_latin1_body": lambda r: {**r, "raw": r["raw"] + "\u0100"},
    "non_latin1_head": _request_line_edit(lambda line: line + "\u0100"),
    "empty_raw": lambda r: {**r, "raw": ""},
    "uppercase_host": lambda r: {**r, "host": r["host"].upper()},
    "trailing_dot_host": lambda r: {**r, "host": r["host"] + "."},
    "padded_host": lambda r: {**r, "host": " " + r["host"]},
    "illegal_host": lambda r: {**r, "host": r["host"] + "!"},
    "leading_zero_octet": lambda r: {**r, "ip": "0" + r["ip"]},
    "padded_ip": lambda r: {**r, "ip": r["ip"] + " "},
    "three_octets": lambda r: {**r, "ip": r["ip"].rpartition(".")[0]},
    "octet_out_of_range": lambda r: {**r, "ip": "256" + r["ip"][r["ip"].index("."):]},
    "non_ascii_digit_octet": lambda r: {**r, "ip": "\u0661" + r["ip"]},
    "bool_port": lambda r: {**r, "port": True},
    "float_port": lambda r: {**r, "port": 80.0},
    "zero_port": lambda r: {**r, "port": 0},
    "missing_raw": lambda r: {k: v for k, v in r.items() if k != "raw"},
    "bytes_raw": lambda r: {**r, "raw": r["raw"].encode("latin-1")},
    "str_timestamp": lambda r: {**r, "timestamp": "1.5"},
    "bad_timestamp": lambda r: {**r, "timestamp": "soon"},
    "list_meta": lambda r: {**r, "meta": [("k", "v")]},
    "bad_meta": lambda r: {**r, "meta": 5},
}


class TestPacketDecodeOracle:
    @seed(2301)
    @settings(max_examples=300, deadline=None)
    @given(packet=packets())
    def test_canonical_records_take_the_fast_path(self, packet):
        record = packet.to_dict()
        fast = HttpPacket._from_canonical_dict(record)
        assert fast is not None
        assert fast == oracle_from_dict(record)
        assert outcome(HttpPacket.from_dict, record) == ("ok", fast)

    @seed(2302)
    @settings(max_examples=600, deadline=None)
    @given(packet=packets(values=_latin1), kind=st.sampled_from(sorted(DAMAGE)))
    def test_non_canonical_records(self, packet, kind):
        record = DAMAGE[kind](packet.to_dict())
        assert outcome(HttpPacket.from_dict, record) == outcome(oracle_from_dict, record)

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_each_departure_on_a_post(self, kind):
        packet = make_packet(target="/ad?udid=1", cookie="sid=9", body=b"imei=2&x=\xff")
        record = DAMAGE[kind](packet.to_dict())
        assert outcome(HttpPacket.from_dict, record) == outcome(oracle_from_dict, record)

    def test_non_dict_records(self):
        for record in ([], "x", None, 5, [("ip", "1.2.3.4")]):
            assert outcome(HttpPacket.from_dict, record) == outcome(oracle_from_dict, record)

    def test_fast_path_values_are_ordinary(self):
        record = make_packet(body=b"imei=1").to_dict()
        fast = HttpPacket._from_canonical_dict(record)
        slow = oracle_from_dict(record)
        assert fast == slow
        assert hash(fast.destination) == hash(slow.destination)
        assert fast.ip.value == slow.ip.value and str(fast.ip) == record["ip"]
        assert fast.destination.registered_domain == slow.destination.registered_domain
        assert fast.to_dict() == slow.to_dict()
        with pytest.raises(FrozenInstanceError):
            fast.destination.port = 1  # type: ignore[misc]
        with pytest.raises(FrozenInstanceError):
            fast.ip.value = 1  # type: ignore[misc]

    @seed(2303)
    @settings(max_examples=300, deadline=None)
    @given(
        packet=packets(values=_latin1),
        kind=st.sampled_from(["canonical", *sorted(DAMAGE)]),
        seq=st.one_of(st.integers(-1, 10**6), st.just(True), st.just(1.0)),
        tick=st.one_of(
            st.floats(min_value=-1, max_value=1e12),
            st.integers(-1, 10**6),
            st.just(10**400),
            st.just(False),
        ),
        device_id=st.one_of(st.text(max_size=6), st.none()),
    )
    def test_decode_event(self, packet, kind, seq, tick, device_id):
        record = packet.to_dict()
        if kind != "canonical":
            record = DAMAGE[kind](record)
        event = {"seq": seq, "tick": tick, "device_id": device_id, "packet": record}
        assert outcome(decode_event, event) == outcome(oracle_decode_event, event)

    @pytest.mark.parametrize("tick", [math.nan, math.inf, -math.inf])
    def test_non_finite_tick_is_a_bad_tick(self, tick):
        event = _event_record()
        event["tick"] = tick
        with pytest.raises(ServiceError, match=f"^bad event tick {tick!r}$"):
            decode_event(event)


# ---------------------------------------------------------------------------
# the /v1/screen reply writer
# ---------------------------------------------------------------------------

_sig_tokens = st.sampled_from(
    ["udid=", "imei=", "caf\xe9", "\u65e5\u672c", 'q"x', "back\\slash", "\u2028", "a", "\U0001f600"]
)
_signatures = st.builds(
    ConjunctionSignature,
    tokens=st.lists(_sig_tokens, min_size=1, max_size=2).map(tuple),
    scope_domain=st.sampled_from(["", "example.com"]),
    source_cluster=st.integers(0, 5),
    label=st.sampled_from(["", "IMEI", "\u30e9\u30d9\u30eb", "tab\there"]),
)


@st.composite
def screen_runs(draw):
    """A gateway run: ``(gateway, results)``, with shedding and reloads in reach."""
    boot = draw(st.lists(_signatures, max_size=5))
    config = GatewayConfig(
        queue_capacity=draw(st.integers(1, 4)),
        batch_size=draw(st.integers(1, 4)),
        shed_policy=draw(st.sampled_from(list(ShedPolicy))),
    )
    int_ticks = draw(st.booleans())
    tick = 0
    events = []
    for seq in range(draw(st.integers(0, 24))):
        tick += draw(st.integers(0, 3))
        tokens = draw(st.lists(_sig_tokens, max_size=3))
        packet = make_packet(
            host=draw(st.sampled_from(["ads.example.com", "x.other.jp"])),
            target="/ad?" + "&".join(tokens),
        )
        events.append(ScreeningEvent(
            seq=seq, tick=tick if int_ticks else float(tick) / 2, device_id="d", packet=packet,
        ))
    reloads = []
    if events and draw(st.booleans()):
        envelope = SignatureEnvelope(
            set_version=2, checksum="c", signatures=tuple(draw(st.lists(_signatures, max_size=5)))
        )
        reloads.append(ReloadEvent(tick=events[len(events) // 2].tick, envelope=envelope))
    gateway = ScreeningGateway(boot, config=config)
    return gateway, gateway.run(events, reloads)


class TestScreenReplyWriter:
    @seed(2304)
    @settings(max_examples=300, deadline=None)
    @given(run=screen_runs())
    def test_bytes_equal_json_dumps(self, run):
        gateway, results = run
        generation, version = gateway.generation, gateway.set_version
        expected = oracle_screen_reply(results, generation, version)
        assert encode_screen_reply(results, generation, version, gateway.matcher.fragments) == expected
        # Without fragments every signature is rendered on the spot.
        assert encode_screen_reply(results, generation, version, {}) == expected

    def test_shed_flagged_clean_and_reload_in_one_reply(self):
        boot = [ConjunctionSignature(tokens=("imei=\u65e5\u672c",), label="caf\xe9")]
        after = [ConjunctionSignature(tokens=("udid=",), scope_domain="example.com", label='"q"')]
        events = [
            ScreeningEvent(seq=i, tick=float(i // 4), device_id="d", packet=make_packet(
                target="/ad?" + ("imei=\u65e5\u672c" if i % 3 == 0 else "udid=1")))
            for i in range(16)
        ]
        gateway = ScreeningGateway(boot, config=GatewayConfig(queue_capacity=2, batch_size=2))
        envelope = SignatureEnvelope(set_version=7, checksum="c", signatures=tuple(after))
        results = gateway.run(events, [ReloadEvent(tick=2.0, envelope=envelope)])
        outcomes = {result.outcome for result in results}
        assert {ServeOutcome.FLAGGED, ServeOutcome.CLEAN} <= outcomes
        assert outcomes & {ServeOutcome.SHED_DEGRADED_CLEAN, ServeOutcome.SHED_DEGRADED_FLAGGED}
        assert {result.generation for result in results} == {1, 2}
        reply = encode_screen_reply(results, 2, 7, gateway.matcher.fragments)
        assert reply == oracle_screen_reply(results, 2, 7)
        assert reply.isascii()

    def test_unusual_field_types_fall_back_to_json_dumps(self):
        packet = make_packet()
        signature = ConjunctionSignature(tokens=("x",))
        cases = [
            (5, 2.0, 1, MatchResult(matched=True, signature=signature, score=1)),
            (5, math.nan, 1, MatchResult(matched=False)),
            (5, math.inf, 1, None),
            (5, True, 1, None),
            (True, 1.0, 1, None),
            (5, -0.0, True, MatchResult(matched=1, signature=None, score=0.0)),
            (5, 1e300, 1, MatchResult(matched=False, score=math.nan)),
        ]
        for seq, completed, generation, match in cases:
            result = ServeResult(
                event=ScreeningEvent(seq=seq, tick=0.0, device_id="d", packet=packet),
                outcome=ServeOutcome.CLEAN,
                generation=generation,
                set_version=1,
                match=match,
                completed_tick=completed,
                batch_id=0,
            )
            expected = json.dumps(encode_result(result), sort_keys=True)
            assert encode_screen_reply([result], True, 1.5, {}) == oracle_screen_reply(
                [result], True, 1.5
            )
            assert expected in encode_screen_reply([result], 1, 1, {}).decode()

    def test_empty_results(self):
        assert encode_screen_reply([], 3, 4, {}) == oracle_screen_reply([], 3, 4)


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


# ---------------------------------------------------------------------------
# the service's request head reader and reply writer
# ---------------------------------------------------------------------------


class _Head(_ServiceHandler):
    """A handler over in-memory streams, with no socket and no service."""

    def __init__(self, raw: bytes) -> None:  # skips the socket set-up
        self.rfile = io.BytesIO(raw)
        self.wfile = io.BytesIO()
        self.raw_requestline = self.rfile.readline(65537)


class _StdlibHead(_Head):
    """The oracle: the stdlib's own ``parse_request``, ``http.client.parse_headers`` and all."""

    parse_request = BaseHTTPRequestHandler.parse_request


_DATE_LINE = re.compile(rb"Date: [^\r\n]*\r\n")


def head_outcome(cls, raw: bytes, names):
    """Everything a parse leaves behind that the handler reads afterwards."""
    handler = cls(raw)
    accepted = handler.parse_request()
    state = (
        accepted,
        handler.command,
        getattr(handler, "path", None),
        handler.request_version,
        handler.close_connection,
        handler.rfile.tell(),
        _DATE_LINE.sub(b"Date: -\r\n", handler.wfile.getvalue()),
    )
    if not accepted:
        return state, None, None
    fields: dict[str, str] = {}
    for name, value in handler.headers.items():
        fields.setdefault(name.lower(), value)
    return state, fields, {name: handler.headers.get(name) for name in names}


def assert_same_head(raw: bytes) -> None:
    """The reader and the stdlib agree on ``raw``: replies, state and every field."""
    oracle = _StdlibHead(raw)
    names = {"Content-Length", "connection", "EXPECT", "traceparent", "Host", "x-a"}
    if oracle.parse_request():
        names.update(oracle.headers.keys())
        names.update(name.swapcase() for name in oracle.headers.keys())
    new = head_outcome(_Head, raw, sorted(names))
    old = head_outcome(_StdlibHead, raw, sorted(names))
    assert new == old
    reply = new[0][-1]
    if not new[0][0] and reply.startswith(b"HTTP/"):  # refused, and not an HTTP/0.9 request
        assert reply.split(b" ", 2)[1] in (b"400", b"431", b"505")


_blanks = st.sampled_from(["", " ", "\t", "  ", " \t "])
_field_names = st.sampled_from(
    ["Content-Length", "content-length", "CONNECTION", "Connection", "Expect", "Host",
     "traceparent", "X-A", "x-a", "From", "Bad Name", "", "Ünï"]
)
_field_values = st.one_of(
    st.sampled_from(["256", "close", "keep-alive", "Keep-Alive", "100-continue", "x"]),
    st.text(alphabet=st.characters(max_codepoint=255), max_size=10),
)
_head_request_lines = st.one_of(
    st.builds(
        lambda method, target, version: f"{method} {target}{version}",
        st.sampled_from(["GET", "POST", "HEAD", "get"]),
        st.sampled_from(["/", "/v1/signatures?since=3", "//evil/x", "/a b"]),
        st.sampled_from(
            [" HTTP/1.1", " HTTP/1.0", " HTTP/0.9", " HTTP/2.0", " HTTP/1.10", " HTTP/01.1",
             " HTTP/1", " HTTP/1.1.1", " HTTP/a.b", " HTTP/\xb2.1", " HTTP/12345678901.1",
             " FTP/1.1", "", " HTTP/1.1 extra"]
        ),
    ),
    st.text(alphabet=st.characters(max_codepoint=255), max_size=12),
)
_head_lines = st.one_of(
    st.builds(
        lambda name, before, value, after: f"{name}:{before}{value}{after}",
        _field_names, _blanks, _field_values, _blanks,
    ),
    st.builds(lambda blank, value: blank + value, st.sampled_from([" ", "\t"]), _field_values),
    st.sampled_from(["From someone", "From x: y", ": empty name", "no colon", "A: 1\rB: 2",
                     "A: 1\r", "A:\x0bB: 2", "A: \x85"]),
)
_line_ends = st.sampled_from(["\r\n", "\r\n", "\n"])


_plain_lines = st.builds(
    lambda name, before, value, after: f"{name}:{before}{value}{after}",
    st.sampled_from(["Content-Length", "content-length", "Connection", "Host", "X-A", "x-a"]),
    _blanks,
    st.sampled_from(["256", "close", "keep-alive", "x y", "", ":", "\xe9"]),
    _blanks,
)


_routable_request_lines = st.sampled_from(
    ["GET / HTTP/1.1", "POST /v1/screen HTTP/1.1", "GET /healthz HTTP/1.0", "GET /"]
)


@st.composite
def request_heads(draw, lines=_head_lines, request_lines=_routable_request_lines) -> bytes:
    lines = [draw(request_lines), *draw(st.lists(lines, max_size=8))]
    head = "".join(line + draw(_line_ends) for line in lines)
    end = draw(st.sampled_from(["\r\n", "\n", ""]))  # "" ends the stream instead
    return (head + end).encode("latin-1") + draw(st.binary(max_size=16))


class TestRequestHeadOracle:
    """``_ServiceHandler.parse_request`` against the stdlib's, which it replaced."""

    @seed(2501)
    @settings(max_examples=600, deadline=None)
    @given(raw=request_heads())
    def test_structured_heads(self, raw):
        assert_same_head(raw)

    @seed(2507)
    @settings(max_examples=300, deadline=None)
    @given(raw=request_heads(lines=_plain_lines))
    def test_plain_field_heads(self, raw):
        assert_same_head(raw)

    @seed(2508)
    @settings(max_examples=300, deadline=None)
    @given(raw=request_heads(request_lines=_head_request_lines))
    def test_request_lines(self, raw):
        assert_same_head(raw)

    @seed(2502)
    @settings(max_examples=400, deadline=None)
    @given(
        line=_head_request_lines,
        noise=st.binary(max_size=200),
    )
    def test_arbitrary_header_bytes(self, line, noise):
        assert_same_head(line.encode("latin-1") + b"\r\n" + noise)

    @seed(2503)
    @settings(max_examples=300, deadline=None)
    @given(raw=st.binary(max_size=200))
    def test_arbitrary_bytes(self, raw):
        assert_same_head(raw)

    def test_trailing_blanks_are_kept(self):
        raw = b"POST /v1/screen HTTP/1.1\r\nContent-Length:  256 \r\n\r\n"
        assert_same_head(raw)
        handler = _Head(raw)
        assert handler.parse_request()
        assert handler.headers.get("content-length") == "256 "

    def test_first_of_a_name_wins_in_any_case(self):
        raw = b"GET / HTTP/1.1\r\ncontent-length: 1\r\nContent-Length: 2\r\n\r\n"
        assert_same_head(raw)
        handler = _Head(raw)
        assert handler.parse_request()
        assert handler.headers.get("CONTENT-LENGTH") == "1"

    def test_limits_and_their_statuses(self):
        too_long = b"GET / HTTP/1.1\r\nX: " + b"a" * MAX_HEAD_LINE_BYTES + b"\r\n\r\n"
        at_limit = b"GET / HTTP/1.1\r\nX: " + b"a" * (MAX_HEAD_LINE_BYTES - 5) + b"\r\n\r\n"
        fields = b"".join(b"X-%d: v\r\n" % i for i in range(MAX_HEAD_LINES))
        too_many = b"GET / HTTP/1.1\r\n" + fields + b"\r\n"
        most = b"GET / HTTP/1.1\r\n" + fields[: fields.index(b"X-99")] + b"\r\n"
        for raw in (too_long, at_limit, too_many, most):
            assert_same_head(raw)
        assert b" 431 " in head_outcome(_Head, too_long, ())[0][-1]
        assert b" 431 " in head_outcome(_Head, too_many, ())[0][-1]
        assert head_outcome(_Head, at_limit, ())[0][0]
        assert head_outcome(_Head, most, ())[0][0]
        assert (MAX_HEAD_LINE_BYTES, MAX_HEAD_LINES) == (
            http.client._MAXLINE,
            http.client._MAXHEADERS,
        )

    def test_expect_100_continue(self):
        for version in (b"HTTP/1.1", b"HTTP/1.0"):
            assert_same_head(b"POST / " + version + b"\r\nExpect: 100-Continue\r\n\r\n")

    @seed(2504)
    @settings(max_examples=100, deadline=None)
    @given(raw=st.one_of(request_heads(), st.binary(max_size=300)))
    def test_random_bytes_never_a_500_or_a_hang(self, live_service, raw):
        # Over a socket, the client closing its side after the bytes: every
        # read on the server ends, so a reply that does not come in 10 s is
        # a hang.
        host, port = live_service.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        assert b"HTTP/1.1 500 " not in received
        assert b"HTTP/1.0 500 " not in received
        assert "service_unhandled_errors" not in live_service.service.metrics.counters


@pytest.fixture(scope="module")
def live_service():
    server = ServiceServer(
        SignatureService(
            [ConjunctionSignature(tokens=("udid=abc",), scope_domain="admob.com")],
            config=ServiceConfig(max_body_bytes=64),
        )
    )
    server.start()
    yield server
    server.stop()


class _Reply(_Head):
    """A handler that records what it writes, with a metrics registry to count in."""

    def __init__(self, request_version: str = "HTTP/1.1") -> None:
        super().__init__(b"")
        self.request_version = request_version
        self.requestline = "GET / " + request_version
        self.server = SimpleNamespace(service=SimpleNamespace(metrics=Metrics()))

    def stdlib_respond(self, status, payload, content_type, **headers):
        """The replaced writer: ``send_response``, ``send_header``, ``end_headers``, ``write``."""
        self.send_response(status)
        if content_type is not None:
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), value)
        self.end_headers()
        if payload:
            self.wfile.write(payload)


class _CountingWriter(io.BytesIO):
    writes = 0

    def write(self, data):
        self.writes += 1
        return super().write(data)


class TestReplyWriter:
    """``_respond`` writes the bytes the stdlib calls wrote, in one write."""

    CASES = [
        (200, b'{"ok": true}', "application/json", {}),
        (200, b"doc", "application/json", {"X_Set_Version": "7"}),
        (304, b"", None, {}),
        (404, b'{"error": "no route /x"}', "application/json", {}),
        (413, b'{"error": "body exceeds 64 byte limit"}', "application/json",
         {"Connection": "close"}),
        (200, b"# metrics\n", "text/plain; version=0.0.4", {}),
    ]

    @pytest.mark.parametrize("request_version", ["HTTP/1.1", "HTTP/1.0", "HTTP/0.9"])
    def test_bytes_equal_the_stdlib_calls(self, request_version):
        for status, payload, content_type, headers in self.CASES:
            new, old = _Reply(request_version), _Reply(request_version)
            new.wfile = _CountingWriter()
            new._respond(status, payload, content_type, **headers)
            old.stdlib_respond(status, payload, content_type, **headers)
            written = new.wfile.getvalue()
            assert _DATE_LINE.sub(b"", written) == _DATE_LINE.sub(b"", old.wfile.getvalue())
            assert new.wfile.writes == (1 if written else 0)
            assert new.last_status == status
            assert (_DATE_LINE.search(written) is not None) == (request_version != "HTTP/0.9")

    def test_304_goes_through_the_one_writer(self):
        handler = _Reply()
        handler.wfile = _CountingWriter()
        handler._respond_json(304, {"ignored": True})
        assert handler.wfile.writes == 1
        head = _DATE_LINE.sub(b"", handler.wfile.getvalue())
        assert head == (
            b"HTTP/1.1 304 Not Modified\r\nServer: " + handler.version_string().encode()
            + b"\r\nContent-Length: 0\r\n\r\n"
        )

    def test_date_is_formatted_once_a_second(self, monkeypatch):
        formatted = []

        def counting_formatdate(timeval, usegmt):
            formatted.append(timeval)
            return formatdate(timeval, usegmt=usegmt)

        clock = iter([1000.2, 1000.7, 1000.9, 1001.0, 1001.5])
        monkeypatch.setattr(server_module, "formatdate", counting_formatdate)
        monkeypatch.setattr(server_module, "_date_line", (-1, b""))
        monkeypatch.setattr(server_module, "time", SimpleNamespace(time=lambda: next(clock)))
        lines = [date_header_line() for __ in range(5)]
        assert formatted == [1000, 1001]
        assert lines[0] == lines[2] == f"Date: {formatdate(1000, usegmt=True)}\r\n".encode()
        assert lines[3] == lines[4] == f"Date: {formatdate(1001, usegmt=True)}\r\n".encode()


# ---------------------------------------------------------------------------
# signature repositories: a stored text is verified once
# ---------------------------------------------------------------------------


class ReferenceSignatures:
    """The replaced read path: every read verifies the stored text again."""

    def __init__(self) -> None:
        self.documents: dict[int, object] = {}
        self.corrupt = 0

    def store(self, document: str) -> SignatureEnvelope:
        envelope = SignatureStore.loads_envelope(document)
        newest = max(self.documents, default=0)
        if envelope.set_version <= newest:
            raise ServiceError(
                f"stale publish: set_version {envelope.set_version} <= stored {newest}"
            )
        self.documents[envelope.set_version] = document
        return envelope

    def get(self, set_version: int):
        document = self.documents.get(set_version)
        if document is None:
            return None
        try:
            return document, SignatureStore.loads_envelope(document)
        except SignatureStoreError:
            self.corrupt += 1
            return None

    def latest(self):
        for version in sorted(self.documents, reverse=True):
            found = self.get(version)
            if found is not None:
                return found
        return None

    def corrupt_reads(self) -> int:
        return self.corrupt


_SIGNATURE_SETS = [
    [ConjunctionSignature(tokens=(f"udid=abc{i}", "seq="), scope_domain="admob.com")
     for i in range(n)]
    for n in (1, 2, 3)
]


def _envelope(set_version: int, which: int) -> str:
    return SignatureStore.dumps_envelope(_SIGNATURE_SETS[which], set_version)


def _rewritten(kind: str, version: int, document: str, original: str, stored: dict) -> object:
    """A stored row's text after at-rest damage (or repair) of ``kind``."""
    if kind == "garbage":
        return '{"garbage": true}'
    if kind == "truncate":
        return document[: len(document) // 2]
    if kind == "tamper":  # valid JSON, same version, the checksum no longer matches
        return document.replace("udid=abc0", "udid=evil0")
    if kind == "rewrite":  # a valid envelope of the same version, other signatures
        return _envelope(version, 2 if "udid=abc2" not in document else 0)
    if kind == "other":  # the text of another stored version
        return stored[min(stored)]
    return original  # "restore"


_repository_steps = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.sampled_from([1, 1, 2, 0, -1]), st.integers(0, 2)),
        st.tuples(st.just("publish_bad")),
        st.tuples(
            st.just("corrupt"),
            st.integers(0, 5),
            st.sampled_from(["garbage", "truncate", "tamper", "rewrite", "other", "restore"]),
        ),
        st.tuples(st.just("latest")),
        st.tuples(st.just("get"), st.integers(0, 6)),
    ),
    max_size=24,
)


def _read_result(found):
    if found is None:
        return None
    document, envelope = found
    return document, envelope.set_version, envelope.checksum, envelope.signatures


def run_repository_steps(repo, corrupt_at_rest, steps) -> None:
    """Apply ``steps`` to ``repo`` and to the reference; compare after each one."""
    reference = ReferenceSignatures()
    published: dict[int, str] = {}
    for step in steps:
        kind = step[0]
        if kind == "publish":
            version = max(reference.documents, default=0) + step[1]
            document = _envelope(max(version, 1), step[2])
            new = outcome(repo.store, document)
            old = outcome(reference.store, document)
            assert new == old
            if old[0] == "ok":
                published[old[1].set_version] = document
        elif kind == "publish_bad":
            assert outcome(repo.store, "{") == outcome(reference.store, "{")
        elif kind == "corrupt" and reference.documents:
            versions = sorted(reference.documents)
            version = versions[step[1] % len(versions)]
            text = _rewritten(
                step[2], version, reference.documents[version], published[version],
                reference.documents,
            )
            corrupt_at_rest(version, text)
            reference.documents[version] = text
        elif kind == "latest":
            assert _read_result(repo.latest()) == _read_result(reference.latest())
        elif kind == "get":
            assert _read_result(repo.get(step[1])) == _read_result(reference.get(step[1]))
        assert repo.corrupt_reads() == reference.corrupt_reads()
        assert repo.versions() == sorted(reference.documents)


class TestRepositoryVerifiesOnce:
    """Both repositories against a reference that verifies on every read."""

    @seed(2505)
    @settings(max_examples=200, deadline=None)
    @given(steps=_repository_steps)
    def test_in_memory(self, steps):
        repo = InMemorySignatureRepository()
        run_repository_steps(repo, repo.corrupt, steps)

    @seed(2506)
    @settings(max_examples=150, deadline=None)
    @given(steps=_repository_steps)
    def test_sqlite(self, steps):
        with tempfile.TemporaryDirectory() as directory:
            store = SqliteStore(Path(directory) / "repo.sqlite3")

            def corrupt_at_rest(version, text):
                store.write(
                    "UPDATE signature_envelopes SET document = ? WHERE set_version = ?",
                    (text, version),
                )

            try:
                run_repository_steps(SqliteSignatureRepository(store), corrupt_at_rest, steps)
            finally:
                store.close()

    @pytest.mark.parametrize("kind", ["tamper", "rewrite"])
    def test_same_version_rewritten_at_rest_is_read_again(self, kind, tmp_path):
        store = SqliteStore(tmp_path / "repo.sqlite3")
        repo = SqliteSignatureRepository(store)
        document = _envelope(1, 1)
        repo.store(document)
        assert repo.latest()[0] == document
        text = _rewritten(kind, 1, document, document, {1: document})
        store.write("UPDATE signature_envelopes SET document = ? WHERE set_version = 1", (text,))
        found = repo.latest()
        if kind == "tamper":
            assert found is None and repo.corrupt_reads() == 1
            assert repo.latest() is None and repo.corrupt_reads() == 2
        else:
            assert found[0] == text and found[1] == SignatureStore.loads_envelope(text)
        store.close()

    def test_an_unchanged_text_is_verified_once(self, monkeypatch):
        repo = InMemorySignatureRepository()
        calls = []
        loads = SignatureStore.loads_envelope

        def counting(text):
            calls.append(text)
            return loads(text)

        monkeypatch.setattr(SignatureStore, "loads_envelope", staticmethod(counting))
        repo.store(_envelope(1, 0))
        for __ in range(5):
            assert repo.latest()[1].set_version == 1
        assert len(calls) == 1  # the store's own verification
        repo.corrupt(1, _envelope(1, 2))
        for __ in range(5):
            assert repo.latest()[1].signatures == tuple(_SIGNATURE_SETS[2])
        assert len(calls) == 2
