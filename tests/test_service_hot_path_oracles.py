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
"""

import ast
import json
import math
from dataclasses import FrozenInstanceError

import pytest
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
from repro.http.packet import Destination, HttpPacket
from repro.http.parser import parse_request
from repro.net.fqdn import _MULTI_LABEL_SUFFIXES, normalize_host, registered_domain
from repro.net.ipv4 import IPv4Address
from repro.obs.metrics import Histogram
from repro.service.wire import (
    decode_event,
    encode_event,
    encode_result,
    encode_results,
    encode_screen_reply,
)
from repro.serving.gateway import (
    GatewayConfig,
    ReloadEvent,
    ScreeningGateway,
    ServeOutcome,
    ServeResult,
    ShedPolicy,
)
from repro.serving.loadgen import ScreeningEvent
from repro.serving.telemetry import DEPTH_BOUNDS, LATENCY_BOUNDS
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.matcher import MatchResult
from repro.signatures.store import SignatureEnvelope
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
