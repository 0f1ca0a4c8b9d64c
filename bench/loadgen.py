"""Deterministic HTTP load for the service workloads, built before the clock starts.

Every request is encoded to its final bytes from the seed ahead of time, so
the timed loops only write bytes and read replies.  Load comes from one
process with two threads, each owning one keep-alive connection ("lane").
Reports of a device always travel on the same lane, in ``seq`` order, so the
service's replay defense never fires by accident and every report sent is
new.  The client speaks just enough HTTP/1.1 for this service (every reply
carries ``Content-Length``), which keeps its own cost per request far below
the server's.

Two loop types:

- **open loop** — each request has a due time on a fixed-rate schedule and
  its latency is measured from that due time, so a stall also charges the
  requests that queued behind it.  Lateness is the part of a send delay the
  generator caused: send time minus the later of the due time and the
  lane's previous reply.  It is the generator's delay, not the service's,
  so the benchmark subtracts it from the latency.
- **closed loop** — each lane keeps :data:`PIPELINE_DEPTH` requests in
  flight on its connection, sending the next as soon as a reply lands,
  until the phase's time is up; the phase measures capacity.  Requests
  scheduled for a time (publishes) go out on lane 0 ahead of the next one
  once their time has come.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from repro.federation.report import DeviceReport, encode_report, token_for
from repro.serving.loadgen import ScreeningEvent
from repro.service.wire import encode_event

clock = time.perf_counter

LANES = 2
#: Requests a closed-loop lane keeps in flight on its connection, so that a
#: late wake-up of the client never leaves the server without work.
PIPELINE_DEPTH = 2
EVENTS_PER_SCREEN = 32
REPORTS_PER_POST = 8
N_DEVICES = 64
SCREEN_BODIES = 256
SIGNATURES_PATH = "/v1/signatures"


def http_request(method: str, path: str, body: bytes | None = None) -> bytes:
    """The bytes of one HTTP/1.1 keep-alive request."""
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body is not None:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return (head + "\r\n").encode("ascii") + (body or b"")


#: A conditional fetch; ``%d`` becomes the newest version seen published.
FETCH_SINCE = http_request("GET", SIGNATURES_PATH + "?since=%d")


@dataclass(frozen=True, slots=True)
class Request:
    """One prepared request.

    :param kind: ``screen`` / ``fetch`` / ``fetch_since`` / ``report`` / ``publish``.
    :param payload: the request bytes (:data:`FETCH_SINCE` for ``fetch_since``).
    :param due: seconds after the phase start (open loop only).
    :param items: events or reports carried in the body.
    """

    kind: str
    payload: bytes
    due: float = 0.0
    items: int = 0


@dataclass(slots=True)
class Outcome:
    """A sent request and its reply (``status`` 0 = transport failure).

    ``cpu`` is the sending thread's CPU time for the request: the client's
    own share of the time between ``start`` and ``end``.
    """

    request: Request
    due: float
    start: float
    end: float
    late: float
    cpu: float
    status: int
    body: bytes


@dataclass(slots=True)
class Phase:
    """The outcomes of one loop: per lane, in send order."""

    started: float
    lanes: list[list[Outcome]]

    @property
    def outcomes(self) -> list[Outcome]:
        return [outcome for lane in self.lanes for outcome in lane]

    @property
    def lane_ends(self) -> list[float]:
        return [lane[-1].end if lane else self.started for lane in self.lanes]

    @property
    def ended(self) -> float:
        return max(self.lane_ends)

    @property
    def window(self) -> tuple[float, float]:
        return self.started, self.ended


class PublishState:
    """The newest ``set_version`` a publish on this process got a 201 for."""

    def __init__(self) -> None:
        self.version = 1


class Connection:
    """One keep-alive client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def _fill(self, buffer: bytes) -> bytes:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return buffer + chunk

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def receive(self) -> tuple[int, bytes]:
        """Read the reply to the oldest request sent: ``(status, body)``."""
        buffer = self.buffer
        while (head_end := buffer.find(b"\r\n\r\n")) < 0:
            buffer = self._fill(buffer)
        head = buffer[:head_end].lower()
        status = int(head[9:12])
        marker = head.find(b"\r\ncontent-length:")
        if marker < 0:
            raise ConnectionError("reply without Content-Length")
        line_end = head.find(b"\r\n", marker + 2)
        length = int(head[marker + 17 : line_end if line_end >= 0 else len(head)])
        body_end = head_end + 4 + length
        while len(buffer) < body_end:
            buffer = self._fill(buffer)
        self.buffer = buffer[body_end:]
        return status, buffer[head_end + 4 : body_end]

    def exchange(self, payload: bytes) -> tuple[int, bytes]:
        """Send one request and read its reply."""
        self.send(payload)
        return self.receive()

    def close(self) -> None:
        self.sock.close()


def _payload(request: Request, state: PublishState) -> bytes:
    if request.kind == "fetch_since":
        return request.payload % state.version
    return request.payload


def _record(state: PublishState, out: list[Outcome], outcome: Outcome) -> None:
    if outcome.request.kind == "publish" and outcome.status == 201:
        state.version = json.loads(outcome.body)["set_version"]
    out.append(outcome)


def _open_lane(
    host: str, port: int, requests: Sequence[Request], started: float, state: PublishState, out: list[Outcome]
) -> None:
    connection = Connection(host, port)
    previous_end = started
    try:
        for request in requests:
            due = started + request.due
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            payload = _payload(request, state)
            start = clock()
            cpu = time.thread_time()
            late = start - max(due, previous_end)
            try:
                status, body = connection.exchange(payload)
            except (OSError, ValueError):
                status, body = 0, b""
                connection.close()
                connection = Connection(host, port)
            previous_end = clock()
            cpu = time.thread_time() - cpu
            _record(state, out, Outcome(request, due, start, previous_end, late, cpu, status, body))
    finally:
        connection.close()


def _closed_lane(
    host: str,
    port: int,
    requests: Sequence[Request],
    started: float,
    deadline: float,
    scheduled: Sequence[Request],
    state: PublishState,
    out: list[Outcome],
) -> None:
    """Keep :data:`PIPELINE_DEPTH` requests in flight until ``deadline``."""
    connection = Connection(host, port)
    in_flight: deque[tuple[Request, float, float]] = deque()  # (request, sent, client cpu)
    pending = deque(scheduled)
    # Nothing is sent before ``started``, so the server's work on this phase
    # lies inside the phase's window.
    wait = started - clock()
    if wait > 0:
        time.sleep(wait)

    def fail() -> None:
        """Every request in flight on a broken connection fails."""
        nonlocal connection
        now = clock()
        for request, sent, cpu in in_flight:
            out.append(Outcome(request, sent, sent, now, 0.0, cpu, 0, b""))
        in_flight.clear()
        connection.close()
        connection = Connection(host, port)

    def receive_oldest() -> None:
        cpu = time.thread_time()
        try:
            status, body = connection.receive()
        except (OSError, ValueError):
            fail()
            return
        request, sent, spent = in_flight.popleft()
        spent += time.thread_time() - cpu
        _record(state, out, Outcome(request, sent, sent, clock(), 0.0, spent, status, body))

    def send(request: Request) -> None:
        if len(in_flight) == PIPELINE_DEPTH:
            receive_oldest()
        cpu = time.thread_time()
        sent = clock()
        in_flight.append((request, sent, 0.0))
        try:
            connection.send(_payload(request, state))
        except OSError:
            fail()
            return
        in_flight[-1] = (request, sent, time.thread_time() - cpu)

    try:
        for request in requests:
            if clock() >= deadline:
                break
            if pending and clock() >= started + pending[0].due:
                send(pending.popleft())
            send(request)
        while in_flight:
            receive_oldest()
    finally:
        connection.close()


def run_phase(
    host: str,
    port: int,
    lanes: Sequence[Sequence[Request]],
    *,
    state: PublishState,
    closed_s: float | None = None,
    scheduled: Sequence[Request] = (),
) -> Phase:
    """Drive ``lanes`` (one thread and connection each) to completion.

    :param closed_s: ``None`` for an open loop; else the closed loop's
        length in seconds (it also ends when the lanes run out).
    :param scheduled: closed loop only: requests lane 0 sends once their
        ``due`` has passed.
    """
    results: list[list[Outcome]] = [[] for __ in lanes]
    started = clock() + 0.005  # let the second thread start before the first due time
    deadline = None if closed_s is None else started + closed_s

    def drive(index: int) -> None:
        if deadline is None:
            _open_lane(host, port, lanes[index], started, state, results[index])
        else:
            _closed_lane(
                host, port, lanes[index], started, deadline, scheduled if index == 0 else (), state, results[index]
            )

    threads = [threading.Thread(target=drive, args=(index,), name=f"bench-lane-{index}") for index in range(1, len(lanes))]
    for thread in threads:
        thread.start()
    try:
        drive(0)
    finally:
        for thread in threads:
            thread.join()
    return Phase(started=started, lanes=results)


def request_once(host: str, port: int, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection, outside any timed phase."""
    connection = Connection(host, port)
    try:
        return connection.exchange(http_request(method, path, body))
    finally:
        connection.close()


# -- request construction -------------------------------------------------------


def _device(index: int) -> str:
    return f"bench-device-{index:03d}"


def screen_bodies(seed: int, packets: Sequence) -> list[tuple[int, bytes]]:
    """:data:`SCREEN_BODIES` screen posts of :data:`EVENTS_PER_SCREEN` events: ``(device, body)``."""
    rng = random.Random(f"bench-screen-{seed}")
    bodies = []
    for index in range(SCREEN_BODIES):
        device = index % N_DEVICES
        events = [
            encode_event(
                ScreeningEvent(
                    seq=i,
                    tick=float(i),
                    device_id=_device(device),
                    packet=packets[rng.randrange(len(packets))],
                )
            )
            for i in range(EVENTS_PER_SCREEN)
        ]
        bodies.append((device, json.dumps({"events": events}).encode("utf-8")))
    return bodies


def screen_plan(
    seed: int, packets: Sequence, *, rate: float, open_s: float, closed_per_lane: int
) -> tuple[list[list[Request]], list[list[Request]]]:
    """Open-loop lanes at ``rate`` for ``open_s`` seconds, then closed-loop lanes."""
    posts = [
        (device, http_request("POST", "/v1/screen", body))
        for device, body in screen_bodies(seed, packets)
    ]
    open_lanes: list[list[Request]] = [[] for __ in range(LANES)]
    for i in range(int(rate * open_s)):
        device, payload = posts[i % len(posts)]
        open_lanes[device % LANES].append(
            Request("screen", payload, due=i / rate, items=EVENTS_PER_SCREEN)
        )
    closed_lanes: list[list[Request]] = []
    for lane in range(LANES):
        own = [payload for device, payload in posts if device % LANES == lane]
        closed_lanes.append(
            [Request("screen", own[i % len(own)], items=EVENTS_PER_SCREEN) for i in range(closed_per_lane)]
        )
    return open_lanes, closed_lanes


class _ReportSource:
    """Report posts with per-device ``seq`` counting up across both phases."""

    def __init__(self, seed: int, packets: Sequence) -> None:
        self.rng = random.Random(f"bench-reports-{seed}")
        self.packets = packets
        self.tokens: dict[int, str] = {}
        self.next_seq = [1] * N_DEVICES
        self.next_device = list(range(LANES))

    def post(self, lane: int, due: float) -> Request:
        device = self.next_device[lane]
        self.next_device[lane] = (device + LANES) % N_DEVICES
        records = []
        for __ in range(REPORTS_PER_POST):
            index = self.rng.randrange(len(self.packets))
            packet = self.packets[index]
            token = self.tokens.get(index)
            if token is None:
                token = self.tokens[index] = token_for(packet)
            seq = self.next_seq[device]
            self.next_seq[device] += 1
            records.append(encode_report(DeviceReport(_device(device), seq, token, packet)))
        body = json.dumps({"reports": records}).encode("utf-8")
        return Request("report", http_request("POST", "/v1/reports", body), due, REPORTS_PER_POST)


def _fleet_request(rng: random.Random, reports: _ReportSource, lane: int, due: float) -> Request:
    # Half report posts, half signature fetches; of the fetches, 35 in 50
    # are conditional (``?since=``) and 15 in 50 ask for the full set.
    draw = rng.random()
    if draw < 0.5:
        return reports.post(lane, due)
    if draw < 0.85:
        return Request("fetch_since", FETCH_SINCE, due)
    return Request("fetch", http_request("GET", SIGNATURES_PATH), due)


def publish_times(phase_s: float, every_s: float) -> list[float]:
    """Publish due times in a phase: one per ``every_s`` (at least one), mid-interval."""
    count = max(1, round(phase_s / every_s))
    return [(k + 0.5) * phase_s / count for k in range(count)]


def fleet_plan(
    seed: int,
    packets: Sequence,
    publish_documents: Sequence[bytes],
    *,
    rate: float,
    open_s: float,
    closed_s: float,
    closed_per_lane: int,
    publish_every_s: float,
) -> tuple[list[list[Request]], list[list[Request]], list[Request]]:
    """Open- and closed-loop lanes for the fleet mix, plus the closed loop's
    scheduled publishes.

    Publishes ride on lane 0, one every ``publish_every_s`` seconds of
    either phase, and consume ``publish_documents`` in order.
    """
    rng = random.Random(f"bench-fleet-{seed}")
    reports = _ReportSource(seed, packets)
    publishes = [
        Request("publish", http_request("POST", SIGNATURES_PATH, document))
        for document in publish_documents
    ]

    open_lanes: list[list[Request]] = [[] for __ in range(LANES)]
    due_publishes = publish_times(open_s, publish_every_s)
    for i in range(int(rate * open_s)):
        due = i / rate
        while due_publishes and due_publishes[0] <= due:
            publish = publishes.pop(0)
            open_lanes[0].append(Request(publish.kind, publish.payload, due_publishes.pop(0)))
        lane = i % LANES
        open_lanes[lane].append(_fleet_request(rng, reports, lane, due))

    closed_lanes = [
        [_fleet_request(rng, reports, lane, 0.0) for __ in range(closed_per_lane)]
        for lane in range(LANES)
    ]
    closed_publishes = [
        Request(publish.kind, publish.payload, due)
        for publish, due in zip(publishes, publish_times(closed_s, publish_every_s))
    ]
    return open_lanes, closed_lanes, closed_publishes


# -- reading the outcomes --------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]): the maximum when n < 1/(1-q)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def digest(parts: Sequence[bytes]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(hashlib.sha256(part).digest())
    return hasher.hexdigest()


def scrape(text: str) -> dict[str, float]:
    """Counter and gauge samples from a Prometheus text page (no labels)."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, __, value = line.partition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values
