"""Shared fixtures: a small deterministic corpus and packet builders."""

from __future__ import annotations

import threading
from random import Random
from typing import Any, Callable

import pytest

from repro.http.message import HttpRequest
from repro.http.packet import Destination, HttpPacket
from repro.sensitive.identifiers import DeviceIdentity
from repro.signatures.conjunction import ConjunctionSignature
from repro.simulation.corpus import Corpus, mini_corpus


def make_packet(
    host: str = "ads.example.com",
    ip: str = "10.1.2.3",
    port: int = 80,
    method: str = "GET",
    target: str = "/ad?x=1",
    cookie: str = "",
    body: bytes = b"",
    app_id: str = "jp.test.app",
) -> HttpPacket:
    """A hand-built packet for unit tests."""
    headers = [("Host", host), ("User-Agent", "test-agent"), ("Accept", "*/*")]
    if cookie:
        headers.append(("Cookie", cookie))
    if body:
        headers.append(("Content-Type", "application/x-www-form-urlencoded"))
        headers.append(("Content-Length", str(len(body))))
        method = "POST"
    request = HttpRequest(method=method, target=target, headers=headers, body=body)
    return HttpPacket(
        destination=Destination.make(ip, port, host), request=request, app_id=app_id
    )


def corpus_signatures(corpus: Corpus, limit: int = 30) -> list[ConjunctionSignature]:
    """Signatures cut from real corpus packets, scoped and unscoped mixed."""
    signatures = []
    for index, packet in enumerate(corpus.trace.packets[::7]):
        text = packet.canonical_text()
        third = len(text) // 3
        first, second = text[third : third + 6], text[2 * third : 2 * third + 6]
        if len(first) < 6 or len(second) < 6:
            continue
        scope = packet.destination.registered_domain if index % 2 else ""
        signatures.append(ConjunctionSignature(tokens=(first, second), scope_domain=scope))
        if len(signatures) >= limit:
            break
    assert len(signatures) >= 10
    return signatures


def call_with_timeout(fn: Callable[[], Any], seconds: float) -> Any:
    """``fn()`` on a daemon thread: its result, or its exception re-raised.

    Fails the calling test if ``fn`` has not returned after ``seconds``
    (a hang is left spinning on its daemon thread).
    """
    outcome: dict[str, Any] = {}

    def target() -> None:
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed back to the caller
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


@pytest.fixture
def identity() -> DeviceIdentity:
    """A fixed coherent device identity."""
    return DeviceIdentity.generate(Random(42))


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    """One shared 60-app corpus (built once per test session)."""
    return mini_corpus(seed=11, n_apps=60)


@pytest.fixture(scope="session")
def small_split(small_corpus):
    """The (suspicious, normal) split of the shared corpus."""
    check = small_corpus.payload_check()
    return check.split(small_corpus.trace)
