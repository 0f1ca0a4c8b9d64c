"""Obfuscated leak transforms — probing the detector's stated limits.

The paper (Section VI): "Our current approach also does not focus on
encrypted or obfuscated traffic ... but if an advertisement module uses
one encryption key among applications or applies a cryptographic hash
function to sensitive information, our approach can detect it."

This module implements a spectrum of obfuscations a leaking SDK could
apply, ordered by how much structure survives on the wire:

- ``REVERSED`` — value sent back-to-front (trivially stable per device),
- ``ROT13_HEX`` — a fixed substitution over hex digits (stable),
- ``XOR_FIXED_KEY`` — "one encryption key among applications": the
  ciphertext is constant per (key, value), so signatures still anchor,
- ``SALTED_HASH_PER_APP`` — hash(salt_app + value): constant per app but
  different across apps — destination-scoped structure survives, values
  do not,
- ``RANDOM_NONCE_HASH`` — hash(nonce + value) with a fresh nonce each
  request: nothing stable remains; only structural tokens can match.

The obfuscation bench generates traffic from a module wrapped in each
transform and measures which levels signatures survive — making the
paper's claim quantitative.
"""

from __future__ import annotations

import codecs
import enum
import hashlib
from random import Random

#: Fixed substitution used by ROT13_HEX (a bijection over hex digits).
_HEX_MAP = str.maketrans("0123456789abcdef", "fedcba9876543210")


class Obfuscation(enum.Enum):
    """How an SDK disguises a sensitive value before transmission."""

    NONE = "none"
    REVERSED = "reversed"
    ROT13_HEX = "rot13_hex"
    XOR_FIXED_KEY = "xor_fixed_key"
    SALTED_HASH_PER_APP = "salted_hash_per_app"
    RANDOM_NONCE_HASH = "random_nonce_hash"

    @property
    def stable_per_device(self) -> bool:
        """Whether the wire form is constant for one device (and thus can
        itself become an invariant token)."""
        return self in (
            Obfuscation.NONE,
            Obfuscation.REVERSED,
            Obfuscation.ROT13_HEX,
            Obfuscation.XOR_FIXED_KEY,
        )


def obfuscate(
    value: str,
    method: Obfuscation,
    *,
    app_id: str = "",
    rng: Random | None = None,
) -> str:
    """Apply ``method`` to ``value`` as a leaking SDK would.

    :param app_id: required for the per-app salted hash.
    :param rng: required for the random-nonce hash (supplies the nonce).
    :raises ValueError: when a required argument is missing.
    """
    if method is Obfuscation.NONE:
        return value
    if method is Obfuscation.REVERSED:
        return value[::-1]
    if method is Obfuscation.ROT13_HEX:
        return codecs.encode(value, "rot13").lower().translate(_HEX_MAP)
    if method is Obfuscation.XOR_FIXED_KEY:
        key = b"s3cr3t-sdk-key"
        data = value.encode("utf-8")
        cipher = bytes(b ^ key[i % len(key)] for i, b in enumerate(data))
        return cipher.hex()
    if method is Obfuscation.SALTED_HASH_PER_APP:
        if not app_id:
            raise ValueError("salted hash needs the app_id as salt")
        return hashlib.md5(f"{app_id}|{value}".encode("utf-8")).hexdigest()
    if method is Obfuscation.RANDOM_NONCE_HASH:
        if rng is None:
            raise ValueError("nonce hash needs an rng")
        nonce = "".join(rng.choice("0123456789abcdef") for __ in range(8))
        digest = hashlib.md5(f"{nonce}|{value}".encode("utf-8")).hexdigest()
        return f"{nonce}{digest}"
    raise ValueError(f"unknown obfuscation {method!r}")


def obfuscated_leak_packets(
    identity_value: str,
    method: Obfuscation,
    n_packets: int,
    rng: Random,
    *,
    app_id: str = "jp.test.obfuscated",
    host: str = "track.shady-sdk.com",
    ip: str = "198.18.7.0",
):
    """Traffic from a synthetic SDK leaking ``identity_value`` under
    ``method`` — the workload of the obfuscation bench.

    Each packet is a GET with a session-fresh request id plus the
    obfuscated value, so the *only* stable content is whatever the
    obfuscation leaves stable.
    """
    from repro.http.message import HttpRequest
    from repro.http.packet import Destination, HttpPacket
    from repro.net.ipv4 import IPv4Address

    base_ip = IPv4Address.parse(ip)
    packets = []
    for i in range(n_packets):
        wire_value = obfuscate(identity_value, method, app_id=app_id, rng=rng)
        request_id = "".join(rng.choice("0123456789abcdef") for __ in range(12))
        request = HttpRequest(
            method="GET",
            target=f"/t/collect?rid={request_id}&dv={wire_value}&v=2",
            headers=[("Host", host), ("User-Agent", "shady-sdk/2.0"), ("Accept", "*/*")],
        )
        packets.append(
            HttpPacket(
                destination=Destination(IPv4Address(base_ip.value + 1), 80, host),
                request=request,
                app_id=app_id,
                timestamp=float(i),
                meta={"service": "shady", "event": "collect", "obfuscation": method.value},
            )
        )
    return packets
