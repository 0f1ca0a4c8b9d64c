"""Signature set persistence and the versioned distribution envelope.

The device-side flow-control app "fetches signatures from the servers"; in
this reproduction the transport is a JSON document.  Two formats exist:

- the **plain set** (``format_version`` 1) — what :meth:`SignatureStore.dumps`
  has always produced; kept for files on disk and backward compatibility;
- the **envelope** (``format_version`` 2) — the over-the-wire form used by
  :mod:`repro.core.distribution`: the same signature records wrapped with a
  monotonically increasing ``set_version`` and a SHA-256 ``checksum`` over
  the canonical record serialization, so a fetcher can detect truncation
  and bit corruption without trusting the transport.

All decode/validation failures raise
:class:`repro.errors.SignatureStoreError` (a :class:`SignatureError`
subclass), so a retry loop can treat "corrupt payload" as retriable while
genuine programming errors keep their own types.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.errors import SignatureError, SignatureStoreError
from repro.signatures.conjunction import ConjunctionSignature

FORMAT_VERSION = 1
ENVELOPE_FORMAT_VERSION = 2


@dataclass(frozen=True, slots=True)
class SignatureEnvelope:
    """A verified, versioned signature-set delivery.

    :param set_version: the server's publication counter (1-based,
        monotonically increasing).
    :param checksum: hex SHA-256 of the canonical record serialization.
    :param signatures: the verified signature set.
    """

    set_version: int
    checksum: str
    signatures: tuple[ConjunctionSignature, ...]


def _records_checksum(records: list[dict[str, Any]]) -> str:
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_records(records: Any) -> list[ConjunctionSignature]:
    if not isinstance(records, list):
        raise SignatureStoreError("signature document missing 'signatures' list")
    parsed: list[ConjunctionSignature] = []
    for record in records:
        try:
            parsed.append(ConjunctionSignature.from_dict(record))
        except (SignatureError, KeyError, TypeError, ValueError) as exc:
            raise SignatureStoreError(f"malformed signature record: {exc}") from exc
    return parsed


class SignatureStore:
    """Reads and writes signature-set JSON documents."""

    # -- plain set (format 1) ------------------------------------------------------

    @staticmethod
    def dumps(signatures: Sequence[ConjunctionSignature]) -> str:
        """Serialize to a JSON string (stable key order)."""
        document = {
            "format_version": FORMAT_VERSION,
            "count": len(signatures),
            "signatures": [signature.to_dict() for signature in signatures],
        }
        return json.dumps(document, indent=2, sort_keys=True)

    @staticmethod
    def loads(text: str) -> list[ConjunctionSignature]:
        """Parse a JSON string produced by :meth:`dumps`.

        :raises SignatureStoreError: on invalid JSON, version mismatch,
            wrong structure, or a count that disagrees with the payload.
        """
        document = SignatureStore._decode_document(text)
        version = document.get("format_version")
        if version != FORMAT_VERSION:
            raise SignatureStoreError(f"unsupported signature format version {version!r}")
        records = document.get("signatures")
        signatures = _parse_records(records)
        declared = document.get("count")
        if declared != len(signatures):
            raise SignatureStoreError(
                f"signature count mismatch: declared {declared}, found {len(signatures)}"
            )
        return signatures

    # -- envelope (format 2) -------------------------------------------------------

    @staticmethod
    def dumps_envelope(signatures: Sequence[ConjunctionSignature], set_version: int) -> str:
        """Serialize a versioned, checksummed distribution envelope.

        :param set_version: the server's publication counter (>= 1).
        :raises SignatureStoreError: for a non-positive version.
        """
        if set_version < 1:
            raise SignatureStoreError(f"set_version must be >= 1, got {set_version}")
        records = [signature.to_dict() for signature in signatures]
        document = {
            "format_version": ENVELOPE_FORMAT_VERSION,
            "set_version": set_version,
            "count": len(records),
            "checksum": _records_checksum(records),
            "signatures": records,
        }
        return json.dumps(document, indent=2, sort_keys=True)

    @staticmethod
    def loads_envelope(text: str) -> SignatureEnvelope:
        """Parse and *verify* an envelope produced by :meth:`dumps_envelope`.

        Verification covers structure, declared count, and the SHA-256
        checksum over the records — a truncated or bit-corrupted envelope
        fails here rather than poisoning the device's signature set.

        :raises SignatureStoreError: on any decode or integrity failure.
        """
        document = SignatureStore._decode_document(text)
        version = document.get("format_version")
        if version != ENVELOPE_FORMAT_VERSION:
            raise SignatureStoreError(f"unsupported envelope format version {version!r}")
        set_version = document.get("set_version")
        if not isinstance(set_version, int) or set_version < 1:
            raise SignatureStoreError(f"invalid set_version {set_version!r}")
        records = document.get("signatures")
        if not isinstance(records, list):
            raise SignatureStoreError("envelope missing 'signatures' list")
        declared_checksum = document.get("checksum")
        actual_checksum = _records_checksum(records)
        if declared_checksum != actual_checksum:
            raise SignatureStoreError(
                f"envelope checksum mismatch: declared {declared_checksum!r}, "
                f"computed {actual_checksum!r}"
            )
        signatures = _parse_records(records)
        declared = document.get("count")
        if declared != len(signatures):
            raise SignatureStoreError(
                f"envelope count mismatch: declared {declared}, found {len(signatures)}"
            )
        return SignatureEnvelope(
            set_version=set_version,
            checksum=actual_checksum,
            signatures=tuple(signatures),
        )

    # -- files ---------------------------------------------------------------------

    @staticmethod
    def save(signatures: Sequence[ConjunctionSignature], path: str | Path) -> None:
        """Write the set to ``path``."""
        Path(path).write_text(SignatureStore.dumps(signatures), encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> list[ConjunctionSignature]:
        """Read a set from ``path``."""
        return SignatureStore.loads(Path(path).read_text(encoding="utf-8"))

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _decode_document(text: str) -> dict[str, Any]:
        # Only text is a document: a stored row of bytes or a number (at-rest
        # corruption) is as corrupt as bad JSON, never a crash.
        if not isinstance(text, str):
            raise SignatureStoreError(
                f"signature document must be text, got {type(text).__name__}"
            )
        try:
            document = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
            raise SignatureStoreError(f"signature document is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise SignatureStoreError("signature document must be a JSON object")
        return document
