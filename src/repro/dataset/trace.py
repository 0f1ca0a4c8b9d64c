"""The trace: an ordered collection of captured packets.

A :class:`Trace` is what the collection server in Fig 3(a) ingests.  It
persists as JSON Lines (one packet per line) so multi-session captures can
be concatenated with ``cat``, and it offers the filtered views the
analysis code needs.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import DatasetError
from repro.http.packet import HttpPacket


def _open_text(path: Path, mode: str):
    """Open plain or gzip-compressed text based on the file suffix."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


class Trace:
    """An ordered, indexable packet collection.

    :param packets: the packets, usually in capture order.
    """

    def __init__(self, packets: Iterable[HttpPacket] = ()) -> None:
        self._packets: list[HttpPacket] = list(packets)

    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[HttpPacket]:
        return iter(self._packets)

    def __getitem__(self, index: int) -> HttpPacket:
        return self._packets[index]

    def extend(self, packets: Iterable[HttpPacket]) -> None:
        self._packets.extend(packets)

    @property
    def packets(self) -> list[HttpPacket]:
        """The underlying list (not a copy; treat as read-only)."""
        return self._packets

    # -- views -------------------------------------------------------------------

    def by_app(self) -> dict[str, list[HttpPacket]]:
        """Packets grouped by sending application."""
        groups: dict[str, list[HttpPacket]] = {}
        for packet in self._packets:
            groups.setdefault(packet.app_id, []).append(packet)
        return groups

    def by_domain(self) -> dict[str, list[HttpPacket]]:
        """Packets grouped by destination registered domain."""
        groups: dict[str, list[HttpPacket]] = {}
        for packet in self._packets:
            groups.setdefault(packet.destination.registered_domain, []).append(packet)
        return groups

    # -- persistence --------------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> None:
        """Write one JSON object per line (gzip when the path ends ``.gz``)."""
        with _open_text(Path(path), "w") as handle:
            for packet in self._packets:
                handle.write(json.dumps(packet.to_dict(), sort_keys=True))
                handle.write("\n")

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save_jsonl` (``.gz`` transparent).

        :raises DatasetError: on malformed lines, with the line number.
        """
        packets: list[HttpPacket] = []
        with _open_text(Path(path), "r") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    packets.append(HttpPacket.from_dict(json.loads(line)))
                except (json.JSONDecodeError, Exception) as exc:  # noqa: BLE001
                    raise DatasetError(f"bad trace record at line {line_number}: {exc}") from exc
        return cls(packets)
