"""IPv4 address model and bit-level prefix comparison.

The paper defines the destination IP distance through ``lmatch``, "a function
[that] returns a number of common upper bits in two IP address[es]".  This
module provides a small immutable :class:`IPv4Address` value type and the
:func:`common_prefix_length` primitive, written from scratch so the library
has no dependency on :mod:`ipaddress` semantics (and so the bit arithmetic
the metric relies on is explicit and testable).
"""

from __future__ import annotations

import re
import socket
from dataclasses import dataclass

from repro.errors import AddressError

#: Number of bits in an IPv4 address; the paper normalizes ``lmatch`` by 32.
ADDRESS_BITS = 32

_MAX = (1 << ADDRESS_BITS) - 1

_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"

#: Dotted-quad text exactly as :meth:`IPv4Address.__str__` writes it: four
#: ASCII decimal octets in ``0..255``, without leading zeros or spaces.
_CANONICAL_DOTTED_QUAD = re.compile(r"\.".join([_OCTET] * 4))


@dataclass(frozen=True, slots=True, order=True)
class IPv4Address:
    """An immutable IPv4 address stored as a 32-bit unsigned integer.

    Construct either directly from an integer or via :meth:`parse` from
    dotted-quad text.  Instances are hashable and totally ordered by
    numeric value, so they can key dictionaries and sort deterministically.

    >>> IPv4Address.parse("192.168.0.1").value
    3232235521
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX:
            raise AddressError("IPv4 value out of range", str(self.value))

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        """Parse dotted-quad text (``"10.0.0.1"``) into an address.

        :raises AddressError: if the text is not four dot-separated decimal
            octets in ``0..255``.  Leading zeros are accepted (``"010"`` is
            read as decimal 10) because captured traffic logs are sloppy.
        """
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise AddressError("expected four octets", text)
        value = 0
        for part in parts:
            if not part.isdigit():
                raise AddressError("non-numeric octet", text)
            octet = int(part)
            if octet > 255:
                raise AddressError("octet out of range", text)
            value = (value << 8) | octet
        return cls(value)

    @classmethod
    def parse_canonical(cls, text: str) -> "IPv4Address | None":
        """The address ``text`` names if ``str()`` of it would write ``text``.

        Returns ``None`` for anything else, which :meth:`parse` may still
        accept or must reject.  Canonical text is in range by construction,
        so the range check is not run again.
        """
        if _CANONICAL_DOTTED_QUAD.fullmatch(text) is None:
            return None
        address = object.__new__(cls)
        _set_value(address, int.from_bytes(socket.inet_aton(text), "big"))
        return address

    @property
    def octets(self) -> tuple[int, int, int, int]:
        """The four octets, most significant first."""
        v = self.value
        return ((v >> 24) & 0xFF, (v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)

    def __str__(self) -> str:
        return ".".join(str(o) for o in self.octets)

    def in_network(self, network: "IPv4Address", prefix_len: int) -> bool:
        """Whether this address falls inside ``network/prefix_len``."""
        if not 0 <= prefix_len <= ADDRESS_BITS:
            raise AddressError("prefix length out of range", str(prefix_len))
        if prefix_len == 0:
            return True
        shift = ADDRESS_BITS - prefix_len
        return (self.value >> shift) == (network.value >> shift)


#: Sets the field past the frozen ``__setattr__``, for :meth:`IPv4Address.parse_canonical`.
_set_value = IPv4Address.value.__set__  # type: ignore[attr-defined]


def common_prefix_length(a: IPv4Address, b: IPv4Address) -> int:
    """Number of identical leading bits of two addresses (``lmatch``).

    This is the paper's ``lmatch(ip_x, ip_y)``: addresses allocated to the
    same organization share long upper-bit prefixes, so a large value hints
    that two destinations are operated by the same party.

    >>> common_prefix_length(IPv4Address.parse("10.0.0.1"),
    ...                      IPv4Address.parse("10.0.0.2"))
    30
    """
    diff = a.value ^ b.value
    if diff == 0:
        return ADDRESS_BITS
    return ADDRESS_BITS - diff.bit_length()
