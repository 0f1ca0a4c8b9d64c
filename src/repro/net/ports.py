"""TCP port utilities and the paper's boolean port comparison.

The destination distance treats port numbers as an all-or-nothing signal:
"The distance between port numbers is a Boolean (matching or not)."
"""

from __future__ import annotations

from repro.errors import AddressError

#: Highest valid TCP port number.
MAX_PORT = 65535

def validate_port(port: int) -> int:
    """Return ``port`` if it is a valid TCP port, else raise.

    :raises AddressError: when the value is outside ``1..65535``.
    """
    if not isinstance(port, int) or isinstance(port, bool):
        raise AddressError("port must be an int", str(port))
    if not 1 <= port <= MAX_PORT:
        raise AddressError("port out of range", str(port))
    return port


def ports_match(port_a: int, port_b: int) -> bool:
    """The paper's ``match(port_x, port_y)`` boolean comparison.

    Both operands are validated so a corrupt trace fails loudly rather than
    silently comparing garbage.
    """
    return validate_port(port_a) == validate_port(port_b)
