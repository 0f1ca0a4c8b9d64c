"""Port validation and the boolean port distance."""

import pytest

from repro.errors import AddressError
from repro.net.ports import MAX_PORT, ports_match, validate_port


def test_validate_accepts_range_bounds():
    assert validate_port(1) == 1
    assert validate_port(MAX_PORT) == MAX_PORT


@pytest.mark.parametrize("bad", [0, -1, 65536, 100000])
def test_validate_rejects_out_of_range(bad):
    with pytest.raises(AddressError):
        validate_port(bad)


def test_validate_rejects_bool():
    with pytest.raises(AddressError):
        validate_port(True)


def test_validate_rejects_non_int():
    with pytest.raises(AddressError):
        validate_port("80")  # type: ignore[arg-type]


def test_ports_match():
    assert ports_match(80, 80)
    assert not ports_match(80, 443)


def test_ports_match_validates_both_operands():
    with pytest.raises(AddressError):
        ports_match(80, 0)
    with pytest.raises(AddressError):
        ports_match(-1, 80)
