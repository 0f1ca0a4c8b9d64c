"""IPv4 parsing and prefix arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net.ipv4 import ADDRESS_BITS, IPv4Address, common_prefix_length


class TestParsing:
    def test_parse_roundtrip(self):
        assert str(IPv4Address.parse("192.168.0.1")) == "192.168.0.1"

    def test_parse_value(self):
        assert IPv4Address.parse("0.0.0.1").value == 1
        assert IPv4Address.parse("255.255.255.255").value == 2**32 - 1

    def test_parse_leading_zeros_are_decimal(self):
        assert IPv4Address.parse("010.001.000.009") == IPv4Address.parse("10.1.0.9")

    def test_parse_strips_whitespace(self):
        assert IPv4Address.parse(" 10.0.0.1 ").value == IPv4Address.parse("10.0.0.1").value

    @pytest.mark.parametrize(
        "bad", ["", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1.2.3.-4", "1..2.3"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            IPv4Address.parse(bad)

    def test_value_out_of_range_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(2**32)
        with pytest.raises(AddressError):
            IPv4Address(-1)

    def test_octets_property(self):
        assert IPv4Address.parse("1.2.3.4").octets == (1, 2, 3, 4)

    def test_ordering(self):
        assert IPv4Address.parse("1.0.0.0") < IPv4Address.parse("2.0.0.0")

    def test_hashable(self):
        a = IPv4Address.parse("10.0.0.1")
        assert {a: 1}[IPv4Address.parse("10.0.0.1")] == 1


class TestPrefix:
    def test_identical_addresses_share_all_bits(self):
        a = IPv4Address.parse("10.20.30.40")
        assert common_prefix_length(a, a) == ADDRESS_BITS

    def test_first_bit_differs(self):
        a = IPv4Address.parse("0.0.0.0")
        b = IPv4Address.parse("128.0.0.0")
        assert common_prefix_length(a, b) == 0

    def test_same_slash_24(self):
        a = IPv4Address.parse("10.0.0.1")
        b = IPv4Address.parse("10.0.0.254")
        assert common_prefix_length(a, b) >= 24

    def test_known_value(self):
        a = IPv4Address.parse("10.0.0.1")  # ...0001
        b = IPv4Address.parse("10.0.0.2")  # ...0010
        assert common_prefix_length(a, b) == 30

    def test_symmetric(self):
        a = IPv4Address.parse("173.194.41.9")
        b = IPv4Address.parse("173.194.38.100")
        assert common_prefix_length(a, b) == common_prefix_length(b, a)

    def test_in_network(self):
        a = IPv4Address.parse("10.0.5.7")
        net = IPv4Address.parse("10.0.0.0")
        assert a.in_network(net, 16)
        assert not a.in_network(net, 24)
        assert a.in_network(net, 0)

    def test_in_network_rejects_bad_prefix(self):
        a = IPv4Address.parse("10.0.0.1")
        with pytest.raises(AddressError):
            a.in_network(a, 33)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_prefix_length_matches_xor_definition(x, y):
    a, b = IPv4Address(x), IPv4Address(y)
    length = common_prefix_length(a, b)
    if x == y:
        assert length == 32
    else:
        # The first differing bit is exactly at position `length`.
        assert (x >> (32 - length)) == (y >> (32 - length))
        assert (x >> (31 - length)) != (y >> (31 - length))


@given(st.integers(0, 2**32 - 1))
def test_parse_str_roundtrip(value):
    a = IPv4Address(value)
    assert IPv4Address.parse(str(a)) == a
