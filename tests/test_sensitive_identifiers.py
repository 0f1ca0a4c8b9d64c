"""Identifier generation: structure, Luhn validity, identity coherence."""

from random import Random

import pytest

from repro.sensitive.identifiers import (
    CARRIERS,
    DeviceIdentity,
    IdentifierKind,
    luhn_check_digit,
    make_android_id,
    make_iccid,
    make_imei,
    make_imsi,
)


class TestLuhn:
    def test_known_check_digit(self):
        # classic example: 49015420323751 -> check digit 8
        assert luhn_check_digit("49015420323751") == 8

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError):
            luhn_check_digit("12a4")


class TestGenerators:
    def test_imei_shape(self):
        imei = make_imei(Random(1))
        assert len(imei) == 15
        assert imei.isdigit()
        assert luhn_check_digit(imei[:-1]) == int(imei[-1])

    def test_imsi_shape(self):
        imsi = make_imsi(Random(1), "NTT DOCOMO")
        assert len(imsi) == 15
        assert imsi.startswith("44010")

    def test_imsi_unknown_carrier_falls_back(self):
        assert make_imsi(Random(1), "NOPE").startswith("44010")

    def test_iccid_shape(self):
        iccid = make_iccid(Random(1), "SoftBank")
        assert len(iccid) == 19
        assert iccid.startswith("8981")
        assert luhn_check_digit(iccid[:-1]) == int(iccid[-1])

    def test_android_id_shape(self):
        aid = make_android_id(Random(1))
        assert len(aid) == 16
        assert all(c in "0123456789abcdef" for c in aid)

    def test_determinism(self):
        assert make_imei(Random(5)) == make_imei(Random(5))


class TestDeviceIdentity:
    def test_generate_coherent(self):
        identity = DeviceIdentity.generate(Random(3))
        assert identity.carrier in CARRIERS
        assert luhn_check_digit(identity.imei[:-1]) == int(identity.imei[-1])
        assert luhn_check_digit(identity.sim_serial[:-1]) == int(identity.sim_serial[-1])
        assert len(identity.android_id) == 16

    def test_value_of_all_kinds(self):
        identity = DeviceIdentity.generate(Random(3))
        for kind in IdentifierKind:
            value = identity.value_of(kind)
            assert isinstance(value, str) and value

    def test_items_covers_all_kinds(self):
        identity = DeviceIdentity.generate(Random(3))
        kinds = [kind for kind, __ in identity.items()]
        assert set(kinds) == set(IdentifierKind)

    def test_identities_differ_across_seeds(self):
        a = DeviceIdentity.generate(Random(1))
        b = DeviceIdentity.generate(Random(2))
        assert a.imei != b.imei or a.android_id != b.android_id
