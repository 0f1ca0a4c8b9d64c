"""Device identifier getters behind the Binder."""

from random import Random

import pytest

from repro.android.device import Device
from repro.android.permissions import INTERNET, Manifest, READ_PHONE_STATE
from repro.errors import PermissionDenied
from repro.sensitive.identifiers import IdentifierKind


def manifest(*perms):
    return Manifest(package="jp.test.app", permissions=frozenset(perms))


@pytest.fixture
def device():
    return Device.generate(Random(9))


class TestGetters:
    def test_phone_state_getters_with_permission(self, device):
        m = manifest(INTERNET, READ_PHONE_STATE)
        assert device.get_device_id(m) == device.identity.imei
        assert device.get_subscriber_id(m) == device.identity.imsi
        assert device.get_sim_serial_number(m) == device.identity.sim_serial
        assert device.get_network_operator_name(m) == device.identity.carrier

    def test_phone_state_getters_denied(self, device):
        m = manifest(INTERNET)
        for getter in (
            device.get_device_id,
            device.get_subscriber_id,
            device.get_sim_serial_number,
            device.get_network_operator_name,
        ):
            with pytest.raises(PermissionDenied):
                getter(m)

    def test_android_id_needs_nothing(self, device):
        assert device.get_android_id(manifest()) == device.identity.android_id

    def test_read_identifier_generic(self, device):
        m = manifest(INTERNET, READ_PHONE_STATE)
        for kind in IdentifierKind:
            assert device.read_identifier(m, kind) == device.identity.value_of(kind)


class TestMetadata:
    def test_user_agent_mentions_device(self, device):
        assert device.model in device.user_agent
        assert device.android_version in device.user_agent

    def test_generate_is_deterministic(self):
        a = Device.generate(Random(1))
        b = Device.generate(Random(1))
        assert a.identity == b.identity
