"""Binder reference monitor: grants, denials, and auditing."""

import pytest

from repro.android.binder import Binder
from repro.android.permissions import (
    ACCESS_FINE_LOCATION,
    INTERNET,
    Manifest,
    READ_PHONE_STATE,
)
from repro.errors import PermissionDenied


def manifest(*perms):
    return Manifest(package="jp.test.app", permissions=frozenset(perms))


class TestChecks:
    def test_phone_state_resources_gated(self):
        binder = Binder()
        with_perm = manifest(INTERNET, READ_PHONE_STATE)
        without = manifest(INTERNET)
        for resource in ("imei", "imsi", "sim_serial", "carrier"):
            assert binder.check(with_perm, resource)
            assert not binder.check(without, resource)

    def test_android_id_free(self):
        binder = Binder()
        assert binder.check(manifest(), "android_id")

    def test_location_gated(self):
        binder = Binder()
        assert binder.check(manifest(ACCESS_FINE_LOCATION), "location")
        assert not binder.check(manifest(INTERNET), "location")

    def test_network_gated_by_internet(self):
        binder = Binder()
        assert binder.check(manifest(INTERNET), "network")
        assert not binder.check(manifest(), "network")

    def test_unknown_resource_raises(self):
        binder = Binder()
        with pytest.raises(PermissionDenied):
            binder.check(manifest(INTERNET), "teleportation")


class TestRequire:
    def test_require_passes_silently(self):
        Binder().require(manifest(INTERNET, READ_PHONE_STATE), "imei")

    def test_require_raises_with_context(self):
        with pytest.raises(PermissionDenied) as exc_info:
            Binder().require(manifest(INTERNET), "imei")
        assert exc_info.value.app == "jp.test.app"
        assert "READ_PHONE_STATE" in exc_info.value.permission


class TestAudit:
    def test_audit_records_all_checks(self):
        binder = Binder(audit=True)
        binder.check(manifest(INTERNET, READ_PHONE_STATE), "imei")
        binder.check(manifest(INTERNET), "imei")
        assert len(binder.log) == 2
        assert binder.log[0].granted
        assert not binder.log[1].granted

    def test_no_audit_by_default(self):
        binder = Binder()
        binder.check(manifest(INTERNET), "imei")
        assert binder.log == []
