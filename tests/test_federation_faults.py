"""DeviceFaultPlan: seeded fleet-report fault injection."""

import pytest

from repro.errors import SimulationError
from repro.federation.faults import DeviceFaultKind, DeviceFaultPlan
from repro.federation.report import DeviceReport, decode_report, encode_report, token_for
from repro.errors import ReportValidationError
from tests.conftest import make_packet


def make_report(seq: int = 1, device_id: str = "device-00003") -> DeviceReport:
    packet = make_packet(target="/track?udid=abc")
    return DeviceReport(device_id=device_id, seq=seq, token=token_for(packet), packet=packet)


class TestRates:
    def test_negative_rate_rejected(self):
        with pytest.raises(SimulationError):
            DeviceFaultPlan(malform=-0.1)

    def test_rate_above_one_rejected(self):
        with pytest.raises(SimulationError):
            DeviceFaultPlan(poison=1.5)

    def test_sum_above_one_rejected(self):
        with pytest.raises(SimulationError):
            DeviceFaultPlan(malform=0.5, duplicate=0.4, replay=0.3)

    def test_uniform_splits_total_rate(self):
        plan = DeviceFaultPlan.uniform(0.4, seed=3)
        assert sum(plan.rates.values()) == pytest.approx(0.4)
        assert all(rate > 0 for rate in plan.rates.values())

    def test_uniform_full_rate_always_faults(self):
        plan = DeviceFaultPlan.uniform(1.0)
        outcomes = {plan.outcome("device-00001", seq) for seq in range(1, 200)}
        assert DeviceFaultKind.NONE not in outcomes
        assert len(outcomes) >= 4  # the mix actually spreads across the taxonomy

    def test_zero_rate_never_faults(self):
        plan = DeviceFaultPlan()
        assert all(
            plan.outcome("device-00001", seq) is DeviceFaultKind.NONE
            for seq in range(1, 50)
        )


class TestDeterminism:
    def test_outcome_is_pure_function_of_seed_and_labels(self):
        a = DeviceFaultPlan.uniform(0.5, seed=9)
        b = DeviceFaultPlan.uniform(0.5, seed=9)
        for seq in range(1, 100):
            assert a.outcome("device-00042", seq) is b.outcome("device-00042", seq)

    def test_different_seeds_differ(self):
        a = DeviceFaultPlan.uniform(0.5, seed=1)
        b = DeviceFaultPlan.uniform(0.5, seed=2)
        draws_a = [a.outcome("device-00042", seq) for seq in range(1, 100)]
        draws_b = [b.outcome("device-00042", seq) for seq in range(1, 100)]
        assert draws_a != draws_b

    def test_outcome_independent_of_other_devices(self):
        # Drawing for one device must not perturb another device's stream —
        # the property that keeps fleet-size changes from reshuffling faults.
        a = DeviceFaultPlan.uniform(0.5, seed=9)
        before = [a.outcome("device-00007", seq) for seq in range(1, 30)]
        for seq in range(1, 500):
            a.outcome("device-99999", seq)
        after = [a.outcome("device-00007", seq) for seq in range(1, 30)]
        assert before == after


class TestDraws:
    def test_malform_attempts_bounded(self):
        plan = DeviceFaultPlan.uniform(1.0, seed=5)
        attempts = {plan.malform_attempts("device-00001", seq) for seq in range(1, 100)}
        assert attempts <= {1, 2}
        assert len(attempts) == 2

    def test_replay_target_is_strictly_earlier(self):
        plan = DeviceFaultPlan.uniform(1.0, seed=5)
        for seq in range(2, 60):
            target = plan.replay_target("device-00001", seq)
            assert 1 <= target < seq
        assert plan.replay_target("device-00001", 1) == 1

    def test_flood_copies_bounded(self):
        plan = DeviceFaultPlan.uniform(1.0, seed=5)
        copies = {plan.flood_copies("device-00001", seq) for seq in range(1, 100)}
        assert copies <= {2, 3, 4, 5}

    def test_record_tallies_faults(self):
        plan = DeviceFaultPlan.uniform(0.5)
        plan.record(DeviceFaultKind.NONE)
        plan.record(DeviceFaultKind.POISON)
        plan.record(DeviceFaultKind.POISON)
        plan.record(DeviceFaultKind.FLOOD)
        assert plan.counts[DeviceFaultKind.POISON] == 2
        assert plan.counts[DeviceFaultKind.FLOOD] == 1
        assert plan.counts[DeviceFaultKind.NONE] == 1


class TestMangle:
    def test_every_mangled_envelope_fails_validation(self):
        # The MALFORM contract is "detected garbage": whatever corruption
        # mode the seed picks, validation must catch it.
        plan = DeviceFaultPlan.uniform(1.0, seed=7)
        record = encode_report(make_report(seq=3))
        reasons = set()
        for attempt in range(32):
            mangled = plan.mangle(record, "device-00003", 3, attempt)
            with pytest.raises(ReportValidationError) as err:
                decode_report(mangled)
            reasons.add(err.value.reason)
        # All three rejection categories get exercised across attempts.
        assert reasons == {"checksum", "version", "schema"}

    def test_mangle_does_not_mutate_original(self):
        plan = DeviceFaultPlan.uniform(1.0, seed=7)
        record = encode_report(make_report(seq=3))
        pristine = dict(record)
        for attempt in range(8):
            plan.mangle(record, "device-00003", 3, attempt)
        assert record == pristine
        decode_report(record)  # still valid


class TestFabricate:
    def test_fabrication_validates_cleanly(self):
        # Poison is the "silent lie" arm: the envelope must pass every
        # validation gate and only die at the min-support gate.
        plan = DeviceFaultPlan.uniform(1.0, seed=7)
        fake = plan.fabricate(make_report(seq=4), 9)
        decoded = decode_report(encode_report(fake))
        assert decoded.token == fake.token

    def test_fabrications_never_collide(self):
        plan = DeviceFaultPlan.uniform(1.0, seed=7)
        tokens = set()
        for device in ("device-00001", "device-00002"):
            for seq in range(1, 40):
                fake = plan.fabricate(make_report(seq=1, device_id=device), seq)
                tokens.add(fake.token)
        assert len(tokens) == 2 * 39  # every (device, seq) pair fabricates uniquely

    def test_fabrication_is_structurally_novel(self):
        plan = DeviceFaultPlan.uniform(1.0, seed=7)
        template = make_report(seq=4)
        fake = plan.fabricate(template, 9)
        assert fake.packet.meta.get("fabricated") is True
        assert fake.token.startswith("POISON ")
        assert fake.packet.request.path != template.packet.request.path
        assert fake.packet.wire_bytes() != template.packet.wire_bytes()

    def test_fabrication_is_deterministic(self):
        a = DeviceFaultPlan.uniform(1.0, seed=7)
        b = DeviceFaultPlan.uniform(1.0, seed=7)
        fake_a = a.fabricate(make_report(seq=4), 9)
        fake_b = b.fabricate(make_report(seq=4), 9)
        assert fake_a.token == fake_b.token
        assert fake_a.packet.wire_bytes() == fake_b.packet.wire_bytes()
