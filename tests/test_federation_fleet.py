"""run_federation: the end-to-end crowdsourcing round."""

import pytest

from repro.errors import FederationError
from repro.federation.faults import DeviceFaultPlan
from repro.federation.fleet import run_federation
from repro.obs import Observability
from repro.signatures.matcher import SignatureMatcher


@pytest.fixture(scope="session")
def round_result(small_corpus):
    return run_federation(
        small_corpus, seed=3, n_devices=12, reports_per_device=6, min_support=2
    )


class TestRound:
    def test_all_honest_reports_accepted(self, round_result):
        assert round_result.ingest_stats["accepted"] == 12 * 6
        assert round_result.ingest_stats["devices_seen"] == 12

    def test_k_gate_admits_shared_tokens(self, round_result):
        assert round_result.admitted_tokens
        assert round_result.material_size >= len(round_result.admitted_tokens)

    def test_signatures_generated(self, round_result):
        assert round_result.signatures
        assert round_result.signature_bytes

    def test_fault_free_round_has_no_junk(self, round_result):
        assert round_result.fault_counts.get("malform", 0) == 0
        assert round_result.ingest_stats["counts"]["rejected_malformed"] == 0
        assert round_result.fabricated_pool == []


class TestDeterminism:
    def test_same_seed_same_signatures(self, small_corpus):
        kwargs = dict(seed=3, n_devices=8, reports_per_device=4, min_support=2)
        a = run_federation(small_corpus, **kwargs)
        b = run_federation(small_corpus, **kwargs)
        assert a.signature_bytes == b.signature_bytes
        assert a.sends == b.sends
        assert a.ingest_stats == b.ingest_stats

    def test_byte_identity_under_faults(self, small_corpus, round_result):
        # The tentpole invariant: a faulted fleet agrees byte-for-byte
        # with the fault-free fleet on what it signed.
        faulted = run_federation(
            small_corpus,
            seed=3,
            n_devices=12,
            reports_per_device=6,
            min_support=2,
            fault_plan=DeviceFaultPlan.uniform(0.4, seed=99),
        )
        assert faulted.fault_counts != round_result.fault_counts  # faults really fired
        assert faulted.sends > round_result.sends  # junk really hit the wire
        assert faulted.signature_bytes == round_result.signature_bytes
        assert faulted.admitted_tokens == round_result.admitted_tokens

    def test_poison_stays_out_of_material_but_lands_in_pool(self, small_corpus):
        result = run_federation(
            small_corpus,
            seed=3,
            n_devices=12,
            reports_per_device=6,
            min_support=2,
            fault_plan=DeviceFaultPlan(seed=5, poison=0.5),
        )
        assert result.fabricated_pool  # poison was accepted at ingest...
        assert not any(p.meta.get("fabricated") for p in result.material)  # ...never signed


class TestFleetVersusSingleDevice:
    def test_fleet_precision_at_least_single_device_under_poison(self, small_corpus, small_split):
        # One lab device has no crowd to corroborate against (min_support=1),
        # so its accepted poison reaches its signatures; the fleet's k-gate
        # keeps it out.  Both sets screen the labelled corpus plus every
        # fabrication either arm accepted.
        fleet = run_federation(
            small_corpus,
            seed=3,
            n_devices=12,
            reports_per_device=6,
            min_support=2,
            fault_plan=DeviceFaultPlan(seed=5, poison=0.5),
        )
        single = run_federation(
            small_corpus,
            seed=3,
            n_devices=1,
            reports_per_device=72,
            min_support=1,
            fault_plan=DeviceFaultPlan(seed=5, poison=0.5),
        )
        suspicious, normal = small_split
        negatives = [*normal, *fleet.fabricated_pool, *single.fabricated_pool]

        def precision(signatures):
            matcher = SignatureMatcher(signatures)
            hits = sum(matcher.match(p).matched for p in suspicious)
            false_hits = sum(matcher.match(p).matched for p in negatives)
            return hits / (hits + false_hits)

        assert single.fabricated_pool  # the poison really landed
        assert precision(fleet.signatures) >= precision(single.signatures)


class TestObservability:

    def test_obs_counters_emitted(self, small_corpus):
        obs = Observability.create(seed=3)
        run_federation(
            small_corpus, seed=3, n_devices=4, reports_per_device=3,
            min_support=2, obs=obs,
        )
        assert obs.metrics.counters.get("fed_ingest_accepted", 0) == 12
        assert obs.metrics.counters.get("fed_agg_counted", 0) > 0


class TestValidation:
    def test_zero_devices_rejected(self, small_corpus):
        with pytest.raises(FederationError):
            run_federation(small_corpus, n_devices=0)

    def test_zero_reports_rejected(self, small_corpus):
        with pytest.raises(FederationError):
            run_federation(small_corpus, reports_per_device=0)
