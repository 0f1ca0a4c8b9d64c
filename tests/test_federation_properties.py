"""Property tests for the federation invariants the chaos sweep leans on."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.aggregate import FederatedAggregator
from repro.federation.ingest import FleetIngest, IngestConfig, ReportStatus
from repro.federation.report import DeviceReport, encode_report, token_for
from tests.conftest import make_packet


def envelope(seq: int, device_id: str = "device-00001"):
    packet = make_packet(target="/track?udid=x")
    report = DeviceReport(
        device_id=device_id, seq=seq, token=token_for(packet), packet=packet
    )
    return encode_report(report)


#: An arbitrary per-device submission stream: sequence numbers with
#: duplicates, replays, gaps, and disorder all on the table.
seq_streams = st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=60)


class TestLedgerDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(seqs=seq_streams, window=st.integers(min_value=1, max_value=8))
    def test_same_stream_same_ledger(self, seqs, window):
        # Replay defense is a pure function of the submitted stream: two
        # ingests fed identical streams agree on every verdict and counter.
        config = IngestConfig(dedup_window=window)
        a, b = FleetIngest(config), FleetIngest(config)
        verdicts_a = [a.submit(envelope(seq), tick=float(i)).status for i, seq in enumerate(seqs)]
        verdicts_b = [b.submit(envelope(seq), tick=float(i)).status for i, seq in enumerate(seqs)]
        assert verdicts_a == verdicts_b
        assert a.stats() == b.stats()

    @settings(max_examples=40, deadline=None)
    @given(seqs=seq_streams, window=st.integers(min_value=1, max_value=8))
    def test_repeat_rejections_classified_by_window(self, seqs, window):
        # Every re-submission of an already-seen number is rejected, and
        # the window decides the label: recent -> DUPLICATE, old -> REPLAY.
        ingest = FleetIngest(IngestConfig(dedup_window=window, breaker_threshold=10_000))
        accepted: list[int] = []
        for i, seq in enumerate(seqs):
            result = ingest.submit(envelope(seq), tick=float(i))
            if result.accepted:
                accepted.append(seq)
            elif seq in accepted:
                recent = set(accepted[-window:])
                expected = (
                    ReportStatus.REJECTED_DUPLICATE
                    if seq in recent
                    else ReportStatus.REJECTED_REPLAY
                )
                assert result.status is expected


class TestSequenceMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(seqs=seq_streams)
    def test_accepted_seqs_strictly_increase(self, seqs):
        # Whatever a device throws at ingest, the accepted subsequence is
        # strictly increasing and never admits the same number twice.
        ingest = FleetIngest(IngestConfig(breaker_threshold=10_000))
        accepted = [
            seq
            for i, seq in enumerate(seqs)
            if ingest.submit(envelope(seq), tick=float(i)).accepted
        ]
        assert accepted == sorted(set(accepted))

    @settings(max_examples=40, deadline=None)
    @given(seqs=seq_streams)
    def test_first_occurrence_of_new_maximum_always_lands(self, seqs):
        # The flip side: monotonicity only ever discards stale numbers —
        # every new per-device maximum is accepted (liveness).
        ingest = FleetIngest(IngestConfig(breaker_threshold=10_000))
        watermark = 0
        for i, seq in enumerate(seqs):
            result = ingest.submit(envelope(seq), tick=float(i))
            if seq > watermark:
                assert result.accepted
                watermark = seq


contribution_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # device index
        st.integers(min_value=0, max_value=9),  # token index
    ),
    min_size=1,
    max_size=80,
)


class TestContributionCap:
    @settings(max_examples=40, deadline=None)
    @given(stream=contribution_streams, cap=st.integers(min_value=1, max_value=4))
    def test_no_device_exceeds_cap(self, stream, cap):
        agg = FederatedAggregator(contribution_cap=cap)
        for i, (device, token) in enumerate(stream):
            agg.accept(
                DeviceReport(
                    device_id=f"device-{device:05d}",
                    seq=i + 1,
                    token=f"token-{token}",
                    packet=make_packet(),
                )
            )
        for device in range(6):
            assert agg.store.device_token_count(f"device-{device:05d}") <= cap

    @settings(max_examples=40, deadline=None)
    @given(stream=contribution_streams, cap=st.integers(min_value=1, max_value=4))
    def test_support_never_exceeds_distinct_contributors(self, stream, cap):
        agg = FederatedAggregator(contribution_cap=cap)
        for i, (device, token) in enumerate(stream):
            agg.accept(
                DeviceReport(
                    device_id=f"device-{device:05d}",
                    seq=i + 1,
                    token=f"token-{token}",
                    packet=make_packet(),
                )
            )
        devices_per_token: dict[str, set[str]] = {}
        for device, token in stream:
            devices_per_token.setdefault(f"token-{token}", set()).add(f"device-{device:05d}")
        for token, devices in devices_per_token.items():
            assert agg.store.support(token) <= len(devices)
