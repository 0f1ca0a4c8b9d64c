"""Per-layer metrics of a traced run, derived from the span rollup.

Every workload reports every metric below; a layer that a workload never
enters reads 0 there, which is the benchmark's prediction that a change to
that layer leaves that workload alone.  Batch workloads report seconds per
repetition of their unit of work; service workloads report milliseconds per
call (or per screen request, where a call is per event or per batch).
Times measured in the workload or server process are scaled to the
reference CPU of :mod:`bench.speed` by the run's mean speed.
"""

from __future__ import annotations

from typing import Any

#: name -> unit, in report order.
LAYER_UNITS: dict[str, str] = {
    "sensitive.split_s": "s",
    "sensitive.packets": "count",
    "distance.matrix_s": "s",
    "distance.pairs": "count",
    "distance.pairs_per_s": "1/s",
    "distance.pair_hit_rate": "ratio",
    "distance.pair_misses": "count",
    "distance.extend_s": "s",
    "distance.stream_attach_s": "s",
    "distance.stream_compact_s": "s",
    "distance.cached_pairs": "count",
    "clustering.linkage_s": "s",
    "clustering.linkage_calls": "count",
    "clustering.linkage_max_n": "count",
    "clustering.cut_s": "s",
    "signatures.generate_s": "s",
    "signatures.n_signatures": "count",
    "signatures.screen_s": "s",
    "signatures.match_calls": "count",
    "signatures.envelope_verify_ms": "ms",
    "streaming.attach_s": "s",
    "streaming.compact_s": "s",
    "streaming.attach_pairs": "count",
    "streaming.compact_pairs": "count",
    "streaming.attach_probes": "count",
    "streaming.compactions": "count",
    "serving.gateway_run_ms": "ms",
    "serving.match_ms": "ms",
    "serving.reload_ms": "ms",
    "serving.batches": "count",
    "serving.shed": "count",
    "service.screen_wait_ms": "ms",
    "service.fetch_ms": "ms",
    "service.repo_read_ms": "ms",
    "service.repo_write_ms": "ms",
    "service.publish_ms": "ms",
    "service.ingest_wait_ms": "ms",
    "service.observe_ms": "ms",
    "service.not_modified_ratio": "ratio",
    "wire.decode_ms": "ms",
    "wire.encode_ms": "ms",
    "http.parse_ms": "ms",
    "http.handler_ms": "ms",
    "http.framing_ms": "ms",
    "http.queue_ms": "ms",
    "federation.submit_ms": "ms",
    "federation.accepted": "count",
    "federation.rejected": "count",
    "p90_ms": "ms",
    "p99_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.client_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.failed": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    table: dict[str, dict[str, float]],
    setup_table: dict[str, dict[str, float]],
    extras: dict[str, Any],
    *,
    reps: int,
    speed: float,
) -> dict[str, float]:
    """The :data:`LAYER_UNITS` values, except ``trace.overhead`` (needs two runs).

    :param table: rollup of the spans inside the timed phase.
    :param setup_table: rollup of the spans inside the set-up phase.
    :param extras: counters the workload read from the program (engine and
        streaming stats, a ``/metrics`` scrape, the load generator).
    :param reps: repetitions of the unit of work in the timed phase.
    :param speed: the process's mean speed relative to the reference CPU.
    """

    def row(name: str) -> dict[str, float]:
        return table.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "units": 0, "max_units": 0})

    def per_rep(name: str) -> float:
        return row(name)["self_s"] * speed / reps

    def per_call_ms(name: str, calls_of: str | None = None) -> float:
        return 1000.0 * speed * _ratio(row(name)["self_s"], row(calls_of or name)["calls"])

    split = setup_table.get("sensitive.split", {"calls": 0, "self_s": 0.0, "units": 0})
    distance_s = (row("distance.matrix")["self_s"] + row("distance.pairs")["self_s"]) * speed
    pairs = extras.get("pairs_evaluated", 0)
    counters = extras.get("counters", {})
    fetches = counters.get("repro_service_requests_fetch", 0)
    values = {
        "sensitive.split_s": speed * _ratio(split["self_s"], split["calls"]),
        "sensitive.packets": _ratio(split["units"], split["calls"]),
        "distance.matrix_s": per_rep("distance.matrix"),
        "distance.pairs": pairs / reps,
        "distance.pairs_per_s": _ratio(pairs, distance_s),
        "distance.pair_hit_rate": extras.get("pair_hit_rate", 0.0),
        "distance.pair_misses": extras.get("pair_misses", 0) / reps,
        "distance.extend_s": per_rep("distance.extend"),
        "distance.stream_attach_s": extras.get("stream_attach_s", 0.0) * speed / reps,
        "distance.stream_compact_s": extras.get("stream_compact_s", 0.0) * speed / reps,
        "distance.cached_pairs": extras.get("cached_pairs", 0),
        "clustering.linkage_s": per_rep("clustering.linkage"),
        "clustering.linkage_calls": row("clustering.linkage")["calls"] / reps,
        "clustering.linkage_max_n": row("clustering.linkage")["max_units"],
        "clustering.cut_s": per_rep("clustering.cut"),
        "signatures.generate_s": per_rep("signatures.generate"),
        "signatures.n_signatures": extras.get("n_signatures", 0),
        "signatures.screen_s": per_rep("signatures.screen"),
        "signatures.match_calls": (row("signatures.screen")["units"] + row("serving.match")["units"]) / reps,
        "signatures.envelope_verify_ms": per_call_ms("signatures.envelope_verify"),
        "streaming.attach_s": per_rep("streaming.ingest"),
        "streaming.compact_s": per_rep("streaming.compact"),
        "streaming.attach_pairs": extras.get("attach_pairs", 0) / reps,
        "streaming.compact_pairs": extras.get("compact_pairs", 0) / reps,
        "streaming.attach_probes": extras.get("attach_probes", 0) / reps,
        "streaming.compactions": extras.get("compactions", 0) / reps,
        "serving.gateway_run_ms": per_call_ms("serving.gateway_run"),
        "serving.match_ms": per_call_ms("serving.match", "serving.gateway_run"),
        "serving.reload_ms": per_call_ms("serving.reload"),
        "serving.batches": counters.get("repro_batches", 0),
        "serving.shed": counters.get("repro_shed", 0),
        "service.screen_wait_ms": per_call_ms("service.screen"),
        "service.fetch_ms": per_call_ms("service.fetch"),
        "service.repo_read_ms": per_call_ms("service.repo_read"),
        "service.repo_write_ms": per_call_ms("service.repo_write"),
        "service.publish_ms": per_call_ms("service.publish"),
        "service.ingest_wait_ms": per_call_ms("service.ingest"),
        "service.observe_ms": per_call_ms("service.observe"),
        "service.not_modified_ratio": _ratio(counters.get("repro_service_responses_304", 0), fetches),
        "wire.decode_ms": per_call_ms("wire.decode", "service.screen"),
        "wire.encode_ms": per_call_ms("wire.encode"),
        "http.parse_ms": per_call_ms("http.parse"),
        "http.handler_ms": per_call_ms("http.handler"),
        "http.framing_ms": extras.get("framing_ms", 0.0),
        "http.queue_ms": extras.get("queue_ms", 0.0),
        "federation.submit_ms": per_call_ms("federation.submit"),
        "federation.accepted": counters.get("repro_fed_ingest_accepted", 0),
        "federation.rejected": sum(
            value for name, value in counters.items() if name.startswith("repro_fed_ingest_rejected")
        ),
        "loadgen.late_p99_ms": extras.get("late_p99_ms", 0.0),
        "loadgen.client_ms": extras.get("client_ms", 0.0),
        "loadgen.sent": extras.get("sent", 0),
        "loadgen.failed": extras.get("failed", 0),
        "trace.coverage": extras.get("coverage", 0.0),
    }
    return values
