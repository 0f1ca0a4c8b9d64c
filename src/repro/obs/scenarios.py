"""Seeded observed scenarios behind ``repro trace`` and ``repro metrics``.

Each scenario builds a synthetic corpus, runs a fully instrumented
workload — the offline detection pipeline for :func:`run_traced_pipeline`,
a distribution + serving round-trip for :func:`run_traced_serving` — and
writes the standard artifact set into one directory:

- ``spans.jsonl`` — the span tree, one JSON object per line;
- ``trace.json`` — Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or https://ui.perfetto.dev);
- ``metrics.prom`` — the metrics registry, Prometheus text exposition;
- ``stages.json`` — the :class:`~repro.obs.profile.StageProfile` rollup
  (pipeline scenario only).

Determinism is the contract: the tracer's wall clock stays off, so two
runs with the same arguments produce **byte-identical** files — CI's
``trace-smoke`` job asserts exactly that with ``diff -r``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs import Observability, export_chrome_trace, export_metrics_text, export_spans_jsonl
from repro.obs.profile import StageProfile


@dataclass(slots=True)
class ScenarioArtifacts:
    """What one observed scenario wrote, plus in-memory views for callers."""

    out_dir: Path
    paths: dict[str, Path]
    obs: Observability
    profile: StageProfile | None
    summary: dict[str, Any]


def run_traced_pipeline(
    *,
    n_apps: int = 60,
    sample: int = 40,
    seed: int = 0,
    workers: int = 1,
    out_dir: str | Path,
) -> ScenarioArtifacts:
    """Run one instrumented :class:`DetectionPipeline` pass and export.

    The pipeline result is bit-identical to an uninstrumented run with
    the same arguments (asserted by ``tests/test_obs_equivalence.py``);
    observation only *adds* the artifact files.
    """
    from repro.core.pipeline import DetectionPipeline, PipelineConfig
    from repro.simulation.corpus import build_corpus

    config = {
        "scenario": "pipeline",
        "n_apps": n_apps,
        "sample": sample,
        "workers": workers,
    }
    obs = Observability.create(seed=seed, config=config)
    corpus = build_corpus(n_apps=n_apps, seed=seed)
    pipeline = DetectionPipeline(
        corpus.trace,
        corpus.payload_check(),
        PipelineConfig(workers=workers),
        obs=obs,
    )
    result = pipeline.run(sample, seed=seed)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = obs.profile()
    paths = {
        "spans": export_spans_jsonl(obs.tracer, out_dir / "spans.jsonl"),
        "chrome": export_chrome_trace(obs.tracer, out_dir / "trace.json"),
        "metrics": export_metrics_text(obs.metrics, out_dir / "metrics.prom"),
    }
    stages_path = out_dir / "stages.json"
    stages_path.write_text(_stages_json(profile), encoding="utf-8")
    paths["stages"] = stages_path
    summary = {
        "run_id": obs.tracer.run_id,
        "n_apps": n_apps,
        "sample": result.n_sample,
        "seed": seed,
        "workers": workers,
        "n_signatures": len(result.signatures),
        "tp_percent": result.metrics.tp_percent,
        "fp_percent": result.metrics.fp_percent,
        "total_ticks": obs.tracer.tick,
        "n_spans": len(obs.tracer.closed_spans),
    }
    return ScenarioArtifacts(
        out_dir=out_dir, paths=paths, obs=obs, profile=profile, summary=summary
    )


def run_traced_serving(
    *,
    n_apps: int = 60,
    events: int = 1200,
    sample: int = 40,
    seed: int = 0,
    out_dir: str | Path,
) -> ScenarioArtifacts:
    """Run one instrumented serving round-trip and export its metrics.

    The scenario exercises every counter family sharing one registry:
    the server generates two signature versions, a
    :class:`~repro.core.distribution.SignatureChannel` publishes them, a
    :class:`~repro.core.distribution.SignatureFetcher` installs the set
    into a :class:`~repro.core.flowcontrol.FlowControlApp` (screening a
    slice of the corpus), a
    :class:`~repro.serving.gateway.ScreeningGateway` serves the full
    event stream with a mid-stream hot reload, and a
    :class:`~repro.service.server.SignatureService` runs one in-process
    endpoint episode (fetch / publish / screen / health) so the
    ``service_*`` counters and the ``service_request_ms`` histogram land
    in the same export.  The service episode feeds
    :meth:`~repro.service.server.SignatureService.observe_request` with
    synthetic latencies derived from the call index — no wall clock —
    so the artifact files stay byte-identical across runs.
    """
    from repro.core.distribution import SignatureChannel, SignatureFetcher
    from repro.core.flowcontrol import FlowControlApp
    from repro.core.server import ServerConfig, SignatureServer
    from repro.serving.gateway import GatewayConfig, ReloadEvent, ScreeningGateway
    from repro.serving.loadgen import FleetLoadGenerator, LoadProfile
    from repro.serving.telemetry import ServingTelemetry
    from repro.simulation.corpus import build_corpus

    config = {
        "scenario": "serving",
        "n_apps": n_apps,
        "events": events,
        "sample": sample,
    }
    obs = Observability.create(seed=seed, config=config)
    metrics = obs.metrics
    corpus = build_corpus(n_apps=n_apps, seed=seed)
    # Serial: the exported engine cache counters depend on chunk-to-worker
    # assignment under a pool, and these files must be byte-identical.
    server = SignatureServer(corpus.payload_check(), config=ServerConfig(workers=1), obs=obs)
    server.ingest(corpus.trace)
    v1 = server.generate(sample, seed=seed).signatures
    v2 = server.generate(sample, seed=seed + 1).signatures

    channel = SignatureChannel(metrics=metrics)
    env1 = channel.publish(v1)
    env2 = channel.publish(v2)

    fetcher = SignatureFetcher(channel, seed=seed, metrics=metrics)
    app = FlowControlApp.degraded(metrics=metrics)
    fetcher.fetch_into(app)
    for packet in corpus.trace.packets[: min(200, len(corpus.trace))]:
        app.screen(packet)

    gateway_config = GatewayConfig()
    telemetry = ServingTelemetry(metrics=metrics)
    gateway = ScreeningGateway(
        list(env1.signatures),
        config=gateway_config,
        telemetry=telemetry,
        set_version=env1.set_version,
    )
    generator = FleetLoadGenerator(corpus, LoadProfile(), seed=seed)
    stream = generator.events(events)
    midpoint = stream[len(stream) // 2].tick if stream else 0.0
    results = gateway.run(stream, reloads=[ReloadEvent(tick=midpoint, envelope=env2)])

    service_summary = _service_episode(
        metrics, corpus, v1=v1, v2=v2, events=events, seed=seed
    )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "metrics": export_metrics_text(metrics, out_dir / "metrics.prom"),
        "serving_spans": telemetry.export_jsonl(out_dir / "serving_spans.jsonl"),
        "spans": export_spans_jsonl(obs.tracer, out_dir / "spans.jsonl"),
    }
    summary = {
        "run_id": obs.tracer.run_id,
        "n_apps": n_apps,
        "events": len(results),
        "sample": sample,
        "seed": seed,
        "n_signatures": {"boot": len(v1), "reload": len(v2)},
        "screened": sum(1 for r in results if r.screened),
        "shed": sum(1 for r in results if not r.screened),
        "final_generation": gateway.generation,
        "final_version": gateway.set_version,
        "service": service_summary,
        "counters": dict(sorted(metrics.counters.items())),
    }
    return ScenarioArtifacts(
        out_dir=out_dir, paths=paths, obs=obs, profile=None, summary=summary
    )


def _service_episode(
    metrics: Any, corpus: Any, *, v1: list, v2: list, events: int, seed: int
) -> dict[str, Any]:
    """One in-process :class:`SignatureService` endpoint episode.

    Drives the HTTP-free endpoint methods directly against a service
    sharing the scenario's metrics registry, and accounts each call via
    :meth:`~repro.service.server.SignatureService.observe_request` with
    a synthetic latency (``2.0 + 1.5 * index`` ms) so the registry gains
    ``service_request_ms`` observations without any wall-clock reads.
    """
    from repro.service.server import ServiceConfig, SignatureService
    from repro.service.wire import encode_event
    from repro.serving.loadgen import FleetLoadGenerator, LoadProfile
    from repro.signatures.store import SignatureStore

    service = SignatureService(
        list(v1), config=ServiceConfig(seed=seed), metrics=metrics
    )
    service_events = [
        encode_event(event)
        for event in FleetLoadGenerator(corpus, LoadProfile(), seed=seed + 1).events(
            max(1, min(events // 4, 200))
        )
    ]
    calls: list[tuple[str, int]] = []

    status, _document, version = service.fetch()
    calls.append(("fetch", status))
    status, _body = service.publish(SignatureStore.dumps_envelope(list(v2), version + 1))
    calls.append(("publish", status))
    status, screen_body = service.screen({"events": service_events})
    calls.append(("screen", status))
    status, _body, _version = service.fetch(since=version + 1)
    calls.append(("fetch", status))
    for index, (route, status) in enumerate(calls):
        # Mirror the HTTP handler's accounting (route counter + request
        # observation) so the merged export reads the same either way.
        metrics.inc(f"service_requests_{route}")
        metrics.inc(f"service_responses_{status}")
        service.observe_request(route, status, 2.0 + 1.5 * index)
    status, health_body = service.health()
    calls.append(("health", status))
    metrics.inc("service_requests_health")
    metrics.inc(f"service_responses_{status}")
    service.observe_request("health", status, 2.0 + 1.5 * (len(calls) - 1))

    screen_reply = json.loads(screen_body) if isinstance(screen_body, bytes) else screen_body
    screened = sum(
        1 for result in screen_reply.get("results", []) if result.get("screened")
    )
    return {
        "run_id": service.run_id,
        "requests": [{"route": route, "status": status} for route, status in calls],
        "events": len(service_events),
        "screened": screened,
        "shed": len(service_events) - screened,
        "uptime_ticks": health_body["service"]["uptime_ticks"]
        if isinstance(health_body.get("service"), dict)
        else 0,
    }


def _stages_json(profile: StageProfile) -> str:
    import json

    return json.dumps(profile.to_dict(), indent=2, sort_keys=True) + "\n"
