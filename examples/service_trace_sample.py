#!/usr/bin/env python3
"""A fixed, sequential request script for a traced ``repro service``.

It drives every route of a running service once or more, in one order,
over one keep-alive connection, so the server handles the requests one
after another on one thread.  With the service booted as::

    repro service --apps 40 --sample 30 --seed 0 \\
        --trace-dir trace_dir --ready-file service.addr

and stopped with SIGINT or SIGTERM after this script, ``spans.jsonl``
and ``trace.json`` in ``trace_dir`` come out byte-identical on every run.
That is how ``docs/trace_sample/service/`` is regenerated::

    python examples/service_trace_sample.py "$(cat service.addr)"

The script covers a request with a ``traceparent`` header and requests
without one, a ``304``, a ``409`` never-regress refusal and a ``400``.  It
exits nonzero when any status differs from the expected one.

Run:  python examples/service_trace_sample.py HOST:PORT
"""

import http.client
import json
import sys

from repro.federation.report import DeviceReport, encode_report, token_for
from repro.simulation.corpus import build_corpus

#: The one traced request's incoming context (a client span of trace ab..ab).
TRACEPARENT = f"00-{'ab' * 16}-{'cd' * 8}-01"


def main(address: str) -> int:
    host, __, port = address.rpartition(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30.0)

    def call(method, path, expected, payload=None, headers=None):
        body = None if payload is None else (
            payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        )
        sent = dict(headers or {})
        if body is not None:
            sent["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=sent)
        response = connection.getresponse()
        data = response.read()
        print(f"{method:<4} {path:<28} {response.status}")
        if response.status != expected:
            raise SystemExit(f"expected {expected} from {method} {path}: {data[:200]!r}")
        return data

    packets = build_corpus(n_apps=6, seed=0).trace.packets[:16]
    events = [
        {"seq": i, "tick": float(i), "device_id": "sample-device", "packet": p.to_dict()}
        for i, p in enumerate(packets)
    ]
    reports = [
        encode_report(
            DeviceReport(device_id="sample-device", seq=i + 1, token=token_for(p), packet=p)
        )
        for i, p in enumerate(packets[:4])
    ]

    call("GET", "/healthz", 200)
    document = call("GET", "/v1/signatures", 200, headers={"traceparent": TRACEPARENT})
    call("GET", "/v1/signatures?since=1", 304)
    call("GET", "/v1/signatures?since=latest", 400)
    call("POST", "/v1/screen", 200, {"events": events})
    republished = json.loads(document)
    republished["set_version"] = 2
    call("POST", "/v1/signatures", 201, republished)
    call("POST", "/v1/signatures", 409, document)
    call("POST", "/v1/reports", 200, {"reports": reports})
    call("GET", "/v1/signatures?since=1", 200)
    call("GET", "/metrics", 200)
    connection.close()
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))
