"""Trace containers, corpus statistics, and dataset splits.

- :class:`repro.dataset.trace.Trace` — an ordered packet collection with
  JSONL persistence,
- :mod:`repro.dataset.stats` — the analyses behind Tables I-III and Fig 2,
- :mod:`repro.dataset.split` — the suspicious/normal split and sampling
  used by the Fig 4 experiment.
"""

from repro.dataset.split import sample_packets
from repro.dataset.stats import (
    DestinationRow,
    SensitiveRow,
    destination_fanout,
    destination_table,
    fanout_summary,
    sensitive_table,
)
from repro.dataset.redact import TraceRedactor
from repro.dataset.trace import Trace

__all__ = [
    "Trace",
    "TraceRedactor",
    "destination_table",
    "DestinationRow",
    "sensitive_table",
    "SensitiveRow",
    "destination_fanout",
    "fanout_summary",
    "sample_packets",
]
