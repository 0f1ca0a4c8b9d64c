"""``repro.supervision`` — checkpoints, crashes and restarts (DESIGN.md §6c).

The detection pipeline is a seven-stage batch job (collect → payload_check
→ sample → distance_matrix → linkage → cut → signature_gen); at production
corpus sizes a run is long enough that "the process died mid-run" is the
expected failure, not the exceptional one.
:class:`~repro.core.pipeline.DetectionPipeline` given a checkpoint store
is restartable without being non-deterministic; this package holds what
it and its supervisor need:

- :mod:`repro.supervision.checkpoint` — a content-addressed, verified, in-memory
  checkpoint store keyed by ``sha256(seed + config + inputs + stage)``;
  corrupt blobs degrade to recomputation;
- :mod:`repro.supervision.crash` — seeded inter-stage crash injection
  (:class:`CrashPlan`) that kills runs at checkpoint boundaries;
- :mod:`repro.supervision.supervisor` — :class:`Supervisor`, the
  restart-with-resume loop guarded by the reliability layer's
  :class:`~repro.reliability.retry.CircuitBreaker`.

The invariant everything here is tested against: a run recovered from any
combination of worker-chunk faults (crash/hang/poison, see
:mod:`repro.reliability.workerfaults`) and inter-stage crashes produces a
condensed distance matrix and signature set **byte-identical** to the
fault-free run with the same seed and configuration.
"""

from repro.supervision.checkpoint import CheckpointStore, JournalEntry, checkpoint_key
from repro.supervision.crash import CrashPlan, InjectedCrash
from repro.supervision.supervisor import SupervisedResult, Supervisor

__all__ = [
    "CheckpointStore",
    "CrashPlan",
    "InjectedCrash",
    "JournalEntry",
    "SupervisedResult",
    "Supervisor",
    "checkpoint_key",
]
