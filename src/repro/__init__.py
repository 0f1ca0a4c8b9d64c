"""repro — signature generation for sensitive-information leakage in
Android application HTTP traffic.

A from-scratch reproduction of Kuzuno & Tonami, "Signature Generation for
Sensitive Information Leakage in Android Applications" (2013).  The
package contains both the paper's contribution (HTTP packet distances,
group-average hierarchical clustering, conjunction-signature generation
and matching) and the full experimental substrate (a simulated Android
permission framework, advertisement-module wire formats, and a calibrated
1,188-app traffic corpus).

Quickstart::

    from repro import mini_corpus, DetectionPipeline

    corpus = mini_corpus(seed=7)
    pipeline = DetectionPipeline(corpus.trace, corpus.payload_check())
    result = pipeline.run(n_sample=60)
    print(f"TP {result.metrics.tp_percent:.1f}%  FP {result.metrics.fp_percent:.2f}%")
"""

from repro.core.distribution import (
    ChannelHealth,
    FetchResult,
    FetchStatus,
    SignatureFetcher,
)
from repro.core.flowcontrol import Decision, FlowControlApp, PolicyAction
from repro.core.pipeline import DetectionPipeline, PipelineConfig
from repro.core.server import SignatureServer
from repro.core.streaming import StreamingClusterer, StreamingConfig
from repro.distance.blocking import BlockingConfig, BlockingMode
from repro.reliability import (
    CircuitBreaker,
    FaultKind,
    FaultPlan,
    Quarantine,
    RetryPolicy,
    WorkerFaultPlan,
)
from repro.dataset.trace import Trace
from repro.distance.ncd import Compressor, ncd
from repro.distance.packet import PacketDistance
from repro.errors import ReproError
from repro.http.packet import Destination, HttpPacket
from repro.http.parser import parse_request
from repro.sensitive.identifiers import DeviceIdentity, IdentifierKind
from repro.sensitive.payload_check import PayloadCheck
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.matcher import ProbabilisticMatcher, SignatureMatcher
from repro.signatures.store import SignatureStore
from repro.service.server import ServiceServer, SignatureService
from repro.simulation.corpus import Corpus, build_corpus, mini_corpus, paper_corpus
from repro.supervision import CheckpointStore, CrashPlan, Supervisor

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # packets
    "HttpPacket",
    "Destination",
    "parse_request",
    "Trace",
    # sensitive information
    "DeviceIdentity",
    "IdentifierKind",
    "PayloadCheck",
    # distances
    "ncd",
    "Compressor",
    "PacketDistance",
    # signatures
    "ConjunctionSignature",
    "SignatureMatcher",
    "ProbabilisticMatcher",
    "SignatureStore",
    # system
    "SignatureServer",
    "FlowControlApp",
    "PolicyAction",
    "Decision",
    "DetectionPipeline",
    "PipelineConfig",
    # streaming blocked clustering
    "StreamingClusterer",
    "StreamingConfig",
    "BlockingConfig",
    "BlockingMode",
    # distribution & reliability
    "SignatureFetcher",
    "FetchResult",
    "FetchStatus",
    "ChannelHealth",
    "FaultPlan",
    "FaultKind",
    "RetryPolicy",
    "CircuitBreaker",
    "Quarantine",
    # supervised execution
    "WorkerFaultPlan",
    "CheckpointStore",
    "CrashPlan",
    "Supervisor",
    # network service
    "SignatureService",
    "ServiceServer",
    # corpus
    "Corpus",
    "build_corpus",
    "paper_corpus",
    "mini_corpus",
]
