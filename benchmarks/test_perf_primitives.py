"""Performance benches for the core primitives.

Not tied to a paper table — these quantify the costs the paper's §IV
pipeline is built from, so regressions in the hot paths show up.
"""

import pytest

from repro.clustering.linkage import agglomerate
from repro.distance.matrix import distance_matrix
from repro.distance.ncd import NcdCalculator
from repro.distance.packet import PacketDistance
from repro.net.editdist import levenshtein
from repro.sensitive.payload_check import PayloadCheck
from repro.signatures.generator import SignatureGenerator
from repro.signatures.matcher import SignatureMatcher
from repro.signatures.tokens import common_substrings


@pytest.fixture(scope="module")
def sample_packets_200(ablation_corpus):
    check = ablation_corpus.payload_check()
    suspicious, __ = check.split(ablation_corpus.trace)
    return suspicious[:200]


def test_bench_ncd_cached(benchmark):
    calc = NcdCalculator()
    a = b"POST /aap.do HTTP/1.1 apiKey=0123456789&carrier=KDDI&events=" + b"ab" * 50
    b_ = b"POST /aap.do HTTP/1.1 apiKey=0123456789&carrier=KDDI&events=" + b"cd" * 50
    benchmark(lambda: calc.distance(a, b_))


def test_bench_levenshtein_hosts(benchmark):
    benchmark(lambda: levenshtein("googleads.g.doubleclick.net", "pagead2.googlesyndication.com"))


def test_bench_packet_distance(benchmark, sample_packets_200):
    metric = PacketDistance.paper()
    a, b = sample_packets_200[0], sample_packets_200[1]
    benchmark(lambda: metric.distance(a, b))


def test_bench_distance_matrix_100(benchmark, sample_packets_200):
    packets = sample_packets_200[:100]
    benchmark.pedantic(
        lambda: distance_matrix(packets, PacketDistance.paper()), rounds=1, iterations=1
    )


@pytest.fixture(scope="module")
def matrix_200(sample_packets_200):
    return distance_matrix(sample_packets_200, PacketDistance.paper())


def test_bench_clustering_200(benchmark, matrix_200):
    benchmark(lambda: agglomerate(matrix_200))


def test_bench_token_extraction(benchmark, sample_packets_200):
    texts = [p.canonical_text() for p in sample_packets_200[:20]]
    benchmark(lambda: common_substrings(texts, min_length=5))


def test_bench_token_extraction_cut_cluster(benchmark, sample_packets_200, matrix_200):
    """The largest cut cluster: many near-identical members, so most spans
    survive a member whole and a few split."""
    clusters = SignatureGenerator().clusters_from_dendrogram(
        agglomerate(matrix_200), sample_packets_200
    )
    texts = [p.canonical_text() for p in max(clusters, key=len)]
    assert len(texts) >= 20
    assert len(common_substrings(texts, min_length=5)) > 1  # some span split
    benchmark(lambda: common_substrings(texts, min_length=5))


def test_bench_matcher_screening(benchmark, ablation_corpus):
    from repro.baselines.variants import run_variant

    check = ablation_corpus.payload_check()
    result = run_variant(ablation_corpus.trace, check, "paper", 60, seed=8)
    matcher = SignatureMatcher(result.signatures)
    packets = ablation_corpus.trace.packets[:5000]
    benchmark.pedantic(lambda: matcher.screen(packets), rounds=2, iterations=1)


def test_bench_payload_check_single(benchmark, ablation_corpus):
    check = PayloadCheck(ablation_corpus.device.identity)
    packet = ablation_corpus.trace[0]
    benchmark(lambda: check.scan(packet))
