"""Ablation — NCD compressor backend.

The content distance is compressor-agnostic in definition; zlib (the
default), bz2 and lzma should produce equivalent detection within noise,
differing mainly in speed.  Asserted shape: all backends land in the same
TP band; zlib is the fastest (runtime is asserted and printed, not written
to the committed report).
"""

import time

import pytest

from benchmarks.conftest import ABLATION_SAMPLE, emit
from repro.baselines.variants import run_variant
from repro.distance.ncd import Compressor, ncd


@pytest.fixture(scope="module")
def results(ablation_corpus):
    check = ablation_corpus.payload_check()
    out = {}
    for variant in ("paper", "bz2", "lzma"):
        start = time.perf_counter()
        result = run_variant(ablation_corpus.trace, check, variant, ABLATION_SAMPLE, seed=11)
        out[variant] = (result, time.perf_counter() - start)
    return out


def test_detection_equivalent_across_compressors(results, benchmark):
    tps = [result.metrics.tp_percent for result, __ in results.values()]
    assert max(tps) - min(tps) < 15.0


def test_zlib_not_slower_than_lzma(results, benchmark):
    assert results["paper"][1] <= results["lzma"][1] * 1.5


def test_report(results, benchmark):
    # Wall time varies run to run, so it is printed but kept out of the
    # committed report, which must regenerate byte-identically.
    lines = ["Ablation — NCD compressor", f"{'variant':<10} {'TP%':>7} {'FP%':>7}"]
    for name, (result, elapsed) in results.items():
        lines.append(
            f"{name:<10} {result.metrics.tp_percent:>7.1f} {result.metrics.fp_percent:>7.2f}"
        )
        print(f"{name}: {elapsed:.2f} s")
    emit("ablation_compressor", "\n".join(lines))


@pytest.mark.parametrize("compressor", list(Compressor))
def test_bench_ncd_backends(benchmark, compressor):
    """Raw NCD throughput per backend on representative packet text."""
    a = b"GET /mads/gma?preqs=0&u_w=320&udid=67f51ad5c0234cc46a1b&app=jp.dev0001.puzzle HTTP/1.1" * 2
    b_ = b"GET /mads/gma?preqs=0&u_w=320&udid=67f51ad5c0234cc46a1b&app=jp.dev0002.camera HTTP/1.1" * 2
    benchmark(lambda: ncd(a, b_, compressor))
