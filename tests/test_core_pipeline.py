"""End-to-end pipeline on the shared small corpus."""

import pytest

from repro.core.pipeline import DetectionPipeline, PipelineConfig
from repro.distance.packet import PacketDistance


@pytest.fixture(scope="module")
def pipeline(request):
    small_corpus = request.getfixturevalue("small_corpus")
    return DetectionPipeline(small_corpus.trace, small_corpus.payload_check())


class TestPipeline:
    def test_population_counts(self, pipeline, small_corpus):
        assert pipeline.n_suspicious + pipeline.n_normal == len(small_corpus.trace)
        assert pipeline.n_suspicious > 0

    def test_run_produces_reasonable_detection(self, pipeline):
        result = pipeline.run(n_sample=50, seed=1)
        assert result.signatures
        assert result.metrics.true_positive_rate > 0.5
        assert result.metrics.false_positive_rate < 0.1
        assert result.n_sample == 50

    def test_training_packets_all_redetected(self, pipeline):
        from repro.signatures.matcher import SignatureMatcher

        result = pipeline.run(n_sample=40, seed=2)
        # Most sampled packets should be re-matched by their own signatures
        # (singleton outliers dropped by the cut are the exception).
        matcher = SignatureMatcher(result.signatures)
        generation = pipeline.server.generate(40, seed=2)
        redetected = sum(1 for p in generation.sample if matcher.is_sensitive(p))
        assert redetected >= 0.7 * 40

    def test_sweep_metrics_shape(self, pipeline):
        results = [pipeline.run(n, seed=i) for i, n in enumerate([20, 60])]
        assert len(results) == 2
        tp_small, tp_large = (r.metrics.true_positive_rate for r in results)
        # Larger samples cover more modules; allow small non-monotonic noise.
        assert tp_large >= tp_small - 0.1

    def test_custom_distance_config(self, small_corpus):
        config = PipelineConfig(distance=PacketDistance.content_only())
        pipeline = DetectionPipeline(small_corpus.trace, small_corpus.payload_check(), config)
        result = pipeline.run(n_sample=30, seed=1)
        assert result.metrics.true_positive_rate >= 0.0  # runs to completion
