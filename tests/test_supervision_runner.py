"""The checkpointed detection pipeline: crash, resume, bit-identity.

The acceptance invariant lives here: a resumed run re-executes only
stages downstream of the last checkpoint (asserted via obs span counts)
and its outputs are byte-identical to an uninterrupted run.
"""

import pytest

from repro.core.pipeline import (
    PIPELINE_STAGES,
    DetectionPipeline,
    PipelineConfig,
    config_fingerprint,
)
from repro.errors import SignatureError, SupervisionError
from repro.obs import Observability
from repro.reliability.workerfaults import WorkerFaultPlan
from repro.signatures.store import SignatureStore
from repro.simulation.corpus import mini_corpus
from repro.supervision import CheckpointStore, CrashPlan, InjectedCrash

N_SAMPLE = 24
SEED = 3


@pytest.fixture(scope="module")
def labeler(small_corpus):
    return small_corpus.payload_check()


@pytest.fixture(scope="module")
def baseline(small_corpus, labeler):
    result = DetectionPipeline(small_corpus.trace, labeler).run(N_SAMPLE, seed=SEED)
    return SignatureStore.dumps(result.signatures), result.metrics


def checkpointed(small_corpus, labeler, store=None, **kwargs):
    store = CheckpointStore() if store is None else store
    return DetectionPipeline(small_corpus.trace, labeler, store=store, **kwargs)


class TestStagedRun:
    def test_matches_plain_pipeline(self, small_corpus, labeler, baseline):
        result = checkpointed(small_corpus, labeler).run(N_SAMPLE, seed=SEED)
        assert SignatureStore.dumps(result.signatures) == baseline[0]
        assert result.metrics == baseline[1]
        assert result.stages_executed == list(PIPELINE_STAGES)
        assert result.stages_replayed == []

    def test_second_run_replays_everything(self, small_corpus, labeler):
        pipeline = checkpointed(small_corpus, labeler)
        first = pipeline.run(N_SAMPLE, seed=SEED)
        second = pipeline.run(N_SAMPLE, seed=SEED)
        assert second.stages_executed == []
        assert second.stages_replayed == list(PIPELINE_STAGES)
        assert SignatureStore.dumps(second.signatures) == SignatureStore.dumps(
            first.signatures
        )

    def test_different_seed_misses_checkpoints(self, small_corpus, labeler):
        pipeline = checkpointed(small_corpus, labeler)
        pipeline.run(N_SAMPLE, seed=SEED)
        other = pipeline.run(N_SAMPLE, seed=SEED + 1)
        assert other.stages_executed == list(PIPELINE_STAGES)

    def test_rejects_bad_sample_size(self, small_corpus, labeler):
        with pytest.raises(SignatureError):
            checkpointed(small_corpus, labeler).run(0)

    def test_shared_store_separates_corpora(self):
        # One store, two corpora, the same seed and config: the second run
        # must not replay the first corpus's stages.
        store = CheckpointStore()
        first, second = mini_corpus(seed=1, n_apps=30), mini_corpus(seed=2, n_apps=30)
        DetectionPipeline(first.trace, first.payload_check(), store=store).run(N_SAMPLE, seed=SEED)
        shared = DetectionPipeline(second.trace, second.payload_check(), store=store)
        result = shared.run(N_SAMPLE, seed=SEED)
        plain = DetectionPipeline(second.trace, second.payload_check()).run(N_SAMPLE, seed=SEED)
        assert result.stages_replayed == []
        assert SignatureStore.dumps(result.signatures) == SignatureStore.dumps(plain.signatures)
        assert result.metrics == plain.metrics

    def test_crash_plan_needs_a_store(self, small_corpus, labeler):
        with pytest.raises(SupervisionError):
            DetectionPipeline(small_corpus.trace, labeler, crash_plan=CrashPlan.after("cut"))


class TestCrashAndResume:
    @pytest.mark.parametrize("crash_stage", PIPELINE_STAGES)
    def test_resume_equals_uninterrupted(self, small_corpus, labeler, baseline, crash_stage):
        store = CheckpointStore()
        pipeline = checkpointed(
            small_corpus, labeler, store, crash_plan=CrashPlan.after(crash_stage)
        )
        with pytest.raises(InjectedCrash) as exc:
            pipeline.run(N_SAMPLE, seed=SEED)
        assert exc.value.stage == crash_stage
        # the crashed stage's own output made it into the journal
        assert store.stages[-1] == crash_stage
        result = pipeline.run(N_SAMPLE, seed=SEED)
        assert SignatureStore.dumps(result.signatures) == baseline[0]
        assert result.metrics == baseline[1]

    def test_resume_recomputes_only_downstream(self, small_corpus, labeler):
        # The span-count assertion from the acceptance criteria: after a
        # crash past distance_matrix, resume must not re-open spans for
        # any completed stage — each stage span appears exactly once
        # across both attempts.
        obs = Observability.create(seed=SEED)
        pipeline = checkpointed(
            small_corpus, labeler, crash_plan=CrashPlan.after("distance_matrix"), obs=obs
        )
        with pytest.raises(InjectedCrash):
            pipeline.run(N_SAMPLE, seed=SEED)
        result = pipeline.run(N_SAMPLE, seed=SEED)
        assert result.stages_replayed == ["collect", "payload_check", "sample", "distance_matrix"]
        assert result.stages_executed == ["linkage", "cut", "signature_gen"]
        for stage in PIPELINE_STAGES:
            ran = [s for s in obs.tracer.closed_spans if s.name == stage]
            assert len(ran) == 1, f"{stage} ran twice"
        assert obs.metrics.counters.get("pipeline_stage_executed", 0) == len(PIPELINE_STAGES)
        assert obs.metrics.counters.get("pipeline_stage_replayed", 0) == 4
        assert obs.metrics.counters.get("pipeline_injected_crashes", 0) == 1

    def test_cross_instance_resume_via_shared_store(self, small_corpus, labeler, baseline):
        store = CheckpointStore()
        crashy = checkpointed(small_corpus, labeler, store, crash_plan=CrashPlan.after("sample"))
        with pytest.raises(InjectedCrash):
            crashy.run(N_SAMPLE, seed=SEED)
        fresh = checkpointed(small_corpus, labeler, store)
        result = fresh.run(N_SAMPLE, seed=SEED)
        assert result.stages_replayed == ["collect", "payload_check", "sample"]
        assert SignatureStore.dumps(result.signatures) == baseline[0]


class TestComposition:
    def test_worker_faults_inside_checkpointed_run(self, small_corpus, labeler, baseline):
        pipeline = checkpointed(
            small_corpus,
            labeler,
            crash_plan=CrashPlan.after("distance_matrix"),
            fault_plan=WorkerFaultPlan.uniform(0.5, seed=7),
            chunk_pairs=16,
        )
        with pytest.raises(InjectedCrash):
            pipeline.run(N_SAMPLE, seed=SEED)
        result = pipeline.run(N_SAMPLE, seed=SEED)
        assert SignatureStore.dumps(result.signatures) == baseline[0]
        assert pipeline.server.engine.stats.faults_injected > 0
        assert pipeline.server.engine.stats.recovered

    def test_fingerprint_excludes_workers(self, small_corpus):
        serial = config_fingerprint(PipelineConfig(workers=1), N_SAMPLE)
        pooled = config_fingerprint(PipelineConfig(workers=4), N_SAMPLE)
        assert serial == pooled  # worker count never changes outputs
        assert config_fingerprint(PipelineConfig(), N_SAMPLE + 1) != serial
