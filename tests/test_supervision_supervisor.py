"""Restart-with-resume supervision: breaker wiring, budgets, health."""

import pytest

from repro.core.pipeline import DetectionPipeline
from repro.errors import SupervisionError
from repro.obs import Observability
from repro.reliability.retry import BreakerState, CircuitBreaker
from repro.signatures.store import SignatureStore
from repro.supervision import CheckpointStore, CrashPlan, Supervisor

N_SAMPLE = 24
SEED = 3


@pytest.fixture(scope="module")
def labeler(small_corpus):
    return small_corpus.payload_check()


@pytest.fixture(scope="module")
def baseline_signatures(small_corpus, labeler):
    result = DetectionPipeline(small_corpus.trace, labeler).run(N_SAMPLE, seed=SEED)
    return SignatureStore.dumps(result.signatures)


def staged(small_corpus, labeler, **kwargs):
    return DetectionPipeline(small_corpus.trace, labeler, store=CheckpointStore(), **kwargs)


class TestSupervisor:
    def test_clean_run_single_attempt(self, small_corpus, labeler, baseline_signatures):
        outcome = Supervisor(staged(small_corpus, labeler)).run(N_SAMPLE, seed=SEED)
        assert outcome.attempts == 1
        assert outcome.restarts == 0
        assert not outcome.recovered
        assert SignatureStore.dumps(outcome.result.signatures) == baseline_signatures

    def test_absorbs_every_crash_and_matches_baseline(
        self, small_corpus, labeler, baseline_signatures
    ):
        plan = CrashPlan.after("payload_check", "distance_matrix", "cut")
        outcome = Supervisor(staged(small_corpus, labeler, crash_plan=plan)).run(
            N_SAMPLE, seed=SEED
        )
        assert outcome.attempts == 4
        assert outcome.restarts == 3
        assert outcome.recovered
        assert outcome.crashes == ["payload_check", "distance_matrix", "cut"]
        assert SignatureStore.dumps(outcome.result.signatures) == baseline_signatures

    def test_breaker_trips_and_waits_out_cooldown(self, small_corpus, labeler):
        # 4 crashes against a threshold of 2: the breaker must trip and
        # the supervisor must spend cooldown ticks before probing on.
        plan = CrashPlan.after("collect", "payload_check", "sample", "linkage")
        breaker = CircuitBreaker(failure_threshold=2, cooldown=16.0)
        obs = Observability.create(seed=SEED)
        supervisor = Supervisor(
            staged(small_corpus, labeler, crash_plan=plan), breaker=breaker, obs=obs
        )
        outcome = supervisor.run(N_SAMPLE, seed=SEED)
        assert outcome.restarts == 4
        assert breaker.trips >= 1
        assert obs.counter("supervisor_breaker_waits") >= 1
        assert outcome.ticks > 16.0  # at least one cooldown was waited out
        # after success the breaker is closed again
        assert breaker.state(supervisor.tick) is BreakerState.CLOSED

    def test_restart_budget_exhaustion_raises(self, small_corpus, labeler):
        # rate=1.0 crashes after every executed stage, forever outpacing
        # a tiny restart budget.
        plan = CrashPlan(seed=1, rate=1.0)
        supervisor = Supervisor(
            staged(small_corpus, labeler, crash_plan=plan), max_restarts=2
        )
        with pytest.raises(SupervisionError, match="still crashing"):
            supervisor.run(N_SAMPLE, seed=SEED)

    def test_rate_based_crashes_eventually_complete(
        self, small_corpus, labeler, baseline_signatures
    ):
        # Each boundary draws per-occurrence, so repeated resumes pass a
        # rate-based plan with probability approaching 1: checkpoints
        # shrink the exposed surface every attempt.
        plan = CrashPlan(seed=5, rate=0.5)
        outcome = Supervisor(
            staged(small_corpus, labeler, crash_plan=plan), max_restarts=32
        ).run(N_SAMPLE, seed=SEED)
        assert SignatureStore.dumps(outcome.result.signatures) == baseline_signatures

    def test_obs_recovery_counters_and_spans(self, small_corpus, labeler):
        plan = CrashPlan.after("sample", "cut")
        obs = Observability.create(seed=SEED)
        Supervisor(staged(small_corpus, labeler, crash_plan=plan), obs=obs).run(
            N_SAMPLE, seed=SEED
        )
        assert obs.counter("supervisor_restarts") == 2
        assert obs.counter("supervisor_completions") == 1
        attempts = obs.tracer.spans_named("supervisor_attempt")
        assert [span.attrs["attempt"] for span in attempts] == [1, 2, 3]

    def test_health_snapshot(self, small_corpus, labeler):
        supervisor = Supervisor(staged(small_corpus, labeler))
        supervisor.run(N_SAMPLE, seed=SEED)
        health = supervisor.health()
        assert health["breaker_state"] == "closed"
        assert health["consecutive_failures"] == 0
        assert health["trips"] == 0
        assert len(health["checkpointed_stages"]) == 7

    def test_rejects_negative_budget(self, small_corpus, labeler):
        with pytest.raises(SupervisionError):
            Supervisor(staged(small_corpus, labeler), max_restarts=-1)

    def test_rejects_pipeline_without_store(self, small_corpus, labeler):
        with pytest.raises(SupervisionError, match="checkpoint store"):
            Supervisor(DetectionPipeline(small_corpus.trace, labeler))
