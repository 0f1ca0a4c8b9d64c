"""The deterministic tracer: logical ticks, nesting, run ids, rollups."""

import pytest

from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import Metrics
from repro.obs.profile import StageProfile
from repro.obs.tracer import Tracer, deterministic_run_id


class TestRunId:
    def test_same_inputs_same_id(self):
        a = deterministic_run_id(7, {"sample": 40})
        b = deterministic_run_id(7, {"sample": 40})
        assert a == b and len(a) == 16

    def test_config_and_seed_both_matter(self):
        base = deterministic_run_id(7, {"sample": 40})
        assert deterministic_run_id(8, {"sample": 40}) != base
        assert deterministic_run_id(7, {"sample": 41}) != base

    def test_key_order_does_not_matter(self):
        assert deterministic_run_id(0, {"a": 1, "b": 2}) == deterministic_run_id(
            0, {"b": 2, "a": 1}
        )

    def test_non_serializable_config_is_stringified(self):
        assert deterministic_run_id(0, object) == deterministic_run_id(0, object)


class TestSpans:
    def test_nesting_sets_parent_ids(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert t.children_of(outer) == [inner]

    def test_track_inherited_from_parent(self):
        t = Tracer()
        with t.span("outer", track="pipeline"):
            with t.span("inner") as inner:
                pass
            with t.span("elsewhere", track="engine") as other:
                pass
        assert inner.track == "pipeline"
        assert other.track == "engine"

    def test_open_close_each_cost_one_tick(self):
        t = Tracer()
        with t.span("empty") as span:
            pass
        assert span.start_tick == 0
        assert span.end_tick == 2
        assert span.duration_ticks == 2

    def test_advance_counts_work_units(self):
        t = Tracer()
        with t.span("work") as span:
            t.advance(10)
        assert span.duration_ticks == 12

    def test_negative_advance_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError):
            t.advance(-1)

    def test_span_ids_are_start_ordered(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
        assert [s.span_id for s in t.closed_spans] == [1, 2, 3]
        assert [s.name for s in t.spans_named("c")] == ["c"]

    def test_no_wall_clock_by_default(self):
        t = Tracer()
        with t.span("a") as span:
            pass
        assert span.wall_s is None

    def test_wall_clock_opt_in(self):
        t = Tracer(wall_clock=True)
        with t.span("a") as span:
            pass
        assert span.wall_s is not None and span.wall_s >= 0.0


class TestSpanRing:
    def test_unbounded_by_default(self):
        t = Tracer()
        for __ in range(100):
            with t.span("s"):
                pass
        assert len(t.spans) == 100 and t.evicted == 0

    def test_keeps_the_newest_spans_and_counts_the_rest(self):
        metrics = Metrics()
        t = Tracer(capacity=3, metrics=metrics)
        for __ in range(3):
            with t.span("s"):
                pass
        assert "trace_spans_evicted" not in metrics.counters
        for __ in range(2):
            with t.span("s"):
                pass
        assert [span.span_id for span in t.spans] == [3, 4, 5]
        assert t.evicted == 2
        assert metrics.counters["trace_spans_evicted"] == 2
        assert t.tick == 10  # the clock keeps counting over dropped spans

    def test_open_span_survives_its_eviction(self):
        t = Tracer(capacity=1)
        with t.span("outer") as outer:
            with t.span("inner"):
                pass
        assert outer.closed and [span.name for span in t.closed_spans] == ["inner"]

    def test_capacity_below_one_is_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestStageProfile:
    def test_self_time_subtracts_direct_children_only(self):
        t = Tracer()
        with t.span("root"):
            t.advance(5)
            with t.span("child"):
                t.advance(3)
                with t.span("grandchild"):
                    t.advance(2)
        profile = StageProfile.from_tracer(t)
        root = profile.stage("root")
        child = profile.stage("child")
        grandchild = profile.stage("grandchild")
        # grandchild: open+close+2 = 4; child: open+close+3+4 = 9
        assert grandchild.total_ticks == 4 and grandchild.self_ticks == 4
        assert child.total_ticks == 9 and child.self_ticks == 5
        assert root.self_ticks == root.total_ticks - child.total_ticks

    def test_repeated_stages_aggregate(self):
        t = Tracer()
        for __ in range(3):
            with t.span("chunk"):
                t.advance(1)
        profile = StageProfile.from_tracer(t)
        assert profile.stage("chunk").count == 3
        assert profile.stage("chunk").total_ticks == 9

    def test_render_lists_heaviest_first(self):
        t = Tracer(run_id="abc")
        with t.span("light"):
            pass
        with t.span("heavy"):
            t.advance(100)
        text = StageProfile.from_tracer(t).render()
        assert text.index("heavy") < text.index("light")
        assert "abc" in text

    def test_to_dict_is_key_sorted(self):
        t = Tracer()
        with t.span("zeta"):
            pass
        with t.span("alpha"):
            pass
        assert list(StageProfile.from_tracer(t).to_dict()["stages"]) == ["alpha", "zeta"]


class TestObservabilityBundle:
    def test_create_seeds_run_id(self):
        a = Observability.create(seed=3, config={"x": 1})
        b = Observability.create(seed=3, config={"x": 1})
        assert a.tracer.run_id == b.tracer.run_id

    def test_delegating_surface(self):
        obs = Observability.create(seed=0)
        with obs.span("stage") as span:
            obs.advance(4)
            obs.inc("widgets", 2)
            obs.observe("sizes", 1.0)
            obs.set_gauge("depth", 7)
        assert span.duration_ticks == 6
        assert obs.metrics.counters["widgets"] == 2
        assert obs.profile().stage("stage").count == 1

    def test_null_obs_is_inert(self):
        with NULL_OBS.span("anything", track="x", attr=1) as span:
            assert span is None
        NULL_OBS.advance(5)
        NULL_OBS.inc("c")
        NULL_OBS.observe("h", 1.0)
        NULL_OBS.set_gauge("g", 2)
        assert NULL_OBS.enabled is False
        with pytest.raises(RuntimeError):
            NULL_OBS.profile()
