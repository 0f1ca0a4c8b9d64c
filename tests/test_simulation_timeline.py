"""Longitudinal simulation: day streams, activity, rollouts."""

import pytest

from repro.android.admodules import ADMAKER
from repro.android.services import Param, RequestTemplate, ServiceSpec
from repro.errors import SimulationError
from repro.sensitive.identifiers import IdentifierKind as IK
from repro.simulation.timeline import LongitudinalSimulator, Rollout


def admaker_v3() -> ServiceSpec:
    """A fictional AdMaker upgrade: new endpoint, hashed id."""
    from repro.sensitive.transforms import Transform as TF

    return ServiceSpec(
        name="admaker",
        category="ad",
        hosts=("api.ad-maker.info", "img.ad-maker.info"),
        ip_base="219.94.128.0",
        adoption_target=ADMAKER.adoption_target,
        packets_per_app=ADMAKER.packets_per_app,
        templates=(
            RequestTemplate(
                name="imp_v3",
                method="GET",
                path="/api/v3/impression",
                query=(
                    Param("k", "app_token", length=24),
                    Param.ident("h", IK.ANDROID_ID, TF.MD5, probability=0.95),
                    Param("n", "sequence"),
                ),
                weight=1.0,
            ),
        ),
    )


@pytest.fixture(scope="module")
def simulator():
    return LongitudinalSimulator(n_apps=40, seed=9, daily_activity=0.7)


class TestDayTraces:
    def test_deterministic_per_day(self, simulator):
        a = simulator.day_trace(2)
        b = simulator.day_trace(2)
        assert [p.request.target for p in a] == [p.request.target for p in b]

    def test_days_independent_of_simulation_order(self):
        sim_a = LongitudinalSimulator(n_apps=25, seed=4)
        sim_b = LongitudinalSimulator(n_apps=25, seed=4)
        sim_a.day_trace(0)  # consuming day 0 must not affect day 3
        day3_a = sim_a.day_trace(3)
        day3_b = sim_b.day_trace(3)
        assert [p.request.target for p in day3_a] == [p.request.target for p in day3_b]

    def test_different_days_differ(self, simulator):
        a = simulator.day_trace(0)
        b = simulator.day_trace(1)
        assert [p.request.target for p in a] != [p.request.target for p in b]

    def test_activity_rate_respected(self, simulator):
        active_counts = [len({p.app_id for p in simulator.day_trace(day)}) for day in range(4)]
        mean_active = sum(active_counts) / len(active_counts)
        assert mean_active == pytest.approx(0.7 * len(simulator.apps), rel=0.25)

    def test_timestamps_carry_day_offset(self, simulator):
        day2 = simulator.day_trace(2)
        assert all(2 * 86_400 <= p.timestamp < 3 * 86_400 for p in day2)
        assert all(p.meta["day"] == 2 for p in day2)

    def test_negative_day_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.day_trace(-1)

    def test_window_concatenates(self, simulator):
        window = simulator.window_trace(0, 2)
        assert len(window) == len(simulator.day_trace(0)) + len(simulator.day_trace(1))


class TestRollouts:
    @pytest.fixture(scope="class")
    def rolled(self):
        return LongitudinalSimulator(
            n_apps=40,
            seed=9,
            daily_activity=1.0,
            rollouts=[Rollout(service_name="admaker", day=3, new_spec=admaker_v3())],
        )

    def test_old_format_before_rollout(self, rolled):
        day0 = rolled.day_trace(0)
        targets = [p.request.target for p in day0 if p.meta.get("service") == "admaker"]
        assert targets
        assert all("/api/v2/" in t or "/creatives/" in t for t in targets)

    def test_new_format_from_rollout_day(self, rolled):
        day3 = rolled.day_trace(3)
        targets = [p.request.target for p in day3 if p.meta.get("service") == "admaker"]
        assert targets
        assert all("/api/v3/impression" in t for t in targets)

    def test_other_services_untouched(self, rolled):
        day3 = rolled.day_trace(3)
        nend = [p for p in day3 if p.meta.get("service") == "nend"]
        assert nend  # still emitting the original format
        assert all("na.php" in p.request.target or "banner" in p.request.target for p in nend)

    def test_invalid_rollout_day(self):
        with pytest.raises(SimulationError):
            Rollout(service_name="x", day=-1, new_spec=admaker_v3())

    def test_invalid_activity(self):
        with pytest.raises(SimulationError):
            LongitudinalSimulator(n_apps=5, daily_activity=0.0)


class TestAging:
    def test_signatures_age_across_rollout(self, rolled=None):
        """Signatures from week 1 lose the upgraded module's traffic in
        week 2 — the quantitative aging the longitudinal bench explores."""
        from repro.core.pipeline import DetectionPipeline
        from repro.sensitive.payload_check import PayloadCheck
        from repro.signatures.matcher import SignatureMatcher

        simulator = LongitudinalSimulator(
            n_apps=40,
            seed=9,
            daily_activity=1.0,
            rollouts=[Rollout(service_name="admaker", day=2, new_spec=admaker_v3())],
        )
        check = PayloadCheck(simulator.device.identity)
        week1 = simulator.day_trace(0)
        pipeline = DetectionPipeline(week1, check)
        result = pipeline.run(n_sample=min(80, pipeline.n_suspicious - 5), seed=1)
        matcher = SignatureMatcher(result.signatures)

        day3 = simulator.day_trace(3)
        new_admaker = [
            p for p in day3
            if p.meta.get("service") == "admaker" and check.is_sensitive(p)
        ]
        assert new_admaker
        caught = sum(matcher.is_sensitive(p) for p in new_admaker)
        assert caught / len(new_admaker) < 0.3  # the v3 format escapes
