"""Population sampling: Table I mix, adoption, structure."""

import pytest

from repro.android.market import (
    PERMISSION_ROWS,
    REFERENCE_APP_COUNT,
    AppMarket,
    MarketConfig,
)
from repro.android.permissions import table1_counts
from repro.errors import SimulationError


@pytest.fixture(scope="module")
def population():
    return AppMarket(MarketConfig(n_apps=240), seed=5).build()


class TestPermissionMix:
    def test_full_scale_matches_table1_exactly(self):
        from repro.android.permissions import internet_only_count

        apps = AppMarket(MarketConfig(n_apps=REFERENCE_APP_COUNT), seed=1).build()
        counts = table1_counts([a.manifest for a in apps])
        # Strict "only INTERNET" (the paper's 302) plus the benign-extra
        # apps occupy the same four-flag row.
        assert internet_only_count([a.manifest for a in apps]) == 302
        extras = REFERENCE_APP_COUNT - sum(c for __, c in PERMISSION_ROWS)
        assert counts[(True, False, False, False)] == 302 + extras
        assert counts[(True, True, False, False)] == 329
        assert counts[(True, True, True, False)] == 153
        assert counts[(True, False, True, False)] == 148
        assert counts[(True, True, True, True)] == 23

    def test_dangerous_fraction_near_61_percent(self):
        apps = AppMarket(MarketConfig(n_apps=REFERENCE_APP_COUNT), seed=1).build()
        dangerous = sum(1 for a in apps if a.manifest.is_dangerous_combination)
        assert dangerous / len(apps) == pytest.approx(0.61, abs=0.01)

    def test_all_apps_have_internet(self, population):
        assert all(a.manifest.has_internet for a in population)

    def test_scaled_mix_proportional(self, population):
        counts = table1_counts([a.manifest for a in population])
        scale = 240 / REFERENCE_APP_COUNT
        assert counts[(True, True, False, False)] == pytest.approx(329 * scale, abs=2)


class TestStructure:
    def test_population_size(self, population):
        assert len(population) == 240

    def test_unique_packages(self, population):
        packages = [a.package for a in population]
        assert len(packages) == len(set(packages))

    def test_manifest_package_matches_app(self, population):
        assert all(a.manifest.package == a.package for a in population)

    def test_loners_have_single_host(self, population):
        loners = [
            a for a in population
            if not a.services and not a.browser_services and len(a.own_services) == 1
        ]
        single_host_loners = [a for a in loners if len(a.own_services[0].spec.hosts) == 1]
        assert single_host_loners  # some loner apps exist

    def test_browser_app_has_many_sites(self, population):
        browser_apps = [a for a in population if a.browser_services]
        assert len(browser_apps) == 1
        assert len(browser_apps[0].browser_services) >= 60

    def test_adoption_counts_scale(self, population):
        from repro.android.admodules import ADMOB

        adopters = [a for a in population if any(s.name == "admob" for s in a.services)]
        expected = ADMOB.adoption_target * 240 / REFERENCE_APP_COUNT
        assert len(adopters) == pytest.approx(expected, abs=2)

    def test_phone_biased_services_prefer_phone_apps(self, population):
        adopters = [a for a in population if any(s.name == "admaker" for s in a.services)]
        assert adopters
        with_phone = sum(
            1 for a in adopters
            if any(p.name == "READ_PHONE_STATE" for p in a.manifest.permissions)
        )
        # Population base rate is ~27%; the bias should push well above it.
        assert with_phone / len(adopters) > 0.45

    def test_deterministic(self):
        a = AppMarket(MarketConfig(n_apps=50), seed=3).build()
        b = AppMarket(MarketConfig(n_apps=50), seed=3).build()
        assert [x.package for x in a] == [x.package for x in b]
        assert [len(x.services) for x in a] == [len(x.services) for x in b]

    def test_seeds_differ(self):
        a = AppMarket(MarketConfig(n_apps=50), seed=3).build()
        b = AppMarket(MarketConfig(n_apps=50), seed=4).build()
        assert [len(x.services) for x in a] != [len(x.services) for x in b]


class TestConfigValidation:
    def test_zero_apps_rejected(self):
        with pytest.raises(SimulationError):
            MarketConfig(n_apps=0)

    def test_bad_loner_fraction_rejected(self):
        with pytest.raises(SimulationError):
            MarketConfig(loner_fraction=1.5)
