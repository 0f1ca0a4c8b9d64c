"""The calibrated corpus: population + device + captured trace.

:func:`build_corpus` with its default size reproduces the paper's
experimental input at full scale (1,188 apps, ~108k packets, ~22%
sensitive); :func:`mini_corpus` builds a proportionally scaled-down
corpus for tests and quick examples.
The published headline figures are kept here as constants so benches and
tests can assert band tolerances against a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.app import Application
from repro.android.device import Device
from repro.android.market import AppMarket, MarketConfig
from repro.dataset.trace import Trace
from repro.sensitive.payload_check import PayloadCheck
from repro.simulation.collector import TrafficCollector
from repro.simulation.rng import derive_rng
from repro.simulation.session import SessionConfig

#: Published corpus-level figures (paper Sections III and V-A).
PAPER_TOTAL_APPS = 1188
PAPER_TOTAL_PACKETS = 107_859
PAPER_SENSITIVE_PACKETS = 23_309
PAPER_SENSITIVE_FRACTION = PAPER_SENSITIVE_PACKETS / PAPER_TOTAL_PACKETS  # ~0.216
PAPER_MEAN_DESTINATIONS = 7.9
PAPER_MAX_DESTINATIONS = 84

#: Published Table II rows: domain -> (packets, apps).
PAPER_TABLE2: dict[str, tuple[int, int]] = {
    "doubleclick.net": (5786, 407),
    "admob.com": (1299, 401),
    "google-analytics.com": (3098, 353),
    "gstatic.com": (1387, 333),
    "google.com": (3604, 308),
    "yahoo.co.jp": (1756, 287),
    "ggpht.com": (940, 281),
    "googlesyndication.com": (938, 244),
    "ad-maker.info": (3391, 195),
    "nend.net": (1368, 192),
    "mydas.mobi": (332, 164),
    "amoad.com": (583, 116),
    "flurry.com": (335, 119),
    "microad.jp": (868, 103),
    "adwhirl.com": (548, 102),
    "i-mobile.co.jp": (3729, 100),
    "adlantis.jp": (237, 98),
    "naver.jp": (3390, 82),
    "adimg.net": (315, 72),
    "mbga.jp": (1048, 63),
    "rakuten.co.jp": (502, 56),
    "fc2.com": (163, 52),
    "medibaad.com": (1162, 49),
    "mediba.jp": (427, 48),
    "mobclix.com": (260, 48),
    "gree.jp": (228, 45),
}

#: Published Table III rows: label -> (packets, apps, destinations).
PAPER_TABLE3: dict[str, tuple[int, int, int]] = {
    "ANDROID_ID": (7590, 21, 75),
    "ANDROID_ID MD5": (10058, 433, 21),
    "ANDROID_ID SHA1": (1247, 47, 12),
    "CARRIER": (2095, 135, 44),
    "IMEI": (3331, 171, 94),
    "IMEI MD5": (692, 59, 15),
    "IMEI SHA1": (1062, 51, 13),
    "IMSI": (655, 16, 22),
    "SIM_SERIAL": (369, 13, 18),
}


@dataclass
class Corpus:
    """A fully built experimental corpus.

    :param apps: the application population.
    :param device: the capture device (its identity is the ground truth).
    :param trace: the captured traffic.
    """

    apps: list[Application]
    device: Device
    trace: Trace

    def payload_check(self) -> PayloadCheck:
        """The ground-truth labeler for this corpus's device."""
        return PayloadCheck(self.device.identity)

    @property
    def n_apps(self) -> int:
        return len(self.apps)


def build_corpus(
    n_apps: int = PAPER_TOTAL_APPS,
    seed: int = 0,
    *,
    market_config: MarketConfig | None = None,
    session_config: SessionConfig | None = None,
) -> Corpus:
    """Build a corpus of ``n_apps`` applications.

    Permission mix, service adoption, and traffic rates all scale
    proportionally from the paper's 1,188-app reference, so the corpus
    statistics (sensitive fraction, fan-out shape, destination mass
    ranking) are size-invariant in expectation.
    """
    config = market_config or MarketConfig(n_apps=n_apps)
    market = AppMarket(config, seed=seed)
    apps = market.build()
    device = Device.generate(derive_rng(seed, "device"))
    collector = TrafficCollector(device, seed=seed, session_config=session_config)
    trace = collector.collect(apps)
    return Corpus(apps=apps, device=device, trace=trace)


def mini_corpus(seed: int = 0, n_apps: int = 90) -> Corpus:
    """A small corpus for tests and examples (same shape, ~8% scale)."""
    return build_corpus(n_apps, seed)
