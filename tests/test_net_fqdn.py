"""FQDN normalization and registered-domain extraction."""

import pytest

from repro.errors import ParseError
from repro.net.fqdn import normalize_host, registered_domain


class TestNormalize:
    def test_lowercases(self):
        assert normalize_host("Ads.AdMob.COM") == "ads.admob.com"

    def test_strips_trailing_dot_and_space(self):
        assert normalize_host(" example.com. ") == "example.com"

    @pytest.mark.parametrize("bad", ["", ".", "a..b", "ex ample.com", "exa$mple.com"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            normalize_host(bad)

    def test_allows_digits_and_dashes(self):
        assert normalize_host("lh3-cache2.ggpht.com") == "lh3-cache2.ggpht.com"


class TestRegisteredDomain:
    @pytest.mark.parametrize(
        "host,expected",
        [
            ("ads.admob.com", "admob.com"),
            ("googleads.g.doubleclick.net", "doubleclick.net"),
            ("admob.com", "admob.com"),
            ("search.yahooapis.jp", "yahooapis.jp"),
            ("app.rakuten.co.jp", "rakuten.co.jp"),
            ("a.b.c.rakuten.co.jp", "rakuten.co.jp"),
            ("sp.mbga.jp", "mbga.jp"),
            ("www.example.co.uk", "example.co.uk"),
            ("jp", "jp"),
        ],
    )
    def test_extraction(self, host, expected):
        assert registered_domain(host) == expected

    def test_case_insensitive(self):
        assert registered_domain("ADS.ADMOB.COM") == "admob.com"
