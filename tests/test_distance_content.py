"""Content distance: the three NCD components and ablation flags."""

from repro.distance.content import ContentDistance
from tests.conftest import make_packet


class TestComponents:
    def test_identical_packets_near_zero(self):
        p = make_packet(target="/ad?u=abc123", cookie="sid=1", body=b"k=v")
        q = make_packet(target="/ad?u=abc123", cookie="sid=1", body=b"k=v")
        assert ContentDistance().distance(p, q) < 0.6  # tiny strings compress poorly

    def test_no_cookies_both_sides_contribute_zero(self):
        cd = ContentDistance()
        p = make_packet()
        q = make_packet()
        assert cd.cookie_distance(p, q) == 0.0

    def test_cookie_one_sided_is_max(self):
        cd = ContentDistance()
        p = make_packet(cookie="sid=abc")
        q = make_packet()
        assert cd.cookie_distance(p, q) == 1.0

    def test_body_distance_on_bytes(self):
        cd = ContentDistance()
        p = make_packet(body=b"imei=358537041234567&x=1" * 3)
        q = make_packet(body=b"imei=358537041234567&x=2" * 3)
        r = make_packet(body=b"completely unrelated binary \x00\x01\x02 payload" * 3)
        assert cd.body_distance(p, q) < cd.body_distance(p, r)

    def test_rline_distance_sensitive_to_path(self):
        cd = ContentDistance()
        p = make_packet(target="/api/v2/imp?sid=aaa")
        q = make_packet(target="/api/v2/imp?sid=bbb")
        r = make_packet(target="/completely/else?zz=1")
        assert cd.rline_distance(p, q) < cd.rline_distance(p, r)


class TestAblation:

    def test_disabled_component_ignored(self):
        p = make_packet(cookie="sid=aaaa")
        q = make_packet()  # no cookie -> cookie distance 1.0
        full = ContentDistance().distance(p, q)
        no_cookie = ContentDistance(use_cookie=False).distance(p, q)
        assert full > no_cookie

    def test_distance_bounded_by_component_count(self):
        cd = ContentDistance()
        p = make_packet(target="/a?x=1", cookie="c=1", body=b"b1")
        q = make_packet(target="/zz?y=2", cookie="d=2", body=b"b2")
        assert 0.0 <= cd.distance(p, q) <= 3.0
