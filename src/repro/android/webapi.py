"""Benign Web-API and content services, plus app-specific backends.

These populate the *normal* group of the dataset: search/API calls, image
and static-asset fetches, analytics beacons that carry only random client
ids.  They share destination space (and sometimes registered domains) with
the ad modules, which is what makes the detection problem non-trivial —
"googlesyndication.com" ad requests and "google.com" API calls are 16 IP
bits apart.
"""

from __future__ import annotations

from random import Random

from repro.android.services import Param, RequestTemplate, Service, ServiceSpec
from repro.sensitive.identifiers import IdentifierKind as IK
from repro.sensitive.transforms import Transform as TF

P = Param

GOOGLE_ANALYTICS = ServiceSpec(
    name="google_analytics",
    category="analytics",
    hosts=("www.google-analytics.com", "ssl.google-analytics.com"),
    ip_base="173.194.38.0",
    adoption_target=353,
    packets_per_app=8.8,
    templates=(
        RequestTemplate(
            name="utm",
            method="GET",
            path="/__utm.gif",
            query=(
                P("utmwv", "literal", literal="4.8.1ma"),
                P("utmn", "random_digits", length=10),
                P("utmcs", "literal", literal="UTF-8"),
                P("utmsr", "literal", literal="480x800"),
                P("utmac", "app_token", length=12),
                P("utmcc", "session_token", length=32),
                P("utme", "random_hex", length=18, probability=0.4),
            ),
            weight=1.0,
        ),
    ),
)

GOOGLE_API = ServiceSpec(
    name="google_api",
    category="webapi",
    hosts=("www.google.com", "maps.google.com", "ajax.googleapis.com"),
    ip_base="173.194.39.0",
    adoption_target=308,
    packets_per_app=11.7,
    templates=(
        RequestTemplate(
            name="search",
            method="GET",
            path="/m/search",
            query=(P("q", "random_hex", length=8), P("hl", "locale"), P("client", "literal", literal="ms-android")),
            weight=2.0,
        ),
        RequestTemplate(
            name="maps_tile",
            method="GET",
            path="/maps/api/staticmap",
            host_index=1,
            query=(
                P("center", "random_digits", length=7),
                P("zoom", "literal", literal="14"),
                P("size", "literal", literal="320x320"),
                P("sensor", "literal", literal="true"),
            ),
            weight=1.5,
        ),
        RequestTemplate(
            name="jsapi",
            method="GET",
            path="/ajax/libs/jquery/1.7.1/jquery.min.js",
            host_index=2,
            weight=0.8,
        ),
    ),
)

GSTATIC = ServiceSpec(
    name="gstatic",
    category="content",
    hosts=("t0.gstatic.com", "csi.gstatic.com"),
    ip_base="173.194.40.0",
    adoption_target=333,
    packets_per_app=4.2,
    templates=(
        RequestTemplate(
            name="asset",
            method="GET",
            path="/images",
            query=(P("q", "random_hex", length=24),),
            weight=2.0,
        ),
        RequestTemplate(
            name="csi",
            method="GET",
            path="/csi",
            host_index=1,
            query=(P("v", "literal", literal="3"), P("s", "package"), P("rt", "random_digits", length=6)),
            weight=1.0,
        ),
    ),
)

GGPHT = ServiceSpec(
    name="ggpht",
    category="content",
    hosts=("lh3.ggpht.com", "lh4.ggpht.com"),
    ip_base="173.194.42.0",
    adoption_target=281,
    packets_per_app=3.3,
    templates=(
        RequestTemplate(
            name="thumb",
            method="GET",
            path="/thumbnails",
            query=(P("id", "random_hex", length=28),),
            weight=1.0,
        ),
        RequestTemplate(
            name="thumb4",
            method="GET",
            path="/thumbnails",
            host_index=1,
            query=(P("id", "random_hex", length=28),),
            weight=0.7,
        ),
    ),
)

YAHOO_JP = ServiceSpec(
    name="yahoo_jp",
    category="webapi",
    hosts=("search.mobile.yahoo.co.jp", "i.yimg.jp"),
    ip_base="124.83.187.0",
    adoption_target=287,
    packets_per_app=6.1,
    templates=(
        RequestTemplate(
            name="api",
            method="GET",
            path="/onesearch",
            query=(
                P("appid", "app_token", length=20),
                P("query", "random_hex", length=6),
                P("results", "literal", literal="20"),
            ),
            weight=2.0,
        ),
        RequestTemplate(
            name="img",
            method="GET",
            path="/images/top/sp/logo.png",
            host_index=1,
            weight=1.0,
        ),
    ),
)

NAVER_JP = ServiceSpec(
    name="naver_jp",
    category="content",
    hosts=("m.naver.jp", "cache.naver.jp"),
    ip_base="125.209.222.0",
    adoption_target=82,
    packets_per_app=41.3,
    templates=(
        RequestTemplate(
            name="matome",
            method="GET",
            path="/matome/feed",
            query=(P("page", "sequence"), P("fmt", "literal", literal="json")),
            cookies=(P("NID_SES", "session_token", length=40),),
            weight=3.0,
        ),
        RequestTemplate(
            name="static",
            method="GET",
            path="/static/css/m.css",
            host_index=1,
            weight=1.0,
        ),
    ),
)

RAKUTEN = ServiceSpec(
    name="rakuten",
    category="webapi",
    hosts=("app.rakuten.co.jp", "image.rakuten.co.jp"),
    ip_base="133.237.16.0",
    adoption_target=56,
    packets_per_app=9.0,
    templates=(
        RequestTemplate(
            name="ichiba_api",
            method="GET",
            path="/services/api/IchibaItem/Search/20120123",
            query=(
                P("applicationId", "app_token", length=19),
                P("keyword", "random_hex", length=6),
                P("format", "literal", literal="json"),
            ),
            weight=2.0,
        ),
        RequestTemplate(
            name="item_img",
            method="GET",
            path="/img/item",
            host_index=1,
            query=(P("i", "random_digits", length=9),),
            weight=1.5,
        ),
    ),
)

FC2 = ServiceSpec(
    name="fc2",
    category="content",
    hosts=("blog.fc2.com",),
    ip_base="208.71.104.0",
    adoption_target=52,
    packets_per_app=3.1,
    templates=(
        RequestTemplate(
            name="entry",
            method="GET",
            path="/entry",
            query=(P("no", "random_digits", length=5),),
            cookies=(P("fc2_sid", "session_token", length=24),),
            weight=1.0,
        ),
    ),
)

MBGA = ServiceSpec(
    name="mbga",
    category="content",
    hosts=("img.mbga.jp", "sp.mbga.jp"),
    ip_base="202.238.103.0",
    adoption_target=45,
    packets_per_app=12.0,
    templates=(
        RequestTemplate(
            name="avatar",
            method="GET",
            path="/img/avatar",
            query=(P("u", "random_digits", length=8),),
            weight=2.0,
        ),
        RequestTemplate(
            name="portal",
            method="GET",
            path="/portal/top",
            host_index=1,
            cookies=(P("sp_sid", "session_token", length=32),),
            weight=1.0,
        ),
    ),
)

GREE = ServiceSpec(
    name="gree",
    category="webapi",
    hosts=("os-sp.gree.jp",),
    ip_base="210.157.1.0",
    adoption_target=45,
    packets_per_app=5.1,
    templates=(
        RequestTemplate(
            name="api",
            method="GET",
            path="/api/rest/people/@me/@self",
            query=(P("oauth_nonce", "random_hex", length=16), P("oauth_timestamp", "timestamp")),
            cookies=(P("gssid", "session_token", length=32),),
            weight=1.0,
        ),
    ),
)

MEDIBA_PORTAL = ServiceSpec(
    name="mediba_portal",
    category="content",
    hosts=("sp.mediba.jp",),
    ip_base="210.173.178.0",  # same operator block as medibaad.com
    adoption_target=48,
    packets_per_app=8.9,
    templates=(
        RequestTemplate(
            name="portal",
            method="GET",
            path="/news/list",
            query=(P("cat", "random_digits", length=2), P("page", "sequence")),
            cookies=(P("au_sid", "session_token", length=20),),
            weight=1.0,
        ),
    ),
)

#: All shared benign services.
WEB_SERVICES: tuple[ServiceSpec, ...] = (
    GOOGLE_ANALYTICS,
    GOOGLE_API,
    GSTATIC,
    GGPHT,
    YAHOO_JP,
    NAVER_JP,
    RAKUTEN,
    FC2,
    MBGA,
    GREE,
    MEDIBA_PORTAL,
)


# -- app-specific backends ------------------------------------------------------

_TLDS = ("com", "jp", "net", "co.jp", "info")


def make_own_backend(package: str, rng: Random, *, leaky: bool = False) -> Service:
    """A backend service unique to one application.

    Every app talks to one to three hosts of its own (its developer's API
    and CDN) — this is the long tail of destinations behind Fig 2's fan-out
    and most of the dataset's normal traffic.  With ``leaky=True`` the
    developer's own tracking endpoint also receives the plain Android ID or
    IMEI (a small number of apps do this in the paper: Table III counts
    75-94 distinct destinations for those identifiers, far more than there
    are ad networks).
    """
    stem = package.split(".")[-1][:12] or "app"
    tld = rng.choice(_TLDS)
    domain = f"{stem}-app.{tld}"
    hosts = [f"api.{domain}"]
    if rng.random() < 0.8:
        hosts.append(f"cdn.{domain}")
    base = f"{rng.randrange(1, 223)}.{rng.randrange(256)}.{rng.randrange(256)}.0"
    query: tuple[Param, ...] = (
        P("v", "literal", literal="1"),
        P("session", "session_token", length=16),
        P("r", "sequence"),
    )
    if leaky:
        # Developers copy what the ad SDKs do: some send the raw Android ID
        # or IMEI, others hash it first (paper Section III-B).
        choice = rng.random()
        if choice < 0.5:
            query = query + (P.ident("aid", IK.ANDROID_ID, probability=0.8),)
        elif choice < 0.75:
            query = query + (P.ident("huid", IK.ANDROID_ID, TF.MD5, probability=0.8),)
        else:
            query = query + (P.ident("dvid", IK.IMEI, probability=0.8),)
    templates: list[RequestTemplate] = [
        RequestTemplate(name="api", method="GET", path=f"/v1/{stem}/feed", query=query, weight=2.5),
    ]
    if len(hosts) > 1:
        templates.append(
            RequestTemplate(
                name="asset",
                method="GET",
                path="/assets/pack.json",
                host_index=1,
                query=(P("rev", "random_hex", length=8),),
                weight=1.5,
            )
        )
    spec = ServiceSpec(
        name=f"own:{domain}",
        category="own",
        hosts=tuple(hosts),
        ip_base=base,
        templates=tuple(templates),
        packets_per_app=0.0,  # rate decided by the app, not the catalog
    )
    return Service(spec)


def make_browser_service(index: int, rng: Random) -> Service:
    """One site visited through an app's embedded WebView browser."""
    tld = rng.choice(_TLDS)
    domain = f"site{index:03d}-news.{tld}"
    base = f"{rng.randrange(1, 223)}.{rng.randrange(256)}.{rng.randrange(256)}.0"
    spec = ServiceSpec(
        name=f"browser:{domain}",
        category="browser",
        hosts=(f"www.{domain}",),
        ip_base=base,
        templates=(
            RequestTemplate(
                name="page",
                method="GET",
                path="/index.html",
                query=(P("ref", "literal", literal="app"),),
                cookies=(P("sid", "session_token", length=18),),
                weight=1.0,
            ),
        ),
        packets_per_app=0.0,
    )
    return Service(spec)
