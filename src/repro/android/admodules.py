"""Advertisement-module and analytics-service catalog.

One :class:`~repro.android.services.ServiceSpec` per network the paper's
Table II lists, with wire formats modelled on the real 2012 SDKs:
identifiers ride in query strings (AdMaker, i-mobile), form bodies (AdMob,
Flurry), and cookies (MicroAd).  Adoption targets and per-app packet rates
are the published Table II columns, so corpus-level marginals match the
paper by construction.

Leak assignments follow Section III-B where the paper is explicit
("ad-maker.info, mydas.mobi, medibaad.com, and adlantis.jp expect IMEI and
Android ID; zqapk.com expects IMEI, SIM Serial ID and Carrier name;
googlesyndication.com and admob.com expect only Android ID") and are
inferred from Table III's per-identifier app/packet masses elsewhere.
Identifier reads go through the Binder, so a module embedded in an app
without ``READ_PHONE_STATE`` silently omits IMEI/IMSI/SIM/carrier — the
emergent effect that makes hashed-Android-ID the most common leak, exactly
as in Table III.
"""

from __future__ import annotations

from repro.android.services import Param, RequestTemplate, ServiceSpec
from repro.sensitive.identifiers import IdentifierKind as IK
from repro.sensitive.transforms import Transform as TF

P = Param


def _spec(*args, **kwargs) -> ServiceSpec:
    return ServiceSpec(*args, **kwargs)


#: The AdMob/Google ads stack: one SDK, three registered domains.  Hashed
#: Android ID on every ad request -> the ANDROID_ID MD5 row of Table III.
ADMOB = _spec(
    name="admob",
    category="ad",
    hosts=("r.admob.com", "googleads.g.doubleclick.net", "pagead2.googlesyndication.com"),
    ip_base="173.194.41.0",
    adoption_target=410,
    packets_per_app=19.6,
    templates=(
        RequestTemplate(
            name="sdk_init",
            method="POST",
            path="/ad_source.php",
            host_index=0,
            body=(
                P.lit("v", "20110915-ANDROID-3312276cc1406347"),
                P("s", "app_token", length=32),
                P.ident("u", IK.ANDROID_ID, TF.MD5),
                P.lit("f", "jsonp"),
                P("pkg", "package"),
            ),
            once=True,
        ),
        RequestTemplate(
            name="banner",
            method="GET",
            path="/ad_frame.php",
            host_index=0,
            query=(
                P("s", "app_token", length=32),
                P.ident("u", IK.ANDROID_ID, TF.MD5, probability=0.9),
                P("seq", "sequence"),
                P.lit("f", "html"),
            ),
            weight=1.25,
        ),
        RequestTemplate(
            name="ad_request",
            method="GET",
            path="/mads/gma",
            host_index=1,
            query=(
                P.lit("preqs", "0"),
                P("u_w", "literal", literal="320"),
                P("u_h", "literal", literal="480"),
                P.lit("format", "320x50_mb"),
                P.lit("output", "html"),
                P("region", "literal", literal="mobile_app"),
                P("u_audio", "literal", literal="1"),
                P.ident("udid", IK.ANDROID_ID, TF.MD5, probability=0.99),
                P("uule_lat", "location_lat", probability=0.5),
                P("uule_lon", "location_lon", probability=0.5),
                P("app_name", "package"),
                P("hl", "locale"),
                P("ts", "timestamp"),
            ),
            weight=7.2,
        ),
        RequestTemplate(
            name="impression",
            method="GET",
            path="/pagead/adview",
            host_index=2,
            query=(
                P("ai", "random_hex", length=22),
                P("sigh", "random_hex", length=16),
                P.ident("cid", IK.ANDROID_ID, TF.MD5, probability=0.95),
            ),
            weight=2.6,
            app_gate=0.6,
        ),
        RequestTemplate(
            name="click_ping",
            method="GET",
            path="/aclk",
            host_index=1,
            query=(
                P("sa", "literal", literal="L"),
                P("ai", "random_hex", length=22),
                P("num", "sequence"),
                P("sig", "random_hex", length=27),
                P("adurl", "literal", literal="http%3A%2F%2Fexample.jp%2Fcp"),
            ),
            weight=0.9,
        ),
    ),
)

#: AdMaker (NOHANA): plain IMEI + plain Android ID in the query string —
#: the paper's canonical "expects IMEI and Android ID" module.
ADMAKER = _spec(
    name="admaker",
    category="ad",
    hosts=("api.ad-maker.info", "img.ad-maker.info"),
    ip_base="219.94.128.0",
    adoption_target=195,
    packets_per_app=17.4,
    templates=(
        RequestTemplate(
            name="begin_session",
            method="GET",
            path="/api/v2/session",
            query=(
                P("sid", "app_token", length=24),
                P.ident("imei", IK.IMEI),
                P.ident("aid", IK.ANDROID_ID),
                P("ver", "literal", literal="2.4.1"),
            ),
            once=True,
        ),
        RequestTemplate(
            name="imp",
            method="GET",
            path="/api/v2/imp",
            query=(
                P("sid", "app_token", length=24),
                P.ident("imei", IK.IMEI, probability=0.95),
                P.ident("aid", IK.ANDROID_ID, probability=0.95),
                P("frame", "literal", literal="banner"),
                P("seq", "sequence"),
            ),
            weight=5.0,
        ),
        RequestTemplate(
            name="creative",
            method="GET",
            path="/creatives/current.png",
            host_index=1,
            query=(P("c", "random_hex", length=12),),
            weight=2.2,
        ),
    ),
)

#: nend (F@N Communications): plain Android ID with an API key.
NEND = _spec(
    name="nend",
    category="ad",
    hosts=("output.nend.net", "img.nend.net"),
    ip_base="54.248.92.0",
    adoption_target=192,
    packets_per_app=7.1,
    templates=(
        RequestTemplate(
            name="na",
            method="GET",
            path="/na.php",
            query=(
                P("apikey", "app_token", length=40),
                P("spot", "app_token", length=6),
                P.ident("uid", IK.ANDROID_ID, probability=0.95),
                P.ident("um", IK.ANDROID_ID, TF.MD5, app_gate=0.5, probability=0.9),
                P.lit("gaid", ""),
                P("dev", "literal", literal="android"),
            ),
            weight=4.0,
        ),
        RequestTemplate(
            name="banner_img",
            method="GET",
            path="/img/banner_320x50.gif",
            host_index=1,
            query=(P("t", "timestamp"),),
            weight=2.0,
        ),
    ),
)

#: Millennial Media (mydas.mobi): IMEI + Android ID, both plain.
MYDAS = _spec(
    name="mydas",
    category="ad",
    hosts=("ads.mydas.mobi",),
    ip_base="216.157.48.0",
    adoption_target=164,
    packets_per_app=2.0,
    templates=(
        RequestTemplate(
            name="getad",
            method="GET",
            path="/getAd.php5",
            query=(
                P("apid", "app_token", length=5),
                P.ident("auid", IK.IMEI, probability=0.9),
                P.ident("uuid", IK.ANDROID_ID, probability=0.95),
                P.lit("accelerate", "true"),
                P("ua", "literal", literal="android"),
                P("hsht", "literal", literal="480"),
                P("hswd", "literal", literal="320"),
            ),
            weight=1.0,
        ),
    ),
)

#: AMoAd: Android ID and carrier name in a form body.
AMOAD = _spec(
    name="amoad",
    category="ad",
    hosts=("d.amoad.com",),
    ip_base="49.212.34.0",
    adoption_target=116,
    packets_per_app=5.0,
    templates=(
        RequestTemplate(
            name="ad",
            method="POST",
            path="/4/sp/json",
            body=(
                P("sid", "app_token", length=32),
                P.ident("aid", IK.ANDROID_ID, probability=0.95),
                P.ident("carrier", IK.CARRIER, probability=0.95),
                P("glat", "location_lat", probability=0.4),
                P("glon", "location_lon", probability=0.4),
                P("lang", "locale"),
                P("appver", "literal", literal="1.2"),
            ),
            weight=1.0,
        ),
    ),
)

#: Flurry analytics: SHA1 of the Android ID plus carrier, POSTed in bulk
#: reports.  The ``app_gate`` models that only some integrations enable
#: device-id reporting, keeping the Table III app count for SHA1 low.
FLURRY = _spec(
    name="flurry",
    category="analytics",
    hosts=("data.flurry.com",),
    ip_base="74.6.152.0",
    adoption_target=119,
    packets_per_app=2.8,
    templates=(
        RequestTemplate(
            name="report",
            method="POST",
            path="/aap.do",
            body=(
                P("apiKey", "app_token", length=20),
                P.ident("sha1Id", IK.ANDROID_ID, TF.SHA1, app_gate=0.4),
                P.ident("md5Id", IK.ANDROID_ID, TF.MD5, app_gate=0.55, probability=0.9),
                P.ident("carrier", IK.CARRIER, probability=0.95),
                P("session", "session_token", length=16),
                P("events", "random_hex", length=64),
                P("ts", "timestamp"),
            ),
            weight=1.0,
        ),
    ),
)

#: MicroAd: Android ID carried in a *cookie*, carrier in the query —
#: exercises the cookie component of the content distance.
MICROAD = _spec(
    name="microad",
    category="ad",
    hosts=("send.microad.jp", "cache.microad.jp"),
    ip_base="210.129.74.0",
    adoption_target=103,
    packets_per_app=8.4,
    templates=(
        RequestTemplate(
            name="send",
            method="GET",
            path="/js/blade.js",
            query=(
                P("spot", "app_token", length=12),
                P.ident("car", IK.CARRIER, probability=0.95),
                P("url", "package"),
            ),
            cookies=(
                P("msid", "session_token", length=26),
                P.ident("muid", IK.ANDROID_ID, probability=0.9),
            ),
            weight=3.0,
        ),
        RequestTemplate(
            name="beacon",
            method="GET",
            path="/b.gif",
            host_index=1,
            query=(P("r", "random_digits", length=10),),
            cookies=(P("msid", "session_token", length=26),),
            weight=1.2,
        ),
    ),
)

#: AdWhirl mediation: MD5 of IMEI (permission-gated) — the IMEI MD5 row.
ADWHIRL = _spec(
    name="adwhirl",
    category="ad",
    hosts=("met.adwhirl.com", "cus.adwhirl.com"),
    ip_base="174.129.14.0",
    adoption_target=102,
    packets_per_app=5.4,
    templates=(
        RequestTemplate(
            name="config",
            method="GET",
            path="/getInfo.php",
            host_index=1,
            query=(
                P("appid", "app_token", length=32),
                P("appver", "literal", literal="300"),
                P("client", "literal", literal="2"),
            ),
            once=True,
        ),
        RequestTemplate(
            name="metric",
            method="GET",
            path="/exmet.php",
            query=(
                P("appid", "app_token", length=32),
                P("nid", "random_hex", length=32),
                P("type", "literal", literal="1"),
                P.ident("uuid", IK.IMEI, TF.MD5, probability=0.95),
                P.ident("dt", IK.ANDROID_ID, TF.MD5, probability=0.9),
                P("country_code", "locale"),
            ),
            weight=1.0,
        ),
    ),
)

#: i-mobile: high request volume, SHA1 of IMEI where permitted plus SHA1 of
#: the Android ID for a minority of integrations.
IMOBILE = _spec(
    name="imobile",
    category="ad",
    hosts=("spad.i-mobile.co.jp", "spimg.i-mobile.co.jp"),
    ip_base="210.149.118.0",
    adoption_target=100,
    packets_per_app=37.3,
    templates=(
        RequestTemplate(
            name="ad",
            method="GET",
            path="/ad_link.ashx",
            query=(
                P("pid", "app_token", length=5),
                P("asid", "app_token", length=6),
                P.ident("dtk", IK.IMEI, TF.SHA1, probability=0.6),
                P.ident("car", IK.CARRIER, probability=0.3),
                P.ident("atk", IK.ANDROID_ID, TF.SHA1, app_gate=0.35, probability=0.8),
                P("w", "literal", literal="320"),
                P("h", "literal", literal="50"),
                P("seq", "sequence"),
            ),
            weight=3.0,
        ),
        RequestTemplate(
            name="img",
            method="GET",
            path="/image.ashx",
            host_index=1,
            query=(P("i", "random_hex", length=20),),
            weight=2.0,
        ),
    ),
)

#: AdLantis: IMEI and Android ID, plain, in the query.
ADLANTIS = _spec(
    name="adlantis",
    category="ad",
    hosts=("sp.adlantis.jp",),
    ip_base="203.211.13.0",
    adoption_target=98,
    packets_per_app=2.4,
    templates=(
        RequestTemplate(
            name="sp_ad",
            method="GET",
            path="/sp/load_app",
            query=(
                P("publisher", "app_token", length=16),
                P.ident("imei", IK.IMEI, probability=0.9),
                P.ident("android_id", IK.ANDROID_ID, probability=0.9),
                P("lat", "location_lat", probability=0.5),
                P("lon", "location_lon", probability=0.5),
                P("ver", "literal", literal="1.3.2"),
            ),
            weight=1.0,
        ),
    ),
)

#: mediba ad (medibaad.com): heavy per-app volume, IMEI + Android ID.
MEDIBAAD = _spec(
    name="medibaad",
    category="ad",
    hosts=("ad.medibaad.com", "img.medibaad.com"),
    ip_base="210.173.178.0",
    adoption_target=49,
    packets_per_app=23.7,
    templates=(
        RequestTemplate(
            name="ad",
            method="GET",
            path="/sdk/get",
            query=(
                P("sid", "app_token", length=10),
                P.ident("ime", IK.IMEI, probability=0.9),
                P.ident("adr", IK.ANDROID_ID, probability=0.9),
                P("net", "literal", literal="wifi"),
                P("seq", "sequence"),
            ),
            weight=3.0,
        ),
        RequestTemplate(
            name="img",
            method="GET",
            path="/sdk/img",
            host_index=1,
            query=(P("b", "random_hex", length=14),),
            weight=2.0,
        ),
    ),
)

#: Mobclix exchange: SHA1 Android ID plus MD5 IMEI.
MOBCLIX = _spec(
    name="mobclix",
    category="ad",
    hosts=("ads.mobclix.com",),
    ip_base="205.186.187.0",
    adoption_target=48,
    packets_per_app=5.4,
    templates=(
        RequestTemplate(
            name="va",
            method="GET",
            path="/1/va/banner",
            query=(
                P("p", "literal", literal="android"),
                P("aid", "app_token", length=36),
                P.ident("d", IK.ANDROID_ID, TF.SHA1, probability=0.9),
                P.ident("hwdid", IK.IMEI, TF.MD5, probability=0.9),
                P("s", "session_token", length=32),
            ),
            weight=1.0,
        ),
    ),
)

#: adimg.net: an ad-image/affiliate network sending SHA1 Android IDs.
ADIMG = _spec(
    name="adimg",
    category="ad",
    hosts=("cdn.adimg.net",),
    ip_base="203.104.105.0",
    adoption_target=72,
    packets_per_app=4.4,
    templates=(
        RequestTemplate(
            name="ad",
            method="GET",
            path="/aimg/sp",
            query=(
                P("m", "app_token", length=8),
                P.ident("u", IK.ANDROID_ID, TF.SHA1, app_gate=0.3, probability=0.9),
                P("z", "random_hex", length=8),
            ),
            weight=1.0,
        ),
    ),
)

#: zqapk.com: the paper's example expecting "IMEI, SIM Serial ID, and
#: Carrier name" — a small Chinese app-store SDK; few apps, distinctive
#: payload.  Drives the SIM_SERIAL and IMSI rows of Table III.
ZQAPK = _spec(
    name="zqapk",
    category="ad",
    hosts=("stat.zqapk.com",),
    ip_base="122.200.67.0",
    adoption_target=18,
    packets_per_app=45.0,
    templates=(
        RequestTemplate(
            name="stat",
            method="POST",
            path="/c/collect",
            body=(
                P("chan", "app_token", length=6),
                P.ident("imei", IK.IMEI, probability=0.95),
                P.ident("iccid", IK.SIM_SERIAL, probability=0.9),
                P.ident("imsi", IK.IMSI, probability=0.95),
                P.ident("op", IK.CARRIER, probability=0.9),
                P("sv", "literal", literal="1.6"),
                P("pkg", "package"),
            ),
            weight=1.0,
        ),
    ),
)

#: Mobage platform core (mbga.jp): platform apps report IMSI for carrier
#: billing; only the platform's own titles (few apps) do this.
MBGA_CORE = _spec(
    name="mbga_core",
    category="webapi",
    hosts=("sp.mbga.jp", "ssl-sp.mbga.jp"),
    ip_base="202.238.103.0",
    adoption_target=18,
    packets_per_app=30.0,
    templates=(
        RequestTemplate(
            name="auth",
            method="POST",
            path="/_sdk_auth",
            body=(
                P("app_id", "app_token", length=10),
                P.ident("imsi", IK.IMSI, probability=0.75),
                P.ident("iccid", IK.SIM_SERIAL, probability=0.35),
                P("token", "session_token", length=40),
            ),
            once=True,
        ),
        RequestTemplate(
            name="api",
            method="GET",
            path="/api/restful/v1/people/@me",
            query=(P("oauth_nonce", "random_hex", length=16), P("oauth_timestamp", "timestamp")),
            cookies=(P("sp_sid", "session_token", length=32),),
            weight=1.0,
        ),
    ),
)

#: All advertisement / analytics / platform-SDK services.
AD_SERVICES: tuple[ServiceSpec, ...] = (
    ADMOB,
    ADMAKER,
    NEND,
    MYDAS,
    AMOAD,
    FLURRY,
    MICROAD,
    ADWHIRL,
    IMOBILE,
    ADLANTIS,
    MEDIBAAD,
    MOBCLIX,
    ADIMG,
    ZQAPK,
    MBGA_CORE,
)
