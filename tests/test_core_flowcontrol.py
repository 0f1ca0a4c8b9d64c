"""Device-side flow control: policies, prompts, history."""

from repro.core.flowcontrol import FlowControlApp, PolicyAction
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.store import SignatureStore
from tests.conftest import make_packet


def signature():
    return ConjunctionSignature(tokens=("imei=12345",), scope_domain="adnet.com")


def leaky():
    return make_packet(host="ads.adnet.com", target="/x?imei=12345", app_id="jp.app.one")


def clean():
    return make_packet(host="img.other.jp", target="/img.png", app_id="jp.app.one")


class TestScreening:
    def test_clean_packet_transmitted(self):
        app = FlowControlApp([signature()])
        decision = app.screen(clean())
        assert decision.transmitted
        assert not decision.flagged
        assert decision.action is PolicyAction.ALLOW

    def test_flagged_packet_prompt_denied_by_default(self):
        app = FlowControlApp([signature()])
        decision = app.screen(leaky())
        assert decision.flagged
        assert not decision.transmitted  # default handler denies
        assert decision.action is PolicyAction.PROMPT
        assert decision.signature is not None

    def test_prompt_handler_consulted(self):
        asked = []

        def handler(packet, sig):
            asked.append((packet, sig))
            return True

        app = FlowControlApp([signature()], prompt_handler=handler)
        decision = app.screen(leaky())
        assert decision.transmitted
        assert len(asked) == 1


class TestPolicyStoreLookup:
    """Precedence: (app, domain) beats (app, "") beats the PROMPT default."""

    def test_default_is_prompt(self):
        app = FlowControlApp([signature()])
        assert app.policies.lookup_rule("jp.app.one", "adnet.com")[0] is PolicyAction.PROMPT

    def test_app_wide_rule_beats_default(self):
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.one", PolicyAction.BLOCK)
        assert app.policies.lookup_rule("jp.app.one", "adnet.com")[0] is PolicyAction.BLOCK
        assert app.policies.lookup_rule("jp.app.one", "other.jp")[0] is PolicyAction.BLOCK

    def test_domain_rule_beats_app_wide(self):
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.one", PolicyAction.BLOCK)
        app.policies.set_rule("jp.app.one", PolicyAction.ALLOW, domain="adnet.com")
        assert app.policies.lookup_rule("jp.app.one", "adnet.com")[0] is PolicyAction.ALLOW
        # other domains still fall through to the app-wide rule
        assert app.policies.lookup_rule("jp.app.one", "other.jp")[0] is PolicyAction.BLOCK

    def test_domain_rule_does_not_leak_across_apps(self):
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.one", PolicyAction.ALLOW, domain="adnet.com")
        assert app.policies.lookup_rule("jp.app.two", "adnet.com")[0] is PolicyAction.PROMPT

    def test_rule_overwrite_takes_effect(self):
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.one", PolicyAction.ALLOW)
        app.policies.set_rule("jp.app.one", PolicyAction.BLOCK)
        assert app.policies.lookup_rule("jp.app.one", "adnet.com")[0] is PolicyAction.BLOCK


class TestEmptySignatureSet:
    def test_everything_transmits_unflagged(self):
        app = FlowControlApp([])
        for packet in (leaky(), clean()):
            decision = app.screen(packet)
            assert decision.transmitted
            assert not decision.flagged
            assert decision.action is PolicyAction.ALLOW
            assert not decision.degraded

    def test_no_prompts_and_nothing_blocked(self):
        app = FlowControlApp([])
        app.screen(leaky())
        app.screen(clean())
        assert app.prompt_count() == 0
        assert app.blocked() == []
        assert app.flagged() == []


class TestDegradedMode:
    def leaky_keyword(self):
        # 15-digit value: the keyword baseline flags it, no signature needed
        return make_packet(
            host="ads.adnet.com", target="/x?imei=123456789012345", app_id="jp.app.one"
        )

    def test_degraded_app_flags_with_keyword_fallback(self):
        app = FlowControlApp.degraded()
        assert app.is_degraded
        decision = app.screen(self.leaky_keyword())
        assert decision.flagged
        assert decision.degraded
        assert decision.signature is None
        assert not decision.transmitted  # default prompt handler denies

    def test_degraded_clean_decisions_are_marked_too(self):
        app = FlowControlApp.degraded()
        decision = app.screen(clean())
        assert decision.transmitted
        assert not decision.flagged
        assert decision.degraded

    def test_policies_still_apply_in_degraded_mode(self):
        app = FlowControlApp.degraded()
        app.policies.set_rule("jp.app.one", PolicyAction.ALLOW)
        assert app.screen(self.leaky_keyword()).transmitted

    def test_update_signatures_exits_degraded_mode(self):
        app = FlowControlApp.degraded()
        app.update_signatures([signature()], version=3)
        assert not app.is_degraded
        assert app.signature_version == 3
        decision = app.screen(leaky())
        assert decision.flagged and not decision.degraded

    def test_degraded_update_does_not_clobber_installed_set(self):
        app = FlowControlApp.degraded()
        app.update_signatures([signature()], version=3)
        app.update_signatures([], version=0)  # a degraded fetch result
        assert not app.is_degraded
        assert app.signature_version == 3

    def test_empty_set_without_detector_is_not_degraded(self):
        app = FlowControlApp([])
        assert not app.is_degraded


class TestPolicies:
    def test_allow_rule_skips_prompt(self):
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.one", PolicyAction.ALLOW)
        decision = app.screen(leaky())
        assert decision.transmitted
        assert decision.action is PolicyAction.ALLOW

    def test_block_rule(self):
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.one", PolicyAction.BLOCK)
        decision = app.screen(leaky())
        assert not decision.transmitted
        assert decision.action is PolicyAction.BLOCK

    def test_domain_specific_rule_wins(self):
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.one", PolicyAction.BLOCK)
        app.policies.set_rule("jp.app.one", PolicyAction.ALLOW, domain="adnet.com")
        assert app.screen(leaky()).transmitted

    def test_rules_scoped_per_app(self):
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.other", PolicyAction.ALLOW)
        assert not app.screen(leaky()).transmitted  # different app still prompts


class TestHistory:
    def test_history_records_everything(self):
        app = FlowControlApp([signature()])
        app.screen(clean())
        app.screen(leaky())
        assert len(app.history) == 2
        assert len(app.flagged()) == 1
        assert len(app.blocked()) == 1

    def test_prompt_count(self):
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.one", PolicyAction.BLOCK, domain="adnet.com")
        app.screen(leaky())  # blocked silently, no prompt
        app.policies.rules.clear()
        app.screen(leaky())  # prompts
        assert app.prompt_count() == 1


class TestFetch:
    def test_fetch_from_published_document(self):
        published = SignatureStore.dumps([signature()])
        app = FlowControlApp.fetch(published)
        assert app.screen(leaky()).flagged


class TestAllowRulePrecedence:
    """Satellite: explicit ALLOW rules outrank degraded keyword screening."""

    def leaky_keyword(self):
        return make_packet(
            host="ads.adnet.com", target="/x?imei=123456789012345", app_id="jp.app.one"
        )

    def test_allow_rule_skips_degraded_screening(self):
        app = FlowControlApp.degraded()
        app.policies.set_rule("jp.app.one", PolicyAction.ALLOW)
        decision = app.screen(self.leaky_keyword())
        assert decision.transmitted
        assert not decision.flagged  # keyword detector never consulted
        assert decision.degraded
        assert decision.applied_rule == ("jp.app.one", "")

    def test_domain_allow_rule_also_wins(self):
        app = FlowControlApp.degraded()
        app.policies.set_rule("jp.app.one", PolicyAction.ALLOW, domain="adnet.com")
        decision = app.screen(self.leaky_keyword())
        assert decision.transmitted and not decision.flagged
        assert decision.applied_rule == ("jp.app.one", "adnet.com")

    def test_without_rule_keyword_screening_runs_first(self):
        # the opposite precedence order: no explicit rule -> detector decides
        app = FlowControlApp.degraded()
        decision = app.screen(self.leaky_keyword())
        assert decision.flagged and decision.degraded
        assert decision.action is PolicyAction.PROMPT
        assert decision.applied_rule is None
        assert not decision.transmitted

    def test_block_rule_still_screens_in_degraded_mode(self):
        # only ALLOW short-circuits: a BLOCK rule must still see the verdict
        app = FlowControlApp.degraded()
        app.policies.set_rule("jp.app.one", PolicyAction.BLOCK)
        flagged = app.screen(self.leaky_keyword())
        assert flagged.flagged and not flagged.transmitted
        assert flagged.applied_rule == ("jp.app.one", "")
        clean_decision = app.screen(clean())
        assert clean_decision.transmitted and not clean_decision.flagged

    def test_signature_mode_screens_before_allow_rule(self):
        # with real signatures the screen still runs; the rule only decides
        # the action and is recorded on the decision
        app = FlowControlApp([signature()])
        app.policies.set_rule("jp.app.one", PolicyAction.ALLOW)
        decision = app.screen(leaky())
        assert decision.flagged  # signature verdict kept in history
        assert decision.transmitted
        assert decision.applied_rule == ("jp.app.one", "")

    def test_lookup_rule_reports_explicit_key(self):
        app = FlowControlApp([signature()])
        assert app.policies.lookup_rule("a", "d") == (PolicyAction.PROMPT, None)
        app.policies.set_rule("a", PolicyAction.BLOCK)
        assert app.policies.lookup_rule("a", "d") == (PolicyAction.BLOCK, ("a", ""))
        app.policies.set_rule("a", PolicyAction.ALLOW, domain="d")
        assert app.policies.lookup_rule("a", "d") == (PolicyAction.ALLOW, ("a", "d"))
