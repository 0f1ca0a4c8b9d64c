"""The device-side information flow control application (paper Fig 3b).

"The information flow control application inspects network traffic using
the Android API and detects sensitive information leakage using the ...
server generated signatures.  It does not require any special privileges."

The app fetches a published signature set, screens every outgoing request
of other applications, and — on a signature hit — consults the user's
per-application policy: prompt (default), always allow, or always block.
This is the "fine grained manner" of managing suspicious network behaviour
the paper's introduction promises.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.http.packet import HttpPacket
from repro.obs.metrics import Metrics
from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.matcher import SignatureMatcher
from repro.signatures.store import SignatureStore


class PolicyAction(enum.Enum):
    """What to do when a signature fires for an application."""

    PROMPT = "prompt"  # ask the user (default)
    ALLOW = "allow"  # user accepted this app's transmissions
    BLOCK = "block"  # user forbade them


@dataclass(frozen=True, slots=True)
class Decision:
    """The outcome of screening one packet.

    :param packet: the screened packet.
    :param transmitted: whether the packet was let through.
    :param flagged: whether any signature (or the degraded-mode fallback
        detector) matched.
    :param action: the policy action applied (ALLOW for clean packets).
    :param signature: the matching signature, if any.
    :param degraded: ``True`` when the decision came from the degraded-mode
        keyword fallback rather than a server signature — callers can
        weigh such verdicts differently (e.g. prompt instead of block).
    :param applied_rule: the ``(app_id, domain)`` key of the explicit
        :class:`PolicyStore` rule that determined ``action``, or ``None``
        when the PROMPT default (or no policy at all) applied.
    """

    packet: HttpPacket
    transmitted: bool
    flagged: bool
    action: PolicyAction
    signature: ConjunctionSignature | None = None
    degraded: bool = False
    applied_rule: tuple[str, str] | None = None


@dataclass
class PolicyStore:
    """Per-(application, destination domain) user decisions.

    A rule for ``(app, "")`` applies to all the app's destinations; the
    more specific ``(app, domain)`` rule wins.
    """

    rules: dict[tuple[str, str], PolicyAction] = field(default_factory=dict)

    def set_rule(self, app_id: str, action: PolicyAction, domain: str = "") -> None:
        self.rules[(app_id, domain)] = action

    def lookup_rule(
        self, app_id: str, domain: str
    ) -> tuple[PolicyAction, tuple[str, str] | None]:
        """The applicable action plus the explicit rule key that set it.

        The key is ``None`` when no explicit rule exists and the PROMPT
        default applies — letting callers distinguish "user said allow"
        from "nobody ever decided".
        """
        for key in ((app_id, domain), (app_id, "")):
            action = self.rules.get(key)
            if action is not None:
                return action, key
        return PolicyAction.PROMPT, None


class FlowControlApp:
    """Screens outgoing traffic against a fetched signature set.

    :param signatures: the signature set (from ``SignatureServer.publish``
        or a prior :class:`~repro.signatures.store.SignatureStore` file).
    :param prompt_handler: callback deciding a PROMPT — receives the packet
        and the matching signature (``None`` in degraded mode), returns
        ``True`` to transmit.  Defaults to denying (safe default while the
        user is absent).
    :param degraded_detector: optional fallback detector (anything with an
        ``is_sensitive(packet)`` method, e.g.
        :class:`repro.baselines.keyword.KeywordDetector`).  While the app
        holds *no* signatures — a fresh install whose every fetch failed —
        screening falls back to this detector and decisions carry
        ``degraded=True``.  Without one, an empty set screens nothing
        (every packet transmits unflagged), as before.
    :param metrics: optional shared registry; the app then counts
        decisions (total/flagged/degraded/blocked/prompts) and signature
        installs, and gauges the live set size and version.  Decisions
        are bit-identical with or without it.
    """

    def __init__(
        self,
        signatures: list[ConjunctionSignature],
        prompt_handler: Callable[[HttpPacket, ConjunctionSignature], bool] | None = None,
        degraded_detector: object | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        self.matcher = SignatureMatcher(signatures)
        self.policies = PolicyStore()
        self.prompt_handler = prompt_handler or (lambda packet, signature: False)
        self.degraded_detector = degraded_detector
        self.metrics = metrics
        self.signature_version = 0
        self.history: list[Decision] = []

    def _inc(self, name: str, by: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, by)

    @classmethod
    def fetch(
        cls,
        published: str,
        prompt_handler: Callable[[HttpPacket, ConjunctionSignature], bool] | None = None,
    ) -> "FlowControlApp":
        """Construct from a published (serialized) signature document."""
        return cls(SignatureStore.loads(published), prompt_handler)

    @classmethod
    def degraded(
        cls,
        prompt_handler: Callable[[HttpPacket, ConjunctionSignature], bool] | None = None,
        mode: str = "conservative",
        metrics: Metrics | None = None,
    ) -> "FlowControlApp":
        """A fresh install with no signatures yet: keyword fallback armed.

        Defaults to the ``conservative`` escalation: without server
        signatures the device has no destination scoping, and the broader
        modes would prompt on roughly half of all clean traffic — unusable.
        Pair with :meth:`repro.core.distribution.SignatureFetcher.fetch_into`
        to upgrade to real signatures once a fetch succeeds.
        """
        from repro.baselines.keyword import KeywordDetector

        return cls(
            [], prompt_handler, degraded_detector=KeywordDetector(mode), metrics=metrics
        )

    @property
    def is_degraded(self) -> bool:
        """Whether screening currently runs on the fallback detector."""
        return len(self.matcher) == 0 and self.degraded_detector is not None

    def update_signatures(
        self, signatures: list[ConjunctionSignature], version: int = 0
    ) -> None:
        """Install a newly fetched signature set (leaving policies intact).

        An empty set with a zero version — a degraded fetch — does not
        clobber signatures the app already holds: the last-known-good set
        keeps screening.
        """
        if not signatures and version == 0 and len(self.matcher) > 0:
            self._inc("flow_updates_ignored")
            return
        self.matcher = SignatureMatcher(signatures)
        self.signature_version = version
        self._inc("flow_updates")
        if self.metrics is not None:
            self.metrics.set_gauge("flow_signature_version", version)
            self.metrics.set_gauge("flow_signatures_live", len(self.matcher))

    def screen(self, packet: HttpPacket) -> Decision:
        """Screen one outgoing packet and record the decision.

        With signatures installed this is the paper's screening loop.  With
        an empty set and a configured ``degraded_detector``, the detector
        screens instead and the decision is marked ``degraded`` so callers
        can distinguish baseline verdicts from signature verdicts.

        Ordering: an *explicit* ALLOW rule is consulted before degraded-mode
        keyword screening — the user's standing decision outranks the noisy
        fallback detector, so such packets transmit unflagged (and without
        paying for the regex scan).  Server signatures, being precise, still
        screen first: an ALLOW rule there records the rule but keeps the
        flag in history.
        """
        degraded = self.is_degraded
        domain = packet.destination.registered_domain
        if degraded:
            action, rule = self.policies.lookup_rule(packet.app_id, domain)
            if rule is not None and action is PolicyAction.ALLOW:
                decision = Decision(
                    packet=packet,
                    transmitted=True,
                    flagged=False,
                    action=PolicyAction.ALLOW,
                    degraded=True,
                    applied_rule=rule,
                )
                return self._finish(decision)
            flagged = bool(self.degraded_detector.is_sensitive(packet))
            signature = None
        else:
            result = self.matcher.match(packet)
            flagged = result.matched
            signature = result.signature
        if not flagged:
            decision = Decision(
                packet=packet,
                transmitted=True,
                flagged=False,
                action=PolicyAction.ALLOW,
                degraded=degraded,
            )
        else:
            action, rule = self.policies.lookup_rule(packet.app_id, domain)
            if action is PolicyAction.ALLOW:
                transmitted = True
            elif action is PolicyAction.BLOCK:
                transmitted = False
            else:
                transmitted = self.prompt_handler(packet, signature)
            decision = Decision(
                packet=packet,
                transmitted=transmitted,
                flagged=True,
                action=action,
                signature=signature,
                degraded=degraded,
                applied_rule=rule,
            )
        return self._finish(decision)

    def _finish(self, decision: Decision) -> Decision:
        """Record one decision in history and in the metrics registry."""
        self.history.append(decision)
        self._inc("flow_decisions")
        if decision.flagged:
            self._inc("flow_flagged")
        if decision.degraded:
            self._inc("flow_degraded_decisions")
        if not decision.transmitted:
            self._inc("flow_blocked")
        if decision.flagged and decision.action is PolicyAction.PROMPT:
            self._inc("flow_prompts")
        return decision

    def blocked(self) -> list[Decision]:
        """Decisions where a transmission was suppressed."""
        return [d for d in self.history if not d.transmitted]

    def flagged(self) -> list[Decision]:
        """Decisions where a signature fired (regardless of outcome)."""
        return [d for d in self.history if d.flagged]

    def prompt_count(self) -> int:
        """How many times the user was interrupted — the paper's
        false-positive usability concern in one number."""
        return sum(1 for d in self.history if d.flagged and d.action is PolicyAction.PROMPT)
