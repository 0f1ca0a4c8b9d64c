"""Signature generation and matching (paper Section IV-E).

A *conjunction signature* is an ordered sequence of invariant tokens — the
longest common substrings shared by every packet of one cluster — plus an
optional destination scope.  A packet matches when all tokens occur
left-to-right in its inspected content (and the destination scope agrees).

- :mod:`repro.signatures.lcs` — suffix-automaton substring machinery,
- :mod:`repro.signatures.tokens` — invariant-token extraction & filtering,
- :class:`repro.signatures.conjunction.ConjunctionSignature` — the model,
- :class:`repro.signatures.generator.SignatureGenerator` — dendrogram ->
  signature set,
- :class:`repro.signatures.matcher.SignatureMatcher` — detection engine,
- :mod:`repro.signatures.store` — JSON (de)serialization.
"""

from repro.signatures.conjunction import ConjunctionSignature
from repro.signatures.export import to_mitmproxy_script, to_regex, to_snort_rules
from repro.signatures.generator import GeneratorConfig, SignatureGenerator
from repro.signatures.lcs import SuffixAutomaton
from repro.signatures.matcher import MatchResult, ProbabilisticMatcher, SignatureMatcher
from repro.signatures.noiseaware import NoiseAwareGenerator
from repro.signatures.store import SignatureStore
from repro.signatures.tokens import TokenFilter, invariant_tokens

__all__ = [
    "SuffixAutomaton",
    "invariant_tokens",
    "TokenFilter",
    "ConjunctionSignature",
    "SignatureGenerator",
    "NoiseAwareGenerator",
    "GeneratorConfig",
    "SignatureMatcher",
    "ProbabilisticMatcher",
    "MatchResult",
    "SignatureStore",
    "to_regex",
    "to_mitmproxy_script",
    "to_snort_rules",
]
