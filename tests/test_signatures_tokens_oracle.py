"""Token extraction against a frozen copy of the refinement it replaced.

``common_substrings`` keeps a span that occurs whole in the next member
after one substring test and builds at most one suffix automaton per
member; the replaced version built an automaton of the member for every
surviving span.  The replaced ``common_substrings`` and the
``maximal_common_spans`` (with its ``Span``) it called are kept below as
test-only oracles: the same result lists on seeded hypothesis inputs
shaped like clusters (copies, prefixes and substrings of earlier members,
empty members), and the same signature bytes over every cut cluster of a
seeded pipeline run.
"""

from dataclasses import dataclass

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import repro.signatures.tokens as tokens
from repro.core.server import SignatureServer
from repro.signatures.lcs import SuffixAutomaton
from repro.signatures.literal import LiteralGenerator
from repro.signatures.store import SignatureStore
from repro.signatures.tokens import common_substrings

# ---------------------------------------------------------------------------
# oracles: the replaced implementations, verbatim apart from their names
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open span ``[start, end)`` inside a reference string."""

    start: int
    end: int


def oracle_maximal_common_spans(reference: str, other: str, min_length: int = 1) -> list[Span]:
    if not reference or not other or min_length < 1:
        return []
    lengths = SuffixAutomaton(other).match_lengths(reference)
    candidates: list[Span] = []
    for i, length in enumerate(lengths):
        if length >= min_length:
            candidates.append(Span(i - length + 1, i + 1))
    if not candidates:
        return []
    # A candidate ending at i is contained in one ending at i+1 iff the
    # latter starts at or before it; keep only spans not covered by the next
    # longer overlapping one.  Generic containment filter, O(k log k):
    candidates.sort(key=lambda s: (s.start, -s.end))
    maximal: list[Span] = []
    best_end = -1
    for span in candidates:
        if span.end > best_end:
            maximal.append(span)
            best_end = span.end
    return maximal


def oracle_common_substrings(texts, min_length: int = 2) -> list[str]:
    if not texts:
        return []
    reference = texts[0]
    if len(texts) == 1:
        return [reference] if len(reference) >= min_length else []
    # Candidates are spans of the reference text.
    spans = [(0, len(reference))] if len(reference) >= min_length else []
    for other in texts[1:]:
        if not spans:
            return []
        refined: list[tuple[int, int]] = []
        for start, end in spans:
            fragment = reference[start:end]
            for sub in oracle_maximal_common_spans(fragment, other, min_length):
                refined.append((start + sub.start, start + sub.end))
        spans = _oracle_dedupe_spans(refined)
    spans.sort()
    out: list[str] = []
    seen: set[str] = set()
    for start, end in spans:
        text = reference[start:end]
        if text not in seen:
            seen.add(text)
            out.append(text)
    return out


def _oracle_dedupe_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    unique = sorted(set(spans), key=lambda s: (s[0], -s[1]))
    kept: list[tuple[int, int]] = []
    best_end = -1
    for start, end in unique:
        if end > best_end:
            kept.append((start, end))
            best_end = end
    return kept


# ---------------------------------------------------------------------------
# strategies: members over a small alphabet, so that spans split
# ---------------------------------------------------------------------------

_small_text = st.text(alphabet="ab=&1", max_size=24)


@st.composite
def clusters(draw) -> list[str]:
    """2-8 members; each later one is fresh, empty, or an exact copy,
    prefix or substring of an earlier member."""
    members = [draw(_small_text)]
    for __ in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.sampled_from(["fresh", "empty", "copy", "prefix", "substring"]))
        source = draw(st.sampled_from(members))
        if kind == "fresh":
            members.append(draw(_small_text))
        elif kind == "empty":
            members.append("")
        elif kind == "copy":
            members.append(source)
        elif kind == "prefix":
            members.append(source[: draw(st.integers(min_value=0, max_value=len(source)))])
        else:
            start = draw(st.integers(min_value=0, max_value=len(source)))
            end = draw(st.integers(min_value=start, max_value=len(source)))
            members.append(source[start:end])
    return members


_min_lengths = st.integers(min_value=0, max_value=6)


class TestRefinementOracle:
    @seed(1901)
    @settings(max_examples=600, deadline=None)
    @given(texts=clusters(), min_length=_min_lengths)
    def test_cluster_shaped_members(self, texts, min_length):
        assert common_substrings(texts, min_length) == oracle_common_substrings(texts, min_length)

    @seed(1902)
    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(_small_text, min_size=2, max_size=8), min_length=_min_lengths)
    def test_unrelated_members(self, texts, min_length):
        assert common_substrings(texts, min_length) == oracle_common_substrings(texts, min_length)

    @seed(1903)
    @settings(max_examples=400, deadline=None)
    @given(a=_small_text, b=_small_text, min_length=_min_lengths)
    def test_maximal_spans(self, a, b, min_length):
        expected = oracle_maximal_common_spans(a, b, min_length)
        assert SuffixAutomaton(b).maximal_spans(a, min_length) == [
            (span.start, span.end) for span in expected
        ]


class TestOnPipelineClusters:
    """Every cut cluster of a seeded run: same tokens, same signature bytes."""

    def test_cut_clusters_and_literal_walk(self, small_corpus, monkeypatch):
        server = SignatureServer(small_corpus.payload_check())
        server.ingest(small_corpus.trace)
        generation = server.generate(120, seed=3)
        clusters = server.generator.clusters_from_dendrogram(
            generation.dendrogram, generation.sample
        )
        texts = [[packet.canonical_text() for packet in cluster] for cluster in clusters]

        builds = []

        class CountingAutomaton(SuffixAutomaton):
            def __init__(self, text):
                builds.append(text)
                super().__init__(text)

        monkeypatch.setattr(tokens, "SuffixAutomaton", CountingAutomaton)
        for members in texts:
            for min_length in (2, 5):
                assert common_substrings(members, min_length) == oracle_common_substrings(
                    members, min_length
                )
        # Both paths ran: some members split a span, most kept all whole.
        intersections = 2 * sum(len(members) - 1 for members in texts)
        assert 0 < len(builds) < intersections / 2

        def signatures():
            return (
                SignatureStore.dumps(server.generator.from_clusters(clusters)),
                SignatureStore.dumps(
                    LiteralGenerator().from_dendrogram(generation.dendrogram, generation.sample)
                ),
            )

        current = signatures()
        monkeypatch.setattr(tokens, "common_substrings", oracle_common_substrings)
        assert signatures() == current
        assert current[0] == SignatureStore.dumps(generation.signatures)
