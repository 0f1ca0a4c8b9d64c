"""Normalized compression distance (NCD).

The paper computes content similarity with the NCD of Cilibrasi's thesis:

    ncd(x, y) = (C(xy) - min(C(x), C(y))) / max(C(x), C(y))

where ``C`` is the compressed length of its argument.  NCD approximates the
(uncomputable) normalized information distance; two strings that share
structure compress better together than apart.

Real-valued results land in roughly ``[0, 1.1]`` for zlib-family
compressors (imperfect compression can push slightly above 1); callers that
need a bounded metric can clamp via :func:`ncd` 's ``clamp`` flag.
"""

from __future__ import annotations

import bz2
import enum
import lzma
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import DistanceError


class Compressor(enum.Enum):
    """Available compressors for ``C``.

    ``ZLIB`` is the default: it is fast, and its 32 KiB window comfortably
    covers two concatenated HTTP requests.  ``BZ2`` and ``LZMA`` are kept
    for the compressor ablation bench.
    """

    ZLIB = "zlib"
    BZ2 = "bz2"
    LZMA = "lzma"


def _zlib_len(data: bytes) -> int:
    return len(zlib.compress(data, 9))


def _bz2_len(data: bytes) -> int:
    return len(bz2.compress(data, 9))


def _lzma_len(data: bytes) -> int:
    return len(lzma.compress(data, preset=6))


_COMPRESSED_LENGTH: dict[Compressor, Callable[[bytes], int]] = {
    Compressor.ZLIB: _zlib_len,
    Compressor.BZ2: _bz2_len,
    Compressor.LZMA: _lzma_len,
}


def ncd(
    x: bytes,
    y: bytes,
    compressor: Compressor = Compressor.ZLIB,
    *,
    clamp: bool = True,
) -> float:
    """Normalized compression distance between two byte strings.

    Edge cases: two empty strings are identical (distance 0); one empty
    string against a non-empty one is maximally distant (1.0) — the paper
    leaves this undefined, and this choice keeps the metric total when a
    request has no cookie or no body.

    :param clamp: clip the result into ``[0, 1]`` (compression overhead can
        produce values slightly outside).
    """
    if not x and not y:
        return 0.0
    if not x or not y:
        return 1.0
    length = _COMPRESSED_LENGTH[compressor]
    cx = length(x)
    cy = length(y)
    cxy = length(x + y)
    denominator = max(cx, cy)
    if denominator == 0:
        raise DistanceError("compressor returned zero length for non-empty input")
    value = (cxy - min(cx, cy)) / denominator
    if clamp:
        value = min(1.0, max(0.0, value))
    return value


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting for a memoized ``C(x)`` cache.

    ``precomputed`` counts entries filled by :meth:`NcdCalculator.precompute`
    (charged up front, so they are neither hits nor misses of the lazy path).
    """

    hits: int = 0
    misses: int = 0
    precomputed: int = 0


class NcdCalculator:
    """NCD with memoized single-string compressed lengths.

    Pairwise distance matrices over M packets evaluate ``C(x)`` for the
    same ``x`` up to M-1 times; caching those (but not the pair terms,
    which are all distinct) removes about half the compression work.
    :meth:`precompute` batch-fills the cache for a whole corpus up front so
    the pair loop — possibly running in worker processes — never compresses
    a single string lazily.

    :param compressor: which compressor backs ``C``.
    :param clamp: clip results into ``[0, 1]``.
    """

    def __init__(self, compressor: Compressor = Compressor.ZLIB, *, clamp: bool = True) -> None:
        self.compressor = compressor
        self.clamp = clamp
        self.stats = CacheStats()
        self._length_cache: dict[bytes, int] = {}
        self._length = _COMPRESSED_LENGTH[compressor]

    def compressed_length(self, data: bytes) -> int:
        """Memoized ``C(data)``."""
        cached = self._length_cache.get(data)
        if cached is None:
            self.stats.misses += 1
            cached = self._length(data)
            self._length_cache[data] = cached
        else:
            self.stats.hits += 1
        return cached

    def precompute(self, blobs: Iterable[bytes]) -> int:
        """Batch-fill ``C(x)`` for every distinct blob not already cached.

        Empty blobs are skipped — :meth:`distance` short-circuits them
        before any length lookup.  Returns how many lengths were newly
        computed, and charges them to ``stats.precomputed``.
        """
        cache = self._length_cache
        length = self._length
        new = 0
        for blob in blobs:
            if blob and blob not in cache:
                cache[blob] = length(blob)
                new += 1
        self.stats.precomputed += new
        return new

    def distance(self, x: bytes, y: bytes) -> float:
        """NCD using the memoized single-string lengths."""
        if not x and not y:
            return 0.0
        if not x or not y:
            return 1.0
        cx = self.compressed_length(x)
        cy = self.compressed_length(y)
        cxy = self._length(x + y)
        value = (cxy - min(cx, cy)) / max(cx, cy)
        if self.clamp:
            value = min(1.0, max(0.0, value))
        return value
