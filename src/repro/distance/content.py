"""HTTP packet content distance (paper Section IV-C).

    d_header(p_x, p_y) = d_rline + d_cookie + d_body

Each component is the normalized compression distance between the
corresponding field of the two requests: request-line, ``Cookie`` header
value, and message body.  Fields are compared as bytes (latin-1 for the
text fields, raw bytes for the body) so binary bodies are handled without
decoding loss.
"""

from __future__ import annotations

from repro.distance.ncd import Compressor, NcdCalculator
from repro.http.packet import HttpPacket


class ContentDistance:
    """Configurable ``d_header`` evaluator with a shared NCD cache.

    :param compressor: compressor backing the NCD (ablation knob).
    :param use_rline: include the request-line component.
    :param use_cookie: include the cookie component.
    :param use_body: include the body component.

    Disabling components changes the range of the result
    (``[0, #enabled]``); the defaults reproduce the paper.
    """

    def __init__(
        self,
        compressor: Compressor = Compressor.ZLIB,
        *,
        use_rline: bool = True,
        use_cookie: bool = True,
        use_body: bool = True,
    ) -> None:
        self._ncd = NcdCalculator(compressor)
        self.use_rline = use_rline
        self.use_cookie = use_cookie
        self.use_body = use_body

    @property
    def calculator(self) -> NcdCalculator:
        """The shared NCD calculator (cache inspection / precomputation)."""
        return self._ncd

    def rline_distance(self, x: HttpPacket, y: HttpPacket) -> float:
        """``d_rline``: NCD of the two request-lines."""
        return self._ncd.distance(
            x.request_line.encode("latin-1"), y.request_line.encode("latin-1")
        )

    def cookie_distance(self, x: HttpPacket, y: HttpPacket) -> float:
        """``d_cookie``: NCD of the two Cookie header values.

        Two packets without cookies are at cookie-distance 0 (both fields
        empty, hence identical), per the NCD edge-case convention.
        """
        return self._ncd.distance(
            x.cookie.encode("latin-1"), y.cookie.encode("latin-1")
        )

    def body_distance(self, x: HttpPacket, y: HttpPacket) -> float:
        """``d_body``: NCD of the two message bodies."""
        return self._ncd.distance(x.body, y.body)

    def distance(self, x: HttpPacket, y: HttpPacket) -> float:
        """``d_header``: sum of the enabled components."""
        total = 0.0
        if self.use_rline:
            total += self.rline_distance(x, y)
        if self.use_cookie:
            total += self.cookie_distance(x, y)
        if self.use_body:
            total += self.body_distance(x, y)
        return total
