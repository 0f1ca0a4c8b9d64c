"""A kept alias: the gateway screens with :class:`SignatureMatcher`.

``bench/trace.py`` times the gateway's matching by wrapping
``repro.serving.shards.ShardedMatcher.match_batch``; without this module
every traced benchmark run would fail at install.  Patching the alias
patches :meth:`SignatureMatcher.match_batch
<repro.signatures.matcher.SignatureMatcher.match_batch>`, which only
:class:`~repro.serving.gateway.ScreeningGateway` calls.
"""

from repro.signatures.matcher import SignatureMatcher

ShardedMatcher = SignatureMatcher
