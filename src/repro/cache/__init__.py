"""Content-addressed posterior cache.

VB fits are deterministic functions of ``(data, prior, model kind,
alpha0, config)`` — same inputs, same output, bit for bit. That makes
them content-addressable: :mod:`repro.cache.keys` serializes the fit
inputs into a canonical byte string and hashes it to a SHA-256 key;
:mod:`repro.cache.store` persists posterior artifacts (a JSON sidecar
of scalars + one raw float64 block of the mixture arrays) under that
key with an in-process LRU in front; and
:mod:`repro.cache.fitting` wraps ``fit_vb2``/``fit_vb1`` with
cache-or-fit semantics. Cache hits are *exact*: a loaded posterior is
byte-identical to the refit it replaces, and a hit never runs the
solver. Corrupt artifacts degrade to misses (warn + refit), never to
errors or wrong answers.

See docs/METHOD.md §4.5 for why exact hits are safe and
docs/PERFORMANCE.md §5 for measured hit latencies.
"""

from repro.cache.fitting import fit_vb1_cached, fit_vb2_cached
from repro.cache.keys import canonical_bytes, canonical_key, fit_cache_key
from repro.cache.store import CacheStats, PosteriorCache

__all__ = [
    "CacheStats",
    "PosteriorCache",
    "canonical_bytes",
    "canonical_key",
    "fit_cache_key",
    "fit_vb1_cached",
    "fit_vb2_cached",
]
