"""Canonical byte-serialization of fit inputs → SHA-256 cache keys.

The encoding is a tagged, length-prefixed tree walk: every value is
emitted as ``tag byte + payload`` with containers length-prefixed and
dict keys sorted. Two properties make the keys stable:

* **No ambient state.** Floats are encoded as their IEEE-754 little-
  endian bytes (not ``repr``), ints as fixed-width two's complement,
  arrays as ``dtype + shape + buffer``; nothing depends on locale,
  platform, or Python version.
* **Fixed field order.** Domain objects are serialized through their
  ``canonical()`` methods (:meth:`VBConfig.canonical`,
  :meth:`ModelPrior.canonical`, :meth:`WarmStart.canonical`), which
  emit fields in declaration order — so ``VBConfig(nmax_initial=50)``
  and ``VBConfig()`` produce the same key, and reordering keyword
  arguments at a call site cannot change it.

The key covers everything that can move a fit's output bits: the data,
the prior, the model kind, ``alpha0``, the fixed truncation override,
and the full config *including* any warm-start state (a warm start
changes the truncation schedule, which perturbs last-ulp bits of the
solved parameters, and hits promise byte-identity).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.core.config import VBConfig
from repro.bayes.priors import ModelPrior
from repro.data.failure_data import FailureTimeData, GroupedData

__all__ = ["canonical_bytes", "canonical_key", "fit_cache_key"]

_KEY_SCHEMA = b"repro-cache-v1"


def _feed(h, obj) -> None:
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        payload = int(obj).to_bytes(
            (int(obj).bit_length() + 8) // 8 + 1, "little", signed=True
        )
        h.update(b"I" + struct.pack("<I", len(payload)) + payload)
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        payload = obj.encode("utf-8")
        h.update(b"S" + struct.pack("<I", len(payload)) + payload)
    elif isinstance(obj, bytes):
        h.update(b"Y" + struct.pack("<I", len(obj)) + obj)
    elif isinstance(obj, np.ndarray):
        dtype = obj.dtype.str.encode("ascii")
        h.update(b"A" + struct.pack("<I", len(dtype)) + dtype)
        h.update(struct.pack("<I", obj.ndim))
        for dim in obj.shape:
            h.update(struct.pack("<q", dim))
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" + struct.pack("<I", len(obj)))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"D" + struct.pack("<I", len(obj)))
        for key in sorted(obj):
            _feed(h, str(key))
            _feed(h, obj[key])
    else:
        canonical = getattr(obj, "canonical", None)
        if canonical is None:
            raise TypeError(
                f"cannot canonically serialize {type(obj).__name__}"
            )
        _feed(h, canonical())


class _Collector:
    """Duck-typed hashlib stand-in that keeps the raw byte stream."""

    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def update(self, chunk: bytes) -> None:
        self.parts.append(chunk)


def canonical_bytes(obj) -> bytes:
    """The canonical byte encoding of ``obj`` (mostly for tests)."""
    collector = _Collector()
    _feed(collector, obj)
    return b"".join(collector.parts)


def canonical_key(obj) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    h = hashlib.sha256()
    h.update(_KEY_SCHEMA)
    _feed(h, obj)
    return h.hexdigest()


def _data_canonical(data) -> dict:
    if isinstance(data, FailureTimeData):
        return {
            "kind": "times",
            "times": np.asarray(data.times, dtype=np.float64),
            "horizon": float(data.horizon),
            "unit": str(data.unit),
        }
    if isinstance(data, GroupedData):
        return {
            "kind": "grouped",
            "counts": np.asarray(data.counts, dtype=np.int64),
            "boundaries": np.asarray(data.boundaries, dtype=np.float64),
            "unit": str(data.unit),
        }
    raise TypeError(f"unsupported data type: {type(data).__name__}")


def fit_cache_key(
    method: str,
    data,
    prior: ModelPrior,
    alpha0: float = 1.0,
    config: VBConfig | None = None,
    *,
    nmax: int | None = None,
) -> str:
    """Content key of one deterministic fit.

    ``method`` is the fit family ("VB2", "VB1", "VB2-Weibull", ...);
    distinct families hash to distinct keys even on identical data.
    """
    config = config or VBConfig()
    return canonical_key(
        {
            "method": str(method),
            "data": _data_canonical(data),
            "prior": prior.canonical(),
            "alpha0": float(alpha0),
            "nmax": None if nmax is None else int(nmax),
            "config": config.canonical(),
        }
    )
