"""Disk + in-process LRU store for posterior artifacts.

One cached fit is two files under ``<cache_dir>/<key[:2]>/``:

* ``<key>.npz`` — the mixture arrays (latent grid, normalised weights,
  per-component gamma shapes/rates) as float64, byte-exact.
* ``<key>.json`` — scalars: schema version, method name, ELBO,
  diagnostics (minus the run-local ``telemetry`` attachment), and a
  SHA-256 over the npz bytes and the rest of this sidecar.

The npz is written first and the JSON last, both via temp-file +
``os.replace``, so a reader never observes a half-written artifact:
either the JSON is present and both files are complete, or the lookup
is a miss. Concurrent writers of the same key are safe for the same
reason — ``os.replace`` is atomic and both writers produce identical
bytes (fits are deterministic).

Loads are corruption-safe by policy: *any* failure while reading an
artifact (truncated JSON, corrupt npz, schema mismatch, length
mismatch, checksum mismatch) counts and warns, then reports a miss so
the caller refits and overwrites the bad artifact. A broken cache can
cost time, never correctness. The checksum catches what the npz
members' CRC-32s cannot: an edited but well-formed sidecar value, or an
npz re-saved with changed arrays.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import threading
import warnings
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.posterior import VBPosterior

__all__ = ["CacheStats", "PosteriorCache", "ARTIFACT_SCHEMA"]

ARTIFACT_SCHEMA = 2

_ARRAY_FIELDS = (
    "n_values",
    "weights",
    "omega_shape",
    "omega_rate",
    "beta_shape",
    "beta_rate",
)


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`PosteriorCache` instance."""

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def hits(self) -> int:
        return self.hits_memory + self.hits_disk

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict:
        out = asdict(self)
        out["hits"] = self.hits
        out["lookups"] = self.lookups
        return out


def _serialize(posterior: VBPosterior) -> tuple[dict, dict]:
    diagnostics = {
        key: value
        for key, value in posterior.diagnostics.items()
        if key != "telemetry"  # run-local, not part of the fit's content
    }
    meta = {
        "schema": ARTIFACT_SCHEMA,
        "method_name": posterior.method_name,
        "elbo": posterior.elbo,
        "diagnostics": diagnostics,
    }
    arrays = {
        "n_values": posterior._n_values,
        "weights": posterior._weights,
        "omega_shape": posterior._omega_shape,
        "omega_rate": posterior._omega_rate,
        "beta_shape": posterior._beta_shape,
        "beta_rate": posterior._beta_rate,
    }
    return meta, arrays


def _checksum(npz_bytes: bytes, meta: dict) -> str:
    """SHA-256 over the npz bytes and the sidecar content. The content
    is hashed as compact JSON in key order, which a JSON round trip
    reproduces exactly (tuples come back as lists, non-string keys as
    strings, and both dump the same)."""
    digest = hashlib.sha256(npz_bytes)
    digest.update(json.dumps(meta).encode("utf-8"))
    return digest.hexdigest()


def _rebuild(meta: dict, arrays: dict) -> VBPosterior:
    if meta.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(f"unsupported artifact schema: {meta.get('schema')!r}")
    sizes = {arrays[name].shape for name in _ARRAY_FIELDS}
    if len(sizes) != 1 or arrays["n_values"].ndim != 1:
        raise ValueError("artifact arrays disagree on component count")
    if arrays["n_values"].size == 0:
        raise ValueError("artifact has no mixture components")
    elbo = meta["elbo"]
    return VBPosterior.from_arrays(
        *(arrays[name] for name in _ARRAY_FIELDS),
        method_name=str(meta["method_name"]),
        elbo=None if elbo is None else float(elbo),
        diagnostics=meta["diagnostics"],
        normalised=True,
    )


def _atomic_write(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _is_key(stem: str) -> bool:
    return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)


class PosteriorCache:
    """Content-addressed posterior store: in-process LRU over a disk tier.

    Parameters
    ----------
    cache_dir:
        Artifact directory (created on first store). ``None`` keeps the
        cache purely in-process.
    memory_entries:
        LRU capacity of the in-process tier; least-recently-used
        posteriors spill out (they remain on disk).
    """

    def __init__(
        self, cache_dir: str | os.PathLike | None = None, *, memory_entries: int = 128
    ) -> None:
        if memory_entries < 0:
            raise ValueError("memory_entries must be >= 0")
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        self.memory_entries = int(memory_entries)
        self.stats = CacheStats()
        self._memory: OrderedDict[str, VBPosterior] = OrderedDict()
        self._lock = threading.Lock()

    # -- paths ---------------------------------------------------------

    def _paths(self, key: str) -> tuple[Path, Path]:
        assert self.cache_dir is not None
        shard = self.cache_dir / key[:2]
        return shard / f"{key}.json", shard / f"{key}.npz"

    # -- lookup --------------------------------------------------------

    def get(self, key: str) -> VBPosterior | None:
        """The cached posterior for ``key``, or ``None`` on a miss."""
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.stats.hits_memory += 1
                obs.counter_add("cache.hit_memory")
                return cached
        posterior = self._load_disk(key)
        if posterior is None:
            self.stats.misses += 1
            obs.counter_add("cache.miss")
            return None
        self.stats.hits_disk += 1
        obs.counter_add("cache.hit_disk")
        self._remember(key, posterior)
        return posterior

    def _load_disk(self, key: str) -> VBPosterior | None:
        if self.cache_dir is None:
            return None
        json_path, npz_path = self._paths(key)
        if not json_path.exists():
            return None
        try:
            meta = json.loads(json_path.read_text())
            npz_bytes = npz_path.read_bytes()
            if meta.pop("sha256", None) != _checksum(npz_bytes, meta):
                raise ValueError("checksum mismatch")
            with np.load(io.BytesIO(npz_bytes)) as archive:
                arrays = {
                    name: np.asarray(archive[name], dtype=np.float64)
                    for name in _ARRAY_FIELDS
                }
            return _rebuild(meta, arrays)
        except Exception as exc:  # corrupt artifact: degrade to a miss
            self.stats.corrupt += 1
            obs.counter_add("cache.corrupt")
            warnings.warn(
                f"discarding corrupt cache artifact {key[:12]}… "
                f"({type(exc).__name__}: {exc}); refitting",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    # -- store ---------------------------------------------------------

    def put(self, key: str, posterior: VBPosterior) -> None:
        """Store ``posterior`` under ``key`` in both tiers."""
        if not isinstance(posterior, VBPosterior):
            raise TypeError(
                f"only VBPosterior artifacts are cacheable, "
                f"got {type(posterior).__name__}"
            )
        self.stats.stores += 1
        obs.counter_add("cache.store")
        self._remember(key, posterior)
        if self.cache_dir is None:
            return
        meta, arrays = _serialize(posterior)
        json_path, npz_path = self._paths(key)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        npz_bytes = buffer.getvalue()
        meta["sha256"] = _checksum(npz_bytes, meta)
        _atomic_write(npz_path, npz_bytes)
        _atomic_write(json_path, json.dumps(meta, indent=1).encode("utf-8"))

    def _remember(self, key: str, posterior: VBPosterior) -> None:
        if self.memory_entries == 0:
            return
        with self._lock:
            self._memory[key] = posterior
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                self.stats.evictions += 1
                obs.counter_add("cache.evict")

    # -- maintenance ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._memory)

    def memory_keys(self) -> list[str]:
        """LRU-ordered keys (oldest first) of the in-process tier."""
        with self._lock:
            return list(self._memory)

    def disk_entries(self) -> list[str]:
        """Keys of every complete artifact on disk (sorted)."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return []
        keys = []
        for json_path in self.cache_dir.glob("??/*.json"):
            stem = json_path.stem
            if _is_key(stem) and json_path.with_suffix(".npz").exists():
                keys.append(stem)
        return sorted(keys)

    def disk_bytes(self) -> int:
        """Total size of the artifact files on disk."""
        if self.cache_dir is None or not self.cache_dir.exists():
            return 0
        total = 0
        for path in self.cache_dir.glob("??/*"):
            if _is_key(path.stem) and path.suffix in (".json", ".npz"):
                total += path.stat().st_size
        return total

    def clear(self) -> int:
        """Delete every artifact; returns the number of entries removed.

        Only files this store wrote are touched: ``<64-hex>.json`` /
        ``<64-hex>.npz`` inside two-hex shard directories. Anything
        else sharing the tree is left alone, and shard directories are
        only pruned when they end up empty.
        """
        with self._lock:
            self._memory.clear()
        if self.cache_dir is None or not self.cache_dir.exists():
            return 0
        removed = 0
        for shard in sorted(self.cache_dir.iterdir()):
            if not (
                shard.is_dir()
                and len(shard.name) == 2
                and all(c in "0123456789abcdef" for c in shard.name)
            ):
                continue
            for path in sorted(shard.iterdir()):
                if _is_key(path.stem) and path.suffix in (".json", ".npz"):
                    if path.suffix == ".json":
                        removed += 1
                    path.unlink()
            try:
                shard.rmdir()
            except OSError:
                pass  # unrelated files keep the shard alive
        return removed
