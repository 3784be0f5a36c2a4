"""PosteriorCache round-trips, failure modes, and cached fitting."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.bayes.priors import ModelPrior
from repro.cache.fitting import fit_vb1_cached, fit_vb2_cached
from repro.cache.keys import fit_cache_key
from repro.cache.store import PosteriorCache
from repro.core.vb2 import fit_vb2
from repro.data.failure_data import FailureTimeData


@pytest.fixture(scope="module")
def data():
    return FailureTimeData(np.array([1.0, 2.5, 4.0, 7.5]), horizon=9.0)


@pytest.fixture(scope="module")
def prior():
    return ModelPrior.informative(20.0, 8.0, 0.2, 0.08)


@pytest.fixture(scope="module")
def posterior(data, prior):
    return fit_vb2(data, prior, 1.0)


def _artifact_paths(cache, key):
    return cache._paths(key)


class TestRoundTrip:
    def test_disk_hit_is_byte_identical(self, tmp_path, data, prior, posterior):
        writer = PosteriorCache(tmp_path)
        key = fit_cache_key("VB2", data, prior)
        writer.put(key, posterior)

        reader = PosteriorCache(tmp_path)  # fresh process stand-in
        loaded = reader.get(key)
        assert reader.stats.hits_disk == 1
        np.testing.assert_array_equal(loaded.n_values, posterior.n_values)
        np.testing.assert_array_equal(loaded.weights, posterior.weights)
        for name in ("_omega_components", "_beta_components"):
            got = getattr(loaded, name)
            want = getattr(posterior, name)
            assert [(g.shape, g.rate) for g in got] == [
                (w.shape, w.rate) for w in want
            ]
        assert loaded.elbo == posterior.elbo
        stripped = {
            k: v for k, v in posterior.diagnostics.items() if k != "telemetry"
        }
        assert loaded.diagnostics == stripped

    def test_memory_hit_returns_same_object(self, tmp_path, posterior):
        cache = PosteriorCache(tmp_path)
        cache.put("ab" * 32, posterior)
        assert cache.get("ab" * 32) is posterior
        assert cache.stats.hits_memory == 1

    def test_memoryless_mode(self, posterior):
        cache = PosteriorCache(None, memory_entries=0)
        cache.put("cd" * 32, posterior)
        assert cache.get("cd" * 32) is None
        assert cache.stats.misses == 1

    def test_non_posterior_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="VBPosterior"):
            PosteriorCache(tmp_path).put("ef" * 32, object())


class TestCachedFitting:
    def test_hit_never_runs_the_solver(self, tmp_path, data, prior):
        cache = PosteriorCache(tmp_path)
        with obs.capture() as cold:
            first = fit_vb2_cached(data, prior, 1.0, cache=cache)
        assert cold.counters.get("vb2.solves", 0) > 0
        assert cache.stats.misses == 1 and cache.stats.stores == 1

        hit_cache = PosteriorCache(tmp_path)  # disk tier only
        with obs.capture() as warm:
            second = fit_vb2_cached(data, prior, 1.0, cache=hit_cache)
        assert warm.counters.get("vb2.solves", 0) == 0
        assert hit_cache.stats.hits_disk == 1
        np.testing.assert_array_equal(second.weights, first.weights)

    def test_vb1_cached(self, tmp_path, data, prior):
        cache = PosteriorCache(tmp_path)
        fit_vb1_cached(data, prior, 1.0, cache=cache)
        fit_vb1_cached(data, prior, 1.0, cache=cache)
        assert cache.stats.stores == 1 and cache.stats.hits == 1

    def test_no_cache_falls_through(self, data, prior):
        assert fit_vb2_cached(data, prior, 1.0, cache=None).mean("omega") > 0


class TestFailureModes:
    def test_corrupt_npz_degrades_to_miss(self, tmp_path, data, prior, posterior):
        cache = PosteriorCache(tmp_path)
        key = fit_cache_key("VB2", data, prior)
        cache.put(key, posterior)
        _, npz_path = _artifact_paths(cache, key)
        npz_path.write_bytes(b"not a zip archive")

        reader = PosteriorCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt"), obs.capture() as c:
            assert reader.get(key) is None
        assert reader.stats.corrupt == 1
        assert reader.stats.misses == 1
        assert c.counters.get("cache.corrupt") == 1

    def test_truncated_json_degrades_to_miss(
        self, tmp_path, data, prior, posterior
    ):
        cache = PosteriorCache(tmp_path)
        key = fit_cache_key("VB2", data, prior)
        cache.put(key, posterior)
        json_path, _ = _artifact_paths(cache, key)
        json_path.write_text(json_path.read_text()[:25])

        reader = PosteriorCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert reader.get(key) is None
        assert reader.stats.corrupt == 1

    @pytest.mark.parametrize("edit", ["elbo", "diagnostics", "schema-1"])
    def test_edited_sidecar_degrades_to_miss(
        self, tmp_path, data, prior, posterior, edit
    ):
        # Well-formed JSON with an altered value: only the checksum over
        # the npz bytes and the sidecar content catches it.
        cache = PosteriorCache(tmp_path)
        key = fit_cache_key("VB2", data, prior)
        cache.put(key, posterior)
        json_path, _ = _artifact_paths(cache, key)
        meta = json.loads(json_path.read_text())
        if edit == "elbo":
            meta["elbo"] += 123.0
        elif edit == "diagnostics":
            meta["diagnostics"]["nmax"] = 7
        else:  # an artifact written before checksums existed
            del meta["sha256"]
            meta["schema"] = 1
        json_path.write_text(json.dumps(meta, indent=1))

        reader = PosteriorCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert reader.get(key) is None
        assert reader.stats.corrupt == 1
        assert reader.stats.misses == 1

    def test_resaved_npz_degrades_to_miss(self, tmp_path, data, prior, posterior):
        # A valid archive (member CRC-32s intact) with one changed weight.
        cache = PosteriorCache(tmp_path)
        key = fit_cache_key("VB2", data, prior)
        cache.put(key, posterior)
        _, npz_path = _artifact_paths(cache, key)
        with np.load(npz_path) as archive:
            arrays = {name: archive[name].copy() for name in archive.files}
        arrays["weights"][0] = np.nextafter(arrays["weights"][0], 1.0)
        np.savez(npz_path, **arrays)

        reader = PosteriorCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert reader.get(key) is None
        assert reader.stats.corrupt == 1

    def test_corrupt_artifact_heals_on_refit(self, tmp_path, data, prior):
        cache = PosteriorCache(tmp_path)
        key = fit_cache_key("VB2", data, prior)
        fit_vb2_cached(data, prior, 1.0, cache=cache)
        json_path, _ = _artifact_paths(cache, key)
        json_path.write_text("{")

        healer = PosteriorCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            fit_vb2_cached(data, prior, 1.0, cache=healer)
        assert healer.stats.stores == 1
        assert PosteriorCache(tmp_path).get(key) is not None

    def test_concurrent_writers_one_key(self, tmp_path, posterior):
        key = "12" * 32
        errors = []

        def writer():
            try:
                PosteriorCache(tmp_path).put(key, posterior)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = PosteriorCache(tmp_path).get(key)
        np.testing.assert_array_equal(loaded.weights, posterior.weights)

    def test_missing_artifact_is_plain_miss(self, tmp_path):
        cache = PosteriorCache(tmp_path)
        assert cache.get("34" * 32) is None
        assert cache.stats.misses == 1 and cache.stats.corrupt == 0


class TestLruAndMaintenance:
    def test_lru_eviction_order(self, tmp_path, posterior):
        cache = PosteriorCache(tmp_path, memory_entries=2)
        k1, k2, k3 = "a1" * 32, "b2" * 32, "c3" * 32
        cache.put(k1, posterior)
        cache.put(k2, posterior)
        cache.get(k1)  # k1 now most recent; k2 is the LRU entry
        cache.put(k3, posterior)
        assert cache.stats.evictions == 1
        # k1 and k3 stay in memory; the evicted k2 loads from disk
        hits = cache.stats.hits_memory
        assert cache.get(k1) is not None and cache.get(k3) is not None
        assert cache.stats.hits_memory == hits + 2
        assert cache.stats.hits_disk == 0
        assert cache.get(k2) is not None
        assert cache.stats.hits_disk == 1

    def test_disk_entries_and_bytes(self, tmp_path, posterior):
        cache = PosteriorCache(tmp_path)
        keys = sorted(["d4" * 32, "e5" * 32])
        for key in keys:
            cache.put(key, posterior)
        assert cache.disk_entries() == keys
        assert cache.disk_bytes() > 0

    def test_clear_leaves_unrelated_files(self, tmp_path, posterior):
        cache = PosteriorCache(tmp_path)
        key = "f6" * 32
        cache.put(key, posterior)
        bystander = tmp_path / "README.txt"
        bystander.write_text("not an artifact")
        shard_guest = tmp_path / key[:2] / "notes.md"
        shard_guest.write_text("also not an artifact")

        assert cache.clear() == 1
        assert cache.disk_entries() == []
        assert len(cache) == 0
        assert bystander.exists()
        assert shard_guest.exists()  # shard kept alive by the guest

    def test_clear_empty_cache(self, tmp_path):
        assert PosteriorCache(tmp_path / "never-created").clear() == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="memory_entries"):
            PosteriorCache(None, memory_entries=-1)
