"""The persistent result cache: hit/miss accounting, cross-process
persistence, version invalidation, corruption tolerance, maintenance,
concurrent-writer safety."""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.runtime import (
    ResultCache,
    corrupt_cache_entry,
    default_cache_dir,
    simulate_cell,
)
from tests.conftest import tiny_scale

TINY_SCALE = tiny_scale(accesses=100)


@pytest.fixture(scope="module")
def result():
    return simulate_cell(TINY_SCALE, "PoM", "mcf")


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        assert cache.get(TINY_SCALE, "PoM", "mcf") == result
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_survives_across_instances(self, tmp_path, result):
        ResultCache(tmp_path).put(TINY_SCALE, "PoM", "mcf", result)
        fresh = ResultCache(tmp_path)  # models a new process
        assert fresh.get(TINY_SCALE, "PoM", "mcf") == result

    def test_key_distinguishes_cells(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        assert cache.get(TINY_SCALE, "Chameleon", "mcf") is None
        assert cache.get(TINY_SCALE, "PoM", "bwaves") is None

    def test_key_distinguishes_scales(self, tmp_path, result):
        import dataclasses

        cache = ResultCache(tmp_path)
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        other = dataclasses.replace(TINY_SCALE, accesses_per_core=101)
        assert cache.get(other, "PoM", "mcf") is None


class TestInvalidation:
    def test_version_bump_invalidates(self, tmp_path, result):
        ResultCache(tmp_path, version="1.0.0").put(
            TINY_SCALE, "PoM", "mcf", result
        )
        bumped = ResultCache(tmp_path, version="1.0.1")
        assert bumped.get(TINY_SCALE, "PoM", "mcf") is None
        # The old version still addresses its own entry.
        assert (
            ResultCache(tmp_path, version="1.0.0").get(
                TINY_SCALE, "PoM", "mcf"
            )
            == result
        )

    def test_default_version_is_package_version(self, tmp_path):
        import repro

        assert ResultCache(tmp_path).version == repro.__version__

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(TINY_SCALE, "PoM", "mcf", result)
        path.write_text("{not json")
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        assert not path.exists()

    def test_wrong_result_schema_is_a_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(TINY_SCALE, "PoM", "mcf", result)
        payload = json.loads(path.read_text())
        payload["result"]["schema"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        assert not path.exists()
        assert cache.stats.corrupt == 1


class TestCorruptionTolerance:
    """Every flavour of damaged entry is a silent miss — evicted and
    counted, never an exception out of ``get``."""

    def _corrupt_get(self, tmp_path, result, damage):
        cache = ResultCache(tmp_path)
        path = cache.put(TINY_SCALE, "PoM", "mcf", result)
        damage(path)
        got = cache.get(TINY_SCALE, "PoM", "mcf")
        return cache, path, got

    def test_truncated_entry(self, tmp_path, result):
        cache, path, got = self._corrupt_get(
            tmp_path,
            result,
            lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
        )
        assert got is None
        assert not path.exists()
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_empty_entry(self, tmp_path, result):
        cache, path, got = self._corrupt_get(
            tmp_path, result, lambda p: p.write_bytes(b"")
        )
        assert got is None and not path.exists()
        assert cache.stats.corrupt == 1

    def test_binary_garbage_entry(self, tmp_path, result):
        cache, path, got = self._corrupt_get(
            tmp_path, result, lambda p: p.write_bytes(b"\x80\x81\xfe\xff" * 64)
        )
        assert got is None and not path.exists()
        assert cache.stats.corrupt == 1

    def test_valid_json_wrong_shape(self, tmp_path, result):
        cache, path, got = self._corrupt_get(
            tmp_path, result, lambda p: p.write_text('[1, 2, "not a cell"]')
        )
        assert got is None and not path.exists()
        assert cache.stats.corrupt == 1

    def test_unremovable_entry_is_still_a_miss(self, tmp_path, result):
        # Swap the entry file for a directory: read fails with OSError
        # and so does unlink — get() must shrug both off.
        def damage(p):
            p.unlink()
            p.mkdir()

        cache, path, got = self._corrupt_get(tmp_path, result, damage)
        assert got is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        # Still a miss on the next lookup too, not an error.
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None

    def test_sweep_recovers_after_one_corruption(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        assert corrupt_cache_entry(cache, TINY_SCALE, "PoM", "mcf")
        assert cache.get(TINY_SCALE, "PoM", "mcf") is None
        # Re-store and the cell is servable again.
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        assert cache.get(TINY_SCALE, "PoM", "mcf") == result
        assert cache.stats.corrupt == 1

    def test_corrupt_helper_is_noop_on_cold_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert not corrupt_cache_entry(cache, TINY_SCALE, "PoM", "mcf")

    def test_entry_cleared_after_read_is_still_a_hit(
        self, tmp_path, result, monkeypatch
    ):
        """Regression: ``get`` refreshed an LRU mtime after reading, so
        a concurrent ``cache clear`` between the read and the touch
        raised ``FileNotFoundError`` into the sweep."""
        cache = ResultCache(tmp_path)
        path = cache.put(TINY_SCALE, "PoM", "mcf", result)
        read_text = Path.read_text

        def read_then_clear(self, *args, **kwargs):
            text = read_text(self, *args, **kwargs)
            if self == path:
                ResultCache(tmp_path).clear()
            return text

        monkeypatch.setattr(Path, "read_text", read_then_clear)
        assert cache.get(TINY_SCALE, "PoM", "mcf") == result
        assert not path.exists()
        assert cache.stats.hits == 1

    def test_entry_path_matches_put(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        expected = cache.entry_path(TINY_SCALE, "PoM", "mcf")
        assert not expected.exists()
        assert cache.put(TINY_SCALE, "PoM", "mcf", result) == expected
        assert expected.exists()


class TestEvictionAndMaintenance:
    def test_info_and_clear(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.info()["entries"] == 0
        cache.put(TINY_SCALE, "PoM", "mcf", result)
        info = cache.info()
        assert info["entries"] == 1
        assert info["bytes"] > 0
        assert info["root"] == str(tmp_path)
        assert cache.clear() == 1
        assert cache.info()["entries"] == 0

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert default_cache_dir() == tmp_path / "envcache"


def _racing_put(root, barrier, repeats):
    cache = ResultCache(root)
    result = simulate_cell(TINY_SCALE, "PoM", "mcf")
    barrier.wait()  # maximise overlap between the two writers
    for _ in range(repeats):
        cache.put(TINY_SCALE, "PoM", "mcf", result)


class TestConcurrentWriters:
    def test_two_processes_racing_same_key(self, tmp_path, result):
        """Regression: ``put`` used one shared ``.tmp`` staging path,
        so two processes storing the same key could interleave writes
        and publish a torn entry.  Unique staging names + ``os.replace``
        must leave a valid entry and no stray temp files."""
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_racing_put, args=(str(tmp_path), barrier, 25)
            )
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        cache = ResultCache(tmp_path)
        assert cache.get(TINY_SCALE, "PoM", "mcf") == result
        assert cache.stats.corrupt == 0
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []
