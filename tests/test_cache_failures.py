"""Failure-path tests for the content-addressed result cache.

The cache's contract under adversity: corruption is a miss (never an
exception, never a wrong answer), concurrent writers never tear an
entry, and *any* source edit under ``src/repro`` — including the
validation subsystem — changes the code token and so invalidates every
key.
"""

from __future__ import annotations

import pickle
import threading
from pathlib import Path

import pytest

from repro.experiments.cache import (
    CACHE_FORMAT,
    ResultCache,
    code_version_token,
    config_digest,
    source_files,
)
from repro.experiments.config import wan_scenario
from repro.experiments.parallel import RunSummary, summarize
from repro.experiments.topology import run_scenario


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path)


@pytest.fixture
def summary():
    result = run_scenario(
        wan_scenario(transfer_bytes=4 * 1024, record_trace=False),
        validate=False,
    )
    return summarize(result)


class TestCorruptEntries:
    def test_truncated_entry_reads_as_miss(self, cache, summary):
        key = cache.key(summary.config)
        cache.put(key, summary)
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_garbage_bytes_read_as_miss(self, cache, summary):
        key = cache.key(summary.config)
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_bytes(b"this is not a pickle")
        assert cache.get(key) is None

    def test_wrong_payload_shape_reads_as_miss(self, cache, summary):
        key = cache.key(summary.config)
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_bytes(pickle.dumps(["not", "a", "dict"]))
        assert cache.get(key) is None

    def test_wrong_format_version_reads_as_miss(self, cache, summary):
        key = cache.key(summary.config)
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_bytes(
            pickle.dumps({"format": CACHE_FORMAT + 1, "summary": summary})
        )
        assert cache.get(key) is None

    def test_unpicklable_class_reference_reads_as_miss(self, cache, summary):
        # Simulates a cache written by a code version whose classes no
        # longer exist: pickle raises AttributeError on load.
        key = cache.key(summary.config)
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps({"format": CACHE_FORMAT, "summary": summary})
        cache._path(key).write_bytes(
            payload.replace(b"RunSummary", b"GoneSummary")
        )
        assert cache.get(key) is None

    def test_undecodable_string_reads_as_miss(self, cache, summary):
        # A flipped byte inside a pickled string: UnicodeDecodeError.
        key = cache.key(summary.config)
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        cache._path(key).write_bytes(b"\x80\x04\x8c\x02\xff\xfe\x94.")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_missing_module_reads_as_miss(self, cache, summary):
        # An entry naming a module that no longer exists:
        # ModuleNotFoundError on load.
        key = cache.key(summary.config)
        cache._path(key).parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            {"format": CACHE_FORMAT, "code": code_version_token(), "summary": summary}
        )
        cache._path(key).write_bytes(
            payload.replace(
                b"repro.experiments.parallel", b"repro.experiments.gone_mod"
            )
        )
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_overwrite_after_corruption_recovers(self, cache, summary):
        key = cache.key(summary.config)
        cache.put(key, summary)
        cache._path(key).write_bytes(b"torn")
        assert cache.get(key) is None
        cache.put(key, summary)
        assert cache.get(key) == summary


class TestConcurrentWriters:
    def test_parallel_puts_never_tear(self, cache, summary):
        """Many threads writing the same key: the entry is always whole."""
        key = cache.key(summary.config)
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    cache.put(key, summary)
                    loaded = cache.get(key)
                    if loaded is not None and loaded != summary:
                        errors.append("read a torn entry")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.get(key) == summary

    def test_no_tmp_droppings_left_behind(self, cache, summary):
        key = cache.key(summary.config)
        for _ in range(5):
            cache.put(key, summary)
        assert list(cache.root.rglob("*.tmp")) == []


class TestStaleTmpSweep:
    def _orphan(self, cache, summary, age: float) -> Path:
        """Plant a tmp file as a writer dying mid-put would leave it."""
        key = cache.key(summary.config)
        fanout = cache._path(key).parent
        fanout.mkdir(parents=True, exist_ok=True)
        orphan = fanout / "deadwriter.tmp"
        orphan.write_bytes(b"half a pickle")
        stamp = __import__("time").time() - age
        __import__("os").utime(orphan, (stamp, stamp))
        return orphan

    def test_stale_tmp_swept_on_open(self, cache, summary):
        orphan = self._orphan(cache, summary, age=7200.0)
        reopened = ResultCache(root=cache.root)
        assert not orphan.exists()
        assert reopened.get(cache.key(summary.config)) is None  # still a miss

    def test_fresh_tmp_survives_the_sweep(self, cache, summary):
        """A live concurrent writer's tmp file must not be deleted."""
        orphan = self._orphan(cache, summary, age=0.0)
        ResultCache(root=cache.root)
        assert orphan.exists()

    def test_sweep_reports_count_and_is_idempotent(self, cache, summary):
        self._orphan(cache, summary, age=7200.0)
        assert cache.sweep_stale_tmp() == 1
        assert cache.sweep_stale_tmp() == 0

    def test_put_after_crashed_writer_still_lands(self, cache, summary):
        """An orphaned tmp never blocks a later successful write."""
        self._orphan(cache, summary, age=7200.0)
        key = cache.key(summary.config)
        cache.put(key, summary)
        assert cache.get(key) == summary


class TestCodeVersionToken:
    def _scratch_package(self, tmp_path: Path) -> Path:
        root = tmp_path / "pkg"
        (root / "validate").mkdir(parents=True)
        (root / "__init__.py").write_text("")
        (root / "core.py").write_text("x = 1\n")
        (root / "validate" / "__init__.py").write_text("")
        (root / "validate" / "engine.py").write_text("CHECKS = []\n")
        return root

    def test_validate_edit_changes_the_token(self, tmp_path):
        root = self._scratch_package(tmp_path)
        before = code_version_token(root)
        (root / "validate" / "engine.py").write_text("CHECKS = ['new']\n")
        after = code_version_token(root)
        assert before != after

    def test_new_file_changes_the_token(self, tmp_path):
        root = self._scratch_package(tmp_path)
        before = code_version_token(root)
        (root / "validate" / "checkers.py").write_text("pass\n")
        assert code_version_token(root) != before

    def test_unchanged_tree_is_stable(self, tmp_path):
        root = self._scratch_package(tmp_path)
        assert code_version_token(root) == code_version_token(root)

    def test_token_change_invalidates_config_digests(self, tmp_path):
        root = self._scratch_package(tmp_path)
        config = wan_scenario(transfer_bytes=4 * 1024, record_trace=False)
        before = config_digest(config, code_version_token(root))
        (root / "validate" / "engine.py").write_text("CHECKS = ['edited']\n")
        after = config_digest(config, code_version_token(root))
        assert before != after

    def test_installed_package_includes_validate_sources(self):
        import repro

        package_root = Path(repro.__file__).resolve().parent
        names = {
            str(p.relative_to(package_root)) for p in source_files(package_root)
        }
        assert "validate/engine.py" in names
        assert "validate/checkers.py" in names
        assert "validate/bundle.py" in names
