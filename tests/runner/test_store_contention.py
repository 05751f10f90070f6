"""Cross-process ResultStore contention: put/get/gc racing for real.

The store's only promises under concurrency are (a) readers never see
a torn artifact — a ``get`` returns a complete payload or a miss, and
(b) nothing healthy lands in quarantine.  These tests hammer one store
root from several OS processes (the same isolation level the runner's
pool uses) and from several threads of one process (as the serve
tier's slots do), and check exactly those promises, plus the
StoreLock's timeout/stale-break behaviour and its obs counters.
"""

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import RunnerError
from repro.obs import names as obs_names
from repro.runner.store import (DEFAULT_LOCK_TIMEOUT_S, ResultStore,
                                StoreLock, default_lock_timeout_s)

N_WORKERS = 4
N_KEYS = 25


def _keys():
    return [f"{i:02d}contended{i:03d}" for i in range(N_KEYS)]


def _payload(key: str) -> dict:
    return {"key": key, "value": sum(map(ord, key))}


def _hammer_put_get(root: str, rounds: int, miss_ok: bool = False) -> None:
    """Worker body: write and read back every shared key, repeatedly.

    ``miss_ok`` lets a read-back miss: a racing ``gc`` may unlink the
    key between this worker's ``put`` and its ``get``.
    """
    store = ResultStore(root)
    for _ in range(rounds):
        for key in _keys():
            store.put(key, _payload(key))
            got = store.get(key)
            if got is None and miss_ok:
                continue
            # Atomic replace means a racing reader sees a complete old
            # or complete new artifact — and here they are identical.
            assert got == _payload(key), (key, got)


def _hammer_gc(root: str, rounds: int) -> None:
    """Worker body: run gc/stats loops against the writers."""
    store = ResultStore(root)
    for _ in range(rounds):
        store.gc(keep=N_KEYS // 2)
        store.stats()


def _run_all(targets) -> None:
    procs = [multiprocessing.Process(target=fn, args=args)
             for fn, args in targets]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
    alive = [p for p in procs if p.is_alive()]
    for p in alive:
        p.kill()
    assert not alive, "contention worker wedged"
    assert all(p.exitcode == 0 for p in procs), \
        [p.exitcode for p in procs]


class TestConcurrentPutGet:
    def test_parallel_writers_never_tear_or_quarantine(self, tmp_path):
        root = str(tmp_path / "store")
        _run_all([(_hammer_put_get, (root, 10))] * N_WORKERS)
        store = ResultStore(root)
        for key in _keys():
            assert store.get(key) == _payload(key)
        stats = store.stats()
        assert stats.n_entries == N_KEYS
        assert stats.n_quarantined == 0

    def test_threads_of_one_process_never_collide(self, tmp_path):
        """Serve slots put artifacts from threads of one process; two
        threads writing the same key at once must both succeed."""
        store = ResultStore(tmp_path / "store")
        errors = []

        def writer():
            try:
                for _ in range(20):
                    for key in _keys()[:5]:
                        store.put(key, _payload(key), sidecar=key.encode())
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(N_WORKERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for key in _keys()[:5]:
            got = store.get(key)
            assert got is not None and got["key"] == key
        assert store.stats().n_quarantined == 0

    def test_writers_racing_gc(self, tmp_path):
        """gc may delete artifacts mid-race, but every survivor must
        read back whole and nothing may be quarantined."""
        root = str(tmp_path / "store")
        targets = [(_hammer_put_get, (root, 6, True))] * (N_WORKERS - 1)
        targets.append((_hammer_gc, (root, 20)))
        _run_all(targets)
        store = ResultStore(root)
        seen = sum(1 for key in _keys()
                   if store.get(key) == _payload(key))
        # Misses are fine (gc took them); corruption is not.
        assert seen == store.stats().n_entries
        assert store.stats().n_quarantined == 0


class TestLockTimeout:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("DOMINO_STORE_LOCK_TIMEOUT", raising=False)
        assert default_lock_timeout_s() == DEFAULT_LOCK_TIMEOUT_S
        monkeypatch.setenv("DOMINO_STORE_LOCK_TIMEOUT", "2.5")
        assert default_lock_timeout_s() == 2.5
        assert StoreLock(os.devnull + "-unused").timeout_s == 2.5

    @pytest.mark.parametrize("raw", ["nope", "-1"])
    def test_env_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("DOMINO_STORE_LOCK_TIMEOUT", raw)
        with pytest.raises(RunnerError):
            default_lock_timeout_s()

    def test_contended_lock_times_out_and_counts_waits(self, tmp_path):
        obs.configure(level=obs.parse_level("info"))
        try:
            store = ResultStore(tmp_path / "store")
            with store.lock():
                started = time.monotonic()
                with pytest.raises(RunnerError, match="held by another"):
                    store.lock(timeout_s=0.2).acquire()
                assert time.monotonic() - started < 5.0
            waits = obs.state().registry.snapshot()["counters"].get(
                f"runner.store.{obs_names.MET_LOCK_WAITS}", 0)
            assert waits >= 1
        finally:
            obs.disable()

    def test_dead_holder_lock_is_broken_and_counted(self, tmp_path):
        obs.configure(level=obs.parse_level("info"))
        try:
            store = ResultStore(tmp_path / "store")
            # A pid from a process that has provably exited.
            probe = multiprocessing.Process(target=_noop)
            probe.start()
            dead_pid = probe.pid
            probe.join()
            lock_path = tmp_path / "store" / ".lock"
            lock_path.parent.mkdir(parents=True, exist_ok=True)
            lock_path.write_text(str(dead_pid), encoding="utf-8")
            with store.lock(timeout_s=5.0):
                pass  # acquired by breaking the dead holder's lock
            breaks = obs.state().registry.snapshot()["counters"].get(
                f"runner.store.{obs_names.MET_LOCK_BREAKS}", 0)
            assert breaks >= 1
        finally:
            obs.disable()


def _noop() -> None:
    pass
