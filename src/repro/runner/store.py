"""Content-addressed on-disk artifact store for cell results.

Layout (under ``.domino-cache/`` by default, overridable via the
``DOMINO_CACHE_DIR`` environment variable or an explicit root)::

    .domino-cache/
      v1/                      # schema version directory
        ab/                    # first two hex digits of the key
          ab3f...e0.json       # one artifact per cell
      quarantine/              # corrupt artifacts, moved aside for autopsy
      .lock                    # advisory lock for clear/gc maintenance

Every artifact is a small JSON document ``{"schema", "code_version",
"key", "payload"}``.  Writes are durable and atomic — the document is
written to a unique temporary file in the destination directory,
flushed and ``fsync``'d, then ``os.replace``d into place — so a crashed
or concurrent writer can never leave a half-written artifact behind a
valid name, and a completed ``put`` survives power loss (which is what
lets a re-run of a killed sweep serve every stored cell as finished).

Bulk numeric payloads (today: ``l1_filter`` arrays) ride in a **binary
sidecar** — a ``<key>.bin`` file in the same shard directory holding
raw ``.npy`` bytes that readers open with ``np.load(mmap_mode="r")``
for zero-copy sharing through the page cache.  The JSON envelope stays
the source of truth: it records the sidecar under ``payload_path``
(file name only; resolved on ``get`` and attached into the payload as
an absolute ``sidecar_path``).  Sidecars get the same fsync +
atomic-rename treatment and are written *before* the envelope, so the
only crash artifact possible is an orphan sidecar with no envelope —
harmless, and swept by ``gc``/``clear``.  Quarantine moves envelope
and sidecar together so the evidence stays paired.

Reads are defensive: any unreadable, unparsable, or mismatched artifact
is treated as a cache *miss* and **quarantined** — moved to
``quarantine/`` and logged through ``repro.obs`` — rather than raised
or silently deleted, because the cache must never break an experiment
that could run without it, and the corrupt bytes are evidence worth
keeping.

Destructive maintenance (``clear``/``gc``) takes an advisory lockfile
so two runs sharing one cache cannot interleave an artifact sweep with
each other's writes.  Plain ``get``/``put`` stay lock-free: they are
already safe under concurrency thanks to atomic replace.

The store intentionally reuses plain JSON rather than pickle: artifacts
survive interpreter upgrades, are greppable, and cannot execute code on
load.  Larger binary artifacts (traces) keep using the ``.npz`` path in
:mod:`repro.sim.trace`.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .. import obs
from ..obs import names as obs_names
from ..errors import RunnerError
from .cells import CODE_VERSION

#: On-disk schema version; bump when the artifact document shape changes.
SCHEMA_VERSION = 1

#: Default cache root (relative to the working directory).
DEFAULT_ROOT = ".domino-cache"

#: Where corrupt artifacts are moved (under the store base).
QUARANTINE_DIR = "quarantine"

_ENV_ROOT = "DOMINO_CACHE_DIR"

#: Seconds a maintenance lock acquire waits before giving up; the env
#: variable lets shared-cache CI shards wait out each other's sweeps
#: without threading a flag through every call site.
_ENV_LOCK_TIMEOUT = "DOMINO_STORE_LOCK_TIMEOUT"
DEFAULT_LOCK_TIMEOUT_S = 10.0

#: Store telemetry scope (off until obs.configure()).
_OBS = obs.scope("runner.store")


def default_lock_timeout_s() -> float:
    """Lock-acquire budget: ``DOMINO_STORE_LOCK_TIMEOUT`` or 10s."""
    raw = os.environ.get(_ENV_LOCK_TIMEOUT)
    if raw is None or not raw.strip():
        return DEFAULT_LOCK_TIMEOUT_S
    try:
        timeout_s = float(raw)
    except ValueError:
        raise RunnerError(
            f"{_ENV_LOCK_TIMEOUT}={raw!r} is not a number") from None
    if timeout_s < 0:
        raise RunnerError(f"{_ENV_LOCK_TIMEOUT} must be >= 0")
    return timeout_s


@dataclass(frozen=True)
class StoreStats:
    """Aggregate numbers for ``domino-repro cache stats``."""

    root: str
    n_entries: int
    total_bytes: int
    n_quarantined: int = 0

    def render(self) -> str:
        mib = self.total_bytes / (1024 * 1024)
        text = (f"cache {self.root}: {self.n_entries} artifacts, "
                f"{mib:.2f} MiB (schema v{SCHEMA_VERSION}, "
                f"code v{CODE_VERSION})")
        if self.n_quarantined:
            text += f", {self.n_quarantined} quarantined"
        return text


class StoreLock:
    """Advisory lockfile serialising destructive cache maintenance.

    ``O_CREAT | O_EXCL`` gives atomic acquisition on every platform the
    repo targets.  The file records the holder's pid; a lock whose
    holder is dead, or older than ``stale_s`` seconds, is broken —
    a crashed ``cache clear`` must not wedge every future run.
    """

    def __init__(self, base: str | Path, timeout_s: float | None = None,
                 stale_s: float = 600.0) -> None:
        self.path = Path(base) / ".lock"
        self.timeout_s = (default_lock_timeout_s() if timeout_s is None
                          else timeout_s)
        self.stale_s = stale_s
        self._held = False

    def acquire(self) -> "StoreLock":
        deadline = time.monotonic() + self.timeout_s
        self.path.parent.mkdir(parents=True, exist_ok=True)
        waited = False
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not waited:
                    waited = True
                    _OBS.counter(obs_names.MET_LOCK_WAITS).inc()
                if self._break_if_stale():
                    continue
                if time.monotonic() >= deadline:
                    raise RunnerError(
                        f"cache lock {self.path} is held by another process "
                        f"(waited {self.timeout_s:g}s); is a concurrent "
                        "clear/gc running?") from None
                time.sleep(0.05)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # Advisory lockfile only: the pid is a debugging hint, not
                # durable state, and stale detection tolerates a torn write.
                fh.write(str(os.getpid()))  # repro: noqa[IO001]
            self._held = True
            return self

    def _break_if_stale(self) -> bool:
        """Remove the lockfile if its holder is provably gone."""
        try:
            pid = int(self.path.read_text(encoding="utf-8") or "0")
            age = time.time() - self.path.stat().st_mtime
        except (OSError, ValueError):
            return False  # racing holder mid-write (or already released)
        stale = age > self.stale_s
        if pid > 0 and not stale:
            try:
                os.kill(pid, 0)
                return False  # holder is alive
            except ProcessLookupError:
                stale = True
            except PermissionError:
                return False  # alive, owned by someone else
        if not stale:
            return False
        _OBS.warning(obs_names.EVT_LOCK_BROKEN, path=str(self.path), holder_pid=pid)
        _OBS.counter(obs_names.MET_LOCK_BREAKS).inc()
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            return False
        return True

    def release(self) -> None:
        if self._held:
            self._held = False
            with contextlib.suppress(OSError):
                self.path.unlink(missing_ok=True)

    def __enter__(self) -> "StoreLock":
        return self.acquire() if not self._held else self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class ResultStore:
    """Atomic-write JSON artifact store addressed by cell key."""

    def __init__(self, root: str | Path | None = None) -> None:
        base = Path(root or os.environ.get(_ENV_ROOT) or DEFAULT_ROOT)
        self.base = base
        self.root = base / f"v{SCHEMA_VERSION}"
        self.quarantine_dir = base / QUARANTINE_DIR

    # -- addressing -----------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def sidecar_path_for(self, key: str) -> Path:
        """Where ``key``'s binary sidecar lives (next to the envelope)."""
        return self.root / key[:2] / f"{key}.bin"

    def _artifacts(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def _sidecars(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.bin"))

    def _quarantined(self) -> list[Path]:
        if not self.quarantine_dir.is_dir():
            return []
        return sorted(p for p in self.quarantine_dir.iterdir() if p.is_file())

    def lock(self, timeout_s: float | None = None) -> StoreLock:
        """The store's maintenance lock (see :class:`StoreLock`)."""
        return StoreLock(self.base, timeout_s=timeout_s)

    # -- read / write ---------------------------------------------------
    def get(self, key: str, kind: str = "cell") -> dict[str, Any] | None:
        """Payload for ``key``, or ``None`` on any kind of miss.

        Corrupted artifacts (truncated writes from a killed process,
        stale schema, key mismatch from a renamed file) are quarantined
        and reported as misses so the cell simply re-executes.

        ``kind`` distinguishes artifact families sharing the store —
        ``"cell"`` results and ``"l1_filter"`` intermediates today.  A
        document whose recorded kind differs from the requested one is
        quarantined like any other mismatch; artifacts written before
        kinds existed read back as ``"cell"``.
        """
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._quarantine(path, reason=f"{type(exc).__name__}: {exc}")
            return None
        if (not isinstance(document, dict)
                or document.get("schema") != SCHEMA_VERSION
                or document.get("code_version") != CODE_VERSION
                or document.get("key") != key
                or document.get("kind", "cell") != kind
                or not isinstance(document.get("payload"), dict)):
            self._quarantine(path, reason="schema/key/kind mismatch")
            return None
        payload: dict[str, Any] = document["payload"]
        payload_path = document.get("payload_path")
        if payload_path is not None:
            # The envelope names its sidecar by file name only; resolve
            # it relative to the shard so a relocated cache still works.
            if (not isinstance(payload_path, str) or "/" in payload_path
                    or os.sep in payload_path):
                self._quarantine(path, reason="malformed payload_path")
                return None
            sidecar = path.parent / payload_path
            if not sidecar.is_file():
                self._quarantine(path, reason="missing payload sidecar")
                return None
            payload["sidecar_path"] = str(sidecar)
        return payload

    def put(self, key: str, payload: dict[str, Any], kind: str = "cell",
            sidecar: bytes | None = None) -> None:
        """Durably and atomically persist ``payload`` under ``key``.

        When ``sidecar`` bytes are given they are written first (own
        fsync + atomic rename) and the envelope records them under
        ``payload_path`` — so a valid envelope always implies a fully
        written sidecar.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"schema": SCHEMA_VERSION, "code_version": CODE_VERSION,
                    "key": key, "kind": kind, "payload": payload}
        # Temp names are unique per writer thread, not just per process:
        # serve slots run cells in threads of one process, and a shared
        # name would let one thread's rename take the other's file.
        writer = f"{os.getpid()}.{threading.get_ident()}"
        if sidecar is not None:
            side = self.sidecar_path_for(key)
            stmp = side.parent / f".{key}.{writer}.bin.tmp"
            try:
                with open(stmp, "wb") as bfh:
                    bfh.write(sidecar)
                    bfh.flush()
                    os.fsync(bfh.fileno())
                os.replace(stmp, side)
            finally:
                if stmp.exists():
                    stmp.unlink(missing_ok=True)
            document["payload_path"] = side.name
        tmp = path.parent / f".{key}.{writer}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(document, fh, separators=(",", ":"))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # json.dump failed mid-way
                tmp.unlink(missing_ok=True)

    def quarantine_key(self, key: str, reason: str = "") -> bool:
        """Quarantine whatever the store holds for ``key``.

        The public entry point for callers that discover an artifact is
        bad *after* ``get`` handed it over (e.g. a filter payload whose
        decode fails).  Moves the envelope and its sidecar together.
        Returns whether anything existed to move.
        """
        path = self.path_for(key)
        if path.exists():
            self._quarantine(path, reason=reason)
            return True
        sidecar = self.sidecar_path_for(key)
        if sidecar.exists():
            self._quarantine(sidecar, reason=reason)
            return True
        return False

    def _quarantine(self, path: Path, reason: str = "") -> Path | None:
        """Move a corrupt artifact aside (graceful degradation).

        An envelope's sidecar travels with it — a quarantined filter
        without its bytes (or orphaned bytes behind a fresh rebuild)
        would be useless as evidence and confusing on disk.  Falls back
        to deletion when the move itself fails — a corrupt artifact
        must never be able to block a run twice.
        """
        moved = self._move_aside(path)
        if path.suffix == ".json":
            sidecar = path.with_suffix(".bin")
            if sidecar.exists():
                self._move_aside(sidecar)
        if moved is None:
            return None
        _OBS.warning(obs_names.EVT_ARTIFACT_QUARANTINED, path=str(path),
                     to=str(moved), reason=reason)
        return moved

    def _move_aside(self, path: Path) -> Path | None:
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / path.name
            if target.exists():
                target = self.quarantine_dir / f"{path.name}.{os.getpid()}"
            os.replace(path, target)
        except OSError:
            self._discard(path)
            return None
        return target

    @staticmethod
    def _discard(path: Path) -> None:
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)

    # -- maintenance ----------------------------------------------------
    def stats(self) -> StoreStats:
        artifacts = self._artifacts()
        payload_bytes = sum(p.stat().st_size
                            for p in artifacts + self._sidecars())
        return StoreStats(root=str(self.base), n_entries=len(artifacts),
                          total_bytes=payload_bytes,
                          n_quarantined=len(self._quarantined()))

    def clear(self, lock_timeout_s: float | None = None) -> int:
        """Remove every artifact (all schema versions) and the
        quarantine. Returns count."""
        with self.lock(timeout_s=lock_timeout_s):
            removed = len(self._artifacts())
            if self.base.is_dir():
                for child in self.base.iterdir():
                    if child.is_dir() and (child.name.startswith("v")
                                           or child == self.quarantine_dir):
                        shutil.rmtree(child, ignore_errors=True)
        return removed

    def gc(self, keep: int, lock_timeout_s: float | None = None) -> int:
        """Drop the oldest artifacts beyond ``keep`` entries (by mtime).

        Also removes any artifact directories from older schema
        versions, which the current code can no longer read.
        """
        with self.lock(timeout_s=lock_timeout_s):
            removed = 0
            if self.base.is_dir():
                for child in self.base.iterdir():
                    if (child.is_dir() and child != self.root
                            and child.name.startswith("v")):
                        removed += sum(1 for _ in child.glob("*/*.json"))
                        shutil.rmtree(child, ignore_errors=True)
            stamped = []
            for path in self._artifacts():
                try:
                    stamped.append((path.stat().st_mtime, path))
                except OSError:
                    continue
            if keep >= 0 and len(stamped) > keep:
                stamped.sort()
                for mtime, path in stamped[:len(stamped) - keep]:
                    # put() is lock-free, so re-check against the
                    # snapshot: an artifact refreshed since we ranked
                    # it is no longer the oldest — keep it.
                    try:
                        if path.stat().st_mtime != mtime:
                            continue
                    except OSError:
                        continue
                    self._discard(path)
                    self._discard(path.with_suffix(".bin"))
                    removed += 1
            # Orphan sidecars (crash between sidecar and envelope
            # write, or an envelope gc'd by an older code version).
            # Age-gated: a fresh sidecar may belong to a put() that
            # has not written its envelope yet.
            kept = {p.with_suffix(".bin") for p in self._artifacts()}
            cutoff = time.time() - 300.0
            for sidecar in self._sidecars():
                try:
                    orphaned = (sidecar not in kept
                                and sidecar.stat().st_mtime < cutoff)
                except OSError:
                    continue
                if orphaned:
                    self._discard(sidecar)
        return removed
