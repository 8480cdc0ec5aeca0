"""Content-addressed on-disk result cache.

Results live as JSON files keyed by scenario fingerprint, sharded by the
first two hex digits to keep directories small::

    <root>/ab/abcdef....json

Each file carries a schema version, the package version that produced
it, its own fingerprint (so a file renamed or copied to the wrong key is
rejected), and the payload.  Writes are atomic (temp file + ``os.replace``)
so a killed run never leaves a half-written entry, and the canonical
JSON encoding (sorted keys) makes re-writing the same result
byte-identical.  Corrupt or mismatched files are treated as misses and
logged — never raised.

The default root is ``~/.cache/repro-bbr`` (or ``$XDG_CACHE_HOME/repro-bbr``),
overridable with the ``REPRO_CACHE_DIR`` environment variable or an
explicit ``--cache-dir``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.exec.fingerprint import CACHE_SCHEMA, REPRO_VERSION

__all__ = ["ResultCache", "default_cache_root"]


def _warn(message: str, *args: Any) -> None:
    """Log an entry read as a miss; ``logging`` loads only for one."""
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory (persists the rename itself).

    Some platforms/filesystems refuse to open or fsync directories;
    durability of the *entry contents* does not depend on this, so any
    OSError is swallowed.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def default_cache_root() -> Path:
    """The cache directory used when none is given explicitly."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-bbr"


class ResultCache:
    """A content-addressed store of scenario results.

    Args:
        root: Cache directory; ``None`` uses :func:`default_cache_root`.
            Created lazily on first write.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()

    def _entry(self, fingerprint: str) -> str:
        # The layout, as one str join: on a warm sweep building the
        # path through pathlib costs more than reading the entry.
        return os.path.join(self.root, fingerprint[:2], fingerprint + ".json")

    def path_for(self, fingerprint: str) -> Path:
        """Where the entry for ``fingerprint`` lives (existing or not)."""
        return Path(self._entry(fingerprint))

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``fingerprint``, or None on any miss.

        Missing files, unreadable files, malformed JSON, schema
        mismatches, and fingerprint mismatches all return None; the
        non-trivial failures are logged at WARNING so silent corruption
        is still observable.
        """
        return self.lookup(fingerprint)[0]

    def lookup(
        self, fingerprint: str
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """``(payload, corrupt)`` from one read of the entry.

        ``(payload, False)`` is a hit and ``(None, False)`` a clean miss
        (no entry).  ``(None, True)`` says an entry is there but cannot
        be used — unreadable, malformed, wrong schema or key — which
        :meth:`get` folds into None and the engine counts as a cache
        error.  The entry is opened once and never ``stat``-ed, so
        another process writing or clearing it meanwhile cannot make one
        lookup see both states.
        """
        path = self._entry(fingerprint)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None, False
        except OSError as exc:
            _warn("cache read failed for %s: %s", path, exc)
            return None, True
        payload = self._decode(raw, fingerprint, path)
        return payload, payload is None

    @staticmethod
    def _decode(
        raw: bytes, fingerprint: str, path: str
    ) -> Optional[Dict[str, Any]]:
        """The payload of an entry's bytes, or None (logged) when they
        are not a usable entry for ``fingerprint``."""
        try:
            entry = json.loads(raw)
            if entry["schema"] != CACHE_SCHEMA:
                _warn(
                    "cache entry %s has schema %r (want %r); ignoring",
                    path,
                    entry["schema"],
                    CACHE_SCHEMA,
                )
                return None
            if entry["fingerprint"] != fingerprint:
                _warn(
                    "cache entry %s does not match its key; ignoring", path
                )
                return None
            payload = entry["payload"]
        except (ValueError, KeyError, TypeError) as exc:
            _warn("corrupt cache entry %s: %s", path, exc)
            return None
        if not isinstance(payload, dict):
            _warn("corrupt cache entry %s: non-dict payload", path)
            return None
        return payload

    def put(self, fingerprint: str, payload: Dict[str, Any]) -> Path:
        """Atomically and durably store ``payload`` under ``fingerprint``.

        Returns the entry path.  The encoding is canonical (sorted keys),
        so storing an identical payload twice produces byte-identical
        files.  The temp file is fsync'd before the rename (and the
        shard directory after it, best-effort), so a crash straddling
        ``put`` can never leave a truncated entry at the final path.
        """
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA,
            "version": REPRO_VERSION,
            "fingerprint": fingerprint,
            "payload": payload,
        }
        encoded = json.dumps(
            entry, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{fingerprint[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(encoded)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _fsync_dir(path.parent)
        return path

    def stats(self) -> Dict[str, Any]:
        """Entry count, total bytes, schema for ``repro-bbr cache info``."""
        entries = 0
        total_bytes = 0
        if self.root.exists():
            for path in self.root.glob("??/*.json"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue  # Entry vanished mid-walk (concurrent clear).
                entries += 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "schema": CACHE_SCHEMA,
        }

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.

        Only sharded ``*.json`` entries are touched, so a mistakenly
        configured root never loses unrelated files.  Emptied shard
        directories are removed; the root itself is left in place.
        """
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("??/*.json"):
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            removed += 1
        for shard in self.root.glob("??"):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass  # Not empty (foreign files): leave it.
        return removed

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def __len__(self) -> int:
        """Number of entries on disk (walks the shard directories)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r})"
