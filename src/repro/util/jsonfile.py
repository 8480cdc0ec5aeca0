"""The one way a JSON document artifact reaches disk, and the one way
a text artifact is opened gzip-transparently.

Manifests, the campaign spec file, ``progress.json`` and the error map
are whole documents that readers load in one piece — ``campaign status``
even reads the mere existence of ``manifest.json`` as "finished" — so
each is written to a sibling temp file and renamed into place: a reader,
or a run killed inside the write, sees the previous document or the new
one, never an empty or torn file.  (Journal, sink and cache writes are
append or content-addressed streams with their own fsync discipline and
do not come through here.)

:func:`open_maybe_gzip` opens every trace, journal and result stream
that may be archived as ``.gz``; it loads ``gzip`` only for such a path.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Union

__all__ = ["open_maybe_gzip", "write_json_atomic"]


def write_json_atomic(
    path: Union[str, Path], document: Any, sort_keys: bool = False
) -> None:
    """Write ``document`` to ``path`` as indented JSON, all or nothing.

    The temp name carries the pid, so two processes sharing one artifact
    (campaigns merging into one ``error_map.json``) never write into
    each other's staging file.  If the dump raises, the temp file is
    removed and ``path`` is left exactly as it was.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=sort_keys)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def open_maybe_gzip(path: str, mode: str) -> IO[str]:
    """Open ``path`` for text I/O, gzip-compressed when it ends ``.gz``.

    Long-campaign traces compress ~10x; every trace read and write path
    (JSONL telemetry traces, Chrome span traces, ``repro-bbr report``)
    routes through here so ``.jsonl.gz``/``.json.gz`` work everywhere.
    """
    if mode not in ("r", "w", "a"):
        raise ValueError(f"mode must be r, w, or a, got {mode!r}")
    if str(path).endswith(".gz"):
        import gzip

        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")
