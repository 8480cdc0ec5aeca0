"""The one way a JSON document artifact reaches disk.

Manifests, the campaign spec file, ``progress.json`` and the error map
are whole documents that readers load in one piece — ``campaign status``
even reads the mere existence of ``manifest.json`` as "finished" — so
each is written to a sibling temp file and renamed into place: a reader,
or a run killed inside the write, sees the previous document or the new
one, never an empty or torn file.  (Journal, sink and cache writes are
append or content-addressed streams with their own fsync discipline and
do not come through here.)
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union

__all__ = ["write_json_atomic"]


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
