"""Atomic file output: every writer in the package goes through here."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing and, when the
    block exits cleanly, move it onto ``path`` with ``os.replace``.

    If the block raises, the temporary file is deleted and an existing
    ``path`` keeps its old bytes, so a failed or killed writer never
    leaves a truncated output under the final name.  (A process killed
    mid-write may leave the hidden ``.<name>.<pid>.tmp`` file.)
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc) -> None:
    """Write ``doc`` atomically as key-sorted JSON, indented by two
    spaces, with a trailing newline."""
    with atomic_open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
