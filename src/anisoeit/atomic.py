"""Atomic file output, and the checks of the JSON documents read back."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np


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


def read_json(path, fmt: str) -> dict:
    """The JSON object of format ``fmt`` in ``path``; a ValueError if none."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValueError(f"{path}: not a JSON object of format {fmt!r}")
    return doc


def count(doc: dict, name: str) -> int:
    """Entry ``name`` of a loaded document as an int; a ValueError naming
    it if it is not a finite integer (JSON reads 1e400 as infinity)."""
    v = doc[name]
    whole = isinstance(v, int) or isinstance(v, float) and v.is_integer()
    if isinstance(v, bool) or not whole:
        raise ValueError(f"{name} is {v!r}, not a finite integer")
    return int(v)


def float_array(doc: dict, name: str, shape: tuple) -> np.ndarray:
    """Entry ``name`` of a loaded document as a finite float array of
    ``shape``; raises ValueError naming the entry otherwise."""
    try:
        a = np.asarray(doc[name], dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} is not a finite float array of shape "
                         f"{shape}")
    return a
