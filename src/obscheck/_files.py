"""Atomic file writes shared by the report writer and the sample-set cache."""

from __future__ import annotations

import os
import threading
from pathlib import Path


def write_atomic(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file.  The temp name is unique per process and thread, so
    concurrent writers of the same path cannot interleave: the last rename
    wins with a complete file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
