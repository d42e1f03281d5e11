"""One file per entry: the protocol of the small persistent caches.

The kir autotune cache (:mod:`repro.kir.autotune`) and the service's
disk artifact cache (:mod:`repro.service.artifacts`) keep each entry
in its own file, named by its key and layout version, in one per-host
directory (:func:`host_dir`).  A writer commits a tmp file with
``os.replace`` (:func:`atomic_write`), so readers see old or new bytes,
never a torn file, and a writer killed mid-write leaves only a tmp file
no reader opens.  Writers of different keys never share a file; writers
of one key write equal entries and the last replace wins.  A reader
opens exactly the file it needs (:func:`read_entry`).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from typing import Callable, Optional, Tuple

from .autotune import host_fingerprint


def host_dir(root: str) -> str:
    """Filesystem-safe per-host subdirectory of ``root`` (named by
    :func:`repro.autotune.host_fingerprint`, ``REPRO_HOST_ID``-aware)."""
    fp = host_fingerprint()
    safe = "".join(c if (c.isalnum() or c in "._-") else "_" for c in fp)
    tag = hashlib.blake2b(fp.encode(), digest_size=4).hexdigest()
    return os.path.join(root, f"{safe}-{tag}")


def read_entry(
    path: str, load: Callable, what: str
) -> Tuple[Optional[object], bool]:
    """``(load(fh), False)`` for the binary file at ``path``.

    A missing file is ``(None, False)``; any failure to read it, or of
    ``load`` to decode or accept it, warns and is ``(None, True)``.
    """
    try:
        with open(path, "rb") as fh:
            return load(fh), False
    except FileNotFoundError:
        return None, False
    except Exception as exc:  # any corruption is a miss, never a crash
        warnings.warn(
            f"{what} {path!r} unreadable ({type(exc).__name__}: {exc}); "
            "treating it as a miss",
            RuntimeWarning,
            stacklevel=3,
        )
        return None, True


def atomic_write(path: str, mode: str, write: Callable) -> None:
    """Commit ``write(fh)`` to ``path`` via tmp file + ``os.replace``."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", dir=directory
    )
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
