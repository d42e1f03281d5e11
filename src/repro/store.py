"""One on-disk table protocol for the small persistent caches.

The kir autotune cache (:mod:`repro.kir.autotune`) and the artifact
index (:mod:`repro.service.artifacts`) are both a versioned JSON
document ``{"version": V, "<section>": {...}}`` that several processes
update concurrently.  The protocol, once:

* **read** (:func:`load_versioned`) — a missing file is an empty table;
  a corrupt one, or one written by another schema version, degrades to
  an empty table with a warning, never an error;
* **write** (:func:`atomic_write`, :func:`save_versioned`) — a tmp file
  in the same directory, then ``os.replace``, so readers see the old
  bytes or the new ones, never a torn file;
* **read-merge-write** under :func:`file_lock` — an advisory ``flock``
  on a sibling ``<path>.lock``, so lockers never contend with the
  ``os.replace`` of the file itself and two writers of different keys
  interleave instead of discarding each other's entries.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from contextlib import contextmanager
from typing import Callable, Dict, Tuple

try:  # advisory file locking (POSIX); degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]


@contextmanager
def file_lock(path: str):
    """Hold the exclusive advisory lock that guards ``path``.

    Without :mod:`fcntl` the lock degrades to a no-op and only the
    merge-before-replace of the caller protects concurrent writers
    (best effort).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX
        yield
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path + ".lock", "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def load_versioned(path: str, version: int, section: str, what: str,
                   cold: str) -> Tuple[Dict[str, dict], bool]:
    """Read ``section`` of the document at ``path``.

    Returns ``(table, bad)``: ``bad`` is true when the file was there
    but unreadable or of another layout, in which case a warning
    ``"<what> '<path>' ...; <cold>"`` was issued and the table is empty.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}, False
    except (OSError, json.JSONDecodeError) as exc:
        warnings.warn(
            f"{what} {path!r} unreadable ({exc}); {cold}",
            RuntimeWarning,
            stacklevel=3,
        )
        return {}, True
    if not isinstance(data, dict) or data.get("version") != version:
        warnings.warn(
            f"{what} {path!r} has unsupported layout; {cold}",
            RuntimeWarning,
            stacklevel=3,
        )
        return {}, True
    table = data.get(section)
    return (table if isinstance(table, dict) else {}), False


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


def save_versioned(path: str, version: int, section: str,
                   table: Dict[str, dict]) -> None:
    """Atomically persist ``{"version": version, section: table}``."""

    def write(fh) -> None:
        json.dump({"version": version, section: table}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")

    atomic_write(path, "w", write)
