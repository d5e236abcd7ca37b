"""Atomic JSON file writes and entry integrity, shared by every on-disk store.

The result cache and the service's job records follow the same
durability rule: a reader may never observe a half-written entry, so
every write goes to a same-directory temporary file first and lands with
one atomic :func:`os.replace`.  This module is the single implementation
of that rule.

Temporary files carry the ``.tmp`` suffix.  A process killed between
``mkstemp`` and ``os.replace`` (SIGKILL, power loss) orphans one such
file; the ordinary exception path unlinks it, and
:func:`repro.sweep.manage.gc_cache` sweeps any survivor older than a
grace period (``repro cache gc`` / ``stats`` report them), so orphans are
bounded garbage, never corruption.

Atomic replacement protects against *half-written* entries; it cannot
protect against bytes that rot **after** the rename (disk corruption, a
truncating copy, an interrupted rsync).  For that, cache entries embed a
content checksum: :func:`stamp_checksum` adds a SHA-256 over the entry's
canonical JSON, and :func:`verify_checksum` re-derives it on read.  A
mismatched entry is quarantined by its store (renamed to ``*.corrupt``,
see :data:`CORRUPT_SUFFIX`) and reads as a plain miss — recomputed, never
trusted.  Entries written before checksums existed carry no stamp and are
accepted as-is.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict

__all__ = ["CHECKSUM_FIELD", "CORRUPT_SUFFIX", "TMP_SUFFIX",
           "atomic_write_json", "payload_checksum", "quarantine_corrupt",
           "stamp_checksum", "verify_checksum"]

#: Suffix of in-flight temporary files; the cache manager recognises (and
#: eventually sweeps) stale files carrying it.
TMP_SUFFIX = ".tmp"

#: Suffix a store gives a corrupt entry when quarantining it: the bytes are
#: preserved for post-mortem inspection but can never again be read as a
#: cache hit.  ``repro cache stats`` counts these and ``gc`` sweeps them.
CORRUPT_SUFFIX = ".corrupt"

#: Entry field holding the embedded content checksum.
CHECKSUM_FIELD = "checksum"


def payload_checksum(entry: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``entry`` minus its own stamp.

    The checksum field itself is excluded so verification can re-derive
    the digest from a loaded entry without copying it first.
    """
    body = {k: v for k, v in entry.items() if k != CHECKSUM_FIELD}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def stamp_checksum(entry: Dict[str, Any]) -> Dict[str, Any]:
    """Embed the content checksum into ``entry`` (in place) and return it."""
    entry[CHECKSUM_FIELD] = payload_checksum(entry)
    return entry


def verify_checksum(entry: Any) -> bool:
    """Whether a loaded entry's embedded checksum matches its content.

    An entry without a stamp (written before checksums existed) passes —
    integrity is an upgrade, not an invalidation.  A non-dict entry fails:
    whatever it is, it is not one of ours.
    """
    if not isinstance(entry, dict):
        return False
    stamp = entry.get(CHECKSUM_FIELD)
    if stamp is None:
        return True
    return stamp == payload_checksum(entry)


def quarantine_corrupt(path: str) -> bool:
    """Move a corrupt entry aside as ``<path>.corrupt`` (best effort).

    The rename is atomic, so a concurrent reader sees either the corrupt
    entry (and quarantines it again — idempotent) or a plain miss.  Returns
    whether the rename happened.
    """
    try:
        os.replace(path, path + CORRUPT_SUFFIX)
        return True
    except OSError:
        return False


def atomic_write_json(path: str, obj: Any, **dump_kwargs: Any) -> None:
    """Write ``obj`` as JSON to ``path`` atomically (tempfile + rename).

    The temporary file lives in ``path``'s directory (same filesystem, so
    the final :func:`os.replace` is atomic) and is unlinked on any failure
    between creation and rename.  ``dump_kwargs`` pass through to
    :func:`json.dump` (``sort_keys``, ``separators``, ``indent``, ...).
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=TMP_SUFFIX)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(obj, f, **dump_kwargs)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
