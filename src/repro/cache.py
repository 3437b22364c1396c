"""Content-addressed JSON persistence idiom.

The ``optimize_many`` result cache (:mod:`repro.flows.result_cache`)
persists derived results to disk and must survive concurrent writers,
torn writes and stale formats.  It follows three rules, kept here apart
from the store itself; :func:`content_key` is also how the NPN structure
database (:mod:`repro.network.npn`, committed package data) digests its
contents into those keys:

1. **Content-hash keys** — a cache entry's identity is a SHA-256 digest
   over everything that shaped it (:func:`content_key`), including the
   source code that computed it (:func:`source_digest`), so a change in
   any ingredient starts a fresh entry instead of silently serving a
   stale one.
2. **Atomic writes** — payloads land via temp-file + ``os.replace``
   (:func:`atomic_write_json`), so a reader never observes a torn file
   no matter how many processes write concurrently or when a writer is
   killed.
3. **Validate on load** — :func:`load_json` returns ``None`` for
   missing/torn/foreign files instead of raising, and callers replay
   domain-specific validation on every loaded payload (fingerprint
   replay for cached results): corruption degrades to a cache miss,
   never to wrong results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Optional

__all__ = [
    "PACKAGE_ROOT",
    "content_key",
    "source_digest",
    "atomic_write_json",
    "load_json",
]

#: Root directory of the ``repro`` package sources.
PACKAGE_ROOT = Path(__file__).resolve().parent


def content_key(*parts) -> str:
    """SHA-256 hex digest over the ``repr`` of ``parts``.

    The one key-derivation rule of every content-addressed store in the
    repository: deterministic, order-sensitive, and collision-resistant
    for any practical corpus.  Callers pass every ingredient that shaped
    the value (format version, canonical input form, configuration) so
    two keys are equal iff the cached value is reusable.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def source_digest(paths: Iterable[str], root: Path = PACKAGE_ROOT) -> str:
    """SHA-256 hex digest over source files named relative to ``root``.

    Each path and the file's bytes enter the digest in the given order;
    a missing file hashes as a marker instead of raising.  Stores key
    their entries on this so an edit to the code that computed an entry
    retires it.
    """
    digest = hashlib.sha256()
    for rel in paths:
        digest.update(rel.encode())
        try:
            digest.update((root / rel).read_bytes())
        except OSError:
            digest.update(b"<missing>")
    return digest.hexdigest()


def atomic_write_json(path, payload) -> bool:
    """Atomically persist ``payload`` as JSON at ``path`` (best effort).

    Writes to a temp file in the target directory and ``os.replace``\\ s
    it into place, so concurrent readers and writers only ever observe
    complete files.  Returns ``False`` (instead of raising) on OS-level
    failures — read-only cache directories degrade persistence, never
    correctness.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True


def load_json(path) -> Optional[object]:
    """Load a JSON payload, or ``None`` for missing/torn/foreign files.

    The read half of the idiom: any OS error or parse error is a cache
    miss.  Callers must still validate the payload's *content* before
    trusting it (format version, content key, semantic replay).
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
