"""Content-addressed JSON cache with atomic writes.

Entries are keyed by a JSON-serializable key dict; the filename is the
sha256 of the canonical key encoding, so distinct keys never share a
file and a key change invalidates by construction.  Stored documents
carry a schema version and a checksum over the payload; anything stale,
unparsable, or failing its checksum is treated as a miss (corrupt
entries warn on stderr so a recompute is visible).  Writes go through a
temp file in the same directory followed by os.replace, which keeps
concurrent writers safe: the last complete write wins and readers never
observe a partial file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

SCHEMA_VERSION = 1


def default_dir() -> str:
    env = os.environ.get("WALLCROSS_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "wallcross")


def _digest(obj) -> str:
    import hashlib  # here, not at the top: uncached commands never load OpenSSL

    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def entry_path(root: str, key: dict) -> str:
    return os.path.join(root, _digest(key) + ".json")


def load(root: str, key: dict):
    """The payload stored under key, or None on any kind of miss."""
    path = entry_path(root, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (FileNotFoundError, NotADirectoryError):
        return None  # no entry, or a cache directory that cannot exist
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        print(f"wallcross: unreadable cache entry {path}; recomputing",
              file=sys.stderr)
        return None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        return None  # stale schema: silently ignored, never an error
    if doc.get("key") != key or "payload" not in doc:
        print(f"wallcross: cache entry {path} does not match its key; recomputing",
              file=sys.stderr)
        return None
    if doc.get("checksum") != _digest(doc["payload"]):
        print(f"wallcross: checksum mismatch in {path}; recomputing",
              file=sys.stderr)
        return None
    return doc["payload"]


def store(root: str, key: dict, payload) -> str:
    """Write payload under key atomically; returns the entry path."""
    os.makedirs(root, exist_ok=True)
    doc = {
        "schema": SCHEMA_VERSION,
        "key": key,
        "payload": payload,
        "checksum": _digest(payload),
    }
    path = entry_path(root, key)
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
