"""The certificate cache: a directory of JSON entries keyed by name and code.

Only the ``cache`` verbs and ``verify annihilator --mode special`` load this
module, so the other commands compile none of it and import no `json`.
The special mode keeps one entry per call, its list of certificates.
`harness.Cache` still resolves to `Cache` through `harness._MOVED`.
"""

import functools
import json
import os
import re
import zlib
from pathlib import Path

from . import __version__


@functools.lru_cache(maxsize=None)
def source_digest():
    """16 hex digits: CRC-32 and Adler-32 over the names and contents of
    the package's *.py sources.

    The tag guards against entries written by stale code, not against an
    adversary: an edit of a source changes it, but it is no cryptographic
    hash.  It needs `zlib`, not `hashlib`, whose import loads OpenSSL.
    Computed on first use, once per process, so a command that never reads
    or writes an entry does not pay for it.
    """
    data = b"".join(
        path.name.encode() + b"\0" + path.read_bytes() + b"\0"
        for path in sorted(Path(__file__).resolve().parent.glob("*.py"))
    )
    return "%08x%08x" % (zlib.crc32(data), zlib.adler32(data))


# entry names: "<key>-v<version>.json" (before source digests) or
# "<key>-v<version>-<digest>.json", the key made safe by `Cache._safe` and
# the version starting with a digit; `clear` and `stats` see no other file
_ENTRY_TAG = r"-v[0-9][^-]*(-[0-9a-f]{16})?\.json"
_TAG = re.compile(_ENTRY_TAG)
_ENTRY_NAME = re.compile(r"[A-Za-z0-9_.-]+" + _ENTRY_TAG)


class Cache:
    """A directory of JSON entries keyed by name and by the engine's code.

    The root is the explicit argument if given, else the RAYVERIFY_CACHE
    environment variable, else ~/.cache/rayverify.  Entry names carry the
    engine version and a digest of the package sources (`source_digest`),
    so entries written by any other code are never returned; `put` removes
    those of the same key, and `stats` counts them apart as stale.
    """

    def __init__(self, root=None):
        root = (
            root
            or os.environ.get("RAYVERIFY_CACHE")
            or os.path.join(os.path.expanduser("~"), ".cache", "rayverify")
        )
        self.root = Path(root)

    @staticmethod
    def _safe(key):
        return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in key)

    @staticmethod
    def _tag():
        return "-v%s-%s.json" % (__version__, source_digest())

    def _path(self, key):
        return self.root / (self._safe(key) + self._tag())

    def get(self, key):
        try:
            with open(self._path(key)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, key, value):
        """Store `value` under `key` through a temporary file of this write's
        own; an `OSError` leaves the key uncached, as `get` misses on one."""
        path = self._path(key)
        tmp = path.with_name("%s.%s.tmp" % (path.name, os.urandom(8).hex()))
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as fh:
                json.dump(value, fh, sort_keys=True)
            tmp.replace(path)
            # `_safe` leaves no glob metacharacter, so the glob fixes the prefix
            safe = self._safe(key)
            for old in self.root.glob(safe + "-v*.json"):
                if old != path and _TAG.fullmatch(old.name, len(safe)):
                    old.unlink(missing_ok=True)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def _entries(self):
        """Files named like an entry of any code; other files are left alone."""
        if not self.root.is_dir():
            return []
        return [p for p in self.root.glob("*.json") if _ENTRY_NAME.fullmatch(p.name)]

    def clear(self):
        entries = self._entries()
        for path in entries:
            path.unlink()
        return len(entries)

    def stats(self):
        """Entries and bytes of the current code's entries, and the count of
        stale entries written by other code (removed by `clear`)."""
        entries = self._entries()
        live = [p for p in entries if p.name.endswith(self._tag())]
        return {
            "root": str(self.root),
            "entries": len(live),
            "bytes": sum(p.stat().st_size for p in live),
            "stale": len(entries) - len(live),
        }
