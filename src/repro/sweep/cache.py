"""Content-addressed on-disk memoization of completed sweep cells.

A cell's address is the SHA-256 of the canonical JSON of its identity —
``(experiment, key, params, seed)`` plus the :func:`~repro.sweep
.fingerprint.code_fingerprint` of the source tree — so a cache hit is
*provably* the same computation: same spec, same seed, same code.
Re-running a sweep after an unrelated edit elsewhere on the machine (a
different checkout, a different cache root) can never alias.

Entries are single JSON files sharded by the first two hex digits.
Writes go through a temp file + ``os.replace`` so a crashed or killed
sweep never leaves a half-written entry; a corrupt or foreign file found
at an entry path is deleted and treated as a miss (the cell simply
re-runs), so the cache is self-healing.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..experiments.registry import CellSpec

__all__ = ["CellCache", "cell_cache_key"]

#: Entry schema marker; bump when the payload layout changes.
CACHE_SCHEMA = "repro.sweep.cache/v1"


def cell_cache_key(cell: CellSpec, code_fingerprint: str) -> str:
    """The content address of one cell under one code fingerprint."""
    identity = dict(cell.identity())
    identity["code"] = code_fingerprint
    identity["schema"] = CACHE_SCHEMA
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class CellCache:
    """On-disk cell memoizer with hit/miss accounting."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt entries deleted on read.
        self.recovered = 0

    # -- addressing --------------------------------------------------------
    def key_for(self, cell: CellSpec, code_fingerprint: str) -> str:
        return cell_cache_key(cell, code_fingerprint)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read --------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The memoized cell document, or None on miss.

        Unreadable, unparseable, or wrong-schema entries are removed and
        reported as misses — a corrupt cache degrades to recomputation,
        never to wrong results.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self._discard(path)
            self.misses += 1
            return None
        try:
            payload = json.loads(raw)
        except ValueError:
            self._discard(path)
            self.misses += 1
            return None
        if (not isinstance(payload, dict)
                or payload.get("schema") != CACHE_SCHEMA
                or "doc" not in payload):
            self._discard(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload["doc"]

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
            self.recovered += 1
        except OSError:
            pass

    # -- write -------------------------------------------------------------
    def put(self, key: str, cell: CellSpec, doc: Dict[str, Any]) -> None:
        """Store ``doc`` atomically under ``key``."""
        path = self.path_for(key)
        payload = {
            "schema": CACHE_SCHEMA,
            "cell": cell.identity(),
            "doc": doc,
        }
        blob = json.dumps(payload, sort_keys=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    # -- management --------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "recovered": self.recovered}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CellCache {self.root} hits={self.hits} "
                f"misses={self.misses}>")
