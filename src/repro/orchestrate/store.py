"""Persistent, content-addressed store of flow results.

One JSON file per job key under a store directory (default
``~/.cache/emorphic/store``, overridable with the ``EMORPHIC_STORE``
environment variable or an explicit path).  Records hold the job spec, the
QoR summary, per-pass runtimes, and the extracted AIG as canonical AIGER
text, so a cached result can be reloaded as a full :class:`repro.aig.graph.Aig`
without re-running the flow.

Writes are atomic (write-to-temp + rename), so concurrent campaigns sharing
a store cannot corrupt records; at worst both compute the same job once.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.aig.graph import Aig
from repro.aig.io_aiger import aag_from_string
from repro.obs import metrics as obs_metrics
from repro.orchestrate.jobs import SCHEMA_VERSION


def default_store_path() -> Path:
    """``$EMORPHIC_STORE`` if set, else ``~/.cache/emorphic/store``."""
    env = os.environ.get("EMORPHIC_STORE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "emorphic" / "store"


class ResultStore:
    """On-disk key → record mapping keyed by :meth:`JobSpec.job_hash`."""

    def __init__(self, path: Union[None, str, Path] = None):
        self.root = Path(path) if path is not None else default_store_path()
        self.root.mkdir(parents=True, exist_ok=True)

    def _file(self, key: str) -> Path:
        if not key or any(ch in key for ch in "/\\."):
            raise ValueError(f"malformed store key {key!r}")
        return self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._file(key).exists()

    def _read(self, key: str) -> Optional[Dict[str, object]]:
        """Uncounted read: the record for ``key``, or None if absent or
        unreadable/stale.  Maintenance walks (``records``/``stats``) use this
        directly so they do not inflate the lookup counters."""
        path = self._file(key)
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if record.get("schema") != SCHEMA_VERSION:
            return None
        return record

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The record for ``key``, or None if absent or unreadable/stale.

        Every lookup publishes to the ``store_hits_total`` /
        ``store_misses_total`` counters (surfaced by ``emorphic cache stats``).
        """
        record = self._read(key)
        if record is None:
            obs_metrics.registry().counter(
                "store_misses_total", "result-store lookups that missed"
            ).inc()
        else:
            obs_metrics.registry().counter(
                "store_hits_total", "result-store lookups served from cache"
            ).inc()
        return record

    def put(self, key: str, record: Dict[str, object]) -> None:
        """Atomically persist ``record`` under ``key``."""
        path = self._file(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        tmp.replace(path)

    def delete(self, key: str) -> bool:
        path = self._file(key)
        if path.exists():
            path.unlink()
            return True
        return False

    def keys(self) -> List[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def records(self) -> Iterator[Dict[str, object]]:
        for key in self.keys():
            record = self._read(key)
            if record is not None:
                yield record

    def clear(self) -> int:
        """Remove every record; returns the number removed."""
        count = 0
        for path in self.root.glob("*.json"):
            path.unlink()
            count += 1
        return count

    def load_result_aig(self, key: str) -> Optional[Aig]:
        """Reconstruct the extracted AIG stored under ``key``."""
        record = self.get(key)
        if record is None or "aig_aag" not in record:
            return None
        name = "result"
        job = record.get("job") or {}
        circuit = job.get("circuit") or {}
        if circuit.get("name"):
            name = Path(str(circuit["name"])).stem
        return aag_from_string(str(record["aig_aag"]), name=name)

    def stats(self) -> Dict[str, object]:
        """Summary of the store contents (for ``emorphic cache stats``)."""
        per_flow: Dict[str, int] = {}
        per_circuit: Dict[str, int] = {}
        total_bytes = 0
        count = 0
        for path in self.root.glob("*.json"):
            total_bytes += path.stat().st_size
            record = self._read(path.stem)
            if record is None:
                continue
            count += 1
            job = record.get("job") or {}
            tag = str(job.get("tag") or "pipeline")
            per_flow[tag] = per_flow.get(tag, 0) + 1
            circuit = (job.get("circuit") or {}).get("name", "?")
            per_circuit[str(circuit)] = per_circuit.get(str(circuit), 0) + 1
        return {
            "path": str(self.root),
            "records": count,
            "total_bytes": total_bytes,
            "per_flow": per_flow,
            "per_circuit": per_circuit,
        }
