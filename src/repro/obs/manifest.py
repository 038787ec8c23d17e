"""Run manifests: what ran, with which inputs, how fast, and what it saw.

A :class:`RunManifest` travels with every runner result and is what the
CLI writes next to the metric snapshot. It answers the questions a sweep
post-mortem starts with — which seed, which exact configuration (content
digest, not object identity), which package version, how long the run
took in simulated vs wall time — plus a compact summary of the headline
metrics so a failed cell can be triaged without loading the full
snapshot.

Wall-clock fields (``wall_seconds``, ``events_per_second``, ``sim_rate``)
are intentionally *not* part of the deterministic surface; equality
checks and regression tests should use :meth:`RunManifest.deterministic_dict`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict

#: Schema identifier stamped into exported manifests.
MANIFEST_SCHEMA = "repro.obs.manifest/1"


def config_digest(*configs: Any) -> str:
    """Content hash of one or more configuration objects.

    Dataclasses are canonicalized via ``asdict``; anything else must
    already be JSON-serializable. The digest is stable across processes
    and platforms (sorted keys, no whitespace).
    """
    canonical = []
    for config in configs:
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            canonical.append(
                {"__type__": type(config).__name__, **dataclasses.asdict(config)}
            )
        else:
            canonical.append(config)
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Provenance + timing + headline-metric record for one run."""

    tool: str
    seed: int
    config_digest: str
    package_version: str
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0
    events_processed: int = 0
    #: Headline metric summary (deterministic; drawn from the registry).
    metrics: Dict[str, float] = field(default_factory=dict)
    schema: str = MANIFEST_SCHEMA

    @property
    def sim_rate(self) -> float:
        """Simulated seconds per wall second (bigger is faster)."""
        return self.sim_seconds / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def events_per_second(self) -> float:
        return self.events_processed / self.wall_seconds if self.wall_seconds else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "tool": self.tool,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "package_version": self.package_version,
            "sim_seconds": self.sim_seconds,
            "wall_seconds": self.wall_seconds,
            "sim_rate": self.sim_rate,
            "events_processed": self.events_processed,
            "events_per_second": self.events_per_second,
            "metrics": dict(self.metrics),
        }

    def deterministic_dict(self) -> Dict[str, Any]:
        """The manifest minus wall-clock fields (safe to compare across runs)."""
        out = self.to_dict()
        for key in ("wall_seconds", "sim_rate", "events_per_second"):
            out.pop(key, None)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        return cls(
            tool=data["tool"],
            seed=data["seed"],
            config_digest=data["config_digest"],
            package_version=data["package_version"],
            sim_seconds=data.get("sim_seconds", 0.0),
            wall_seconds=data.get("wall_seconds", 0.0),
            events_processed=data.get("events_processed", 0),
            metrics=dict(data.get("metrics", {})),
            schema=data.get("schema", MANIFEST_SCHEMA),
        )


def summarize_snapshot(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Headline totals pulled out of a metric snapshot for the manifest.

    Sums labeled counters into per-family totals so the manifest stays a
    flat, small dict: e.g. every ``queue.drops{...}`` lands in
    ``queue.drops`` while per-cause detail remains in the snapshot.
    """
    totals: Dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        name = key.split("{", 1)[0]
        totals[name] = totals.get(name, 0) + value
    for key, hist in snapshot.get("histograms", {}).items():
        name = key.split("{", 1)[0]
        totals[f"{name}.count"] = totals.get(f"{name}.count", 0) + hist["count"]
    return totals
