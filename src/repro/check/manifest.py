"""Run manifests: the serialized identity of one deterministic run.

A manifest is what makes "this run is reproducible" a checkable claim
instead of a convention: it names the run *kind* (which rebuild recipe
to use), the exact parameters, a hash of those parameters (so a replay
against a stale manifest fails loudly rather than diffing garbage),
and the full normalized event trace with virtual timestamps.

Floats survive the JSON round trip bit-exactly: Python serializes
them via their shortest repr, and parsing that repr returns the same
IEEE-754 double, so trace comparison after a save/load cycle is still
exact equality.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.events import EventKernel, TimelineEvent

#: Manifest schema version (bump on incompatible format changes).
MANIFEST_VERSION = 1

_SCALARS = (bool, int, float, str, type(None))


def _normalize_value(value: Any) -> Any:
    """Clamp a trace field to a JSON-safe scalar.

    NumPy scalars become their Python equivalents; anything exotic is
    frozen as its repr so two runs still compare equal iff they agree.
    """
    if isinstance(value, _SCALARS):
        return value
    if hasattr(value, "item"):          # numpy scalar
        return value.item()
    return repr(value)


def normalize_event(event: TimelineEvent) -> TimelineEvent:
    """A TimelineEvent with all field values JSON-safe scalars."""
    return TimelineEvent(
        time=float(event.time),
        kind=event.kind,
        fields=tuple(
            (k, _normalize_value(v)) for k, v in event.fields
        ),
    )


def _encode_event(event: TimelineEvent) -> List[Any]:
    return [event.time, event.kind, {k: v for k, v in event.fields}]


def _decode_event(raw: List[Any]) -> TimelineEvent:
    time, kind, fields = raw
    return TimelineEvent(
        time=float(time), kind=kind, fields=tuple(fields.items())
    )


def config_hash(params: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON of the run parameters."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class RunManifest:
    """One recorded run: parameters, config hash, and event trace."""

    kind: str                       # sched | simmpi | table2 | fig3 | fuzz-failure
    seed: int
    params: Dict[str, Any]
    config_hash: str
    events: List[TimelineEvent] = field(default_factory=list)
    #: Golden payload for non-trace manifests (table rows, digests).
    payload: Dict[str, Any] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    @classmethod
    def make(cls, kind: str, seed: int, params: Dict[str, Any],
             events: Optional[List[TimelineEvent]] = None,
             payload: Optional[Dict[str, Any]] = None) -> "RunManifest":
        return cls(
            kind=kind,
            seed=seed,
            params=dict(params),
            config_hash=config_hash(params),
            events=list(events or []),
            payload=dict(payload or {}),
        )

    # -- persistence -------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "kind": self.kind,
            "seed": self.seed,
            "params": self.params,
            "config_hash": self.config_hash,
            "payload": self.payload,
            "events": [_encode_event(e) for e in self.events],
        }
        return json.dumps(doc, separators=(",", ":"))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        doc = json.loads(text)
        if doc.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"manifest version {doc.get('version')!r} unsupported "
                f"(expected {MANIFEST_VERSION})"
            )
        manifest = cls(
            kind=doc["kind"],
            seed=doc["seed"],
            params=doc["params"],
            config_hash=doc["config_hash"],
            events=[_decode_event(e) for e in doc["events"]],
            payload=doc.get("payload", {}),
        )
        if config_hash(manifest.params) != manifest.config_hash:
            raise ValueError(
                "manifest config hash does not match its parameters "
                "(corrupted or hand-edited file)"
            )
        return manifest

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_json(Path(path).read_text())


def mutate_event(manifest: RunManifest, index: int,
                 **updates: Any) -> RunManifest:
    """A copy of *manifest* with one event's fields (or time) changed.

    The perturbation tool the replay tests use: flipping a single
    field at ``index`` must make replay-verify report its first
    divergence exactly there.
    """
    events = list(manifest.events)
    old = events[index]
    time = updates.pop("time", old.time)
    fields = dict(old.fields)
    fields.update(updates)
    events[index] = TimelineEvent(
        time=time, kind=old.kind, fields=tuple(fields.items())
    )
    clone = RunManifest(
        kind=manifest.kind,
        seed=manifest.seed,
        params=dict(manifest.params),
        config_hash=manifest.config_hash,
        events=events,
        payload=dict(manifest.payload),
    )
    return clone


class TraceRecorder:
    """Streams a kernel's trace into a normalized event list.

    Registers as an observer, the kernel's one trace sink (an observer
    sees each event after it is committed, so recording adds no
    behavioural difference to the run), and detaches cleanly so the
    same kernel can be reused.
    """

    def __init__(self, kernel: EventKernel) -> None:
        self.kernel = kernel
        self.events: List[TimelineEvent] = []
        self._attached = False

    def __call__(self, event: TimelineEvent) -> None:
        self.events.append(normalize_event(event))

    def attach(self) -> "TraceRecorder":
        if not self._attached:
            self.kernel.add_observer(self)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.kernel.remove_observer(self)
            self._attached = False

    def __enter__(self) -> "TraceRecorder":
        return self.attach()

    def __exit__(self, *exc: Any) -> None:
        self.detach()
