"""repro.check: deterministic replay, invariant and differential audits.

PRs so far assert bit-determinism ad hoc — "Table 2 bit-identical",
"pooled sweeps byte-identical" — by eyeballing regenerated output.
This package turns that convention into a checked property:

- :mod:`repro.check.manifest` — a structured run manifest: seed,
  config hash, and the normalized per-event trace (virtual timestamps
  included) that a recording :class:`~repro.core.events.EventKernel`
  emits.  Manifests round-trip through JSON with bit-exact floats.
- :mod:`repro.check.replay` — record a run, then re-execute it against
  its manifest: every trace event is compared online as the replay
  emits it, and the first divergence is reported with kernel context
  (the mismatching event, the clock, the pending queue, rank clocks).
- :mod:`repro.check.auditors` — invariant auditors registered on the
  kernel (virtual-clock monotonicity, same-timestamp insertion order,
  message conservation per world, retransmit-ledger conservation under
  the network fault layer) plus outcome-level audits (flop vs
  compute-time ledger, energy vs PowerModel, allocator busy/down
  interval consistency).  Opt in via ``SchedConfig(audit=True)``;
  every serial ``NBodySimulation.run`` audits its flop ledger.
- :mod:`repro.check.differential` — the one differential harness
  behind ``python -m repro.cli check --cache-diff`` (cache-on vs
  cache-off) and ``--telemetry-diff`` (the fully instrumented
  telemetry stack vs the plain recording observer): one scheduler
  configuration matrix, every variant of a cell run once, bit-exact
  outcome digests and trace hashes, and a row whose counters do not
  show the traffic it declares fails as ``VACUOUS``.
"""

from repro.check.auditors import (
    ClockOrderAuditor,
    InvariantViolation,
    MessageConservationAuditor,
    RetransmitConservationAuditor,
    attach_auditors,
    audit_sched_outcome,
    audit_sim_result,
    detach_auditors,
)
from repro.check.differential import (
    DiffCase,
    DiffReport,
    manifest_trace_hash,
    run_cache_differential,
    run_cell,
    run_telemetry_differential,
    sched_outcome_digest,
)
from repro.check.manifest import RunManifest, TraceRecorder
from repro.check.replay import (
    Divergence,
    ReplayReport,
    TraceChecker,
    record_sched_manifest,
    record_simmpi_manifest,
    replay_manifest,
)

__all__ = [
    "ClockOrderAuditor",
    "DiffCase",
    "DiffReport",
    "Divergence",
    "InvariantViolation",
    "MessageConservationAuditor",
    "ReplayReport",
    "RetransmitConservationAuditor",
    "RunManifest",
    "TraceChecker",
    "TraceRecorder",
    "attach_auditors",
    "audit_sched_outcome",
    "audit_sim_result",
    "detach_auditors",
    "manifest_trace_hash",
    "record_sched_manifest",
    "record_simmpi_manifest",
    "replay_manifest",
    "run_cache_differential",
    "run_cell",
    "run_telemetry_differential",
    "sched_outcome_digest",
]
