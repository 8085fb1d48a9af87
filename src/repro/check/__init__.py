"""repro.check: deterministic replay, invariant audit, differential fuzz.

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
  interval consistency).  Opt in via ``SchedConfig(audit=True)`` or
  ``SimConfig(audit=True)``.
- :mod:`repro.check.differential` — the one differential harness
  behind ``python -m repro.cli check --cache-diff`` (cache-on vs
  cache-off) and ``--telemetry-diff`` (the fully instrumented
  telemetry stack vs the plain recording observer): one scheduler
  configuration matrix, every variant of a cell run once, bit-exact
  outcome digests and trace hashes, and a row whose counters do not
  show the traffic it declares fails as ``VACUOUS``.
- :mod:`repro.check.fuzz` — the differential fuzz driver behind
  ``python -m repro.cli check --fuzz``: randomized cases through three
  oracles (CMS translator vs golden interpreter, batched vs naive
  treecode traversal, FCFS vs EASY-backfill schedule safety), with
  failing cases shrunk and written as replayable manifest files.
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
from repro.check.manifest import RunManifest, TraceRecorder, mutate_event
from repro.check.replay import (
    Divergence,
    ReplayReport,
    TraceChecker,
    record_fig3_manifest,
    record_sched_manifest,
    record_simmpi_manifest,
    record_table2_manifest,
    replay_manifest,
    verify_golden_manifest,
)
from repro.check.fuzz import (
    FuzzFailure,
    FuzzReport,
    ORACLES,
    run_fuzz,
    run_fuzz_case,
)

__all__ = [
    "ClockOrderAuditor",
    "DiffCase",
    "DiffReport",
    "Divergence",
    "FuzzFailure",
    "FuzzReport",
    "InvariantViolation",
    "MessageConservationAuditor",
    "ORACLES",
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
    "mutate_event",
    "record_fig3_manifest",
    "record_sched_manifest",
    "record_simmpi_manifest",
    "record_table2_manifest",
    "replay_manifest",
    "run_cache_differential",
    "run_cell",
    "run_fuzz",
    "run_telemetry_differential",
    "sched_outcome_digest",
    "run_fuzz_case",
    "verify_golden_manifest",
]
