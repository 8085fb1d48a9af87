"""Trace-driven superscalar port/ROB timing simulator.

Models the hardware x86/RISC competitors of Table 1/3 with the classic
first-order microarchitecture abstraction:

- in-order **dispatch** at ``issue_width`` instructions per cycle,
  bounded by reorder-buffer space (instruction *i* cannot dispatch until
  instruction *i - window* has retired);
- data-driven **issue**: an instruction issues once dispatched, its
  register operands are complete, and an execution port is free
  (in-order machines additionally issue monotonically with operands
  ready at issue);
- execution ports with per-class latency and occupancy (unpipelined
  iterative dividers keep their port busy for the full latency);
- in-order **retirement**;
- memory disambiguation by effective address: a load issues no earlier
  than the youngest prior store *to the same word*.

Semantics come from the golden machine; the simulator only produces
timing, so every hardware model is architecturally exact by
construction.  Branch prediction is assumed perfect (the paper's kernels
are dominated by highly regular loops); this is noted in DESIGN.md.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.isa.instructions import Instr, Op, OpClass, Program
from repro.isa.machine import ExecStats, Machine, MachineState
from repro.cpus.base import (
    KernelResult,
    Processor,
    ProcessorSpec,
    WrongAnswerError,
)
from repro.cpus.ports import PortTable
from repro.isa.programs import GuestWorkload


@dataclass
class SimOutcome:
    """Timing + architectural outcome of one simulated run."""

    cycles: int
    state: MachineState
    guest_stats: ExecStats


class PortTimeline:
    """Busy-interval calendar for one execution port.

    Unlike a scalar next-free counter, a calendar lets a younger,
    data-ready instruction claim an idle slot *before* an older, stalled
    instruction's booking - the oldest-ready-first behaviour of real
    out-of-order issue queues.
    """

    __slots__ = ("starts", "ends")

    #: Intervals kept before pruning the oldest half (bounded memory and
    #: O(log n) booking; anything older is effectively retired).
    _PRUNE_AT = 512

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []

    def probe(self, ready: int, occupancy: int) -> tuple:
        """Earliest (insert_index, start) with a gap >= occupancy."""
        starts, ends = self.starts, self.ends
        if not ends or ends[-1] <= ready:
            return len(ends), ready       # idle from `ready` on: append
        i = bisect_right(starts, ready)
        s = ready
        if i > 0 and ends[i - 1] > s:
            s = ends[i - 1]
        while i < len(starts) and starts[i] < s + occupancy:
            if ends[i] > s:
                s = ends[i]
            i += 1
        return i, s

    def commit(self, index: int, start: int, occupancy: int) -> None:
        self.starts.insert(index, start)
        self.ends.insert(index, start + occupancy)
        if len(self.starts) > self._PRUNE_AT:
            keep = self._PRUNE_AT // 2
            del self.starts[:-keep]
            del self.ends[:-keep]

    def book(self, ready: int, occupancy: int) -> int:
        """Reserve *occupancy* cycles at the earliest start >= ready."""
        index, start = self.probe(ready, occupancy)
        self.commit(index, start, occupancy)
        return start


class PortRecord(NamedTuple):
    """One predecoded instruction, as the issue model consumes it."""

    latency: int
    occupancy: int                      # FMADD cracking applied
    ports: Tuple[PortTimeline, ...]     # candidate calendars
    srcs: Tuple[str, ...]
    dst: Optional[str]
    is_load: bool
    is_store: bool
    base: Optional[str]                 # address register, memory ops only
    offset: int


class PortSimulator:
    """Times a dynamic guest instruction stream on a port machine."""

    def __init__(self, table: PortTable, issue_width: int,
                 window: int = 0, has_fma: bool = False) -> None:
        if issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if window < 0:
            raise ValueError("window must be >= 0 (0 means in-order)")
        self.table = table
        self.issue_width = issue_width
        #: reorder-buffer depth; 0 models a strict in-order pipeline.
        self.window = window
        self.has_fma = has_fma
        self._reset()

    def _reset(self) -> None:
        self._reg_ready: Dict[str, int] = {}
        self._ports: Dict[str, PortTimeline] = {
            p: PortTimeline() for p in self.table.port_names()
        }
        self._dispatch_ring: deque = deque(maxlen=self.issue_width)
        self._retire_ring: deque = deque(
            maxlen=self.window if self.window > 0 else 1
        )
        self._last_issue = 0
        self._last_retire = 0
        self._store_issue_by_addr: Dict[int, int] = {}
        self._horizon = 0

    def _decode(self, instr: Instr) -> PortRecord:
        """Everything :meth:`_issue` needs of *instr*, looked up once."""
        spec = self.table.spec(instr.opclass)
        latency, occupancy = spec.latency, spec.occupancy
        if instr.op is Op.FMADD and not self.has_fma:
            # Machines without fused multiply-add crack FMADD into a
            # multiply feeding an add: longer latency, double occupancy.
            add_spec = self.table.spec(OpClass.FPADD)
            latency = spec.latency + add_spec.latency
            occupancy = spec.occupancy + 1
        is_load = instr.opclass is OpClass.LOAD
        is_store = instr.opclass is OpClass.STORE
        return PortRecord(
            latency=latency,
            occupancy=occupancy,
            ports=tuple(self._ports[p] for p in spec.ports),
            srcs=instr.srcs,
            dst=instr.dst,
            is_load=is_load,
            is_store=is_store,
            base=instr.srcs[0] if is_load or is_store else None,
            offset=instr.imm,
        )

    def _issue(self, record: PortRecord, mem_addr: Optional[int]) -> None:
        (latency, occupancy, ports, srcs, dst, is_load, is_store,
         _, _) = record

        # --- dispatch (in-order, fetch- and ROB-bounded) ---
        dispatch_ring = self._dispatch_ring
        dispatch = 0
        if dispatch_ring:
            dispatch = dispatch_ring[-1]
            if len(dispatch_ring) == dispatch_ring.maxlen:
                oldest = dispatch_ring[0] + 1
                if oldest > dispatch:
                    dispatch = oldest
        window = self.window
        if window > 0:
            retire_ring = self._retire_ring
            if len(retire_ring) == window and retire_ring[0] > dispatch:
                dispatch = retire_ring[0]
        dispatch_ring.append(dispatch)

        # --- issue (data- and resource-driven) ---
        t = dispatch
        reg_ready = self._reg_ready
        for src in srcs:
            ready = reg_ready.get(src, 0)
            if ready > t:
                t = ready
        if is_load and mem_addr is not None:
            ready = self._store_issue_by_addr.get(mem_addr, 0)
            if ready > t:
                t = ready
        if window == 0 and self._last_issue > t:
            # Strict in-order issue: cannot overtake older instructions.
            t = self._last_issue
        # Book the port whose calendar offers the earliest start.
        port = ports[0]
        index, start = port.probe(t, occupancy)
        for other in ports[1:]:
            other_index, other_start = other.probe(t, occupancy)
            if other_start < start:
                port, index, start = other, other_index, other_start
        port.commit(index, start, occupancy)
        t = start
        self._last_issue = t

        # --- complete / retire ---
        done = t + latency
        if dst is not None:
            reg_ready[dst] = done
        if is_store and mem_addr is not None:
            self._store_issue_by_addr[mem_addr] = t
        retire = done if done > self._last_retire else self._last_retire
        self._last_retire = retire
        if window > 0:
            retire_ring.append(retire)
        if done > self._horizon:
            self._horizon = done

    def simulate(self, program: Program,
                 state: Optional[MachineState] = None,
                 max_steps: int = 10_000_000) -> SimOutcome:
        """Run *program*, feeding every retired instruction to the model."""
        self._reset()
        machine = Machine(state=state, max_steps=max_steps)
        st = machine.state
        records: Dict[int, PortRecord] = {}    # per executed pc, this run
        steps = 0
        while not st.halted:
            record = records.get(st.pc)
            if record is None:
                record = records[st.pc] = self._decode(machine.fetch(program))
            base = record.base
            addr = None if base is None else st.iregs[base] + record.offset
            machine.step(program)
            self._issue(record, addr)
            steps += 1
            if steps > max_steps:
                raise RuntimeError(
                    f"exceeded max_steps={max_steps} in {program.name}"
                )
        return SimOutcome(
            cycles=self._horizon,
            state=machine.state,
            guest_stats=machine.stats,
        )


class HardwareProcessor(Processor):
    """A hardware CPU: spec + port table + simulator policy."""

    def __init__(self, spec: ProcessorSpec, table: PortTable,
                 window: int = 0, has_fma: bool = False) -> None:
        self.spec = spec
        self.table = table
        self.window = window
        self.has_fma = has_fma

    def run_workload(self, workload: GuestWorkload,
                     check: bool = True) -> KernelResult:
        sim = PortSimulator(
            self.table,
            issue_width=self.spec.issue_width,
            window=self.window,
            has_fma=self.has_fma,
        )
        outcome = sim.simulate(
            workload.program, workload.make_state(), max_steps=100_000_000
        )
        if check and not workload.check(outcome.state):
            raise WrongAnswerError(
                f"{self.name} produced wrong results on {workload.name}"
            )
        seconds = outcome.cycles / self.spec.clock_hz
        return KernelResult(
            processor=self.name,
            workload=workload.name,
            cycles=outcome.cycles,
            seconds=seconds,
            nominal_flops=workload.nominal_flops,
            guest_instructions=outcome.guest_stats.instructions,
        )
