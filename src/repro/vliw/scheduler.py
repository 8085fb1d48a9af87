"""Latency-aware list scheduler: packs atoms into molecules.

This is the performance-critical job the paper ascribes to the CMS
translator: "reduce the number of instructions executed by packing atoms
into VLIW molecules".  The scheduler builds the register/memory
dependence graph of a basic block and greedily fills molecule slots in
dependence order, leaving long-latency results (divide, sqrt, loads) to
complete while independent atoms issue - exactly the ILP the Table 1
microkernel measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.vliw.atoms import Atom
from repro.vliw.molecules import FULL_FORMAT, Molecule, SlotLimits
from repro.vliw.units import UnitKind


@dataclass
class DependenceEdges:
    """Per-atom predecessor sets, by hazard kind.

    - ``data`` (RAW, load-after-store): the producer must **complete**
      before the consumer issues;
    - ``waw``: the earlier write must issue in a **strictly earlier**
      molecule (two writers of one register cannot share a molecule);
    - ``war_order`` (WAR, store-after-memory-op): the predecessor must
      have issued **no later** than the successor - same-molecule
      co-issue is legal because molecule reads happen before molecule
      writes (and our program-order semantics preserve exactly that).

    The block-ending branch is handled positionally by the scheduler (it
    must issue last); long-latency results may still be in flight when
    control leaves the block - the engine's scoreboard carries them
    across block boundaries.
    """

    data: List[Set[int]]
    waw: List[Set[int]]
    war_order: List[Set[int]]


def dependence_graph(atoms: Sequence[Atom]) -> DependenceEdges:
    """Build the three-kind dependence edges of a basic block."""
    n = len(atoms)
    edges = DependenceEdges(
        data=[set() for _ in range(n)],
        waw=[set() for _ in range(n)],
        war_order=[set() for _ in range(n)],
    )
    last_write: Dict[str, int] = {}
    readers_since_write: Dict[str, List[int]] = {}
    last_store = -1
    last_mem: List[int] = []

    for i, atom in enumerate(atoms):
        for src in atom.reads():
            if src in last_write:
                edges.data[i].add(last_write[src])          # RAW
            readers_since_write.setdefault(src, []).append(i)
        dst = atom.writes()
        if dst is not None:
            if dst in last_write:
                edges.waw[i].add(last_write[dst])           # WAW
            for reader in readers_since_write.get(dst, ()):
                if reader != i:
                    edges.war_order[i].add(reader)          # WAR
            last_write[dst] = i
            readers_since_write[dst] = []
        if atom.is_store:
            edges.war_order[i].update(last_mem)    # store after mem ops
            last_mem.append(i)
            last_store = i
        elif atom.is_mem:
            if last_store >= 0:
                edges.data[i].add(last_store)      # load after store
            last_mem.append(i)
    return edges


def schedule_block(atoms: Sequence[Atom],
                   limits: SlotLimits = FULL_FORMAT) -> Tuple[Molecule, ...]:
    """Pack *atoms* into an in-order molecule sequence.

    Cycle-driven greedy list scheduling: at each virtual cycle, pick the
    dependence-ready atoms (data operands complete, WAW predecessors in
    earlier molecules, WAR predecessors already issued or co-issuing),
    in program order, until the molecule's slot limits fill.  A
    block-ending branch may only occupy the final molecule, but it does
    not wait for in-flight latencies.
    """
    if not atoms:
        return ()
    edges = dependence_graph(atoms)
    n = len(atoms)
    finish: Dict[int, int] = {}       # atom seq -> completion cycle
    issue_time: Dict[int, int] = {}   # atom seq -> issue cycle
    unscheduled = set(range(n))
    molecules: List[Molecule] = []
    t = 0
    guard_limit = 64 * n + 16 * max(
        (atom.latency for atom in atoms), default=1
    ) + 64
    guard = 0
    while unscheduled:
        guard += 1
        if guard > guard_limit:  # pragma: no cover - cycle-safety net
            raise RuntimeError("scheduler failed to make progress")
        picked: List[Atom] = []
        picked_seqs: Set[int] = set()
        slots: Dict[UnitKind, int] = {}
        for i in sorted(unscheduled):
            atom = atoms[i]
            if atom.is_branch:
                # Branch issues only once every other atom has issued
                # (or is issuing in this very molecule).
                others = unscheduled - {i} - picked_seqs
                if others:
                    continue
            if not all(p in issue_time for p in edges.data[i]):
                continue
            ready_at = max(
                (finish[p] for p in edges.data[i]), default=0
            )
            if ready_at > t:
                continue
            if not all(
                p in issue_time and issue_time[p] < t
                for p in edges.waw[i]
            ):
                continue
            if not all(
                p in issue_time or p in picked_seqs
                for p in edges.war_order[i]
            ):
                continue
            unit_used = slots.get(atom.unit, 0)
            if unit_used >= limits.capacity(atom.unit):
                continue
            if len(picked) >= limits.max_atoms:
                break
            picked.append(atom)
            picked_seqs.add(i)
            slots[atom.unit] = unit_used + 1
        if picked:
            molecules.append(Molecule(atoms=tuple(picked), limits=limits))
            for atom in picked:
                issue_time[atom.seq] = t
                finish[atom.seq] = t + atom.latency
                unscheduled.discard(atom.seq)
        t += 1
    return tuple(molecules)
