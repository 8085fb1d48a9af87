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

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.isa.instructions import OpClass
from repro.vliw.atoms import Atom
from repro.vliw.molecules import (
    FULL_FORMAT,
    Molecule,
    MoleculeFormatError,
    SlotLimits,
)

_LOAD, _STORE, _BRANCH = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH


@dataclass
class DependenceEdges:
    """The dependence graph of a block, by hazard kind.

    Stored the way the scheduler walks it: per atom, the later atoms
    that wait for it, one list per kind (``<kind>_successors``):

    - ``data`` (RAW, load-after-store): the producer must **complete**
      before the consumer issues;
    - ``waw``: the earlier write must issue in a **strictly earlier**
      molecule (two writers of one register cannot share a molecule);
    - ``war_order`` (WAR, store-after-memory-op, branch-after-all): the
      predecessor must have issued **no later** than the successor -
      same-molecule co-issue is legal because molecule reads happen
      before molecule writes (and our program-order semantics preserve
      exactly that).

    A store is ordered after the previous store and the memory
    operations since; the ones before that store are ordered through it.
    The block-ending branch is ordered after every other atom, so it
    issues last, but it does not wait for latencies still in flight when
    control leaves the block - the engine's scoreboard carries those
    across block boundaries.
    """

    data_successors: List[List[int]]
    waw_successors: List[List[int]]
    war_order_successors: List[List[int]]
    #: Per atom, how many edges (of any kind) end at it.
    predecessor_count: List[int]


def dependence_graph(atoms: Sequence[Atom]) -> DependenceEdges:
    """Build the three-kind dependence edges of a basic block, in one
    pass over each atom's source and destination registers."""
    n = len(atoms)
    data: List[List[int]] = [[] for _ in range(n)]
    waw: List[List[int]] = [[] for _ in range(n)]
    war_order: List[List[int]] = [[] for _ in range(n)]
    predecessor_count = [0] * n
    last_write: Dict[str, int] = {}
    readers_since_write: Dict[str, List[int]] = {}
    last_store = None
    mem_since_store: List[int] = []      # the last store, and what followed

    for i, atom in enumerate(atoms):
        instr = atom.instr
        count = 0
        for src in instr.srcs:
            writer = last_write.get(src)
            if writer is not None:
                data[writer].append(i)                       # RAW
                count += 1
            readers = readers_since_write.get(src)
            if readers is None:
                readers_since_write[src] = [i]
            else:
                readers.append(i)
        dst = instr.dst
        if dst is not None:
            writer = last_write.get(dst)
            if writer is not None:
                waw[writer].append(i)                        # WAW
                count += 1
            for reader in readers_since_write.pop(dst, ()):
                if reader != i:
                    war_order[reader].append(i)              # WAR
                    count += 1
            last_write[dst] = i
        opclass = instr.opclass
        if opclass is _STORE:
            for earlier in mem_since_store:     # store after mem ops
                war_order[earlier].append(i)
            count += len(mem_since_store)
            mem_since_store = [i]
            last_store = i
        elif opclass is _LOAD:
            if last_store is not None:
                data[last_store].append(i)      # load after store
                count += 1
            mem_since_store.append(i)
        elif opclass is _BRANCH:
            # Issues only once every other atom has issued or is
            # issuing in this very molecule.
            for other in range(n):
                if other != i:
                    war_order[other].append(i)
            count += n - 1
        predecessor_count[i] = count
    return DependenceEdges(data, waw, war_order, predecessor_count)


def schedule_block(atoms: Sequence[Atom],
                   limits: SlotLimits = FULL_FORMAT) -> Tuple[Molecule, ...]:
    """Pack *atoms* into an in-order molecule sequence.

    Greedy list scheduling: each molecule takes, in program order, the
    atoms that are ready - data operands complete, WAW predecessors in
    earlier molecules, WAR predecessors already issued or co-issuing -
    until the format's slots fill.  Issuing an atom releases the atoms
    waiting for it, and a cycle in which nothing can issue is skipped
    straight to the next completion.
    """
    n = len(atoms)
    if not n:
        return ()
    units = [atom.unit for atom in atoms]
    capacities = limits.capacities
    for unit in dict.fromkeys(units):
        if not capacities.get(unit):
            raise MoleculeFormatError(
                f"the format has no {unit.value} slot, which atom "
                f"#{units.index(unit)} needs"
            )
    edges = dependence_graph(atoms)
    data_successors = edges.data_successors
    waw_successors = edges.waw_successors
    war_order_successors = edges.war_order_successors
    # Predecessors of each atom not yet issued (the graph is this call's
    # own: counted down in place), and the first cycle the issued ones
    # allow.
    blockers = edges.predecessor_count
    earliest = [0] * n
    # A result is never complete within its own molecule.
    latency = [atom.latency if atom.latency > 0 else 1 for atom in atoms]

    width = limits.max_atoms
    remaining = list(range(n))           # program order
    molecules: List[Molecule] = []
    t = 0
    while remaining:
        free = dict(capacities)
        picked: List[int] = []
        for i in remaining:
            if blockers[i] or earliest[i] > t:
                continue
            unit = units[i]
            if not free[unit]:
                continue
            free[unit] -= 1
            picked.append(i)
            done = t + latency[i]
            for s in data_successors[i]:
                blockers[s] -= 1
                if earliest[s] < done:
                    earliest[s] = done
            for s in waw_successors[i]:
                blockers[s] -= 1
                if earliest[s] <= t:
                    earliest[s] = t + 1
            for s in war_order_successors[i]:
                # No earliest to raise: the scan reaches s after i, in
                # this molecule or a later one.
                blockers[s] -= 1
            if len(picked) == width:
                break
        if picked:
            molecules.append(Molecule(
                atoms=tuple([atoms[i] for i in picked]), limits=limits
            ))
            remaining = [i for i in remaining if i not in picked]
            t += 1
        else:
            # Idle until an issued atom completes.  Only atoms ordered
            # after each other (two branches) leave nothing to wait for.
            waits = [earliest[i] for i in remaining if not blockers[i]]
            if not waits:
                raise RuntimeError("scheduler failed to make progress")
            t = min(waits)
    return tuple(molecules)
