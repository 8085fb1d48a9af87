"""Reference code that more than one test module compares against.

Nothing in ``src/`` needs these; they are here so that each check has
one spelling.
"""

from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np

from repro.core.events import TimelineEvent
from repro.isa.assembler import assemble
from repro.isa.machine import Machine, MachineState
from repro.isa.programs import (
    INPUT2_BASE,
    INPUT_BASE,
    OUTPUT_BASE,
    GuestWorkload,
)
from repro.nbody.morton import MAX_DEPTH, ancestor_at_level, key_level
from repro.sched import BatchScheduler, SchedConfig, campaign


def run_program(program, state=None, max_steps=10_000_000):
    """Run *program* on the golden interpreter, on a fresh or given
    state: ``(final state, ExecStats)``."""
    machine = Machine(state=state, max_steps=max_steps)
    stats = machine.run(program)
    return machine.state, stats


def audited_campaign(params):
    """``build_campaign(params)`` with ``SchedConfig(audit=True)``: the
    same campaign, with every invariant auditor attached."""
    with mock.patch.object(campaign, "SchedConfig",
                           partial(SchedConfig, audit=True)):
        return campaign.build_campaign(params)


class EagerArrivalScheduler(BatchScheduler):
    """The scheduler as it queued arrivals before: every submit puts its
    arrival event on the kernel heap at once, one event per job.  It
    admits or refuses a job exactly as the scheduler does."""

    def _file_arrival(self, row, arrival_s):
        self.kernel.at(arrival_s, self._arrive, row)


def mutate_event(manifest, index, **updates):
    """A copy of *manifest* with one event's fields (or time) changed.

    Flipping a single field at ``index`` must make replay report its
    first divergence exactly there.
    """
    events = list(manifest.events)
    old = events[index]
    time = updates.pop("time", old.time)
    fields = {**dict(old.fields), **updates}
    events[index] = TimelineEvent(time=time, kind=old.kind,
                                  fields=tuple(fields.items()))
    return replace(manifest, params=dict(manifest.params), events=events,
                   payload=dict(manifest.payload))


def validate_tree(tree) -> None:
    """Structural invariants of a :class:`~repro.nbody.tree.HashedOctree`."""
    n = tree.n_particles
    root = tree.root
    if (root.lo, root.hi) != (0, n):
        raise AssertionError("root does not cover all particles")
    total_mass = float(np.sum(tree.mass))
    if not np.isclose(root.mass, total_mass, rtol=1e-12):
        raise AssertionError("root mass != total mass")
    for node in tree.nodes.values():
        if tree.nodes[ancestor_at_level(node.key, key_level(node.key))
                      ] is not node:
            raise AssertionError("node key inconsistent with hash")
        if node.index < 0 or int(tree.node_key[node.index]) != node.key:
            raise AssertionError("flat index out of sync with key")
        if node.is_leaf:
            if node.hi - node.lo > tree.leaf_size and \
                    node.level < MAX_DEPTH:
                raise AssertionError("oversized leaf above max depth")
            continue
        spans = [
            (tree.nodes[c].lo, tree.nodes[c].hi) for c in node.children
        ]
        spans.sort()
        if not spans:
            raise AssertionError("internal node with no children")
        if spans[0][0] != node.lo or spans[-1][1] != node.hi:
            raise AssertionError("children do not tile the parent")
        for (a, b), (c, d) in zip(spans, spans[1:]):
            if b != c:
                raise AssertionError("gap or overlap between children")
        child_mass = sum(tree.nodes[c].mass for c in node.children)
        if not np.isclose(child_mass, node.mass, rtol=1e-9, atol=1e-12):
            raise AssertionError("child masses do not sum to parent")


# -- guest kernels only the tests run ----------------------------------------

_AXPY_ASM = """
; r1=x base, r2=y base (also output), r3=n, f11=a
    mov   r5, r1
    mov   r6, r2
    mov   r7, r3
loop:
    fld   f1, r5, 0
    fld   f2, r6, 0
    fmadd f3, f11, f1, f2
    fst   r6, f3, 0
    addi  r5, r5, 1
    addi  r6, r6, 1
    subi  r7, r7, 1
    bnez  r7, loop
    halt
"""


def axpy(n: int = 128, a: float = 2.5, seed: int = 7) -> GuestWorkload:
    """y <- a*x + y over *n* elements (STREAM-style, memory bound)."""
    program = assemble(_AXPY_ASM, name="axpy")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = INPUT_BASE
        st.iregs["r2"] = OUTPUT_BASE
        st.iregs["r3"] = n
        st.fregs["f11"] = a
        st.mem.store_array(INPUT_BASE, x)
        st.mem.store_array(OUTPUT_BASE, y)
        return st

    return GuestWorkload(
        name="axpy",
        program=program,
        make_state=make_state,
        expected=a * x + y,
        flops_per_element=2,
        elements=n,
    )


_DOT_ASM = """
; r1=x base, r2=y base, r3=n, result -> fpmem[r4]
    mov   r5, r1
    mov   r6, r2
    mov   r7, r3
    fli   f3, 0.0
loop:
    fld   f1, r5, 0
    fld   f2, r6, 0
    fmadd f3, f1, f2, f3
    addi  r5, r5, 1
    addi  r6, r6, 1
    subi  r7, r7, 1
    bnez  r7, loop
    fst   r4, f3, 0
    halt
"""


def dot_product(n: int = 128, seed: int = 11) -> GuestWorkload:
    """Serial dot product (long FMA dependence chain)."""
    program = assemble(_DOT_ASM, name="dot")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = INPUT_BASE
        st.iregs["r2"] = INPUT2_BASE
        st.iregs["r3"] = n
        st.iregs["r4"] = OUTPUT_BASE
        st.mem.store_array(INPUT_BASE, x)
        st.mem.store_array(INPUT2_BASE, y)
        return st

    # Mirror the serial accumulation order exactly.
    acc = 0.0
    for xi, yi in zip(x, y):
        acc = xi * yi + acc
    return GuestWorkload(
        name="dot",
        program=program,
        make_state=make_state,
        expected=np.array([acc]),
        flops_per_element=2,
        elements=n,
    )


_FIB_ASM = """
; r1=n ; result -> intmem[r4]
    li    r2, 0        ; a
    li    r3, 1        ; b
loop:
    beqz  r1, done
    add   r5, r2, r3
    mov   r2, r3
    mov   r3, r5
    subi  r1, r1, 1
    jmp   loop
done:
    st    r4, r2, 0
    halt
"""


def fib(n: int = 30) -> GuestWorkload:
    """Iterative Fibonacci (pure integer/branch workload)."""
    program = assemble(_FIB_ASM, name="fib")

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = n
        st.iregs["r4"] = OUTPUT_BASE
        return st

    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return GuestWorkload(
        name="fib",
        program=program,
        make_state=make_state,
        expected=np.array([float(a)]),
        elements=n,
    )
