"""Reference code that more than one test module compares against.

Nothing in ``src/`` needs these; they are here so that each check has
one spelling.
"""

from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np

from repro.core.events import TimelineEvent
from repro.isa.machine import Machine
from repro.nbody.morton import ancestor_at_level, key_level
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
            if node.count > tree.leaf_size and node.level < tree.depth:
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
