"""Every public definition in ``src/repro`` is reached from outside the tests.

A definition is a public top-level function or class of a module, or a
public method of such a class; dunders and ``_private`` names are out
of scope.  It is *reached* when its name appears in a root outside its
own body: as a ``Name``, an ``Attribute``, an import alias or the
string of a ``getattr``, ``hasattr`` or ``setattr``.  The roots are the
code that runs without the test suite:

- every ``src/repro`` module, except that in a package ``__init__.py``
  an import (or an ``__all__`` entry) is not a use; a call is;
- ``tests/test_artifacts.py`` and every ``tests`` module it imports,
  the producers of the committed outputs;
- ``benchmarks/spine/*.py``;
- ``examples/*.py``, which CI runs.

Names are matched without type inference (any ``.run`` reaches every
``run`` method), so the rule finds code only a test can call, not code
that merely looks unused.  A definition that stays anyway is on
``ALLOWED`` with the reason ``src/`` needs it.
"""

import ast
import functools
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from tests.test_package_boundaries import _attribute_access

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Unreached definitions kept on purpose: qualified name -> why.
ALLOWED = {
    "repro.simmpi.comm.RankComm.barrier":
        "RankComm offers every repro.simmpi.collectives routine as a "
        "method; an SPMD program synchronises with comm.barrier()",
    "repro.simmpi.comm.RankComm.scatter":
        "RankComm offers every repro.simmpi.collectives routine as a "
        "method; an SPMD program distributes work with comm.scatter()",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module, tree):
    """``(qualified name, node)`` of each public top-level function and
    class of *tree*, and of each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from (
                    (f"{module}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, _FUNCTIONS) and _public(item.name)
                )


def _uses(tree, package_init=False) -> Counter:
    """How often *tree* names each identifier."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not package_init:
                used.update(a.name.rpartition(".")[2] for a in node.names)
        elif attr := _attribute_access(node):
            used[attr[1]] += 1
    return used


@functools.lru_cache(maxsize=None)
def _module(path, text):
    """One ``src/repro`` module: the names it uses as a root, and each
    definition as ``(qualified name, name, uses inside its own body)``."""
    tree = ast.parse(text)
    module = path.removesuffix(".py").removesuffix("/__init__")
    return _uses(tree, path.endswith("__init__.py")), [
        (qualified, node.name, _uses(node)[node.name])
        for qualified, node in _definitions(module.replace("/", "."), tree)
    ]


@functools.lru_cache(maxsize=None)
def _root_uses(text) -> Counter:
    return _uses(ast.parse(text))


def _unreached(sources, roots=()):
    """*sources*: ``[(path under src, python source)]``, each also a
    root; *roots*: more root sources.  -> unreached qualified names."""
    modules = [_module(path, text) for path, text in sources]
    used = Counter()
    for uses, _ in modules:
        used.update(uses)
    for text in roots:
        used.update(_root_uses(text))
    return [
        qualified
        for _, definitions in modules
        for qualified, name, own in definitions
        if used[name] <= own
    ]


def _roots():
    """The root files outside ``src/repro``."""
    artifacts = ROOT / "tests" / "test_artifacts.py"
    producers = [
        ROOT / "tests" / f"{alias.name}.py"
        for node in ast.parse(artifacts.read_text()).body
        if isinstance(node, ast.ImportFrom) and node.module == "tests"
        for alias in node.names
    ]
    return [
        artifacts, *producers,
        *sorted((ROOT / "benchmarks" / "spine").glob("*.py")),
        *sorted((ROOT / "examples").glob("*.py")),
    ]


@functools.lru_cache(maxsize=None)
def _tree():
    """``(sources, root sources)`` of the checkout."""
    sources = [
        (str(path.relative_to(SRC.parent)), path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    ]
    return sources, [path.read_text() for path in _roots()]


def test_every_src_definition_is_reached_from_outside_the_tests():
    sources, roots = _tree()
    assert len(sources) > 100                  # the walk found the tree
    assert ROOT / "tests" / "archives.py" in _roots()
    unreached = set(_unreached(sources, roots))
    assert sorted(unreached - set(ALLOWED)) == []
    # An entry now reached, or whose definition is gone, is stale.
    assert sorted(set(ALLOWED) - unreached) == []


#: Definitions ``src/`` once held that only tests reached, deleted or
#: moved into the tests: ``(module, class or None, source)``.
DELETED = [
    ("check/manifest.py", None,
     "def mutate_event(manifest, index, **changes):\n"
     "    return manifest\n"),
    ("cluster/management.py", "ManagementHub",
     "def mean_time_to_detect_h(self):\n"
     "    return self.poll_interval_s / 7200.0\n"),
    ("cluster/reliability.py", None,
     "def sample_failure_times(rng, rate_per_hour, horizon_h):\n"
     "    return [rng.expovariate(rate_per_hour)]\n"),
    ("cms/profilecollect.py", "HotSpotProfile",
     "def hottest(self, n):\n"
     "    return sorted(self.counts)[:n]\n"),
    ("core/events.py", "EventKernel",
     "def after(self, delay, fn, *args):\n"
     "    return self.at(self.now + delay, fn, *args)\n"),
    ("core/events.py", "EventKernel",
     "@property\n"
     "def idle(self):\n"
     "    return self._live == 0\n"),
    ("cpus/longrun.py", None,
     "def spec_at_step(spec, step, model):\n"
     "    return spec\n"),
    ("cpus/power.py", "FailureModel",
     "def mtbf_hours(self, spec, nodes=1):\n"
     "    return 1.0 / nodes\n"),
    ("isa/assembler.py", None,
     "def disassemble(program):\n"
     "    return '\\n'.join(map(str, program.instrs))\n"),
    ("isa/instructions.py", None,
     "def op_class(op):\n"
     "    return _OP_CLASS[op]\n"),
    ("isa/instructions.py", "Instr",
     "@property\n"
     "def ends_block(self):\n"
     "    return self.op in BLOCK_ENDERS\n"),
    ("isa/instructions.py", "Program",
     "def static_mix(self):\n"
     "    return Counter(i.opclass for i in self.instrs)\n"),
    ("isa/machine.py", None,
     "def run_program(program, max_steps=10_000):\n"
     "    return Machine(program).run(max_steps)\n"),
    ("metrics/ratios.py", None,
     "def improvement_factor(old, new):\n"
     "    return old / new\n"),
    ("nbody/karp.py", None,
     "def karp_rsqrt_flops(n, table=KarpTable()):\n"
     "    return (4 + 4 * table.newton_iters) * n\n"),
    ("nbody/karp.py", "KarpTable",
     "@property\n"
     "def worst_initial_error(self):\n"
     "    return (3.0 / self.size) ** 2\n"),
    ("nbody/multipole.py", None,
     "def quadrupole_tensor(pos, mass, com):\n"
     "    return mass @ (pos - com)\n"),
    ("nbody/sph.py", None,
     "class SphSystem:\n"
     "    def __init__(self, pos, mass, h):\n"
     "        self.pos, self.mass, self.h = pos, mass, h\n"),
    ("nbody/traversal.py", None,
     "def work_per_particle(stats, n):\n"
     "    return stats.interactions / n\n"),
    ("nbody/tree.py", "HashedOctree",
     "def validate(self):\n"
     "    return len(self.nodes)\n"),
    ("nbody/vortex.py", None,
     "def vortex_ring(n, radius=1.0):\n"
     "    return n * radius\n"),
    ("network/fabric.py", "FabricSpec",
     "@property\n"
     "def oversubscription(self):\n"
     "    return self.nodes_per_chassis * self.nic.link.bandwidth_bps\n"),
    ("network/multilevel.py", "RackTopology",
     "def uplink_busy_s(self, chassis):\n"
     "    return self.uplinks[chassis].busy_s\n"),
    ("network/switch.py", "Switch",
     "@property\n"
     "def nonblocking(self):\n"
     "    return self.backplane_bps >= 2 * self.ports\n"),
    ("network/topology.py", "StarTopology",
     "def uplink_busy_s(self):\n"
     "    return self.uplink.busy_s\n"),
    ("perfmodel/projector.py", None,
     "def project_runtime_s(cpu, outcome):\n"
     "    return outcome.operations / project_mops(cpu, outcome)\n"),
    ("sched/profile_cache.py", None,
     "def job_profile_key(platform, config, spec, blades):\n"
     "    return ProfileKeys(platform, config).key(spec, blades)\n"),
    ("sched/profile_cache.py", "ProfileCache",
     "def invalidate(self):\n"
     "    self._entries.clear()\n"),
    ("simmpi/trace.py", None,
     "def filter_timeline(events, kinds=None, rank=None):\n"
     "    return [e for e in events if e.kind in kinds]\n"),
    ("simmpi/trace.py", "CommStats",
     "def merge(self, other):\n"
     "    return self\n"),
    ("thermal/throttle.py", None,
     "class ComposedGovernor:\n"
     "    def __init__(self, governors):\n"
     "        self.governors = list(governors)\n"),
    ("thermal/throttle.py", "ThermalThrottleGovernor",
     "def release_at(self, t):\n"
     "    return self.clamp_at(t, 1.0)\n"),
]


def _put_back(sources, module, owner, definition):
    """*sources* with *definition* added to ``repro/<module>`` (into
    class *owner* when given), a top-level one also imported by its
    package ``__init__``, as the deleted ones were.  -> (sources,
    qualified name)."""
    path = f"repro/{module}"
    name = ast.parse(definition).body[0].name
    texts = dict(sources)
    text = texts.get(path, "")
    if owner is None:
        texts[path] = text + "\n\n" + definition
        package = path.rpartition("/")[0] + "/__init__.py"
        stem = module.rpartition("/")[2].removesuffix(".py")
        texts[package] += f"from .{stem} import {name}\n"
    else:
        lines = text.splitlines(keepends=True)
        cls = next(node for node in ast.parse(text).body
                   if isinstance(node, ast.ClassDef) and node.name == owner)
        lines.insert(cls.end_lineno, textwrap.indent(definition, "    "))
        texts[path] = "".join(lines)
    dotted = "repro." + module.removesuffix(".py").replace("/", ".")
    qualified = ".".join(filter(None, (dotted, owner, name)))
    return sorted(texts.items()), qualified


@pytest.mark.parametrize(
    "module, owner, definition", DELETED,
    ids=[f"{owner or module.removesuffix('.py').rpartition('/')[2]}."
         f"{ast.parse(definition).body[0].name}"
         for module, owner, definition in DELETED])
def test_a_deleted_definition_put_back_is_unreached(module, owner,
                                                    definition):
    sources, roots = _tree()
    changed, qualified = _put_back(sources, module, owner, definition)
    assert qualified not in _unreached(sources, roots)
    unreached = set(_unreached(changed, roots)) - set(ALLOWED)
    assert sorted(unreached) == [qualified]


def test_the_walk_bites_on_a_seeded_test_only_definition():
    module = (
        "def used():\n"
        "    pass\n"
        "def only_tested():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def by_name():\n"
        "    pass\n"
        "class Box:\n"
        "    def open(self):\n"
        "        return self.count()\n"
        "    def count(self):\n"
        "        return 0\n"
        "    def shut(self):\n"
        "        return self.shut()\n"
        "    def _private(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    package = (
        "from repro.owner.box import only_tested, recursive\n"
        "__all__ = ['only_tested', 'recursive']\n"
    )
    user = (
        "from repro.owner.box import used\n"
        "def main(x):\n"
        "    used()\n"
        "    Box().open()\n"
        "    return getattr(x, 'by_name')\n"
    )
    sources = [
        ("repro/owner/__init__.py", package),
        ("repro/owner/box.py", module),
        ("repro/user.py", user),
    ]
    assert _unreached(sources) == [
        "repro.owner.box.only_tested",
        "repro.owner.box.recursive",
        "repro.owner.box.Box.shut",
        "repro.user.main",
    ]
    # A call in a package __init__ is a use; so is a root outside src.
    sources[0] = ("repro/owner/__init__.py", package + "recursive(3)\n")
    assert _unreached(sources, ["from repro.user import main"]) == [
        "repro.owner.box.only_tested",
        "repro.owner.box.Box.shut",
    ]
