"""Every public definition in ``src/repro`` is reached from outside the tests.

A definition is a public top-level function or class of a module, or a
public method of such a class; dunders and ``_private`` names are out
of scope.  It is *reached* by a use in a root outside its own body.
The roots are the code that runs without the test suite:

- every ``src/repro`` module, except that in a package ``__init__.py``
  an import (or an ``__all__`` entry) is not a use; a call is;
- ``tests/test_artifacts.py`` and every ``tests`` module it imports,
  the producers of the committed outputs;
- ``benchmarks/spine/*.py``;
- ``examples/*.py``, which CI runs.

What counts as a use:

- a top-level definition is reached by its name in any form: a
  ``Name``, an ``Attribute``, an import alias or the string of a
  ``getattr``, ``hasattr`` or ``setattr``;
- a method is reached only through an attribute: ``x.name`` or one of
  those three strings.  A bare name never reaches it, so a local
  variable or a top-level function that shares the name does not;
- a call ``x.name(...)`` never reaches a property, and reaches a method
  only if its positional count and keyword names bind to the method's
  signature, with ``self`` bound (or passed, when ``x`` is a CapWords
  name that may be the class); ``*``/``**`` unpacking binds to
  anything, and so does a method whose decorator may change its
  signature;
- an attribute formatted into an f-string (``f"{x.name}"``) reaches a
  property but never a method: nothing formats a bound method.

Receivers are not inferred (any ``.run()`` reaches every ``run(self)``),
so the rule finds code only a test can call, not code that merely looks
unused.  No definition is exempt.

A second guard does the same for options.  A defaulted parameter of a
public top-level function, of a public method or of a public class's
written ``__init__`` is *passed* when a root call binds an argument to
it, by keyword or by position, under the rules above: a bare name
reaches a function or a class (and so the ``__init__`` that class
inherits), an attribute also a method, and ``super().__init__(...)``
every ``__init__``.  A ``*``/``**`` call, or the callable used as a
value (a callback, a pool worker), passes every parameter; an
annotation, a base class, an ``isinstance`` or ``except`` class or a
receiver (``Cls`` of ``Cls.attr`` or ``Cls.from_x(...)``) is not a use.

A defaulted field of a public dataclass or NamedTuple that writes no
``__init__`` is an option too.  It is passed by a root call of its
class or of an heir that binds to it, by ``cls(...)`` inside one of its
class's classmethods, or by a keyword of any ``replace`` call
(``dataclasses.replace``, a NamedTuple's ``_replace``; receivers are
not inferred).  A field is no option when it has ``init=False``; when
a root stores to it or mutates it in place (``x.f = ...``, ``x.f +=
...``, ``x.f[k] = ...``, ``x.f.append(...)``, also through a local
bound to ``x.f``), which makes it state; or when its class is reachable
from a ``from_dict`` through field annotations, which makes it outside
input, hashed into the manifests.

An option no root passes is a constant: it stays only on
``ALLOWED_PARAMETERS``, as a seam, a reference or a size, with the test
that passes it.

A third guard does the same for state.  Every piece of state
``src/repro`` stores (a field of a dataclass or NamedTuple, an
attribute a method stores on its ``self``, private ones too, and a
module-level name) is *read* by a root: by an attribute load
``x.name``, a ``getattr``/``hasattr`` string, the string a class-body
descriptor reads by (``end_s = _column("attempt_end_s")``) or, for a
NamedTuple, an unpacking with as many targets as it has fields; a
module-level name also by its bare name or an import outside a package
``__init__``.  A store, ``+=``, ``x.f[k] = ...`` or a mutator call
whose value is dropped (``x.f.append(...)``) only writes.  Receivers
are not inferred, so state read under a name another class shares
passes.  Exception classes and the ``from_dict`` input classes are out
of scope.  State no root reads goes, or stays on ``ALLOWED_STATE``
with its reason and the test that reads it.

A fourth check fails on an import that a ``src/repro`` module (other
than a package ``__init__``) never uses: deleting a definition is what
leaves one behind, and CI's lint does not select F401.
"""

import ast
import functools
import inspect
import textwrap
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from tests.test_package_boundaries import _attribute_access

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Why an option no root passes may stay: a test substitutes a fake
#: through it, it belongs to a reference implementation tests compare
#: against, or it is a size or seed a test shrinks to keep tier-1 fast.
SEAM, REFERENCE, SIZE = "seam", "reference", "size"

#: Options kept on purpose: ``"qualified(parameter=)"`` -> ``(reason,
#: "path::test" that passes it)``.
ALLOWED_PARAMETERS = {
    "repro.nbody.kernels.direct_accelerations(use_karp=)": (
        REFERENCE,
        "tests/test_nbody_karp_kernels.py::test_direct_karp_matches_libm",
    ),
    "repro.nbody.kernels.direct_accelerations(chunk=)": (
        REFERENCE,
        "tests/test_nbody_karp_kernels.py::test_direct_chunking_invariance",
    ),
    "repro.network.faults.NetFaultConfig(windows=)": (
        SEAM,
        "tests/test_netfault.py::test_long_link_outage_partitions_and_requeues",
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: How a use names an identifier, besides a call's ``(positional count,
#: keyword names)``: a bare name or import alias, an attribute that is
#: not called, one formatted into an f-string, a call that unpacks
#: ``*`` or ``**``.
NAME, ATTRIBUTE, FORMATTED, UNPACKED = \
    "name", "attribute", "formatted", "unpacked"

_PROPERTY = {"property", "cached_property", "setter", "getter", "deleter"}
#: Decorators that leave a method's call signature as written.
_KEEPS_SIGNATURE = {"staticmethod", "classmethod", "abstractmethod",
                    "contextmanager", "lru_cache", "cache"}


#: One syntax tree per source text, shared by every walk below.
_parse = functools.lru_cache(maxsize=None)(ast.parse)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _signatures(fn):
    """What a call ``x.fn(...)`` may bind to: ``None`` for a property
    (nothing), ``...`` behind an unknown decorator (anything), else
    ``(signature through an instance, through the class)``."""
    decorators = {d.attr if isinstance(d, ast.Attribute) else
                  getattr(d, "id", None) for d in fn.decorator_list}
    if decorators & _PROPERTY:
        return None
    if decorators - _KEEPS_SIGNATURE:
        return ...
    a, P = fn.args, inspect.Parameter
    positional = a.posonlyargs + a.args
    defaults = [P.empty] * (len(positional) - len(a.defaults)) + a.defaults
    kinds = [P.POSITIONAL_ONLY] * len(a.posonlyargs) + \
        [P.POSITIONAL_OR_KEYWORD] * len(a.args)
    params = [P(arg.arg, kind, default=default)
              for arg, kind, default in zip(positional, kinds, defaults)]
    params += [P(a.vararg.arg, P.VAR_POSITIONAL)] if a.vararg else []
    params += [P(arg.arg, P.KEYWORD_ONLY,
                 default=P.empty if default is None else default)
               for arg, default in zip(a.kwonlyargs, a.kw_defaults)]
    params += [P(a.kwarg.arg, P.VAR_KEYWORD)] if a.kwarg else []
    whole = inspect.Signature(params)
    if "staticmethod" in decorators:
        return whole, whole
    bound = whole.replace(parameters=params[1:])
    return (bound, bound) if "classmethod" in decorators else (bound, whole)


def _reaches(signatures, how) -> bool:
    """Whether a use *how* reaches a definition: *signatures* is
    ``NAME`` for a top-level one, else ``_signatures`` of a method."""
    if signatures is NAME or how == ATTRIBUTE:
        return True
    if how == FORMATTED:
        return signatures is None
    if how == NAME or signatures is None:
        return False
    if how == UNPACKED or signatures is ...:
        return True
    positional, keywords, through_class = how
    for signature in signatures[:1 + through_class]:
        try:
            signature.bind(*range(positional), **dict.fromkeys(keywords))
        except TypeError:
            continue
        return True
    return False


def _definitions(module, tree):
    """``(qualified name, node, signatures)`` of each public top-level
    function and class of *tree* (``NAME``), and of each public method
    of such a class."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and _public(node.name):
            yield f"{module}.{node.name}", node, NAME
            if isinstance(node, ast.ClassDef):
                yield from (
                    (f"{module}.{node.name}.{item.name}", item,
                     _signatures(item))
                    for item in node.body
                    if isinstance(item, _FUNCTIONS) and _public(item.name)
                )


def _how(call):
    """How a call ``x.name(...)`` uses *name*: ``UNPACKED``, or its
    positional count, keyword names and whether ``x`` may be a class
    (a bare CapWords name), which passes ``self`` itself (``None`` for
    a call ``name(...)``, which has no ``x``)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or \
            any(kw.arg is None for kw in call.keywords):
        return UNPACKED
    receiver = getattr(call.func, "value", None)
    through_class = None if receiver is None else \
        isinstance(receiver, ast.Name) and receiver.id[0].isupper()
    return (len(call.args), tuple(sorted(kw.arg for kw in call.keywords)),
            through_class)


def _uses(tree, package_init=False):
    """How *tree* names each identifier: ``name -> Counter(how)``."""
    how = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            how[id(node.func)] = _how(node)
        elif isinstance(node, ast.FormattedValue):
            how[id(node.value)] = FORMATTED
    used = defaultdict(Counter)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id][NAME] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not package_init:
                for alias in node.names:
                    used[alias.name.rpartition(".")[2]][NAME] += 1
        elif isinstance(node, ast.Attribute) and id(node) in how:
            used[node.attr][how[id(node)]] += 1
        elif attr := _attribute_access(node):
            used[attr[1]][ATTRIBUTE] += 1
    return used


def _count(uses, signatures) -> int:
    """How many of *uses* (``how -> count``, of one name) reach a
    definition with *signatures*."""
    return sum(n for how, n in uses.items() if _reaches(signatures, how))


@functools.lru_cache(maxsize=None)
def _module(path, text):
    """One ``src/repro`` module: the names it uses as a root, and each
    definition as ``(qualified name, name, signatures, uses inside its
    own body that reach it)``."""
    tree = _parse(text)
    module = path.removesuffix(".py").removesuffix("/__init__")
    return _uses(tree, path.endswith("__init__.py")), [
        (qualified, node.name, signatures,
         _count(_uses(node)[node.name], signatures))
        for qualified, node, signatures
        in _definitions(module.replace("/", "."), tree)
    ]


@functools.lru_cache(maxsize=None)
def _root_uses(text):
    return _uses(_parse(text))


def _unreached(sources, roots=()):
    """*sources*: ``[(path under src, python source)]``, each also a
    root; *roots*: more root sources.  -> unreached qualified names."""
    modules = [_module(path, text) for path, text in sources]
    used = defaultdict(Counter)
    for uses in [uses for uses, _ in modules] + [_root_uses(t) for t in roots]:
        for name, hows in uses.items():
            used[name].update(hows)
    return [
        qualified
        for _, definitions in modules
        for qualified, name, signatures, own in definitions
        if _count(used[name], signatures) <= own
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
    assert _unreached(sources, roots) == []


#: Definitions ``src/`` once held that only tests reached, deleted or
#: moved into the tests: ``(module, class or None, source)``.
DELETED = [
    ("check/manifest.py", None,
     "def mutate_event(manifest, index, **changes):\n"
     "    return manifest\n"),
    ("cluster/blade.py", None,
     "@dataclass(frozen=True)\n"
     "class FormFactor:\n"
     "    width_in: float\n"),
    ("cluster/management.py", None,
     "class EventKind(enum.Enum):\n"
     "    FAILURE = 'failure'\n"),
    ("cluster/management.py", None,
     "class LiveFailureInjector:\n"
     "    def __init__(self, runtime):\n"
     "        self.runtime = runtime\n"),
    ("cluster/management.py", None,
     "@dataclass(frozen=True)\n"
     "class ManagementEvent:\n"
     "    time_h: float\n"),
    ("cluster/management.py", None,
     "@dataclass\n"
     "class ManagementHub:\n"
     "    detection_latency_h: float\n"),
    ("cluster/management.py", None,
     "class ClusterOperationSim:\n"
     "    def __init__(self, cluster, seed=0):\n"
     "        self.rng = random.Random(seed)\n"),
    ("cluster/management.py", None,
     "@dataclass\n"
     "class OperationReport:\n"
     "    lost_cpu_hours: float\n"),
    ("cluster/reliability.py", None,
     "@dataclass(frozen=True)\n"
     "class ClusterReliability:\n"
     "    cluster: PlatformSpec\n"),
    ("cluster/reliability.py", "OutageProfile",
     "def downtime_cost(self, usd_per_cpu_hour=5.0):\n"
     "    return self.outage_hours * usd_per_cpu_hour\n"),
    ("cluster/reliability.py", "OutageProfile",
     "def mean_time_to_detect_h(self):\n"
     "    return self.outage_hours / 20.0\n"),
    ("cluster/rack.py", "Rack",
     "@property\n"
     "def node_count(self):\n"
     "    return sum(len(c) for c in self.chassis)\n"),
    ("cluster/reliability.py", None,
     "def sample_failure_times(rng, rate_per_hour, horizon_h):\n"
     "    return [rng.expovariate(rate_per_hour)]\n"),
    ("cms/translator.py", None,
     "@dataclass(frozen=True)\n"
     "class Translation:\n"
     "    block: TranslatedBlock\n"),
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
    ("core/events.py", "EventKernel",
     "def step(self):\n"
     "    return bool(self._heap)\n"),
    ("cpus/longrun.py", None,
     "def spec_at_step(spec, step, model):\n"
     "    return spec\n"),
    ("cpus/power.py", None,
     "def mtbf_hours(spec, nodes=1):\n"
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
    ("isa/instructions.py", "Instr",
     "def writes(self):\n"
     "    return self.dst\n"),
    ("isa/instructions.py", "Program",
     "def static_mix(self):\n"
     "    return Counter(i.opclass for i in self.instrs)\n"),
    ("isa/programs.py", None,
     "def axpy(n=128):\n"
     "    return n\n"),
    ("isa/programs.py", None,
     "def dot_product(n=128):\n"
     "    return n\n"),
    ("isa/programs.py", None,
     "def fib(n=30):\n"
     "    return n\n"),
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
    ("nbody/morton.py", None,
     "def morton_decode(code):\n"
     "    return code, code, code\n"),
    ("nbody/morton.py", None,
     "def cell_geometry(key, lo, hi, depth=MAX_DEPTH):\n"
     "    return lo, float(hi[0] - lo[0])\n"),
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
    ("network/link.py", None,
     "class LinkSchedule:\n"
     "    def __init__(self, link):\n"
     "        self.link = link\n"),
    ("network/multilevel.py", "RackTopology",
     "def uplink_busy_s(self, chassis):\n"
     "    return self.uplinks[chassis].busy_s\n"),
    ("network/switch.py", None,
     "class BackplaneSchedule:\n"
     "    def __init__(self, switch):\n"
     "        self.switch = switch\n"),
    ("network/switch.py", "Switch",
     "@property\n"
     "def nonblocking(self):\n"
     "    return self.backplane_bps >= 2 * self.ports\n"),
    ("network/timing.py", None,
     "def publish_fabric_metrics(registry, fabric, fabric_name='fabric'):\n"
     "    registry.counter('fabric.transfers').inc(len(fabric.transfers))\n"),
    ("network/topology.py", "StarTopology",
     "def uplink_busy_s(self):\n"
     "    return self.uplink.busy_s\n"),
    ("npb/common.py", "NpbRandom",
     "def next(self):\n"
     "    self.x = (self.x * self.a) & _MASK46\n"
     "    return self.x / NPB_LCG_M\n"),
    ("perfmodel/projector.py", None,
     "def project_runtime_s(cpu, outcome):\n"
     "    return outcome.operations / project_mops(cpu, outcome)\n"),
    ("sched/profile_cache.py", None,
     "def job_profile_key(platform, config, spec, blades):\n"
     "    return ProfileKeys(platform, config).key(spec, blades)\n"),
    ("sched/profile_cache.py", "ProfileCache",
     "def invalidate(self):\n"
     "    self._entries.clear()\n"),
    ("simmpi/collectives.py", None,
     "def scatter(comm, objs, root=0):\n"
     "    return objs[comm.rank]\n"),
    ("simmpi/comm.py", "RankComm",
     "def barrier(self):\n"
     "    return self.allreduce(0)\n"),
    ("simmpi/comm.py", "RankComm",
     "def gather(self, obj, root=0):\n"
     "    return self.allgather(obj)\n"),
    ("simmpi/trace.py", None,
     "def filter_timeline(events, kinds=None, rank=None):\n"
     "    return [e for e in events if e.kind in kinds]\n"),
    ("simmpi/runtime.py", "RunResult",
     "def publish_metrics(self, registry, world):\n"
     "    registry.gauge('simmpi.elapsed_s', world=world)\n"),
    ("simmpi/trace.py", "CommStats",
     "def merge(self, other):\n"
     "    return self\n"),
    ("simmpi/trace.py", "CommStats",
     "@property\n"
     "def messages(self):\n"
     "    return self.sends + self.recvs\n"),
    ("telemetry/registry.py", "Histogram",
     "@property\n"
     "def mean(self):\n"
     "    return self.sum / self.count if self.count else 0.0\n"),
    ("telemetry/spans.py", "Span",
     "@property\n"
     "def duration(self):\n"
     "    return self.t1 - self.t0\n"),
    ("thermal/throttle.py", None,
     "class ComposedGovernor:\n"
     "    def __init__(self, governors):\n"
     "        self.governors = list(governors)\n"),
    ("thermal/throttle.py", None,
     "class Governor:\n"
     "    def __init__(self, busy_watts):\n"
     "        self.busy_watts = busy_watts\n"),
    ("thermal/throttle.py", "ThermalThrottleGovernor",
     "def release_at(self, t):\n"
     "    return self.clamp_at(t, 1.0)\n"),
    ("vliw/atoms.py", "Atom",
     "@property\n"
     "def is_store(self):\n"
     "    return self.instr.opclass is OpClass.STORE\n"),
    ("vliw/atoms.py", "Atom",
     "def writes(self):\n"
     "    return self.instr.dst\n"),
    ("vliw/scheduler.py", "DependenceEdges",
     "@property\n"
     "def data(self):\n"
     "    return self.data_successors\n"),
    ("vliw/scheduler.py", "DependenceEdges",
     "@property\n"
     "def war_order(self):\n"
     "    return self.war_order_successors\n"),
    ("vliw/scheduler.py", "DependenceEdges",
     "@property\n"
     "def waw(self):\n"
     "    return self.waw_successors\n"),
]


def _declared(source):
    """The name *source* declares: a function, a class, a field or a
    module-level name."""
    node = ast.parse(source).body[0]
    return getattr(node, "name", None) or \
        getattr(node, "target", None) and node.target.id or \
        node.targets[0].id


def _case_id(module, owner, source):
    """``Owner.name``, or ``module.name`` for a top-level one."""
    return f"{owner or module.removesuffix('.py').rpartition('/')[2]}." \
        f"{_declared(source)}"


def _put_back(sources, module, owner, definition):
    """*sources* with *definition* added to ``repro/<module>`` (into
    class *owner* when given), a top-level one also imported by its
    package ``__init__``, as the deleted ones were.  -> (sources,
    qualified name)."""
    path = f"repro/{module}"
    name = _declared(definition)
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
    ids=[_case_id(*case) for case in DELETED])
def test_a_deleted_definition_put_back_is_unreached(module, owner,
                                                    definition):
    sources, roots = _tree()
    changed, qualified = _put_back(sources, module, owner, definition)
    assert qualified not in _unreached(sources, roots)
    assert _unreached(changed, roots) == [qualified]


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


def test_a_method_is_reached_only_through_an_attribute_that_binds():
    module = (
        "class Box:\n"
        "    def fill(self, a, b=0, *, lid=None):\n"
        "        pass\n"
        "    def pour(self, a):\n"
        "        pass\n"
        "    def tip(self):\n"
        "        pass\n"
        "    def open(self):\n"
        "        pass\n"
        "    def close(self):\n"
        "        pass\n"
        "    def peek(self):\n"
        "        pass\n"
        "    def shake(self, n):\n"
        "        pass\n"
        "    @property\n"
        "    def label(self):\n"
        "        return 'box'\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "    @staticmethod\n"
        "    def make(kind):\n"
        "        return Box()\n"
        "def close():\n"
        "    pass\n"
    )
    user = (
        "from repro.box import Box, close\n"
        "def main(box, args):\n"
        "    close()\n"                 # a name: never a method
        "    open = 1\n"
        "    box.fill(1, lid=2)\n"      # binds
        "    box.pour()\n"              # does not bind
        "    box.pour(1, 2)\n"          # does not bind either
        "    Box.tip(box)\n"            # through the class: self passed
        "    box.shake(*args)\n"        # unpacking binds to anything
        "    box.size()\n"              # a call never reaches a property
        "    Box.make('cube')\n"
        "    return f'{box.label} {box.peek}'\n"   # formatted
    )
    sources = [("repro/box.py", module), ("repro/user.py", user)]
    assert _unreached(sources, ["from repro.user import main"]) == [
        "repro.box.Box.pour",
        "repro.box.Box.open",
        "repro.box.Box.close",
        "repro.box.Box.peek",
        "repro.box.Box.size",
    ]


# -- options -----------------------------------------------------------------

#: How a use passes arguments, besides a call's ``(positional count,
#: keyword names, through a class)``: as the callable itself.
VALUE = "value"


def _named(decorator):
    """The name a decorator ends in: ``dataclass`` for
    ``@dataclasses.dataclass(frozen=True)``."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)


def _no_uses(tree):
    """Ids of the nodes under an annotation, a base class or an
    ``isinstance``/``issubclass``/``except`` class: naming a class
    there calls nothing."""
    skip = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            skip.append(node.annotation)
        elif isinstance(node, _FUNCTIONS) and node.returns:
            skip.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            skip.append(node.annotation)
        elif isinstance(node, ast.ClassDef):
            skip += node.bases
        elif isinstance(node, ast.ExceptHandler) and node.type:
            skip.append(node.type)
        elif isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) in ("isinstance",
                                                   "issubclass"):
            skip += node.args[1:]
    return {id(n) for subtree in skip for n in ast.walk(subtree)}


def _init_class(node):
    """The class ``Cls`` of an ``__init__`` loaded as ``Cls.__init__``:
    used as a value, it passes options as ``Cls`` itself does, to its
    own ``__init__`` or the one it inherits.  Any other receiver may be
    any class, so that ``__init__`` passes to every one."""
    if isinstance(node, ast.Attribute) and node.attr == "__init__" and \
            isinstance(node.value, ast.Name) and node.value.id[0].isupper():
        return node.value.id
    return None


@functools.lru_cache(maxsize=None)
def _passes(text):
    """How *text* passes arguments to each name: ``name -> Counter(how)``,
    *how* ``VALUE``, ``UNPACKED`` or ``_how`` of a call (a bare name
    passes nothing to a method)."""
    tree = _parse(text)
    called = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, (ast.Name, ast.Attribute)):
            called[id(node.func)] = _how(node)
    # A receiver (``Cls`` of ``Cls.attr`` or ``Cls.from_x(...)``) is
    # looked into, not passed anywhere.
    skip = _no_uses(tree) | {id(node.value) for node in ast.walk(tree)
                             if isinstance(node, ast.Attribute)}
    passes = defaultdict(Counter)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", None) or node.attr
            if id(node) in called:
                passes[name][called[id(node)]] += 1
            elif isinstance(node.ctx, ast.Load):
                passes[_init_class(node) or name][VALUE] += 1
        elif attr := _attribute_access(node):     # getattr(x, "name")
            passes[attr[1]][VALUE] += 1
    return passes


def _classes(trees):
    """``class name -> (whether it has its own __init__, base names)``;
    a dataclass has its own."""
    classes = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                own = "dataclass" in map(_named, node.decorator_list) or \
                    any(isinstance(item, _FUNCTIONS)
                        and item.name == "__init__" for item in node.body)
                classes[node.name] = (own, [_named(b) for b in node.bases])
    return classes


def _heirs(classes, name):
    """*name* and every class that inherits its ``__init__``."""
    heirs = [name]
    for other, (own, bases) in classes.items():
        if not own and name in bases:
            heirs += _heirs(classes, other)
    return heirs


def _options(module, tree, classes):
    """``(qualified name, defaulted parameters, [(name, whether a bare
    name reaches it, signatures)])`` of each public function, public
    method and public class ``__init__`` of *tree* that has options."""
    P = inspect.Parameter
    for node in tree.body:
        if not (isinstance(node, (*_FUNCTIONS, ast.ClassDef))
                and _public(node.name)):
            continue
        if isinstance(node, ast.ClassDef):
            owner = f"{module}.{node.name}."
            dataclass = "dataclass" in map(_named, node.decorator_list)
            methods = [item for item in node.body
                       if isinstance(item, _FUNCTIONS)
                       and (_public(item.name) or item.name == "__init__"
                            and not dataclass)]
        else:
            owner, methods = f"{module}.", [node]
        for fn in methods:
            signatures = _signatures(fn)
            if signatures in (None, ...):
                continue
            whole = signatures[1]
            defaulted = [p.name for p in whole.parameters.values()
                         if p.default is not P.empty
                         and p.kind not in (P.VAR_POSITIONAL, P.VAR_KEYWORD)]
            if not defaulted:
                continue
            if fn is node:
                keys = [(fn.name, True, (whole, whole))]
            elif fn.name == "__init__":
                bound = signatures[0]
                keys = [(heir, True, (bound, bound))
                        for heir in _heirs(classes, node.name)]
                keys.append(("__init__", False, signatures))
            else:
                keys = [(fn.name, False, signatures)]
            yield owner + fn.name, defaulted, keys


def _bound(signatures, how):
    """The parameters a call *how* binds arguments to."""
    positional, keywords, through_class = how
    bound = set()
    for signature in signatures[:1 + bool(through_class)]:
        try:
            bound |= set(signature.bind(
                *range(positional), **dict.fromkeys(keywords)).arguments)
        except TypeError:
            continue
    return bound


def _unset(sources, roots=()):
    """*sources* and *roots* as for :func:`_unreached` -> each option
    no root passes, as ``"qualified(parameter=)"``."""
    trees = [(path, _parse(text)) for path, text in sources]
    passes = defaultdict(Counter)
    for text in [text for _, text in sources] + list(roots):
        for name, hows in _passes(text).items():
            passes[name].update(hows)
    classes = _classes(tree for _, tree in trees)
    unset = []
    for path, tree in trees:
        module = path.removesuffix(".py").removesuffix("/__init__")
        for qualified, defaulted, keys in _options(
                module.replace("/", "."), tree, classes):
            passed = set()
            for name, by_name, signatures in keys:
                for how in passes[name]:
                    if how in (VALUE, UNPACKED):
                        passed.update(defaulted)
                    elif by_name or how[2] is not None:
                        passed |= _bound(signatures, how)
            unset += [f"{qualified}({parameter}=)"
                      for parameter in defaulted if parameter not in passed]
    return unset


# -- fields ------------------------------------------------------------------

#: Methods that change a container in place: ``x.f.append(...)`` makes
#: ``f`` state, not an option.
_MUTATORS = {"append", "appendleft", "extend", "extendleft", "insert", "add",
             "update", "setdefault", "pop", "popleft", "popitem", "remove",
             "discard", "clear", "sort", "reverse"}
#: A field passed by every ``replace`` call (one that unpacks ``**``).
EVERY = "*"


def _record(node):
    """Whether class *node* is a dataclass or a NamedTuple."""
    return "dataclass" in map(_named, node.decorator_list) or \
        "NamedTuple" in map(_named, node.bases)


def _field(item):
    """``(name, defaulted)`` of a statement of a class body that declares
    an ``__init__`` field, else ``None`` (a method, a ``ClassVar``, a
    field with ``init=False``)."""
    if not (isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)) or \
            "ClassVar" in ast.unparse(item.annotation):
        return None
    value, name = item.value, item.target.id
    if value is None:
        return name, False
    if isinstance(value, ast.Call) and _named(value) in ("field", "param"):
        keywords = {kw.arg: kw.value for kw in value.keywords}
        if getattr(keywords.get("init"), "value", True) is False:
            return None
        return name, bool({"default", "default_factory"} & set(keywords)) \
            or _named(value) == "param" and len(value.args) > 1
    return name, True


@functools.lru_cache(maxsize=None)
def _records(text):
    """``class name -> (node, own fields, base names, whether it writes
    its own __init__)`` of every class of *text*; *own fields* is
    ``[(name, defaulted)]`` for a record, else ``None``."""
    records = {}
    for node in ast.walk(_parse(text)):
        if isinstance(node, ast.ClassDef):
            written = any(isinstance(item, _FUNCTIONS)
                          and item.name == "__init__" for item in node.body)
            fields = [f for item in node.body if (f := _field(item))] \
                if _record(node) else None
            records[node.name] = (node, fields,
                                  [_named(b) for b in node.bases], written)
    return records


def _init_fields(records, name):
    """``{field: defaulted}`` of the ``__init__`` class *name* gets from
    its fields, in order: its record bases' fields first."""
    _, own, bases, _ = records[name]
    fields = {}
    for base in reversed(bases):
        if base in records:
            fields.update(_init_fields(records, base))
    fields.update(own or ())
    return fields


def _field_heirs(records, name):
    """*name* and every class whose ``__init__`` takes its fields: a
    record that inherits them, or a class that writes no ``__init__``."""
    heirs = [name]
    for other, (_, _, bases, written) in records.items():
        if name in bases and not written:
            heirs += _field_heirs(records, other)
    return heirs


def _outside_input(records):
    """Classes reachable from a ``from_dict`` through field annotations:
    their fields come from a document, not from a caller."""
    todo = [name for name, (node, *_) in records.items()
            if any(isinstance(item, _FUNCTIONS) and item.name == "from_dict"
                   for item in node.body)]
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in records:
            continue
        seen.add(name)
        for item in records[name][0].body:
            if isinstance(item, ast.AnnAssign):
                annotation = item.annotation
                if isinstance(annotation, ast.Constant):
                    annotation = ast.parse(annotation.value, mode="eval")
                todo += [n.id for n in ast.walk(annotation)
                         if isinstance(n, ast.Name)]
    return seen


@functools.lru_cache(maxsize=None)
def _field_uses(text):
    """What *text* does to fields beyond a call of their class:
    ``(calls of cls(...) inside a classmethod, as class name ->
    Counter(how); keywords of replace calls; attributes it stores to or
    mutates in place)``."""
    tree = _parse(text)
    through_cls = defaultdict(Counter)
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, _FUNCTIONS) and "classmethod" in map(
                        _named, fn.decorator_list):
                    for node in ast.walk(fn):
                        if isinstance(node, ast.Call) and \
                                getattr(node.func, "id", None) == "cls":
                            through_cls[cls.name][_how(node)] += 1
    # A local bound to ``x.f`` mutates ``f``: ``by = x.f; by[k] = v``.
    aliases = {target.id: node.value.attr for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute)
               for target in node.targets if isinstance(target, ast.Name)}

    def attribute(node):
        if isinstance(node, ast.Attribute):
            return node.attr
        return aliases.get(getattr(node, "id", None))

    replaced, stored = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == "replace" or \
                    getattr(func, "attr", None) == "_replace" or \
                    getattr(func, "attr", None) == "replace" and \
                    getattr(func.value, "id", None) == "dataclasses":
                replaced |= {kw.arg or EVERY for kw in node.keywords}
            elif getattr(func, "attr", None) in _MUTATORS:
                stored.add(attribute(func.value))    # x.f.append(...)
            elif _named(node) in ("setattr", "__setattr__") and \
                    len(node.args) > 1 and \
                    isinstance(node.args[1], ast.Constant):
                stored.add(node.args[1].value)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            stored.add(node.attr)                    # x.f = ..., x.f += ...
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            while isinstance(node, ast.Subscript):   # x.f[k] = ...
                node = node.value
            stored.add(attribute(node))
    return through_cls, frozenset(replaced), frozenset(stored - {None})


def _unset_fields(sources, roots=()):
    """*sources* and *roots* as for :func:`_unreached` -> each defaulted
    field of a public record no root passes, as ``"Class(field=)"``."""
    passes, through_cls = defaultdict(Counter), defaultdict(Counter)
    replaced, stored = set(), set()
    for text in [text for _, text in sources] + list(roots):
        for name, hows in _passes(text).items():
            passes[name].update(hows)
        by_cls, by_replace, by_store = _field_uses(text)
        for name, hows in by_cls.items():
            through_cls[name].update(hows)
        replaced |= by_replace
        stored |= by_store
    records = {}
    for _, text in sources:
        records.update(_records(text))
    outside = _outside_input(records)
    P = inspect.Parameter
    unset = []
    for path, text in sources:
        module = path.removesuffix(".py").removesuffix("/__init__") \
            .replace("/", ".")
        for node, own, _, written in _records(text).values():
            if not _public(node.name) or own is None or written or \
                    node.name in outside or node.col_offset:
                continue
            options = [field for field, defaulted in own if defaulted
                       and field not in stored and field not in replaced]
            if EVERY in replaced:
                options = []
            passed = set()
            for heir in _field_heirs(records, node.name):
                signature = inspect.Signature([
                    P(field, P.POSITIONAL_OR_KEYWORD,
                      default=None if defaulted else P.empty)
                    for field, defaulted in _init_fields(records, heir).items()
                ])
                for how in passes[heir] + through_cls[heir]:
                    if how in (VALUE, UNPACKED):
                        passed.update(options)
                    else:
                        passed |= _bound((signature, signature), how)
            unset += [f"{module}.{node.name}({field}=)"
                      for field in options if field not in passed]
    return unset


def _unset_options(sources, roots=()):
    """Every parameter and field no root passes."""
    return _unset(sources, roots) + _unset_fields(sources, roots)


def test_every_option_is_passed_from_outside_the_tests():
    sources, roots = _tree()
    unset = set(_unset_options(sources, roots))
    assert sorted(unset - set(ALLOWED_PARAMETERS)) == []
    # An entry now passed, or whose parameter is gone, is stale.
    assert sorted(set(ALLOWED_PARAMETERS) - unset) == []


@pytest.mark.parametrize("option", ALLOWED_PARAMETERS)
def test_a_kept_option_has_a_reason_and_the_test_that_passes_it(option):
    reason, test = ALLOWED_PARAMETERS[option]
    assert reason in (SEAM, REFERENCE, SIZE)
    path, _, name = test.partition("::")
    text = (ROOT / path).read_text()
    tree = ast.parse(text)
    test_fn, = [node for node in tree.body
                if isinstance(node, _FUNCTIONS) and node.name == name]
    sources, roots = _tree()
    assert option not in _unset_options(sources,
                                        [*roots, ast.unparse(test_fn)])


def test_the_option_walk_bites_on_seeded_unset_parameters():
    module = (
        "from dataclasses import dataclass\n"
        "def scale(x, factor=2, *, offset=0, clamp=None):\n"
        "    return x\n"
        "def hook(x, tries=3):\n"
        "    return x\n"
        "def spread(x, width=1, depth=1):\n"
        "    return x\n"
        "class Box:\n"
        "    def __init__(self, size, lid=False, label=''):\n"
        "        self.size = size\n"
        "    def fill(self, a, b=0, *, spill=False):\n"
        "        return a\n"
        "    def tip(self, angle=90):\n"
        "        return angle\n"
        "class Crate(Box):\n"
        "    pass\n"
        "class Tin(Box):\n"
        "    def __init__(self, size, seal=True):\n"
        "        super().__init__(size, lid=True)\n"
        "@dataclass\n"
        "class Spec:\n"
        "    width: int = 1\n"
    )
    user = (
        "from repro.box import Crate, Spec, Tin, hook, scale, spread\n"
        "def main(run, box: Tin, args):\n"
        "    scale(1, 3)\n"                  # factor by position
        "    scale(1, clamp=4)\n"            # clamp by keyword
        "    run(hook)\n"                    # a callback: every option
        "    spread(1, *args)\n"             # unpacked: every option
        "    Crate(4, label='c')\n"          # Box.__init__, inherited
        "    box.fill(1, 2)\n"               # b by position
        "    tip(30)\n"                      # a bare name: no method
        "    isinstance(box, Tin)\n"         # names a class, calls nothing
        "    return Spec(width=2)\n"
    )
    sources = [("repro/box.py", module), ("repro/user.py", user)]
    assert _unset(sources) == [
        "repro.box.scale(offset=)",
        "repro.box.Box.fill(spill=)",
        "repro.box.Box.tip(angle=)",
        "repro.box.Tin.__init__(seal=)",
    ]


#: Fields ``src/`` once held that no root passed, now constants:
#: ``(module, class or None, source)``; a whole class when every field
#: of it went.
DELETED_FIELDS = [
    ("cluster/rack.py", "Rack", "rack_units: int = 42"),
    ("cluster/rack.py", "Rack",
     "footprint_sqft: float = RACK_FOOTPRINT_SQFT"),
    ("cluster/reliability.py", "OutageProfile",
     "failure_model: FailureModel = FailureModel()"),
    ("cpus/longrun.py", "LongRunModel",
     "static_watts: float = param(NONNEGATIVE, 0.35)"),
    ("cpus/power.py", "ThermalModel", "c_per_watt_cooled: float = 0.35"),
    ("cpus/power.py", "ThermalModel", "c_per_watt_passive: float = 0.9"),
    ("cpus/power.py", None,
     "@dataclass(frozen=True)\n"
     "class FailureModel:\n"
     "    base_rate_per_year: float = 0.12\n"
     "    base_temperature: float = 40.0\n"
     "    doubling_celsius: float = 10.0\n"),
    ("metrics/costs.py", "CostParameters",
     "years: float = param(POSITIVE, 4.0)"),
    ("metrics/costs.py", "CostParameters",
     "blade_setup_hours: float = param(NONNEGATIVE, 2.5)"),
    ("metrics/costs.py", "CostParameters",
     "labor_usd_per_hour: float = param(NONNEGATIVE, 100.0)"),
    ("metrics/costs.py", "CostParameters",
     "blade_maintenance_usd_per_year: float = param(NONNEGATIVE, 1_200.0)"),
    ("metrics/costs.py", "CostParameters",
     "software_usd: float = param(NONNEGATIVE, 0.0)"),
    ("metrics/costs.py", "CostParameters",
     "hours_per_year: float = param(POSITIVE, 8_760.0)"),
    ("sched/workloads.py", "TreecodeJob",
     "theta: float = param(POSITIVE, 0.7)"),
    ("sched/workloads.py", "TreecodeJob",
     "dt: float = param(POSITIVE, 1e-3)"),
    ("thermal/reliability.py", "ArrheniusIntensity",
     "base_c: float = param(FINITE, 40.0)"),
    ("thermal/reliability.py", "ArrheniusIntensity",
     "doubling_c: float = param(POSITIVE, 10.0)"),
]


@pytest.mark.parametrize(
    "module, owner, source", DELETED_FIELDS,
    ids=[_case_id(*case) for case in DELETED_FIELDS])
def test_a_deleted_field_put_back_is_unset(module, owner, source):
    sources, roots = _tree()
    changed, _ = _put_back(sources, module, owner, source)
    dotted = "repro." + module.removesuffix(".py").replace("/", ".")
    node = ast.parse(source).body[0]
    if owner is None:
        expected = [f"{dotted}.{node.name}({name}=)"
                    for name, _ in map(_field, node.body)]
    else:
        expected = [f"{dotted}.{owner}({node.target.id}=)"]
    unset = _unset_fields(sources, roots)
    assert set(expected).isdisjoint(unset)
    assert sorted(_unset_fields(changed, roots)) == sorted(unset + expected)


def test_the_field_walk_bites_on_seeded_unset_fields():
    module = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, NamedTuple\n"
        "@dataclass\n"
        "class Spec:\n"
        "    width: int\n"
        "    depth: int = 1\n"
        "    height: int = 2\n"
        "    label: str = ''\n"
        "    color: str = ''\n"
        "    kind: ClassVar[str] = 'spec'\n"
        "    cache: dict = field(init=False, default_factory=dict)\n"
        "    hits: int = 0\n"
        "    log: list = field(default_factory=list)\n"
        "    tags: dict = field(default_factory=dict)\n"
        "    @classmethod\n"
        "    def cube(cls, side):\n"
        "        return cls(side, height=side)\n"
        "@dataclass\n"
        "class Wide(Spec):\n"
        "    margin: float = 0.0\n"
        "class Point(NamedTuple):\n"
        "    x: float\n"
        "    y: float = 0.0\n"
        "    z: float = 0.0\n"
        "@dataclass\n"
        "class Doc:\n"
        "    inner: 'Inner'\n"
        "    size: int = 1\n"
        "    @classmethod\n"
        "    def from_dict(cls, doc):\n"
        "        return cls(doc['inner'])\n"
        "@dataclass\n"
        "class Inner:\n"
        "    scale: float = 1.0\n"
        "@dataclass\n"
        "class _Hidden:\n"
        "    secret: int = 0\n"
    )
    user = (
        "from dataclasses import replace\n"
        "from repro.box import Point, Wide\n"
        "def main(spec, key):\n"
        "    Wide(0, depth=4)\n"            # depth, to an heir
        "    Point(1.0, 2.0)\n"             # y by position
        "    spec.hits += 1\n"              # state: stored
        "    spec.log.append(key)\n"        # state: mutated in place
        "    tags = spec.tags\n"
        "    tags[key] = 1\n"               # state: mutated through a local
        "    return replace(spec, label='x')\n"
    )
    sources = [("repro/box.py", module), ("repro/user.py", user)]
    assert _unset_fields(sources) == [
        "repro.box.Spec(color=)",
        "repro.box.Wide(margin=)",
        "repro.box.Point(z=)",
    ]
    # A replace that unpacks ``**`` passes every field of every class.
    assert _unset_fields(sources, ["replace(x, **changes)"]) == []


def test_a_class_named_as_a_receiver_passes_nothing():
    module = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Spec:\n"
        "    width: int = 1\n"
        "    depth: int = 1\n"
        "    SIZES = (1, 2)\n"
        "    @classmethod\n"
        "    def wide(cls):\n"
        "        return cls(width=2)\n"
        "def scale(x, factor=2):\n"
        "    return x\n"
    )
    user = (
        "from repro.box import Spec, scale\n"
        "def main():\n"
        "    Spec.wide()\n"                 # width, through cls(...)
        "    print(scale.__name__)\n"       # looked into, not called
        "    return Spec.SIZES\n"
    )
    sources = [("repro/box.py", module), ("repro/user.py", user)]
    assert _unset_options(sources) == [
        "repro.box.scale(factor=)",
        "repro.box.Spec(depth=)",
    ]


def test_an_init_used_as_a_value_passes_only_its_class():
    module = (
        "class Box:\n"
        "    def __init__(self, size, lid=False):\n"
        "        self.size = size\n"
        "class Crate(Box):\n"
        "    pass\n"
        "class Tin(Box):\n"
        "    def __init__(self, size, seal=True):\n"
        "        self.size = size\n"
        "class Jar:\n"
        "    def __init__(self, cap=None):\n"
        "        self.cap = cap\n"
    )
    user = (
        "from repro.box import Crate\n"
        "def main(patch):\n"
        "    init = Crate.__init__\n"          # Box.__init__, inherited
        "    patch(init)\n"
    )
    sources = [("repro/box.py", module), ("repro/user.py", user)]
    assert _unset(sources) == [
        "repro.box.Tin.__init__(seal=)",
        "repro.box.Jar.__init__(cap=)",
    ]
    # A receiver that names no class may be any: every ``__init__``.
    assert _unset(sources, ["def main(obj):\n    return obj.__init__\n"]) \
        == []


# -- state -------------------------------------------------------------------

#: State kept although no root reads it: ``"qualified"`` -> ``(reason,
#: "path::test" that reads it)``.
ALLOWED_STATE = {
    "repro.npb.common.KernelOutcome.checksum": (
        REFERENCE, "tests/test_npb.py::test_kernels_deterministic",
    ),
    "repro.npb.common.KernelOutcome.details": (
        REFERENCE, "tests/test_npb.py::test_mg_reduces_residual",
    ),
}


def _written(tree):
    """Ids of the loads of *tree* that only write what they name: the
    receiver of a subscript store (``x.f[k] = ...``, ``x.f[k] += ...``)
    and of a mutator call whose value is dropped (``x.f.append(...)``)."""
    written = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            while isinstance(node, ast.Subscript):
                node = node.value
            written.add(id(node))
        elif isinstance(node, ast.Expr) and \
                isinstance(node.value, ast.Call) and \
                getattr(node.value.func, "attr", None) in _MUTATORS:
            written.add(id(node.value.func.value))
    return written


@functools.lru_cache(maxsize=None)
def _reads(text, package_init=False):
    """What *text* reads: ``(names, attributes, arities)``.  A name is a
    bare load or, outside a package ``__init__``, an import; an
    attribute is a load ``x.name``, a ``getattr``/``hasattr`` string or
    the string a class-body descriptor ``name = f("attribute")`` reads
    by; an arity is the target count of a tuple unpacking."""
    tree = _parse(text)
    written = _written(tree)
    names, attributes, arities = set(), set(), set()
    for node in ast.walk(tree):
        if id(node) in written:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not package_init:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call) and \
                _named(node) in ("getattr", "hasattr") and \
                len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            attributes.add(node.args[1].value)
        elif isinstance(node, (ast.Tuple, ast.List)) and \
                isinstance(node.ctx, ast.Store):
            arities.add(len(node.elts))
        elif isinstance(node, ast.ClassDef):
            attributes.update(
                arg.value for item in node.body
                if isinstance(item, ast.Assign)
                and isinstance(item.value, ast.Call)
                for arg in item.value.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )
    return frozenset(names), frozenset(attributes), frozenset(arities)


def _exceptions(records):
    """The exception classes among *records*."""
    found, grown = set(), True
    while grown:
        before = len(found)
        found |= {name for name, (_, _, bases, _) in records.items()
                  if any(base and (base in found or base.endswith(
                      ("Error", "Exception", "Warning"))) for base in bases)}
        grown = len(found) > before
    return found


def _self_stores(cls):
    """The attributes the methods of class *cls* store on their
    ``self`` (``self.x = ...``, ``setattr(self, "x", ...)``)."""
    for fn in cls.body:
        if not isinstance(fn, _FUNCTIONS) or not fn.args.args or \
                "staticmethod" in map(_named, fn.decorator_list):
            continue
        me = fn.args.args[0].arg
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Store) and \
                    getattr(node.value, "id", None) == me:
                yield node.attr
            elif isinstance(node, ast.Call) and \
                    _named(node) in ("setattr", "__setattr__") and \
                    len(node.args) > 1 and \
                    getattr(node.args[0], "id", None) == me and \
                    isinstance(node.args[1], ast.Constant):
                yield node.args[1].value


@functools.lru_cache(maxsize=None)
def _stored(path, text):
    """``(qualified name, name, owner class or None)`` of each piece of
    state module *path* stores: a module-level name, a field of a
    dataclass or NamedTuple and an attribute stored on ``self``
    (dunders are not state)."""
    module = path.removesuffix(".py").removesuffix("/__init__") \
        .replace("/", ".")
    tree = _parse(text)
    stored = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and \
                        not name.id.startswith("__"):
                    stored.append((f"{module}.{name.id}", name.id, None))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {item.name for item in cls.body
                   if isinstance(item, _FUNCTIONS)}
        fields = [item.target.id for item in cls.body
                  if _record(cls) and isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)
                  and "ClassVar" not in ast.unparse(item.annotation)]
        seen = set()
        for name in fields + list(_self_stores(cls)):
            if name not in seen and name not in methods and \
                    not name.startswith("__"):
                seen.add(name)
                stored.append((f"{module}.{cls.name}.{name}", name,
                               cls.name))
    return stored


def _unread(sources, roots=()):
    """*sources* and *roots* as for :func:`_unreached` -> each piece of
    state no root reads."""
    names, attributes, arities = set(), set(), set()
    for path, text in sources:
        for into, read in zip((names, attributes, arities),
                              _reads(text, path.endswith("__init__.py"))):
            into |= read
    for text in roots:
        for into, read in zip((names, attributes, arities), _reads(text)):
            into |= read
    records = {}
    for _, text in sources:
        records.update(_records(text))
    skip = _outside_input(records) | _exceptions(records)
    unread = []
    for path, text in sources:
        for qualified, name, owner in _stored(path, text):
            if owner in skip:
                continue
            if owner is None:
                read = name in names or name in attributes
            else:
                _, fields, bases, _ = records[owner]
                read = name in attributes or "NamedTuple" in bases and \
                    len(fields) in arities         # unpacked whole
            if not read:
                unread.append(qualified)
    return unread


def test_every_piece_of_state_is_read_from_outside_the_tests():
    sources, roots = _tree()
    unread = set(_unread(sources, roots))
    assert sorted(unread - set(ALLOWED_STATE)) == []
    # An entry now read, or whose state is gone, is stale.
    assert sorted(set(ALLOWED_STATE) - unread) == []


@pytest.mark.parametrize("state", ALLOWED_STATE)
def test_kept_state_has_a_reason_and_the_test_that_reads_it(state):
    reason, test = ALLOWED_STATE[state]
    assert reason in (SEAM, REFERENCE, SIZE)
    path, _, name = test.partition("::")
    tree = ast.parse((ROOT / path).read_text())
    test_fn, = [node for node in tree.body
                if isinstance(node, _FUNCTIONS) and node.name == name]
    sources, roots = _tree()
    assert state not in _unread(sources, [*roots, ast.unparse(test_fn)])


#: State ``src/`` once stored that no root read: ``(module, class or
#: None, source)``; a whole class when every field of it went.
DELETED_STATE = [
    ("check/auditors.py", "ClockOrderAuditor",
     "def _on_fire(self, event):\n"
     "    self.checked += 1\n"),
    ("check/auditors.py", "RetransmitConservationAuditor",
     "def _on_trace(self, event):\n"
     "    self.delivered += 1\n"),
    ("check/auditors.py", "RetransmitConservationAuditor",
     "def _on_giveup(self, event):\n"
     "    self.gaveup += 1\n"),
    ("check/manifest.py", "RunManifest", "version: int = MANIFEST_VERSION"),
    ("cluster/blade.py", "ServerBlade",
     "form_factor: FormFactor = BLADE_FORM_FACTOR"),
    ("cluster/blade.py", "ServerBlade", "hot_pluggable: bool = True"),
    ("cluster/blade.py", None,
     "BLADE_FORM_FACTOR = FormFactor(width_in=0.68, height_in=5.0)\n"),
    ("cluster/blade.py", None,
     "@dataclass(frozen=True)\n"
     "class FormFactor:\n"
     "    depth_in: float\n"),
    ("cluster/chassis.py", "ChassisDimensions", "depth_in: float = 25.2"),
    ("cluster/reliability.py", "OutageProfile", "hub: ManagementHub"),
    ("cms/tcache.py", "CacheStats", "insertions: int = 0"),
    ("cms/tcache.py", "CacheStats", "evictions: int = 0"),
    ("cms/translator.py", None,
     "@dataclass(frozen=True)\n"
     "class Translation:\n"
     "    translation_cycles: int\n"),
    ("cms/translator.py", "TranslatorStats",
     "guest_instructions_translated: int = 0"),
    ("core/events.py", "Process",
     "def _die(self, error):\n"
     "    self.failure = error\n"),
    ("core/experiments.py", "ExperimentResult", "experiment: str"),
    ("hpl/lu.py", "LinpackResult", "residual: float"),
    ("isa/instructions.py", None,
     "FP_DEST_OPS = frozenset({Op.FADD, Op.FSUB, Op.FMUL})\n"),
    ("isa/machine.py", "ExecStats", "taken_branches: int = 0"),
    ("isa/programs.py", None,
     "SUITE_KERNELS = (matmul, insertion_sort, memcopy, horner)\n"),
    ("isa/programs.py", None,
     "SUPPORT_KERNELS = (axpy, dot_product, fib, stream_triad)\n"),
    ("isa/programs.py", None,
     "MICROKERNELS = (gravity_microkernel_math, gravity_microkernel_karp)\n"),
    ("nbody/sim.py", "NBodySimulation",
     "def _prime(self, acc):\n"
     "    self._acc = acc\n"),
    ("nbody/tree.py", "TreeNode", "centre: np.ndarray"),
    ("nbody/tree.py", "HashedOctree",
     "def _geometry(self, centre):\n"
     "    self.node_centre = centre\n"),
    ("nbody/tree.py", "HashedOctree",
     "def _hint(self):\n"
     "    self.order_reused = True\n"),
    ("nbody/tree.py", "TreeBuildCache",
     "def _count(self):\n"
     "    self.order_reuses += 1\n"),
    ("network/fabric.py", "Transfer", "rerouted: bool = False"),
    ("network/link.py", "Calendar",
     "def _bill(self, duration):\n"
     "    self.busy_s += duration\n"),
    ("npb/classes.py", "ProblemClass", "nominal_ops: float"),
    ("perfmodel/workload.py", "CpuCharacterization", "cpu_name: str"),
    ("sched/scheduler.py", "SchedOutcome", "hub: ManagementHub"),
    ("simmpi/trace.py", "CommStats", "io_s: float = 0.0"),
    ("telemetry/__init__.py", "Telemetry",
     "def _enter(self):\n"
     "    self._wall_depth += 1\n"),
    ("vliw/engine.py", None,
     "@dataclass\n"
     "class EngineStats:\n"
     "    molecules_issued: int = 0\n"
     "    atoms_executed: int = 0\n"
     "    stall_cycles: int = 0\n"
     "    blocks_executed: int = 0\n"),
]


def _state_case(module, owner, source):
    """The qualified names of the state *source* stores, put back into
    ``repro/<module>`` (into class *owner* when given)."""
    dotted = "repro." + module.removesuffix(".py").removesuffix(
        "/__init__").replace("/", ".")
    node = ast.parse(source).body[0]
    if isinstance(node, ast.ClassDef):
        return [f"{dotted}.{node.name}.{target}"
                for target, _ in map(_field, node.body)]
    if isinstance(node, _FUNCTIONS):
        wrapper = ast.parse(f"class {owner}:\n" + textwrap.indent(source, " "))
        return [f"{dotted}.{owner}.{name}"
                for name in _self_stores(wrapper.body[0])]
    target = node.target if isinstance(node, ast.AnnAssign) else \
        node.targets[0]
    return [".".join(filter(None, (dotted, owner, target.id)))]


@pytest.mark.parametrize(
    "module, owner, source", DELETED_STATE,
    ids=[_state_case(*case)[-1].removeprefix("repro.")
         for case in DELETED_STATE])
def test_a_deleted_state_put_back_is_unread(module, owner, source):
    sources, roots = _tree()
    changed, _ = _put_back(sources, module, owner, source)
    expected = _state_case(module, owner, source)
    unread = _unread(sources, roots)
    assert set(expected).isdisjoint(unread)
    assert sorted(_unread(changed, roots)) == sorted(unread + expected)


def test_the_state_walk_bites_on_seeded_unread_state():
    module = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, NamedTuple\n"
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "_CACHE = {}\n"
        "_LOG = []\n"
        "def column(name):\n"
        "    return property(lambda self: getattr(self.rows, name))\n"
        "@dataclass\n"
        "class Stats:\n"
        "    hits: int = 0\n"
        "    misses: int = 0\n"
        "    bumped: int = 0\n"
        "    kind: ClassVar[str] = 'stats'\n"
        "    cache: dict = field(init=False, default_factory=dict)\n"
        "    log: list = field(default_factory=list)\n"
        "class Point(NamedTuple):\n"
        "    x: float\n"
        "    y: float\n"
        "class Pair(NamedTuple):\n"
        "    a: int\n"
        "    b: int\n"
        "    c: int\n"
        "class Box:\n"
        "    width = column('widths')\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n"
        "        self._seen = 0\n"
        "        self._tally = 0\n"
        "        self.widths = []\n"
        "        setattr(self, 'tag', n)\n"
        "    def open(self, key):\n"
        "        self._seen += 1\n"
        "        self._tally = self._tally + 1\n"
        "        _CACHE[key] = self.n\n"
        "        _LOG.append(key)\n"
        "        return self.label\n"
        "    @property\n"
        "    def label(self):\n"
        "        return 'box'\n"
        "class BoxError(ValueError):\n"
        "    def __init__(self, code):\n"
        "        self.code = code\n"
    )
    user = (
        "from repro.box import LIMIT, Point, Stats\n"
        "def main(stats, point, key):\n"
        "    stats.hits += 1\n"               # a write, not a read
        "    stats.cache[key] = 1\n"          # a write through a subscript
        "    stats.log.append(key)\n"         # a write through a mutator
        "    x, y = point\n"                  # every field of a 2-tuple
        "    return stats.misses, getattr(stats, 'bumped')\n"
    )
    sources = [("repro/box.py", module), ("repro/user.py", user)]
    assert _unread(sources) == [
        "repro.box.UNUSED",
        "repro.box._CACHE",
        "repro.box._LOG",
        "repro.box.Stats.hits",
        "repro.box.Stats.cache",
        "repro.box.Stats.log",
        "repro.box.Pair.a",
        "repro.box.Pair.b",
        "repro.box.Pair.c",
        "repro.box.Box._seen",
        "repro.box.Box.tag",
    ]


def _unused_imports(text):
    """``(line, name)`` of each import *text* binds and never names
    again (a string counts, for quoted annotations)."""
    tree = _parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_src_module_imports_a_name_it_never_uses():
    sources, _ = _tree()
    unused = [
        f"{path}:{line}: {name}"
        for path, text in sources if not path.endswith("__init__.py")
        for line, name in _unused_imports(text)
    ]
    assert unused == []


def test_the_import_check_bites_on_a_seeded_unused_import():
    text = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional, Tuple\n"
        "from repro.core import domains as d, events\n"
        "def f(x: 'Optional[int]') -> Tuple[int]:\n"
        "    return np.sum(x), d\n"
    )
    assert _unused_imports(text) == [(2, "os"), (5, "events")]
