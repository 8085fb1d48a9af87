"""Every piece of ``src/repro`` earns its place from outside the tests.

One walk per file fills one symbol table, :class:`_Table`: the public
definitions, defaulted parameters, record fields, stored attributes,
module-level names and imports of ``src/repro``, and every use of a name
in a *root* (``src/repro``, where a package ``__init__``'s imports are no
use; ``tests/test_artifacts.py`` and the ``tests`` modules it imports;
``benchmarks/spine``; ``examples``), outside any ``test_*`` function.  A
use through a receiver whose type the source states binds only to that
class, its bases and its heirs; an untyped use binds by name.  Four
queries read the table, by the rules DESIGN.md §1 states: unreached
definitions, unpassed options, unread state and unused imports.  What
no root uses goes, or stays on ``ALLOWED_*`` with its reason and the
test that uses it.  A put-back case patches one module into the table
and queries again.
"""

import ast
import functools
import inspect
import textwrap
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Why an option or state no root uses may stay: a test substitutes a
#: fake through it, it belongs to a reference tests compare against, or
#: it is a size a test shrinks.
SEAM, REFERENCE, SIZE = "seam", "reference", "size"

#: ``"qualified(parameter=)"`` -> ``(reason, "path::test" passing it)``.
ALLOWED_PARAMETERS = {
    "repro.nbody.kernels.direct_accelerations(use_karp=)": (
        REFERENCE, "tests/test_nbody_karp_kernels.py::test_direct_karp_matches_libm"),
    "repro.nbody.kernels.direct_accelerations(chunk=)": (
        REFERENCE, "tests/test_nbody_karp_kernels.py::test_direct_chunking_invariance"),
    "repro.network.faults.NetFaultConfig(windows=)": (
        SEAM, "tests/test_netfault.py::test_long_link_outage_partitions_and_requeues"),
    "repro.nbody.traversal.tree_accelerations(naive=)": (
        REFERENCE, "tests/test_nbody_fastpath.py::test_dense_path_equals_the_sweeps_and_naive"),
}
#: ``"qualified"`` -> ``(reason, "path::test" reading it)``.
ALLOWED_STATE = {
    "repro.npb.common.KernelOutcome.checksum": (
        REFERENCE, "tests/test_npb.py::test_kernels_deterministic"),
    "repro.npb.common.KernelOutcome.details": (
        REFERENCE, "tests/test_npb.py::test_mg_reduces_residual"),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: How a use names an identifier, besides a call's ``(positional count,
#: keyword names, through a class)``.
NAME, ATTRIBUTE, FORMATTED, UNPACKED, VALUE = \
    "name", "attribute", "formatted", "unpacked", "value"
_PROPERTY = {"property", "cached_property", "setter", "getter", "deleter"}
_KEEPS_SIGNATURE = {"staticmethod", "classmethod", "abstractmethod",
                    "contextmanager", "lru_cache", "cache"}
_MUTATORS = {"append", "appendleft", "extend", "extendleft", "insert", "add",
             "update", "setdefault", "pop", "popleft", "popitem", "remove",
             "discard", "clear", "sort", "reverse"}
#: A ``replace`` keyword that unpacks ``**``; ``None`` on the right of an
#: ``=``, which leaves a declared type alone.
EVERY, NONE, _NOTHING = "*", "none", Counter()


def _public(name):
    return not name.startswith("_")


def _named(node):
    """The name a decorator, base or call ends in."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, "id", None)


def _signatures(fn):
    """What a call ``x.fn(...)`` may bind to: ``None`` for a property,
    ``...`` behind an unknown decorator, else the :func:`_signature` keys
    ``(through an instance, through the class)``."""
    decorators = set(map(_named, fn.decorator_list))
    if decorators & _PROPERTY:
        return None
    if decorators - _KEEPS_SIGNATURE:
        return ...
    a, plain = fn.args, lambda x: x and ast.arg(x.arg)
    params = ast.unparse(ast.arguments(
        [*map(plain, a.posonlyargs)], [*map(plain, a.args)], plain(a.vararg),
        [*map(plain, a.kwonlyargs)],
        [d and ast.Constant(None) for d in a.kw_defaults], plain(a.kwarg),
        [ast.Constant(None)] * len(a.defaults)))
    static = "staticmethod" in decorators
    return ((params, not static), (params, "classmethod" in decorators))


@functools.lru_cache(maxsize=None)
def _signature(params, drop_first=False):
    """The signature of ``def f(<params>)``, less its first parameter."""
    stub = {}
    exec(f"def f({params}): pass", stub)
    whole = inspect.signature(stub["f"])
    return whole.replace(parameters=list(whole.parameters.values())[
        bool(drop_first):])


def _bound(signatures, how):
    """The parameters a call *how* binds arguments to; ``None`` if it
    binds to none of *signatures*."""
    positional, keywords, through_class = how
    bound = None
    for key in signatures[:1 + bool(through_class)]:
        try:
            arguments = _signature(*key).bind(
                *range(positional), **dict.fromkeys(keywords)).arguments
        except TypeError:
            continue
        bound = (bound or set()) | set(arguments)
    return bound


@functools.lru_cache(maxsize=None)
def _reaches(signatures, how):
    """Whether a use *how* reaches a definition: *signatures* is
    ``NAME`` for a top-level one, else ``_signatures`` of a method."""
    if signatures is NAME or how == ATTRIBUTE:
        return True
    if how in (FORMATTED, NAME) or signatures is None:
        return how == FORMATTED and signatures is None
    return how == UNPACKED or signatures is ... or \
        _bound(signatures, how) is not None


def _annotation(node):
    """The type an annotation states: ``("cls", name)``, a union of them
    (``Optional``, ``Union``, ``X | None``), or ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.Constant) and node.value is None:
        return NONE
    if isinstance(node, (ast.Name, ast.Attribute)):
        return ("cls", _named(node))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return ("union", (_annotation(node.left), _annotation(node.right)))
    if isinstance(node, ast.Subscript) and _named(node.value) in (
            "Optional", "Union", "ClassVar", "Final"):
        return ("union", tuple(map(_annotation, getattr(
            node.slice, "elts", [node.slice]))))
    return None


def _field(item):
    """``(name, defaulted)`` of a class-body statement that declares an
    ``__init__`` field, else ``None``."""
    if not (isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)) or \
            "ClassVar" in ast.unparse(item.annotation):
        return None
    value, name = item.value, item.target.id
    if isinstance(value, ast.Call) and _named(value) in ("field", "param"):
        keywords = {kw.arg: kw.value for kw in value.keywords}
        if getattr(keywords.get("init"), "value", True) is False:
            return None
        return name, bool({"default", "default_factory"} & set(keywords)) \
            or _named(value) == "param" and len(value.args) > 1
    return name, value is not None


@functools.lru_cache(maxsize=None)
def _quoted_names(text):
    """The names in *text*, when it parses as an expression."""
    try:
        return [n.id for n in ast.walk(ast.parse(text, mode="eval"))
                if isinstance(n, ast.Name)]
    except SyntaxError:
        return ()


class _Class:
    """One class: its bases, fields, methods, declared attribute and
    return types, and the attributes it stores."""

    def __init__(self, node, module):
        self.name, self.top = node.name, not node.col_offset
        self.qualified = f"{module}.{node.name}"
        self.bases = [b for b in map(_named, node.bases) if b != node.name]
        self.namedtuple = "NamedTuple" in self.bases
        self.dataclass = "dataclass" in map(_named, node.decorator_list)
        methods = {i.name: i for i in node.body if isinstance(i, _FUNCTIONS)}
        self.methods, self.written = set(methods), "__init__" in methods
        self.properties = {name for name, fn in methods.items()
                           if set(map(_named, fn.decorator_list)) & _PROPERTY}
        record = self.dataclass or self.namedtuple
        self.fields = [f for i in node.body if (f := _field(i))] \
            if record else None
        self.stores = [i.target.id for i in node.body if record and isinstance(
            i, ast.AnnAssign) and isinstance(i.target, ast.Name)
            and "ClassVar" not in ast.unparse(i.annotation)]
        self.annotation_names = [
            n.id for i in node.body if isinstance(i, ast.AnnAssign)
            for n in ast.walk(ast.parse(i.annotation.value, mode="eval")
                              if isinstance(i.annotation, ast.Constant)
                              else i.annotation) if isinstance(n, ast.Name)]
        self.annotated, self.assigned = defaultdict(list), defaultdict(list)
        self.returns, self.end = {}, node.end_lineno


def _sealed(tree):
    """``name -> {...}`` of each ``name = {...}`` in *tree* whose name the
    file spells nowhere else but in ``**name``: no other binding, change,
    alias or call can give that dict another key."""
    nodes = list(ast.walk(tree))
    names = Counter(n.id for n in nodes if isinstance(n, ast.Name))
    names.subtract(getattr(n.value, "id", None) for n in nodes
                   if isinstance(n, ast.keyword) and n.arg is None)
    return {n.targets[0].id: n.value for n in nodes if isinstance(
        n, ast.Assign) and isinstance(n.value, ast.Dict) and [
        names[getattr(target, "id", None)] for target in n.targets] == [1]}


class _Walk(ast.NodeVisitor):
    """The one walk over one file: what it declares, and each use with
    its receiver's type as a symbol for :class:`_Table` to resolve."""

    def __init__(self, path, text):
        self.init = path.endswith("__init__.py")
        self.module = path.startswith("repro/") and path.removesuffix(
            ".py").removesuffix("/__init__").replace("/", ".")
        self.uses = defaultdict(Counter)       # (kind, name) -> Counter
        self.defs, self.options, self.state = [], [], []
        self.classes, self.functions, self.imports = {}, {}, {}
        self.seen, self.aliases, self.alias_stores = set(), {}, []
        self.scopes, self.chain, self.where = [defaultdict(list)], (0,), []
        self.cls = self.me = self.classmethod_of = None
        self.called = {}
        self.skipped, self.receivers, self.written, self.typed, \
            self.formatted = set(), set(), set(), set(), set()
        tree = ast.parse(text)
        tree.body = [n for n in tree.body if self.module or not getattr(
            n, "name", "").startswith("test_")]    # a test in a root: no use
        self.top, self.sealed = set(map(id, tree.body)), _sealed(tree)
        self.visit(tree)
        for name in self.aliases.keys() & self.alias_stores:
            self.add("store", *self.aliases[name])   # ``by = x.f; by[k] = v``

    def sym(self, node):
        """The type of expression *node*, symbolically."""
        if isinstance(node, ast.Name):
            return ("var", self, self.chain, node.id)
        if isinstance(node, ast.Attribute):
            base = self.sym(node.value)
            return base and ("attr", base, node.attr)
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", None) == "super" and self.me:
                return ("super", tuple(self.me[0].bases))
            if isinstance(node.func, ast.Name):
                return ("new", self, self.chain, node.func.id)
            base = isinstance(node.func, ast.Attribute) and \
                self.sym(node.func.value)
            return base and ("method", base, node.func.attr)
        if isinstance(node, (ast.IfExp, ast.BoolOp)):
            return ("union", tuple(map(self.sym, getattr(
                node, "values", None) or [node.body, node.orelse])))
        return node if isinstance(node, ast.Dict) else NONE if isinstance(
            node, ast.Constant) and node.value is None else None

    def how(self, call):
        """How a call ``x.name(...)`` uses *name*: ``UNPACKED``, or its
        positional count, keyword names (``**`` a ``dict`` literal, or a
        name :func:`_sealed` to the one its scope binds, passes its keys)
        and whether ``x`` may be a class (a bare CapWords name; ``None``
        for a call ``name(...)``)."""
        keywords = []
        for kw in call.keywords:
            name = getattr(kw.value, "id", None)
            node = self.sealed[name] if name in self.sealed and _bound_to(
                self, self.chain, name) == [self.sealed[name]] else kw.value
            keywords += [kw.arg] if kw.arg else [
                getattr(k, "value", None) for k in getattr(node, "keys", [None])]
        if any(isinstance(arg, ast.Starred) for arg in call.args) or \
                not all(isinstance(k, str) for k in keywords):
            return UNPACKED
        receiver = getattr(call.func, "value", None)
        return (len(call.args), tuple(sorted(keywords)),
                None if receiver is None else
                isinstance(receiver, ast.Name) and receiver.id[0].isupper())

    def add(self, kind, name, key=None):
        self.uses[kind, name][key] += 1
        for own_name, own in self.where if kind == "use" else ():
            if own_name == name:
                own[key] += 1

    def bind(self, name, sym):
        self.scopes[self.chain[0]][name].append(sym)

    def in_class_body(self):
        return self.cls and self.chain[0] == self.cls[1] and self.cls[0]

    def mine(self, node):
        """Whether *node* is ``self`` of the method being walked."""
        return self.me and getattr(node, "id", None) == self.me[1]

    def store_through(self, node):
        """A write into ``x.f``, or into a local bound to one."""
        if isinstance(node, ast.Attribute):
            self.add("store", node.attr, self.sym(node.value))
        elif isinstance(node, ast.Name):
            self.alias_stores.append(node.id)

    def skip(self, nodes):
        """Mark *nodes* as naming nothing they call (an annotation, a
        base, an ``isinstance`` class): no option is passed inside."""
        self.skipped.update(id(n) for node in nodes for n in ast.walk(node))

    def visit_Name(self, node):
        name, load = node.id, isinstance(node.ctx, ast.Load)
        self.seen.add(name)
        self.add("use", name, (NAME, None))
        if id(node) not in self.skipped and \
                id(node) not in self.receivers and (
                load or id(node) in self.called):
            self.add("pass", name, (self.called.get(id(node), VALUE), None))
        if load and id(node) not in self.written:
            self.add("name", name)
        elif not load and id(node) not in self.typed:
            self.bind(name, None)

    def visit_Attribute(self, node):
        name, recv, load = node.attr, self.sym(node.value), \
            isinstance(node.ctx, ast.Load)
        how = self.called.get(id(node)) or (
            FORMATTED if id(node) in self.formatted else ATTRIBUTE)
        self.add("use", name, (how, recv))
        if id(node) not in self.skipped and \
                id(node) not in self.receivers:
            if id(node) in self.called:
                self.add("pass", name, (how, recv))
            elif load:                         # ``Cls.__init__``: as Cls
                self.add("pass", node.value.id if name == "__init__" and
                         getattr(node.value, "id", "_")[0].isupper()
                         else name, (VALUE, recv))
        if load and id(node) not in self.written:
            self.add("read", name, recv)
        elif not load:
            self.add("store", name, recv)
            if self.mine(node.value):
                self.me[0].stores.append(name)
        self.receivers.add(id(node.value))
        self.generic_visit(node)

    def visit_Call(self, node):
        func, named, how = node.func, _named(node), self.how(node)
        if isinstance(func, (ast.Name, ast.Attribute)):
            self.called[id(func)] = how
        if named in ("isinstance", "issubclass") and \
                isinstance(func, ast.Name):
            self.skip(node.args[1:])
        if len(node.args) > 1 and isinstance(node.args[1], ast.Constant) \
                and isinstance(string := node.args[1].value, str):
            recv = self.sym(node.args[0])
            if isinstance(func, ast.Name) and \
                    named in ("getattr", "setattr", "hasattr"):
                self.add("use", string, (ATTRIBUTE, recv))
                if id(node) not in self.skipped:
                    self.add("pass", string, (VALUE, recv))
            if named in ("getattr", "hasattr"):
                self.add("read", string, recv)
            elif named in ("setattr", "__setattr__"):
                self.add("store", string, recv)
                if self.mine(node.args[0]):
                    self.me[0].stores.append(string)
        if named == "_replace" or named == "replace" and (isinstance(
                func, ast.Name) or _named(func.value) == "dataclasses"):
            for field in (EVERY,) if how == UNPACKED else how[1]:
                self.add("replace", field)
        elif isinstance(func, ast.Attribute) and named in _MUTATORS:
            self.store_through(func.value)
        if named == "cls" and isinstance(func, ast.Name) and \
                self.classmethod_of:
            self.add("pass", self.classmethod_of, (how, None))
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        self.skip([node.type] if node.type else [])
        if node.name:
            self.bind(node.name, None)
        self.generic_visit(node)

    def visit_Expr(self, node):
        if isinstance(node.value, ast.Call) and \
                isinstance(node.value.func, ast.Attribute) and \
                node.value.func.attr in _MUTATORS:
            self.written.add(id(node.value.func.value))  # x.f.append(...)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if not isinstance(node.ctx, ast.Load):
            base = node
            while isinstance(base, ast.Subscript):      # x.f[k] = ...
                base = base.value
            self.written.add(id(base))
            self.store_through(base)
        self.generic_visit(node)

    def visit_FormattedValue(self, node):
        self.formatted.add(id(node.value))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and len(node.value) < 80:
            self.seen.update(_quoted_names(node.value))  # an annotation

    def visit_Tuple(self, node):
        if isinstance(node.ctx, ast.Store):
            self.add("arity", len(node.elts))
        self.generic_visit(node)

    visit_List = visit_Tuple

    def visit_Assign(self, node, targets=None, annotation=None):
        value, targets = node.value, targets or node.targets
        sym = self.sym(value) if annotation is None else annotation
        if isinstance(value, ast.Attribute):
            self.aliases.update((t.id, (value.attr, self.sym(value.value)))
                                for t in targets if isinstance(t, ast.Name))
        if self.in_class_body() and isinstance(value, ast.Call):
            for arg in value.args:             # a class-body descriptor
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    self.add("read", arg.value)
        for target in targets:
            if isinstance(target, ast.Name):
                self.typed.add(id(target))
                self.bind(target.id, sym)
            elif isinstance(target, ast.Attribute) and self.mine(target.value):
                getattr(self.me[0], "assigned" if annotation is None else
                        "annotated")[target.attr].append(sym)
        if id(node) in self.top and self.module:
            self.state += [(f"{self.module}.{n.id}", n.id, None)
                           for target in targets for n in ast.walk(target)
                           if isinstance(n, ast.Name)
                           and not n.id.startswith("__")]
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self.skip([node.annotation])
        sym = _annotation(node.annotation)
        if self.in_class_body():
            self.cls[0].annotated[node.target.id].append(sym)
        self.visit_Assign(node, [node.target], sym)

    def visit_Import(self, node, package=""):
        for alias in node.names:
            if package != "__future__":
                bound = alias.asname or (alias.name if package else
                                         alias.name.partition(".")[0])
                self.imports[bound] = node.lineno
                self.bind(bound, ("global", alias.name) if package else None)
            if not self.init:
                self.add("use", alias.name.rpartition(".")[2], (NAME, None))
                if package:
                    self.add("name", alias.name)

    def visit_ImportFrom(self, node):
        self.visit_Import(node, node.module or ".")

    def scoped(self, node, body, bind=(), cls=None):
        """Walk *body* in a new scope binding *bind* (``(name, type)``)
        and, for a class body, *cls*; *node* names a definition: its own
        uses inside are counted into what :meth:`declare` recorded."""
        saved = self.chain, len(self.where), self.cls, self.me, \
            self.classmethod_of
        self.where += [(node.name, self.declare(node))] if node else []
        chain = self.chain[1:] if self.in_class_body() and not cls else \
            self.chain                         # a method sees no class scope
        self.scopes.append(defaultdict(list))
        self.chain = (len(self.scopes) - 1, *chain)
        for name, sym in bind:
            self.bind(name, sym)
        if cls:
            self.cls, self.me, self.classmethod_of = \
                (cls, self.chain[0]), None, None
        for item in body:
            self.visit(item)
        self.chain, depth, self.cls, self.me, self.classmethod_of = saved
        del self.where[depth:]

    def visit_FunctionDef(self, node):
        a, decorators = node.args, set(map(_named, node.decorator_list))
        arguments = a.posonlyargs + a.args + a.kwonlyargs + \
            [x for x in (a.vararg, a.kwarg) if x]
        annotations = [x.annotation for x in arguments if x.annotation] + \
            [node.returns] * bool(node.returns)
        self.skip(annotations)
        for item in node.decorator_list + a.defaults + annotations + \
                [d for d in a.kw_defaults if d]:
            self.visit(item)
        cls = self.in_class_body()
        returns = node.returns and _annotation(node.returns)
        if cls or id(node) in self.top:
            (cls.returns if cls else self.functions)[node.name] = returns
        types = [x.annotation and _annotation(x.annotation)
                 for x in arguments]
        saved = self.me, self.classmethod_of
        if cls and (a.posonlyargs + a.args) and \
                "staticmethod" not in decorators:
            types[0] = ("cls", cls.name)        # ``self``, or ``cls``
            self.me = (cls, arguments[0].arg)
            if "classmethod" in decorators:
                self.classmethod_of = cls.name
        self.scoped(node, node.body, zip([x.arg for x in arguments], types))
        self.me, self.classmethod_of = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        for item in node.args.defaults:
            self.visit(item)
        self.scoped(None, [node.body], [(x.arg, None) for x in node.args.args])

    def visit_ClassDef(self, node):
        self.skip(node.bases)
        for item in node.decorator_list + node.keywords + node.bases:
            self.visit(item)
        info = self.classes[node.name] = _Class(node, self.module)
        self.scoped(node, node.body, cls=info)
        names = dict.fromkeys(name for name in info.stores if name not in
                              info.methods and not name.startswith("__"))
        self.state += [(f"{info.qualified}.{name}", name, node.name)
                       for name in names if self.module]

    def declare(self, node):
        """Record *node* as a definition with its options, if public:
        -> the Counter of the uses of its name inside its own body."""
        own = Counter()
        cls = isinstance(node, _FUNCTIONS) and self.in_class_body() or None
        if not self.module or not (_public(node.name) or cls and
                                   node.name == "__init__") or (
                cls and not (cls.top and _public(cls.name))) or \
                not cls and id(node) not in self.top:
            return own
        qualified = f"{cls.qualified if cls else self.module}.{node.name}"
        signatures = NAME if isinstance(node, ast.ClassDef) else \
            _signatures(node)
        if _public(node.name):
            self.defs.append((qualified, node.name, cls and cls.name,
                              signatures if cls else NAME, own))
        if signatures in (NAME, None, ...) or cls and cls.dataclass and \
                node.name == "__init__":
            return own
        defaulted = [p.name for p in _signature(*signatures[1]).parameters
                     .values() if p.default is not inspect.Parameter.empty]
        if defaulted:
            self.options.append((qualified, cls and cls.name, node.name,
                                 defaulted, signatures))
        return own


_facts = functools.lru_cache(maxsize=None)(_Walk)


def _bound_to(walk, chain, name):
    """What the innermost scope of *chain* that binds *name* binds it to
    (``None``: no scope does)."""
    return next((walk.scopes[s][name] for s in chain
                 if name in walk.scopes[s]), None)


def _imported(walk, chain, name):
    """The global name that *name* stands for: itself when no scope binds
    it, the imported name when the one binding is ``from m import n``."""
    bound = _bound_to(walk, chain, name)
    if bound is None:
        return name
    return len(bound) == 1 and isinstance(bound[0], tuple) and \
        bound[0][0] == "global" and bound[0][1]


class _Table:
    """The symbol table of a set of files: each use with its receiver's
    type resolved, summed per ``(kind, name)`` over every file."""

    def __init__(self, texts, base=None):
        self.texts = texts
        self.facts = {path: _facts(path, text) for path, text in texts.items()}
        self.src = src = [f for f in self.facts.values() if f.module]
        self.classes = {n: c for f in src for n, c in f.classes.items()}
        self.heirs = defaultdict(list)
        for name, info in self.classes.items():
            for base_name in info.bases:
                self.heirs[base_name].append(name)
        self.memo, self.families, self.base, self.answers = {}, {}, base, {}
        self.resolved = dict(base.resolved) if base else {}
        self.totals = dict(base.totals) if base else {}
        for path, f in self.facts.items():
            if base and base.facts.get(path) is f:
                continue
            old, new = self.resolved.get(path, ({}, [])), self.resolve_file(f)
            for key in old[0].keys() | new[0].keys():
                if old[0].get(key) == new[0].get(key):
                    continue
                total = Counter(self.totals.get(key, ())) if base else \
                    self.totals.setdefault(key, Counter())
                total.subtract(old[0].get(key, ()))
                total.update(new[0].get(key, ()))
                self.totals[key] = +total if base else total
            self.resolved[path] = new
        self.defs = [d for path in self.facts for d in self.resolved[path][1]]
        self.options = [o for f in src for o in f.options]
        self.state = [s for f in src for s in f.state]

    def patched(self, changes):
        """This table with *changes* (``path -> source``) applied."""
        return _Table({**self.texts, **changes}, base=self)

    def count(self, kind, name):
        return self.totals.get((kind, name), _NOTHING)

    def settled(self, entry, keys, answer):
        """``answer()`` for *entry* (a definition or piece of state), or
        the base table's, when the entry and the totals of *keys* are the
        very objects it answered for: a put-back re-queries what moved."""
        base = self.base
        if base and id(entry) in base.answers and all(
                self.totals.get(key) is base.totals.get(key) for key in keys):
            self.answers[id(entry)] = base.answers[id(entry)]
        else:
            self.answers[id(entry)] = answer()
        return self.answers[id(entry)]

    def resolve_file(self, f):
        r = self.resolve
        counts = {key: Counter({
            (how[0], r(how[1])) if key[0] in ("use", "pass") else
            r(how) if key[0] in ("read", "store") else how: n
            for how, n in counter.items()})
            for key, counter in f.uses.items()}
        return counts, [(q, name, owner, sig, Counter({
            (how, r(recv)): n for (how, recv), n in own.items()}))
            for q, name, owner, sig, own in f.defs]

    def resolve(self, sym):
        """The classes a symbolic type names (a class object counts as
        its instances), or ``None`` when the source does not say."""
        if not isinstance(sym, tuple):
            return None
        if sym not in self.memo:
            self.memo[sym] = None                 # a cycle says nothing
            self.memo[sym] = self._resolve(*sym)
        return self.memo[sym]

    def _resolve(self, kind, *rest):
        name, classes = rest[-1], self.classes
        if kind == "super":                    # the bases ``src`` declares
            return frozenset(b for b in name if b in classes)
        if kind in ("var", "new"):
            name = _imported(*rest)
            if kind == "var":
                return self.resolve(("global", name) if name else (
                    "union", tuple(_bound_to(*rest))))
            return self.resolve(("call", name)) if name else None
        if kind == "union":
            parts = [self.resolve(s) for s in rest[0] if s != NONE]
            return None if not parts or None in parts else \
                frozenset().union(*parts)
        if name in classes and kind in ("cls", "call", "global"):
            return frozenset({name})
        if kind in ("call", "global"):            # a module-level name
            bound = [f.functions[name] for f in self.src
                     if name in f.functions] if kind == "call" else [
                sym for f in self.src if name not in f.imports
                for sym in f.scopes[0].get(name, ())]
            return self.resolve(("union", tuple(bound))) if bound else None
        if kind == "cls":
            return None
        receivers = self.resolve(rest[0])
        if kind == "method" and receivers is None and \
                rest[0][0] == "var" and _imported(*rest[0][1:]):
            return self.resolve(("call", name))   # module.function(...)
        return receivers and self.resolve(("union", tuple(
            self.member(r, name, kind == "method") for r in receivers)))

    def member(self, cls, name, called):
        """The declared type of *cls*'s attribute *name* (of what calling
        it returns, when *called*)."""
        for info in filter(None, map(self.classes.get, (
                cls, *self.kin(cls, "bases")))):
            if name in (info.methods if called else info.properties):
                return info.returns.get(name)
            declared = not called and (info.annotated.get(name) or
                                       info.assigned.get(name))
            if declared:
                return ("union", tuple(declared))
        return None

    def kin(self, name, way):
        """Every ancestor (*way* ``bases``) or heir of class *name*."""
        step = getattr(self.classes.get(name), "bases", []) \
            if way == "bases" else self.heirs[name]
        return [k for n in step for k in (n, *self.kin(n, way))]

    def binds(self, owner, receiver):
        """Whether a use through *receiver* may bind to a member of class
        *owner* (``None``: a top-level name, or an untyped use)."""
        if owner is None or receiver is None:
            return True
        if receiver not in self.families:
            self.families[receiver] = {
                k for name in receiver for k in (
                    name, *self.kin(name, "bases"), *self.kin(name, "heirs"))}
        return owner in self.families[receiver]


# -- queries -----------------------------------------------------------------


def _heirs(t, name, fields=False):
    """*name* and every class that inherits its ``__init__`` (its fields,
    when *fields*)."""
    return [name] + [h for other in t.heirs[name]
                     if not t.classes[other].written and (
                         fields or not t.classes[other].dataclass)
                     for h in _heirs(t, other, fields)]


def _init_fields(t, name):
    """``{field: defaulted}`` of class *name*'s ``__init__``."""
    info, fields = t.classes[name], {}
    for base in reversed(info.bases):
        fields.update(_init_fields(t, base) if base in t.classes else ())
    return {**fields, **dict(info.fields or ())}


def _out_of_scope(t, exceptions=False):
    """Classes a ``from_dict`` reaches through field annotations (and the
    exception classes, with *exceptions*)."""
    todo, seen = [name for name, info in t.classes.items()
                  if "from_dict" in info.methods], set()
    while todo:
        name = todo.pop()
        if name in t.classes and name not in seen:
            seen.add(name)
            todo += t.classes[name].annotation_names
    return seen | {name for name in t.classes if exceptions and any(
        b and b.endswith(("Error", "Exception", "Warning"))
        for b in t.kin(name, "bases"))}


def _unreached(t):
    """Each definition no use outside its own body reaches."""
    def reaching(uses, signatures, owner):
        return sum(n for (how, recv), n in uses.items()
                   if _reaches(signatures, how) and t.binds(owner, recv))
    return [q for entry in t.defs
            for q, name, owner, signatures, own in [entry]
            if t.settled(entry, [("use", name)], lambda: reaching(
                t.count("use", name), signatures, owner)
                <= reaching(own, signatures, owner))]


def _unset(t):
    """Each defaulted parameter, and each defaulted field of a public
    record with no ``__init__`` of its own, that no root passes, as
    ``"qualified(name=)"``."""
    # (qualified, options, [(name passed to, class a use must bind to,
    # signatures)]) per callable
    outside, callables = _out_of_scope(t), []
    for qualified, owner, fn, defaulted, signatures in t.options:
        callables.append((qualified, defaulted, [
            (fn, None, signatures[1:] * 2)] if owner is None else [
            (heir, None, signatures[:1] * 2)
            for heir in _heirs(t, owner)] * (fn == "__init__") + [
            (fn, owner, signatures)]))
    for name, info in t.classes.items():
        if not _public(name) or info.fields is None or info.written or \
                name in outside or not info.top or t.count("replace", EVERY):
            continue
        callables.append((info.qualified, [
            field for field, defaulted in info.fields if defaulted
            and not t.count("replace", field) and not any(
                t.binds(name, recv) for recv in t.count("store", field))
        ], [(heir, None, ((", ".join(
            field + "=None" * defaulted for field, defaulted in
            _init_fields(t, heir).items()),),) * 2)
            for heir in _heirs(t, name, fields=True)]))
    unset = []
    for qualified, defaulted, keys in callables:
        passed = set()
        for name, member, signatures in keys:
            for how, recv in t.count("pass", name):
                if member and not t.binds(member, recv):
                    continue
                if how in (VALUE, UNPACKED):
                    passed.update(defaulted)
                elif member is None or how[2] is not None:
                    passed |= _bound(signatures, how) or set()
        unset += [f"{qualified}({p}=)" for p in defaulted if p not in passed]
    return unset


def _unread(t):
    """Each piece of state no root reads."""
    skip = _out_of_scope(t, exceptions=True)
    return [q for entry in t.state for q, name, owner in [entry]
            if owner not in skip and not t.settled(entry, [
                ("name", name), ("read", name), ("arity", len(
                    t.classes[owner].fields or ()) if owner else 0)],
                lambda: t.count("name", name) or t.count("read", name)
                if owner is None else any(
                    t.binds(owner, recv) for recv in t.count("read", name))
                or t.classes[owner].namedtuple and
                t.count("arity", len(t.classes[owner].fields)))]


def _unused_imports(facts):
    """``(line, name)`` of each import a module never names again (a
    string counts, for quoted annotations)."""
    return sorted((line, name) for name, line in facts.imports.items()
                  if name not in facts.seen)


def _roots():
    """The root files outside ``src/repro``."""
    artifacts = ROOT / "tests" / "test_artifacts.py"
    producers = [ROOT / "tests" / f"{alias.name}.py"
                 for node in ast.parse(artifacts.read_text()).body
                 if isinstance(node, ast.ImportFrom) and node.module == "tests"
                 for alias in node.names]
    return [artifacts, *producers,
            *sorted((ROOT / "benchmarks" / "spine").glob("*.py")),
            *sorted((ROOT / "examples").glob("*.py"))]


@functools.lru_cache(maxsize=None)
def _checkout():
    """The table of this checkout."""
    return _Table({
        **{str(path.relative_to(SRC.parent)): path.read_text()
           for path in sorted(SRC.rglob("*.py"))},
        **{str(path.relative_to(ROOT)): path.read_text()
           for path in _roots()}})


def _table(sources, roots=()):
    """The table of *sources* (``[(path under src, text)]``) and *roots*."""
    return _Table({**dict(sources),
                   **{f"root{i}.py": text for i, text in enumerate(roots)}})


# -- this checkout -----------------------------------------------------------


def test_every_src_definition_is_reached_from_outside_the_tests():
    t = _checkout()
    assert len([path for path in t.texts if path.startswith("repro/")]) > 100
    assert "tests/archives.py" in t.texts
    assert _unreached(t) == []


def test_every_option_is_passed_from_outside_the_tests():
    unset = set(_unset(_checkout()))
    assert sorted(unset - set(ALLOWED_PARAMETERS)) == []
    # An entry now passed, or whose parameter is gone, is stale.
    assert sorted(set(ALLOWED_PARAMETERS) - unset) == []


def test_every_piece_of_state_is_read_from_outside_the_tests():
    unread = set(_unread(_checkout()))
    assert sorted(unread - set(ALLOWED_STATE)) == []
    assert sorted(set(ALLOWED_STATE) - unread) == []


def test_no_src_module_imports_a_name_it_never_uses():
    assert [f"{path}:{line}: {name}"
            for path, f in _checkout().facts.items() if f.module and not f.init
            for line, name in _unused_imports(f)] == []


def _with_test(test):
    """The checkout with the test ``"path::name"`` as one more root."""
    path, _, name = test.partition("::")
    fn, = [node for node in ast.parse((ROOT / path).read_text()).body
           if isinstance(node, _FUNCTIONS) and node.name == name]
    fn.name = "uses"                           # a test would be skipped
    return _checkout().patched({test: ast.unparse(fn)})


@pytest.mark.parametrize("option", ALLOWED_PARAMETERS)
def test_a_kept_option_has_a_reason_and_the_test_that_passes_it(option):
    reason, test = ALLOWED_PARAMETERS[option]
    assert reason in (SEAM, REFERENCE, SIZE)
    assert option not in _unset(_with_test(test))


@pytest.mark.parametrize("state", ALLOWED_STATE)
def test_kept_state_has_a_reason_and_the_test_that_reads_it(state):
    reason, test = ALLOWED_STATE[state]
    assert reason in (SEAM, REFERENCE, SIZE)
    assert state not in _unread(_with_test(test))


# -- put-back cases ----------------------------------------------------------


def _case(module, owner, source):
    """``(qualified name, [(holder, member)])`` of *source* put back into
    ``repro/<module>``: a class's fields, what a method stores, else the
    name itself."""
    node = ast.parse(source).body[0]
    name = getattr(node, "name", None) or (
        getattr(node, "target", None) or node.targets[0]).id
    holder = ".".join(filter(None, ("repro." + module.removesuffix(
        ".py").removesuffix("/__init__").replace("/", "."), owner)))
    qualified = f"{holder}.{name}"
    if isinstance(node, ast.ClassDef):
        return qualified, [(qualified, i.target.id) for i in node.body
                           if isinstance(i, ast.AnnAssign)]
    return qualified, [(holder, n.attr) for n in ast.walk(node) if isinstance(
        n, ast.Attribute) and isinstance(n.ctx, ast.Store)] or [(holder, name)]


def _case_id(module, owner, source):
    """``Owner.name``, or ``module.name`` for a top-level one."""
    return ".".join(_case(module, owner, source)[0].split(".")[-2:])


def _state_case(module, owner, source):
    """The qualified names of the state *source* stores."""
    return [f"{h}.{member}" for h, member in _case(module, owner, source)[1]]


def _put_back(t, module, owner, source):
    """*t* with *source* added to ``repro/<module>`` (into class *owner*
    when given), a top-level one also imported by its package
    ``__init__``, as the deleted ones were."""
    path, text = f"repro/{module}", t.texts.get(f"repro/{module}", "")
    if owner is None:
        package = path.rpartition("/")[0] + "/__init__.py"
        stem, name = module.rpartition("/")[2].removesuffix(".py"), \
            _case(module, owner, source)[0].rpartition(".")[2]
        return t.patched({path: text + "\n\n" + source, package: t.texts[
            package] + f"from .{stem} import {name}\n"})
    lines = text.splitlines(keepends=True)
    lines.insert(t.facts[path].classes[owner].end,
                 textwrap.indent(source, "    "))
    return t.patched({path: "".join(lines)})


def _cases(text):
    """``(module, class or None, source)`` of each line ``module [class]:
    source`` of *text* (``\\n`` for a line break in *source*)."""
    return [(head.split()[0], (head.split()[1:] or [None])[0],
             source.replace("\\n", "\n") + "\n")
            for line in text.strip().splitlines()
            for head, source in [line.split(": ", 1)]]


#: Definitions ``src/`` once held that only tests reached, deleted or
#: moved into the tests.
DELETED = _cases(r"""
check/manifest.py: def mutate_event(manifest, index, **changes): return manifest
cluster/blade.py: @dataclass(frozen=True)\nclass FormFactor: width_in: float
cluster/management.py: class EventKind(enum.Enum): FAILURE = 'failure'
cluster/management.py: class LiveFailureInjector:\n    def __init__(self, runtime): self.runtime = runtime
cluster/management.py: @dataclass(frozen=True)\nclass ManagementEvent: time_h: float
cluster/management.py: @dataclass\nclass ManagementHub: detection_latency_h: float
cluster/management.py: class ClusterOperationSim:\n    def __init__(self, cluster, seed=0): self.rng = random.Random(seed)
cluster/management.py: @dataclass\nclass OperationReport: lost_cpu_hours: float
cluster/reliability.py: @dataclass(frozen=True)\nclass ClusterReliability: cluster: PlatformSpec
cluster/reliability.py OutageProfile: def downtime_cost(self, usd_per_cpu_hour=5.0): return self.outage_hours * usd_per_cpu_hour
cluster/reliability.py OutageProfile: def mean_time_to_detect_h(self): return self.outage_hours / 20.0
cluster/rack.py Rack: @property\ndef node_count(self): return sum(len(c) for c in self.chassis)
cluster/reliability.py: def sample_failure_times(rng, rate_per_hour, horizon_h): return [rng.expovariate(rate_per_hour)]
cms/translator.py: @dataclass(frozen=True)\nclass Translation: block: TranslatedBlock
cms/profilecollect.py HotSpotProfile: def hottest(self, n): return sorted(self.counts)[:n]
core/events.py EventKernel: def after(self, delay, fn, *args): return self.at(self.now + delay, fn, *args)
core/events.py EventKernel: @property\ndef idle(self): return self._live == 0
core/events.py EventKernel: def step(self): return bool(self._heap)
cpus/longrun.py: def spec_at_step(spec, step, model): return spec
cpus/power.py: def mtbf_hours(spec, nodes=1): return 1.0 / nodes
isa/assembler.py: def disassemble(program): return chr(10).join(map(str, program.instrs))
isa/instructions.py: def op_class(op): return _OP_CLASS[op]
isa/instructions.py Instr: @property\ndef ends_block(self): return self.op in BLOCK_ENDERS
isa/instructions.py Instr: def writes(self): return self.dst
isa/instructions.py Program: def static_mix(self): return Counter(i.opclass for i in self.instrs)
isa/programs.py: def axpy(n=128): return n
isa/programs.py: def dot_product(n=128): return n
isa/programs.py: def fib(n=30): return n
isa/machine.py: def run_program(program, max_steps=10_000): return Machine(program).run(max_steps)
metrics/ratios.py: def improvement_factor(old, new): return old / new
nbody/karp.py: def karp_rsqrt_flops(n, table=KarpTable()): return (4 + 4 * table.newton_iters) * n
nbody/karp.py KarpTable: @property\ndef worst_initial_error(self): return (3.0 / self.size) ** 2
nbody/morton.py: def morton_decode(code): return code, code, code
nbody/morton.py: def cell_geometry(key, lo, hi, depth=MAX_DEPTH): return lo, float(hi[0] - lo[0])
nbody/multipole.py: def quadrupole_tensor(pos, mass, com): return mass @ (pos - com)
nbody/sph.py: class SphSystem:\n    def __init__(self, pos, mass, h): self.pos, self.mass, self.h = pos, mass, h
nbody/traversal.py: def work_per_particle(stats, n): return stats.interactions / n
nbody/tree.py HashedOctree: def validate(self): return len(self.nodes)
nbody/tree.py TreeNode: @property\ndef count(self): return self.hi - self.lo
nbody/vortex.py: def vortex_ring(n, radius=1.0): return n * radius
network/fabric.py FabricSpec: @property\ndef oversubscription(self): return self.nodes_per_chassis * self.nic.link.bandwidth_bps
network/link.py: class LinkSchedule:\n    def __init__(self, link): self.link = link
network/multilevel.py RackTopology: def uplink_busy_s(self, chassis): return self.uplinks[chassis].busy_s
network/switch.py: class BackplaneSchedule:\n    def __init__(self, switch): self.switch = switch
network/switch.py Switch: @property\ndef nonblocking(self): return self.backplane_bps >= 2 * self.ports
network/timing.py: def publish_fabric_metrics(registry, fabric, fabric_name='fabric'): registry.counter('fabric.transfers').inc(len(fabric.transfers))
network/topology.py StarTopology: def uplink_busy_s(self): return self.uplink.busy_s
npb/common.py NpbRandom: def next(self):\n    self.x = (self.x * self.a) & _MASK46\n    return self.x / NPB_LCG_M
perfmodel/projector.py: def project_runtime_s(cpu, outcome): return outcome.operations / project_mops(cpu, outcome)
sched/profile_cache.py: def job_profile_key(platform, config, spec, blades): return ProfileKeys(platform, config).key(spec, blades)
sched/profile_cache.py ProfileCache: def invalidate(self): self._entries.clear()
simmpi/collectives.py: def scatter(comm, objs, root=0): return objs[comm.rank]
simmpi/comm.py RankComm: def barrier(self): return self.allreduce(0)
simmpi/comm.py RankComm: def gather(self, obj, root=0): return self.allgather(obj)
simmpi/trace.py: def filter_timeline(events, kinds=None, rank=None): return [e for e in events if e.kind in kinds]
simmpi/runtime.py RunResult: def publish_metrics(self, registry, world): registry.gauge('simmpi.elapsed_s', world=world)
simmpi/trace.py CommStats: def merge(self, other): return self
simmpi/trace.py CommStats: @property\ndef messages(self): return self.sends + self.recvs
telemetry/registry.py Histogram: @property\ndef mean(self): return self.sum / self.count if self.count else 0.0
telemetry/spans.py Span: @property\ndef duration(self): return self.t1 - self.t0
thermal/throttle.py: class ComposedGovernor:\n    def __init__(self, governors): self.governors = list(governors)
thermal/throttle.py: class Governor:\n    def __init__(self, busy_watts): self.busy_watts = busy_watts
thermal/throttle.py ThermalThrottleGovernor: def release_at(self, t): return self.clamp_at(t, 1.0)
vliw/atoms.py Atom: @property\ndef is_store(self): return self.instr.opclass is OpClass.STORE
vliw/atoms.py Atom: def writes(self): return self.instr.dst
vliw/scheduler.py DependenceEdges: @property\ndef data(self): return self.data_successors
vliw/scheduler.py DependenceEdges: @property\ndef war_order(self): return self.war_order_successors
vliw/scheduler.py DependenceEdges: @property\ndef waw(self): return self.waw_successors
nbody/traversal.py TraversalStats: def publish_metrics(self, registry): registry.counter('nbody.groups').inc(self.groups)
""")

#: Fields ``src/`` once held that no root passed, now constants; a whole
#: class when every field of it went.
DELETED_FIELDS = _cases(r"""
cluster/rack.py Rack: rack_units: int = 42
cluster/rack.py Rack: footprint_sqft: float = RACK_FOOTPRINT_SQFT
cluster/reliability.py OutageProfile: failure_model: FailureModel = FailureModel()
cpus/longrun.py LongRunModel: static_watts: float = param(NONNEGATIVE, 0.35)
cpus/power.py ThermalModel: c_per_watt_cooled: float = 0.35
cpus/power.py ThermalModel: c_per_watt_passive: float = 0.9
cpus/power.py: @dataclass(frozen=True)\nclass FailureModel:\n    base_rate_per_year: float = 0.12\n    base_temperature: float = 40.0\n    doubling_celsius: float = 10.0
metrics/costs.py CostParameters: years: float = param(POSITIVE, 4.0)
metrics/costs.py CostParameters: blade_setup_hours: float = param(NONNEGATIVE, 2.5)
metrics/costs.py CostParameters: labor_usd_per_hour: float = param(NONNEGATIVE, 100.0)
metrics/costs.py CostParameters: blade_maintenance_usd_per_year: float = param(NONNEGATIVE, 1_200.0)
metrics/costs.py CostParameters: software_usd: float = param(NONNEGATIVE, 0.0)
metrics/costs.py CostParameters: hours_per_year: float = param(POSITIVE, 8_760.0)
nbody/sim.py SimConfig: leaf_size: int = param(whole(1), 16)
nbody/sim.py SimConfig: use_karp: bool = False
nbody/sim.py SimConfig: naive_traversal: bool = False
nbody/sim.py SimConfig: audit: bool = False
sched/scheduler.py SchedConfig: checkpoint_bandwidth_bps: float = param(POSITIVE, 50e6)
sched/workloads.py TreecodeJob: theta: float = param(POSITIVE, 0.7)
sched/workloads.py TreecodeJob: dt: float = param(POSITIVE, 1e-3)
thermal/reliability.py ArrheniusIntensity: base_c: float = param(FINITE, 40.0)
thermal/reliability.py ArrheniusIntensity: doubling_c: float = param(POSITIVE, 10.0)
""")

#: State ``src/`` once stored that no root read.
DELETED_STATE = _cases(r"""
check/auditors.py ClockOrderAuditor: def _on_fire(self, event): self.checked += 1
check/auditors.py RetransmitConservationAuditor: def _on_trace(self, event): self.delivered += 1
check/auditors.py RetransmitConservationAuditor: def _on_giveup(self, event): self.gaveup += 1
check/manifest.py RunManifest: version: int = MANIFEST_VERSION
cluster/blade.py ServerBlade: form_factor: FormFactor = BLADE_FORM_FACTOR
cluster/blade.py ServerBlade: hot_pluggable: bool = True
cluster/blade.py: BLADE_FORM_FACTOR = FormFactor(width_in=0.68, height_in=5.0)
cluster/blade.py: @dataclass(frozen=True)\nclass FormFactor: depth_in: float
cluster/chassis.py ChassisDimensions: depth_in: float = 25.2
cluster/reliability.py OutageProfile: hub: ManagementHub
cms/tcache.py CacheStats: insertions: int = 0
cms/tcache.py CacheStats: evictions: int = 0
cms/translator.py: @dataclass(frozen=True)\nclass Translation: translation_cycles: int
cms/translator.py TranslatorStats: guest_instructions_translated: int = 0
core/events.py Process: def _die(self, error): self.failure = error
core/experiments.py ExperimentResult: experiment: str
hpl/lu.py LinpackResult: residual: float
isa/instructions.py: FP_DEST_OPS = frozenset({Op.FADD, Op.FSUB, Op.FMUL})
isa/machine.py ExecStats: taken_branches: int = 0
isa/programs.py: SUITE_KERNELS = (matmul, insertion_sort, memcopy, horner)
isa/programs.py: SUPPORT_KERNELS = (axpy, dot_product, fib, stream_triad)
isa/programs.py: MICROKERNELS = (gravity_microkernel_math, gravity_microkernel_karp)
nbody/sim.py NBodySimulation: def _prime(self, acc): self._acc = acc
nbody/tree.py TreeNode: centre: np.ndarray
nbody/tree.py HashedOctree: def _geometry(self, centre): self.node_centre = centre
nbody/tree.py HashedOctree: def _hint(self): self.order_reused = True
nbody/tree.py TreeBuildCache: def _count(self): self.order_reuses += 1
network/fabric.py Transfer: rerouted: bool = False
network/link.py Calendar: def _bill(self, duration): self.busy_s += duration
npb/classes.py ProblemClass: nominal_ops: float
perfmodel/workload.py CpuCharacterization: cpu_name: str
sched/scheduler.py SchedOutcome: hub: ManagementHub
simmpi/trace.py CommStats: io_s: float = 0.0
telemetry/__init__.py Telemetry: def _enter(self): self._wall_depth += 1
vliw/engine.py: @dataclass\nclass EngineStats:\n    molecules_issued: int = 0\n    atoms_executed: int = 0\n    stall_cycles: int = 0\n    blocks_executed: int = 0
cms/interpreter.py InterpreterStats: blocks: int = 0
""")

#: Write-only state found by hand that an untyped read in a root still
#: hides: ``case -> that root``.  A case moves to ``DELETED_STATE`` once
#: the read's receiver is typed.
HIDDEN_STATE = {
    ("cms/interpreter.py", "InterpreterStats", "cycles: int = 0"):
        "benchmarks/spine/workloads.py",              # r.cycles
    ("cms/translator.py", "TranslatorStats", "cycles: int = 0"):
        "benchmarks/spine/workloads.py",              # r.cycles
    ("network/link.py", "Calendar", "def _count(self): self.transfers += 1\n"):
        "benchmarks/spine/probes.py",                 # fabric.transfers
}


@pytest.mark.parametrize("module, owner, definition", DELETED,
                         ids=[_case_id(*case) for case in DELETED])
def test_a_deleted_definition_put_back_is_unreached(module, owner,
                                                    definition):
    t, (qualified, _) = _checkout(), _case(module, owner, definition)
    assert qualified not in _unreached(t)
    assert _unreached(_put_back(t, module, owner, definition)) == [qualified]


@pytest.mark.parametrize("module, owner, source", DELETED_FIELDS,
                         ids=[_case_id(*case) for case in DELETED_FIELDS])
def test_a_deleted_field_put_back_is_unset(module, owner, source):
    t, expected = _checkout(), [f"{holder}({member}=)" for holder, member
                                in _case(module, owner, source)[1]]
    unset = _unset(t)
    assert set(expected).isdisjoint(unset)
    assert sorted(_unset(_put_back(t, module, owner, source))) == \
        sorted(unset + expected)


@pytest.mark.parametrize("module, owner, source", DELETED_STATE, ids=[
    _state_case(*case)[-1].removeprefix("repro.") for case in DELETED_STATE])
def test_a_deleted_state_put_back_is_unread(module, owner, source):
    t = _checkout()
    expected, unread = _state_case(module, owner, source), _unread(t)
    assert set(expected).isdisjoint(unread)
    assert sorted(_unread(_put_back(t, module, owner, source))) == \
        sorted(unread + expected)


@pytest.mark.parametrize("case", HIDDEN_STATE, ids=[
    _state_case(*case)[0].removeprefix("repro.") for case in HIDDEN_STATE])
def test_hidden_state_is_hidden_only_by_an_untyped_root_read(case):
    t, expected = _put_back(_checkout(), *case), set(_state_case(*case))
    assert expected.isdisjoint(_unread(t))
    assert expected <= set(_unread(t.patched({HIDDEN_STATE[case]: ""})))


# -- seeded bite cases -------------------------------------------------------


def test_the_walk_bites_on_a_seeded_test_only_definition():
    module = ("def used(): pass\ndef only_tested(): pass\n"
              "def recursive(n): return recursive(n - 1)\ndef by_name(): pass\n"
              "class Box:\n    def open(self): return self.count()\n"
              "    def count(self): return 0\n    def shut(self): return self.shut()\n"
              "    def _private(self): pass\n    def __len__(self): return 0\n")
    package = ("from repro.owner.box import only_tested, recursive\n"
               "__all__ = ['only_tested', 'recursive']\n")
    user = ("from repro.owner.box import used\ndef main(x):\n    used()\n"
            "    Box().open()\n    return getattr(x, 'by_name')\n")
    sources = [("repro/owner/__init__.py", package),
               ("repro/owner/box.py", module), ("repro/user.py", user)]
    assert _unreached(_table(sources)) == [
        "repro.owner.box.only_tested", "repro.owner.box.recursive",
        "repro.owner.box.Box.shut", "repro.user.main"]
    # A call in a package __init__ is a use; so is a root outside src.
    sources[0] = ("repro/owner/__init__.py", package + "recursive(3)\n")
    assert _unreached(_table(sources, ["from repro.user import main"])) == [
        "repro.owner.box.only_tested", "repro.owner.box.Box.shut"]


def test_a_method_is_reached_only_through_an_attribute_that_binds():
    module = "class Box:\n" + "".join(
        f"    def {m}: pass\n" for m in (
            "fill(self, a, b=0, *, lid=None)", "pour(self, a)", "tip(self)",
            "open(self)", "close(self)", "peek(self)", "shake(self, n)")) + (
        "    @property\n    def label(self): return 'box'\n"
        "    @property\n    def size(self): return 0\n"
        "    @staticmethod\n    def make(kind): return Box()\n"
        "def close(): pass\n")
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
        "    return f'{box.label} {box.peek}'\n")   # formatted
    sources = [("repro/box.py", module), ("repro/user.py", user)]
    assert _unreached(_table(sources, ["from repro.user import main"])) == [
        "repro.box.Box.pour", "repro.box.Box.open", "repro.box.Box.close",
        "repro.box.Box.peek", "repro.box.Box.size"]


def test_the_option_walk_bites_on_seeded_unset_parameters():
    module = (
        "from dataclasses import dataclass\n"
        "def scale(x, factor=2, *, offset=0, clamp=None): return x\n"
        "def hook(x, tries=3): return x\ndef spread(x, width=1, depth=1): return x\n"
        "class Box:\n    def __init__(self, size, lid=False, label=''): pass\n"
        "    def fill(self, a, b=0, *, spill=False): return a\n"
        "    def tip(self, angle=90): return angle\nclass Crate(Box): pass\n"
        "class Tin(Box):\n    def __init__(self, size, seal=True):\n"
        "        super().__init__(size, lid=True)\n"
        "@dataclass\nclass Spec:\n    width: int = 1\n")
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
        "    return Spec(width=2)\n")
    assert _unset(_table([("repro/box.py", module), ("repro/user.py", user)])) \
        == ["repro.box.scale(offset=)", "repro.box.Box.fill(spill=)",
            "repro.box.Box.tip(angle=)", "repro.box.Tin.__init__(seal=)"]


def test_the_field_walk_bites_on_seeded_unset_fields():
    module = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, NamedTuple\n"
        "@dataclass\nclass Spec:\n    width: int\n    depth: int = 1\n"
        "    height: int = 2\n    label: str = ''\n    color: str = ''\n"
        "    kind: ClassVar[str] = 'spec'\n"
        "    cache: dict = field(init=False, default_factory=dict)\n"
        "    hits: int = 0\n    log: list = field(default_factory=list)\n"
        "    tags: dict = field(default_factory=dict)\n"
        "    @classmethod\n    def cube(cls, side): return cls(side, height=side)\n"
        "@dataclass\nclass Wide(Spec):\n    margin: float = 0.0\n"
        "class Point(NamedTuple):\n    x: float\n    y: float = 0.0\n"
        "    z: float = 0.0\n"
        "@dataclass\nclass Doc:\n    inner: 'Inner'\n    size: int = 1\n"
        "    @classmethod\n    def from_dict(cls, doc): return cls(doc['inner'])\n"
        "@dataclass\nclass Inner:\n    scale: float = 1.0\n"
        "@dataclass\nclass _Hidden:\n    secret: int = 0\n")
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
        "    return replace(spec, label='x')\n")
    sources = [("repro/box.py", module), ("repro/user.py", user)]
    assert _unset(_table(sources)) == [
        "repro.box.Spec(color=)", "repro.box.Wide(margin=)",
        "repro.box.Point(z=)"]
    # A replace that unpacks ``**`` passes every field of every class.
    assert _unset(_table(sources, ["replace(x, **changes)"])) == []


def test_an_unpacked_literal_passes_only_its_keys():
    module = ("from dataclasses import dataclass\n@dataclass\nclass Spec:\n"
              "    width: int = 1\n    depth: int = 1\n    color: str = ''\n")
    user = ("from repro.box import Spec\ndef main(runs):\n"
            "    size = {'width': 2}\n    for run in runs:\n"
            "        Spec(**size, **{'depth': 3})\n")   # their keys only
    sources = [("repro/box.py", module)]
    assert _unset(_table(sources, [user])) == ["repro.box.Spec(color=)"]
    assert _unset(_table(sources, ["replace(s, **{'color': '', 'depth': 0})"])) \
        == ["repro.box.Spec(width=)"]
    # A dict bound again, changed (after the call too: the loop comes
    # back), aliased or passed on, or a name its scope binds to no
    # literal, may hold any key.
    for change in ("size = dict(size)", "size['color'] = ''", "sizes = size",
                   "run(size)", "\ndef rerun(size):\n    Spec(**size)"):
        assert _unset(_table(sources, [user + f"        {change}\n"])) == []


def test_a_test_function_in_a_root_is_no_use():
    module = "def knob(x, flag=False): return x\ndef probe(): pass\n"
    root = ("from repro import box\ndef produce(): return box.knob(1)\n"
            "def test_knob():\n    box.probe()\n"
            "    assert box.knob(1, flag=True)\n")
    t = _table([("repro/box.py", module)], [root])
    assert (_unreached(t), _unset(t)) == (
        ["repro.box.probe"], ["repro.box.knob(flag=)"])


def test_super_init_passes_only_to_the_bases():
    module = ("class Box:\n    def __init__(self, size, lid=False): pass\n"
              "class Tin(Box):\n    def __init__(self):\n"
              "        super().__init__(1, lid=True)\n"
              "class Cork(ValueError):\n    def __init__(self):\n"
              "        super().__init__(lid=True)\n"     # no src base
              "class Jar:\n    def __init__(self, lid=False): pass\n")
    user = "from repro.box import Cork, Jar, Tin\nTin(), Cork(), Jar()\n"
    assert _unset(_table([("repro/box.py", module)], [user])) == [
        "repro.box.Jar.__init__(lid=)"]


def test_a_class_named_as_a_receiver_passes_nothing():
    module = ("from dataclasses import dataclass\n"
              "@dataclass\nclass Spec:\n    width: int = 1\n    depth: int = 1\n"
              "    SIZES = (1, 2)\n"
              "    @classmethod\n    def wide(cls): return cls(width=2)\n"
              "def scale(x, factor=2): return x\n")
    user = ("from repro.box import Spec, scale\n"
            "def main():\n"
            "    Spec.wide()\n"                 # width, through cls(...)
            "    print(scale.__name__)\n"       # looked into, not called
            "    return Spec.SIZES\n")
    t = _table([("repro/box.py", module), ("repro/user.py", user)])
    assert _unset(t) == [
        "repro.box.scale(factor=)", "repro.box.Spec(depth=)"]


def test_an_init_used_as_a_value_passes_only_its_class():
    module = ("class Box:\n    def __init__(self, size, lid=False): pass\n"
              "class Crate(Box): pass\n"
              "class Tin(Box):\n    def __init__(self, size, seal=True): pass\n"
              "class Jar:\n    def __init__(self, cap=None): pass\n")
    user = ("from repro.box import Crate\ndef main(patch):\n"
            "    init = Crate.__init__\n"          # Box.__init__, inherited
            "    patch(init)\n")
    sources = [("repro/box.py", module), ("repro/user.py", user)]
    assert _unset(_table(sources)) == [
        "repro.box.Tin.__init__(seal=)", "repro.box.Jar.__init__(cap=)"]
    # A receiver that names no class may be any: every ``__init__``.
    assert _unset(_table(sources, [
        "def main(obj):\n    return obj.__init__\n"])) == []


def test_the_state_walk_bites_on_seeded_unread_state():
    module = (
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, NamedTuple\n"
        "LIMIT = 3\nUNUSED = 4\n_CACHE = {}\n_LOG = []\n"
        "def column(name):\n"
        "    return property(lambda self: getattr(self.rows, name))\n"
        "@dataclass\nclass Stats:\n"
        "    hits: int = 0\n    misses: int = 0\n    bumped: int = 0\n"
        "    kind: ClassVar[str] = 'stats'\n"
        "    cache: dict = field(init=False, default_factory=dict)\n"
        "    log: list = field(default_factory=list)\n"
        "class Point(NamedTuple):\n    x: float\n    y: float\n"
        "class Pair(NamedTuple):\n    a: int\n    b: int\n    c: int\n"
        "class Box:\n    width = column('widths')\n"
        "    def __init__(self, n):\n        self.n = n\n        self._seen = 0\n"
        "        self._tally = 0\n        self.widths = []\n"
        "        setattr(self, 'tag', n)\n"
        "    def open(self, key):\n"
        "        self._seen += 1\n        self._tally = self._tally + 1\n"
        "        _CACHE[key] = self.n\n        _LOG.append(key)\n"
        "        return self.label\n"
        "    @property\n    def label(self): return 'box'\n"
        "class BoxError(ValueError):\n"
        "    def __init__(self, code): self.code = code\n")
    user = (
        "from repro.box import LIMIT, Point, Stats\n"
        "def main(stats, point, key):\n"
        "    stats.hits += 1\n"               # a write, not a read
        "    stats.cache[key] = 1\n"          # a write through a subscript
        "    stats.log.append(key)\n"         # a write through a mutator
        "    x, y = point\n"                  # every field of a 2-tuple
        "    return stats.misses, getattr(stats, 'bumped')\n")
    assert _unread(_table([("repro/box.py", module), ("repro/user.py", user)])) \
        == ["repro.box.UNUSED", "repro.box._CACHE", "repro.box._LOG",
            "repro.box.Stats.hits", "repro.box.Stats.cache",
            "repro.box.Stats.log", "repro.box.Pair.a", "repro.box.Pair.b",
            "repro.box.Pair.c", "repro.box.Box._seen", "repro.box.Box.tag"]


def test_the_import_check_bites_on_a_seeded_unused_import():
    text = ("from __future__ import annotations\nimport os.path\n"
            "import numpy as np\nfrom typing import Optional, Tuple\n"
            "from repro.core import domains as d, events\n"
            "def f(x: 'Optional[int]') -> Tuple[int]:\n    return np.sum(x), d\n")
    assert _unused_imports(_facts("repro/m.py", text)) == \
        [(2, "os"), (5, "events")]


#: One case per receiver source: ``Meter`` and ``Clock`` share ``ticks``
#: and ``reset()``, and only a ``Meter`` is used, through a receiver each
#: case types another way.  The name rule alone flags neither member.
TYPED_RECEIVERS = {
    "field-annotation": "@dataclass\nclass Panel:\n    meter: Meter\n"
    "    def show(self):\n        self.meter.reset()\n"
    "        return self.meter.ticks\n",
    "self-annotation": "class Panel:\n    def __init__(self, meter):\n"
    "        self.meter: Meter = meter\n    def show(self):\n"
    "        self.meter.reset()\n        return self.meter.ticks\n",
    "parameter-annotation":
        "def show(meter: Meter):\n    meter.reset()\n    return meter.ticks\n",
    "return-annotation": "def make() -> 'Meter':\n    return None\n"
    "def show():\n    make().reset()\n    return make().ticks\n",
    "constructed": "def show():\n    meter = Meter()\n    meter.reset()\n"
    "    return meter.ticks\n",
}


@pytest.mark.parametrize("user", TYPED_RECEIVERS.values(), ids=TYPED_RECEIVERS)
def test_a_typed_receiver_binds_only_its_class(user):
    module = "".join(f"class {name}:\n    def __init__(self): self.ticks = 0\n"
                     "    def reset(self): return 0\n"
                     for name in ("Meter", "Clock"))
    t = _table([("repro/box.py", module), ("repro/user.py", (
        "from dataclasses import dataclass\nfrom repro.box import Meter\n"
        + user))])
    assert [q for q in _unreached(t) if q.startswith("repro.box")] == \
        ["repro.box.Clock", "repro.box.Clock.reset"]
    assert [q for q in _unread(t) if q.startswith("repro.box")] == \
        ["repro.box.Clock.ticks"]
