"""No module reaches into another top-level package's privates.

Two static rules over ``src/repro``, checked on the AST:

- no ``from repro.<pkg>... import _name`` from outside ``<pkg>``;
- no ``obj._name`` on anything but ``self`` / ``cls`` unless ``_name``
  is a name the module's own package defines (a method, a
  ``self._name = ...`` attribute, a module-level name) — read, written,
  or spelled ``getattr(obj, "_name")``.  Without type inference that is
  how "crosses a package boundary" is decided: a private name nobody in
  the package defines belongs to someone else.  Writing ``obj._name``
  defines nothing: it is how a package parks state on a foreign object.

A top-level module (``repro/cli.py``) is its own package.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _package_of(path: Path) -> str:
    parts = path.relative_to(SRC).parts
    return parts[0] if len(parts) > 1 else path.stem


def _private(name: str) -> bool:
    dunder = name.startswith("__") and name.endswith("__")
    return name.startswith("_") and not dunder


def _own(base) -> bool:
    return isinstance(base, ast.Name) and base.id in ("self", "cls")


def _attribute_access(node):
    """``(object, attribute name)`` for ``obj.name`` and for
    ``getattr/setattr/hasattr(obj, "name", ...)``, else ``None``."""
    if isinstance(node, ast.Attribute):
        return node.value, node.attr
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return node.args[0], node.args[1].value
    return None


def _reach_ins(sources):
    """*sources*: ``[(package, label, python source)]`` -> offending lines."""
    trees = [(pkg, label, ast.parse(text)) for pkg, label, text in sources]
    defined = defaultdict(set)
    for pkg, _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[pkg].add(node.name)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and _own(node.value)):
                defined[pkg].add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined[pkg].add(node.id)
    found = []
    for pkg, label, tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("repro.")):
                if node.module.split(".")[1] == pkg:
                    continue
                found += [
                    f"{label}:{node.lineno}: from {node.module} "
                    f"import {alias.name}"
                    for alias in node.names if _private(alias.name)
                ]
                continue
            attr = _attribute_access(node)
            if attr and _private(attr[1]) and not _own(attr[0]) \
                    and attr[1] not in defined[pkg]:
                found.append(f"{label}:{node.lineno}: .{attr[1]}")
    return found


def test_no_module_reaches_into_another_packages_privates():
    sources = [
        (_package_of(path), str(path.relative_to(SRC)), path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    ]
    assert len(sources) > 100            # the walk found the tree
    assert _reach_ins(sources) == []


def test_the_rules_bite_on_a_seeded_reach_in():
    owner = (
        "class World:\n"
        "    def __init__(self):\n"
        "        self._comms = []\n"
        "    def _deadlock_error(self):\n"
        "        return self._comms\n"
        "def _recipe():\n"
        "    return World()._comms\n"
    )
    intruder = (
        "from repro.owner.world import _recipe, World\n"
        "def peek(world):\n"
        "    return world._comms, world._deadlock_error()\n"
        "def park(kernel):\n"
        "    mid = getattr(kernel, '_net_mid', 0)\n"
        "    kernel._net_mid = mid + 1\n"
    )
    assert _reach_ins([("owner", "owner/world.py", owner)]) == []
    found = _reach_ins([
        ("owner", "owner/world.py", owner),
        ("intruder", "intruder.py", intruder),
    ])
    assert sorted(found) == [         # ast.walk is breadth-first
        "intruder.py:1: from repro.owner.world import _recipe",
        "intruder.py:3: ._comms",
        "intruder.py:3: ._deadlock_error",
        "intruder.py:5: ._net_mid",
        "intruder.py:6: ._net_mid",
    ]
