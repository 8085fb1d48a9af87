"""Everything the documents name must exist.

For each document below: every backticked dotted ``repro.*`` name
imports or resolves as an attribute, every ``src/``, ``tests/``,
``benchmarks/`` or ``examples/`` path exists (glob patterns are
skipped), and every ``repro.cli SUB --flag`` spelling (or backticked
``SUB --flag``) names a real subcommand and flag of
:func:`repro.cli.build_parser`.  CHANGES.md is history and exempt.

In each document but the spine's README, a call spelling with keyword
arguments (``build_campaign(params)`` has none), backticked or in a
``python`` code block, must bind
to its callee's signature, though it may leave arguments out: the
callee is a dotted ``repro.*`` name, or a top-level function or class
defined once under ``src/repro`` (``Class.method(...)`` binds to that
method, and to nothing when the class has no such member).  A spelling
that does not parse as a call is skipped.  DESIGN.md may only shrink
(item 9(i)).

A roadmap item cited by slug (ROADMAP and a bracketed slug, a
backticked bracketed slug, or a comment opening with one) in ``src/``,
``tests/``, README, DESIGN or EXPERIMENTS must be an item of
ROADMAP.md.
"""

import argparse
import ast
import functools
import importlib
import inspect
import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md", "benchmarks/spine/README.md")
#: The documents whose call spellings must bind.
CALLING_DOCS = DOCS[:4]

#: DESIGN.md's line count: lower it when DESIGN shrinks, never raise it.
DESIGN_LINES = 1533
#: The reach guard's line count, capped the same way.
REACH_LINES = 1421

#: Placeholders a document may use for "any subcommand of this shape".
PLACEHOLDERS = {"tableN"}

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_PYTHON = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_PATH = re.compile(
    r"(?<![\w./-])(?:src|tests|benchmarks|examples)/[\w./*?\[\]{}-]*"
)
# One command: up to the end of the line, a closing backtick, a
# comment or a shell operator; a trailing backslash continues it.
_CLI = re.compile(r"repro\.cli((?:[^\S\n]|\\\n)+[^`#|;&>\s\\]+)+")
_SLUG = re.compile(r"(?:ROADMAP\s+`?|`|#\s*)\[([a-z][a-z0-9]*(?:-[a-z0-9]+)*)\]")
_ITEM = re.compile(r"^\d+\.\s+\*\*\[([a-z0-9-]+)\]", re.M)


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return {name: set(sub._option_string_actions)
            for name, sub in action.choices.items()}


_MISSING = object()


def _resolve(dotted):
    """The object a dotted ``repro.…`` name names, else ``_MISSING``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return _MISSING
            obj = getattr(obj, attr)
        return obj
    return _MISSING


@functools.cache
def _defined_once():
    """``bare name -> dotted name`` of each top-level function or class
    defined exactly once under ``src/repro``."""
    defined = defaultdict(list)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("")
                          .parts).removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name].append(f"{module}.{node.name}")
    return {name: dotted for name, (dotted, *more) in defined.items()
            if not more}


def _signature(dotted):
    """How a call of the ``repro.…`` name *dotted* binds: a method
    without its ``self``."""
    obj = _resolve(dotted)
    if not callable(obj):
        return None
    signature = inspect.signature(obj)
    owner, _, name = dotted.rpartition(".")
    owner = _resolve(owner)
    if inspect.isclass(owner) and not isinstance(
            inspect.getattr_static(owner, name),
            (staticmethod, classmethod)):
        signature = signature.replace(
            parameters=list(signature.parameters.values())[1:])
    return signature


def unbound_calls(text):
    """Every call spelling in *text* (backticked or in a ``python``
    block) with keyword arguments that does not bind to its callee's
    signature."""
    unbound = []
    for code in _SPAN.findall(_FENCE.sub("", text)) + _PYTHON.findall(text):
        try:
            tree = ast.parse(code)
        except SyntaxError:
            continue
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and call.keywords):
                continue
            callee = ast.unparse(call.func)
            head, dot, rest = callee.partition(".")   # ``Class.method``
            owner = _defined_once().get(head)
            dotted = callee if head == "repro" else owner and owner + dot + rest
            if dotted and _resolve(dotted) is _MISSING:   # a misspelt member
                unbound.append(ast.unparse(call))
                continue
            signature = dotted and _signature(dotted)
            if signature is None or \
                    any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(kw.arg is None for kw in call.keywords):
                continue
            try:
                signature.bind_partial(
                    *call.args, **{kw.arg: kw.value for kw in call.keywords})
            except TypeError:
                unbound.append(ast.unparse(call))
    return unbound


def stale_references(text):
    """Every name, path and command line in *text* that does not exist."""
    stale = []
    prose = _FENCE.sub("", text)
    for span in _SPAN.findall(prose):
        stale += [name for name in _DOTTED.findall(span)
                  if _resolve(name) is _MISSING]
    for path in _PATH.findall(text):
        path = path.rstrip(".")
        if not set("*?[{") & set(path) and not (ROOT / path).exists():
            stale.append(path)
    commands = _subcommands()
    lines = [match.group(0).replace("\\\n", " ").split()[1:]
             for match in _CLI.finditer(text)]
    lines += [words for words in map(str.split, _SPAN.findall(prose))
              if words and words[0] in commands]
    for sub, *words in lines:
        if sub in PLACEHOLDERS:
            continue
        if sub not in commands:
            stale.append(f"repro.cli {sub}")
            continue
        stale += [f"repro.cli {sub} {word}" for word in words
                  if word.startswith("--")
                  and word.split("=")[0] not in commands[sub]]
    return stale


@pytest.mark.parametrize("doc", DOCS)
def test_every_reference_in_the_document_resolves(doc):
    assert stale_references((ROOT / doc).read_text()) == []


@pytest.mark.parametrize("doc", CALLING_DOCS)
def test_every_call_spelling_in_the_document_binds(doc):
    assert unbound_calls((ROOT / doc).read_text()) == []


def test_unbound_call_spellings_are_caught():
    text = ("`build_campaign(params, audit=False)`, `build_campaign(p)`,"
            " `repro.sched.campaign.campaign_params(1, overrides=None)`,"
            " `repro.sched.SchedConfig(audit=True, thermal=True)`,"
            " `sched.inject_failure(0.1, 2, detail='x')`,"
            " `Telemetry().export(d, prefix='a')`, `run(until=)`,"
            " `NodeFailureError(rank, t, detail='x')`,"
            " `SimMpiRuntime(fabric=f)`, `SimMpiRuntime(1, 2, 3, 4, 5, 6, x=1)`,"
            " `repro.simmpi.RankComm.allreduce(x, op=max)`\n"
            "```python\nsched = build_campaign(params, audit=True)\n```\n"
            "```bash\nbuild_campaign(params, audit=True)\n```\n")
    assert unbound_calls(text) == [
        "build_campaign(params, audit=False)",
        "SimMpiRuntime(1, 2, 3, 4, 5, 6, x=1)",
        "repro.simmpi.RankComm.allreduce(x, op=max)",
        "build_campaign(params, audit=True)",
    ]


def test_a_bare_name_binds_only_to_a_top_level_definition():
    # ``replace`` is a method of one class only: this spelling means
    # ``dataclasses.replace``.  A class's method is checked through it,
    # and a method the class does not have binds nothing.
    assert unbound_calls("`replace(platform, thermal=spec)`, "
                         "`PlatformSpec.build_fabric(nodes, bogus=1)`, "
                         "`PlatformSpec.build_fabirc(nodes, blades=b)`") == [
        "PlatformSpec.build_fabric(nodes, bogus=1)",
        "PlatformSpec.build_fabirc(nodes, blades=b)"]


def test_design_only_shrinks():
    lines = len((ROOT / "DESIGN.md").read_text().splitlines())
    assert lines <= DESIGN_LINES


def test_the_reach_guard_only_shrinks():
    lines = len((ROOT / "tests" / "test_reach.py").read_text().splitlines())
    assert lines <= REACH_LINES


def test_stale_references_are_caught():
    text = ("`repro.check.nothing` and `repro.sched.campaign.build_campaign`\n"
            "see `tests/test_nothing.py`, `tests/data/ledger_*`,"
            " `check --nope`\n"
            "run `python examples/no_such_example.py`\n"
            "```bash\n"
            "python -m repro.cli sched --jobs 4 \\\n"
            "    --no-such-flag   # comment --ignored\n"
            "python -m repro.cli nosuch --x\n"
            "```\n")
    assert stale_references(text) == [
        "repro.check.nothing", "tests/test_nothing.py",
        "examples/no_such_example.py", "repro.cli sched --no-such-flag",
        "repro.cli nosuch", "repro.cli check --nope",
    ]


def unknown_slugs(text, items):
    """Every roadmap slug *text* cites that is not in *items*."""
    return [slug for slug in _SLUG.findall(text) if slug not in items]


def test_every_cited_roadmap_slug_is_an_item():
    items = set(_ITEM.findall((ROOT / "ROADMAP.md").read_text()))
    files = [ROOT / doc for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    files += sorted((ROOT / "src").rglob("*.py"))
    files += sorted((ROOT / "tests").rglob("*.py"))
    stale = {str(path.relative_to(ROOT)): unknown_slugs(path.read_text(), items)
             for path in files}
    assert items and {path: s for path, s in stale.items() if s} == {}


def test_stale_slugs_are_caught():
    text = ("(ROADMAP\n `[{0}]`) and ROADMAP [{1}] (a); `[{1}]`\n"
            "    # [{2}] (b), x[i], `[1, 2]`, [{3}]\n").format(
                "one-route", "gone-item", "also-gone", "no-marker")
    assert unknown_slugs(text, {"one-route"}) == [
        "gone-item", "gone-item", "also-gone"]
