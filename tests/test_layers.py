"""Imports run one way: a layer loads only the layers beneath it.

``LAYERS`` ranks every top-level package (and the two modules of
``repro.core`` that sit at the top of the stack) from the bottom up.
One fresh interpreter imports every module of every layer in that
order and records which ``repro`` modules are loaded after each layer.
A layer fails if importing it loaded a module of any layer ranked
above it.  Imports inside a function body run on first call, not at
import, and are not edges here.
"""

import functools
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).parent.parent / "src"

#: The stack, bottom first.  ``core`` is the event kernel and the
#: parameter domains; ``core.experiments`` and ``core.claims`` are the
#: experiment index and the paper's claims.
LAYERS = (
    "core", "runner",
    "isa", "vliw", "cms", "cpus", "thermal",
    "network", "simmpi", "nbody", "npb", "perfmodel",
    "cluster", "platform", "metrics", "hpl",
    "sched", "telemetry", "check",
    "core.experiments", "core.claims", "cli",
)


def _layer(module):
    """The layer a ``repro.…`` module belongs to (the longest match)."""
    dotted = module.removeprefix("repro.")
    return max(
        (name for name in LAYERS
         if dotted == name or dotted.startswith(name + ".")),
        key=len,
    )


def _modules_of(layer):
    """Every module of *layer* that no more specific layer owns."""
    path = SRC / "repro" / layer.replace(".", "/")
    if not path.is_dir():
        return [f"repro.{layer}"]
    names = [f"repro.{layer}"] + [
        info.name
        for info in pkgutil.walk_packages([str(path)], f"repro.{layer}.")
    ]
    return [name for name in names if _layer(name) == layer]


_IMPORT_BOTTOM_UP = """
import importlib, json, sys
loaded = []
for modules in json.loads(sys.argv[1]):
    for name in modules:
        importlib.import_module(name)
    loaded.append(sorted(m for m in sys.modules if m.startswith("repro.")))
print(json.dumps(loaded))
"""


@functools.cache
def loaded_after_each_layer():
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOTTOM_UP,
         json.dumps([_modules_of(layer) for layer in LAYERS])],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return dict(zip(LAYERS, json.loads(done.stdout)))


def test_every_package_has_a_rank():
    top = {info.name for info in pkgutil.iter_modules(repro.__path__)}
    assert top == {layer.split(".")[0] for layer in LAYERS}


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_loads_nothing_ranked_above_it(layer):
    rank = LAYERS.index(layer)
    above = sorted(
        module for module in loaded_after_each_layer()[layer]
        if LAYERS.index(_layer(module)) > rank
    )
    assert not above, f"importing repro.{layer} loaded {above}"


def _loaded_by(module):
    """The ``repro.…`` modules a fresh interpreter holds after importing
    *module*."""
    done = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys, {module}; print(json.dumps(sorted(m for m in"
         " sys.modules if m.startswith('repro.'))))"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_the_root_package_loads_no_layer():
    # The root's public names resolve on first use, so an import of
    # any layer (which imports ``repro`` first) pays for nothing else.
    assert _loaded_by("repro") == []


def test_the_calibrated_rates_load_no_npb_kernel():
    # Table 1's rates and a node's flop rate run guest microkernels;
    # only Table 3's projection needs the NPB work-alikes.
    loaded = _loaded_by("repro.perfmodel.calibration")
    assert [m for m in loaded if m.startswith("repro.npb")] == []


def test_the_root_package_resolves_its_public_names():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
