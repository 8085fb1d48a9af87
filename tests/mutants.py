"""Recorded mutation checks: each one a bug a named test must catch.

A :class:`Mutant` replaces the one occurrence of ``old`` in ``path``
(relative to the repository root) with ``new``; ``catches`` is the
pytest node id of the test that must then fail.  ``tests/test_mutants.py``
checks the cheap half in tier-1: every ``old`` occurs exactly once and
every ``catches`` names a test that exists.  This script does the rest:

    python tests/mutants.py            # every mutant
    python tests/mutants.py ID ...     # the named ones

Each mutant is applied to a fresh temporary copy of ``src/`` and
``tests/`` and its ``catches`` run there under a timeout; the script
prints one line per mutant and exits 1 unless every one was caught
(the test failed, pytest exit 1).  A mutant that survives is a finding
- a hole in the tests - to record and mend, never a row to delete.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: Seconds one mutant's test run may take before it counts as hung.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    id: str
    path: str
    old: str
    new: str
    catches: str


MUTANTS = (
    # Padding must add exact -0.0 terms: a sentinel with mass moves
    # every padded sum, cell lists (the node table) and direct alike.
    Mutant("sentinel-mass-1", "src/repro/nbody/traversal.py",
           "    table[3, -1] = 0.0\n", "    table[3, -1] = 1.0\n",
           "tests/test_nbody_fastpath.py::"
           "test_direct_kernel_is_independent_of_the_tile_budget"),
    # The quadrupole term of the batched path, dropped.
    Mutant("quadrupole-term-dropped", "src/repro/nbody/traversal.py",
           "        for g in np.flatnonzero(cell_count).tolist():\n",
           "        for g in []:\n",
           "tests/test_nbody_fastpath.py::"
           "test_batched_bit_identical_to_naive"),
    # A one-column tile reduced pairwise instead of in source order.
    Mutant("one-column-reduce", "src/repro/nbody/traversal.py",
           "    if r2.size == rows:\n", "    if False:\n",
           "tests/test_nbody_fastpath.py::"
           "test_tile_adds_its_rows_in_order_for_any_column_count"),
    # r2 summed (dx² + dy²) + dz², not the reference einsum's order.
    Mutant("r2-association", "src/repro/nbody/traversal.py",
           "    np.multiply(dz, dz, out=w)\n    r2 += w\n"
           "    np.multiply(dy, dy, out=w)\n",
           "    np.multiply(dy, dy, out=w)\n    r2 += w\n"
           "    np.multiply(dz, dz, out=w)\n",
           "tests/test_nbody_fastpath.py::"
           "test_batched_bit_identical_to_naive"),
    # The dense walk visits every node: no level pass.
    Mutant("dense-walk-level-pass", "src/repro/nbody/traversal.py",
           "        go[:, nodes] &= go[:, parent[nodes]]\n",
           "        pass\n",
           "tests/test_nbody_fastpath.py::"
           "test_dense_path_equals_the_sweeps_and_naive"),
    # NaN and inf work weights let through to the partition.
    Mutant("partition-non-finite-weights", "src/repro/nbody/traversal.py",
           "        if not np.isfinite(weights).all():\n"
           "            raise ValueError(\"weights must be finite\")\n",
           "",
           "tests/test_nbody_traversal_sim.py::"
           "test_partition_refuses_non_finite_weights"),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Apply *mutant* to the tree under *root*; refuses an ``old`` that
    does not occur exactly once."""
    target = root / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.id}: `old` occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    target.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    """``caught``, ``SURVIVED``, ``TIMEOUT`` or ``ERROR (exit N)``: the
    outcome of *mutant*'s test on a mutated copy of src/ and tests/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", "--hypothesis-seed=0",
                 mutant.catches],
                cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "TIMEOUT"
    if done.returncode == 1:
        return "caught"
    if done.returncode == 0:
        return "SURVIVED"
    return f"ERROR (exit {done.returncode})"


def main(ids) -> int:
    known = {m.id: m for m in MUTANTS}
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}")
        return 2
    failed = 0
    for mutant in [known[i] for i in ids] or MUTANTS:
        start = time.monotonic()
        outcome = run(mutant)
        failed += outcome != "caught"
        print(f"{outcome:<16} {mutant.id:<30} "
              f"{time.monotonic() - start:6.1f} s  {mutant.catches}",
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
