"""Differential fuzzing: three oracles, randomized seeds, shrinking.

Each oracle runs one randomized case through two implementations that
must agree and returns ``None`` (agreement) or a failure message:

- ``cms``        — CMS translator+VLIW pipeline vs the golden
                   interpreter on :func:`repro.isa.randprog` programs
                   (bit-identical architectural state and identical
                   dynamic statistics);
- ``traversal``  — batched vectorised treecode traversal vs the naive
                   per-group reference walk (bit-identical
                   accelerations and work counters);
- ``sched``      — FCFS vs EASY backfill on the same job stream, each
                   run under the full invariant-auditor set (both must
                   terminate every job, satisfy the ledger audits, and
                   — without failures — complete the identical job set).

A failing case is *shrunk* (greedy descent through each oracle's
smaller-candidate generator while the failure persists) and written as
a ``fuzz-failure`` manifest that ``repro.cli check --replay`` re-runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.check.manifest import RunManifest

#: Shrink attempts before giving up on minimizing a failing case.
_MAX_SHRINKS = 60


class Oracle:
    """One differential test: draw params, run the comparison."""

    name: str = "oracle"

    def draw(self, rng: random.Random, quick: bool) -> Dict[str, Any]:
        raise NotImplementedError

    def run(self, params: Dict[str, Any]) -> Optional[str]:
        """None on agreement; a failure description otherwise."""
        raise NotImplementedError

    def shrink(self, params: Dict[str, Any]
               ) -> Iterator[Dict[str, Any]]:
        """Candidate smaller parameter sets (may be empty)."""
        return iter(())


def _locations(state) -> Dict[str, Any]:
    """Every architectural location of a guest state, by name."""
    out: Dict[str, Any] = {**state.iregs, **state.fregs}
    out.update(
        (f"mem[{addr}]", value)
        for addr, value in state.mem.snapshot().items()
    )
    out["halted"] = state.halted
    return out


class CmsOracle(Oracle):
    """Translator-vs-interpreter equivalence: state and statistics."""

    name = "cms"

    def draw(self, rng: random.Random, quick: bool) -> Dict[str, Any]:
        return {
            "seed": rng.randrange(1 << 24),
            "blocks": rng.randint(1, 3 if quick else 5),
            "block_len": rng.randint(2, 8 if quick else 14),
            "threshold": rng.choice((1, 2, 3, 7, 50)),
            "tcache_bytes": rng.choice((48, 1 << 10, 1 << 20)),
            "narrow": rng.random() < 0.3,
        }

    def run(self, params: Dict[str, Any]) -> Optional[str]:
        from repro.cms import CmsConfig, CodeMorphingSoftware
        from repro.isa.machine import run_program
        from repro.isa.randprog import random_program, random_state
        from repro.vliw.molecules import FULL_FORMAT, NARROW_FORMAT

        program = random_program(
            params["seed"], blocks=params["blocks"],
            block_len=params["block_len"],
        )
        golden, golden_stats = run_program(
            program, random_state(params["seed"]), max_steps=10**6
        )
        cms = CodeMorphingSoftware(CmsConfig(
            hot_threshold=params["threshold"],
            tcache_bytes=params["tcache_bytes"],
            limits=NARROW_FORMAT if params["narrow"] else FULL_FORMAT,
        ))
        result = cms.run(
            program, random_state(params["seed"]), max_steps=10**6
        )
        if (result.state.architectural_view()
                != golden.architectural_view()):
            mine, ref = _locations(result.state), _locations(golden)
            # repr, not ==: -0.0 and 0.0 differ, two NaNs do not.
            diffs = [
                key for key in sorted(set(mine) | set(ref))
                if repr(mine.get(key)) != repr(ref.get(key))
            ]
            first = diffs[0] if diffs else None
            return (
                f"CMS state diverges from golden interpreter on "
                f"{len(diffs)} location(s), first: {first!r} "
                f"(cms={mine.get(first)!r}, golden={ref.get(first)!r})"
            )
        if result.guest_stats != golden_stats:
            return (
                f"CMS guest statistics diverge from the golden run "
                f"(cms={result.guest_stats!r}, golden={golden_stats!r})"
            )
        return None

    def shrink(self, params: Dict[str, Any]
               ) -> Iterator[Dict[str, Any]]:
        if params["blocks"] > 1:
            yield {**params, "blocks": params["blocks"] - 1}
        if params["block_len"] > 2:
            yield {**params, "block_len": max(2, params["block_len"] // 2)}
        if params["narrow"]:
            yield {**params, "narrow": False}


class TraversalOracle(Oracle):
    """Batched vs naive treecode traversal bit-equivalence."""

    name = "traversal"

    def draw(self, rng: random.Random, quick: bool) -> Dict[str, Any]:
        return {
            "seed": rng.randrange(1 << 24),
            "n": rng.randint(96, 384 if quick else 1200),
            "theta": rng.choice((0.3, 0.5, 0.7, 0.9, 1.1)),
            "leaf_size": rng.choice((8, 16, 32)),
            "softening": rng.choice((0.0, 1e-2)),
            "use_karp": rng.random() < 0.5,
            "quadrupoles": rng.random() < 0.5,
            "ic": rng.choice(("collision", "plummer")),
        }

    def run(self, params: Dict[str, Any]) -> Optional[str]:
        import numpy as np

        from repro.nbody.ic import plummer_sphere, two_clusters
        from repro.nbody.traversal import tree_accelerations
        from repro.nbody.tree import HashedOctree

        make_ic = (
            two_clusters if params["ic"] == "collision"
            else plummer_sphere
        )
        pos, _, mass = make_ic(params["n"], seed=params["seed"])
        tree = HashedOctree(
            pos, mass, leaf_size=params["leaf_size"],
            quadrupoles=params["quadrupoles"],
        )
        kwargs = dict(
            theta=params["theta"], softening=params["softening"],
            use_karp=params["use_karp"],
            use_quadrupole=params["quadrupoles"],
        )
        acc_naive, st_naive = tree_accelerations(tree, naive=True, **kwargs)
        acc_batch, st_batch = tree_accelerations(tree, naive=False, **kwargs)
        if not np.array_equal(acc_naive, acc_batch):
            bad = np.argwhere(acc_naive != acc_batch)
            i, j = bad[0]
            return (
                f"accelerations differ at {len(bad)} element(s), first "
                f"[{i},{j}]: naive={acc_naive[i, j]!r} vs "
                f"batched={acc_batch[i, j]!r}"
            )
        for counter in ("particle_cell", "particle_particle",
                        "nodes_opened", "groups"):
            if getattr(st_naive, counter) != getattr(st_batch, counter):
                return (
                    f"work counter {counter} differs: naive="
                    f"{getattr(st_naive, counter)} vs batched="
                    f"{getattr(st_batch, counter)}"
                )
        if list(st_naive.group_work) != list(st_batch.group_work):
            return "per-group work vectors differ"
        return None

    def shrink(self, params: Dict[str, Any]
               ) -> Iterator[Dict[str, Any]]:
        if params["n"] > 48:
            yield {**params, "n": max(48, params["n"] // 2)}
        if params["quadrupoles"]:
            yield {**params, "quadrupoles": False}
        if params["use_karp"]:
            yield {**params, "use_karp": False}
        if params["softening"] == 0.0:
            yield {**params, "softening": 1e-2}


class SchedOracle(Oracle):
    """FCFS vs EASY-backfill schedule safety under the auditor set."""

    name = "sched"

    def draw(self, rng: random.Random, quick: bool) -> Dict[str, Any]:
        return {
            "seed": rng.randrange(1 << 24),
            "jobs": rng.randint(3, 6 if quick else 14),
            "interarrival": rng.choice((0.002, 0.004, 0.01)),
            "fail_inject": rng.random() < 0.4,
            "mtbf": rng.choice((0.05, 0.1)),
            "checkpoint": rng.choice((0, 1, 2)),
            "max_retries": 2,
        }

    def _outcome(self, params: Dict[str, Any], policy: str):
        from repro.sched.campaign import build_campaign

        return build_campaign({**params, "policy": policy}, audit=True).run()

    def run(self, params: Dict[str, Any]) -> Optional[str]:
        from repro.check.auditors import InvariantViolation
        from repro.sched.job import JobState

        outcomes = {}
        for policy in ("fcfs", "backfill"):
            try:
                outcomes[policy] = self._outcome(params, policy)
            except InvariantViolation as violation:
                return f"[{policy}] invariant violated: {violation}"
        completed = {
            policy: {r.spec.job_id for r in outcome.completed}
            for policy, outcome in outcomes.items()
        }
        if not params["fail_inject"]:
            total = set(range(params["jobs"]))
            for policy, done in completed.items():
                if done != total:
                    missing = sorted(total - done)
                    return (
                        f"[{policy}] lost job(s) without any failure "
                        f"injected: {missing}"
                    )
        else:
            for policy, outcome in outcomes.items():
                for record in outcome.records:
                    if record.state not in (JobState.COMPLETED,
                                            JobState.ABANDONED):
                        return (
                            f"[{policy}] job {record.spec.job_id} ended "
                            f"non-terminal: {record.state.value}"
                        )
        return None

    def shrink(self, params: Dict[str, Any]
               ) -> Iterator[Dict[str, Any]]:
        if params["jobs"] > 1:
            yield {**params, "jobs": params["jobs"] - 1}
        if params["fail_inject"]:
            yield {**params, "fail_inject": False}
        if params["checkpoint"]:
            yield {**params, "checkpoint": 0}


ORACLES: Dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (CmsOracle(), TraversalOracle(), SchedOracle())
}

#: Case mix per 5 fuzz cases: the sched oracle is ~10x costlier than
#: the other two, so it gets one slot in five.
_MIX = ("cms", "traversal", "cms", "traversal", "sched")


@dataclass
class FuzzFailure:
    """One confirmed, shrunk differential failure."""

    oracle: str
    seed: int
    params: Dict[str, Any]
    message: str
    shrinks: int = 0
    manifest_path: Optional[Path] = None


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    cases: int
    by_oracle: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        mix = ", ".join(
            f"{name}: {count}" for name, count in sorted(self.by_oracle.items())
        )
        lines = [f"fuzz: {self.cases} case(s) ({mix})"]
        if self.ok:
            lines.append("all oracles agree — zero differential failures")
        for failure in self.failures:
            lines.append(
                f"FAIL [{failure.oracle}] seed={failure.seed} after "
                f"{failure.shrinks} shrink(s): {failure.message}"
            )
            lines.append(f"  params: {failure.params}")
            if failure.manifest_path is not None:
                lines.append(
                    f"  replay: python -m repro.cli check --replay "
                    f"{failure.manifest_path}"
                )
        return "\n".join(lines)


def _shrink_failure(oracle: Oracle, params: Dict[str, Any],
                    message: str) -> tuple:
    """Greedy descent: keep the smallest params that still fail."""
    shrinks = 0
    current, current_message = params, message
    progress = True
    while progress and shrinks < _MAX_SHRINKS:
        progress = False
        for candidate in oracle.shrink(current):
            shrinks += 1
            failure = oracle.run(candidate)
            if failure is not None:
                current, current_message = candidate, failure
                progress = True
                break
            if shrinks >= _MAX_SHRINKS:
                break
    return current, current_message, shrinks


def run_fuzz_case(oracle_name: str,
                  params: Dict[str, Any]) -> Optional[str]:
    """Run one explicit case through one oracle (replay entry point)."""
    return ORACLES[oracle_name].run(params)


def run_fuzz(cases: int = 216, seed: int = 0, quick: bool = True,
             out_dir: Optional[Union[str, Path]] = None,
             oracles: Optional[List[str]] = None,
             max_failures: int = 5) -> FuzzReport:
    """Drive *cases* randomized cases across the oracle mix.

    Failures are shrunk and — when *out_dir* is given — written as
    replayable ``fuzz-failure`` manifests.  The campaign stops early
    after *max_failures* distinct failures.
    """
    chosen = list(oracles) if oracles else list(_MIX)
    unknown = set(chosen) - set(ORACLES)
    if unknown:
        raise ValueError(f"unknown oracle(s): {sorted(unknown)}")
    report = FuzzReport(cases=0)
    for index in range(cases):
        oracle = ORACLES[chosen[index % len(chosen)]]
        case_seed = (seed << 20) ^ index
        rng = random.Random(case_seed)
        params = oracle.draw(rng, quick)
        report.cases += 1
        report.by_oracle[oracle.name] = (
            report.by_oracle.get(oracle.name, 0) + 1
        )
        message = oracle.run(params)
        if message is None:
            continue
        shrunk, message, shrinks = _shrink_failure(oracle, params, message)
        failure = FuzzFailure(
            oracle=oracle.name, seed=case_seed, params=shrunk,
            message=message, shrinks=shrinks,
        )
        if out_dir is not None:
            manifest = RunManifest.make(
                "fuzz-failure", seed=case_seed,
                params={"oracle": oracle.name, "case": shrunk},
                payload={"message": message},
            )
            failure.manifest_path = manifest.save(
                Path(out_dir)
                / f"fuzz_{oracle.name}_{case_seed & 0xFFFFFF:06x}.json"
            )
        report.failures.append(failure)
        if len(report.failures) >= max_failures:
            break
    return report


def replay_failure_manifest(manifest: RunManifest):
    """Re-run a shrunk fuzz failure from its manifest."""
    from repro.check.replay import Divergence, ReplayReport
    from repro.core.events import TimelineEvent

    oracle_name = manifest.params["oracle"]
    params = manifest.params["case"]
    message = run_fuzz_case(oracle_name, params)
    divergence = None
    if message is not None:
        divergence = Divergence(
            index=0,
            expected=None,
            actual=TimelineEvent(0.0, "fuzz-failure",
                                 (("message", message),)),
            context={"oracle": oracle_name, "params": params},
        )
    return ReplayReport(
        kind="fuzz-failure",
        expected_events=0,
        replayed_events=0 if message is None else 1,
        divergence=divergence,
    )
