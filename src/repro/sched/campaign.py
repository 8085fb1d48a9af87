"""The campaign recipe: one table of parameters, one way to build a run.

A *campaign* is a seeded synthetic job stream served by a
:class:`~repro.sched.scheduler.BatchScheduler` on a registry platform,
optionally under node failures, thermal modelling and network faults.
Everything that runs one — ``repro.cli sched``, ``check --record`` /
``--replay``, the differential audits, the benches, the tests — builds
it with :func:`build_campaign`, so "what ran" and "what replays" cannot
drift apart.  Each parameter is declared once,
in :data:`CAMPAIGN_PARAMETERS`; defaults, flags and the flag →
parameter mapping are derived from that table.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, Optional

from repro.core.domains import POSITIVE, whole
from repro.network.faults import (
    DEFAULT_NET_MTBF_S,
    DEFAULT_NET_MTTR_S,
    NetFaultConfig,
)
from repro.platform.registry import (
    DEFAULT_PLATFORM,
    platform_by_name,
    platform_names,
)
from repro.sched.job import synthetic_stream
from repro.sched.policy import policy_by_name
from repro.sched.scheduler import BatchScheduler, SchedConfig

#: ``(manifest key, default, flag, numeric domain, other add_argument
#: keywords)``, in manifest and ``--help`` order.  ``flag=None``: no
#: command-line spelling.  A ``bool`` parameter's flag flips its default
#: (``--no-throttle`` turns ``throttle`` off); a numeric flag parses
#: through its domain, so a value outside it is a usage error.  ``seed``
#: has a flag but no default: it is :func:`campaign_params`' own
#: argument, recorded last, and the failure processes derive theirs from
#: it (poisson ``seed + 1``, thermal ``seed + 2``, net ``seed + 3``).
CAMPAIGN_PARAMETERS = (
    ("jobs", 8, "--jobs", whole(1),
     dict(help="jobs in the synthetic Poisson stream")),
    ("policy", "fcfs", "--policy", None,
     dict(choices=("fcfs", "backfill", "easy"))),
    ("seed", 2001, "--seed", whole(0),
     dict(help="stream (and failure) RNG seed")),
    ("interarrival", 0.004, "--interarrival", POSITIVE,
     dict(help="mean virtual seconds between arrivals")),
    ("fail_inject", False, "--fail-inject", None,
     dict(help="inject Poisson node failures during the run")),
    ("mtbf", 0.05, "--mtbf", POSITIVE,
     dict(help="accelerated MTBF (virtual s) for --fail-inject")),
    ("checkpoint", 0, "--checkpoint", whole(0),
     dict(help="checkpoint every N units (0 disables)")),
    ("max_retries", 3, "--max-retries", whole(0),
     dict(help="requeues before a killed job is abandoned")),
    ("platform", DEFAULT_PLATFORM, "--platform", None, dict(
        choices=platform_names(),
        help="registry platform to schedule on; picks node count, node "
             "rate AND fabric (its content-hash is recorded so replay "
             "detects platform drift)")),
    # Thermal modelling (repro.thermal).  ``thermal`` builds the RC
    # network; ``thermal_accel`` compresses its time constant to the
    # stream's virtual-seconds scale; ``thermal_fail`` swaps the flat
    # Poisson fault process for the Arrhenius-thinned one; ``throttle``
    # off is the no-safeguards counterfactual.
    ("thermal", False, "--thermal", None, dict(
        help="model blade temperatures (lumped-RC network, coolest-first "
             "placement, thermal throttling)")),
    ("thermal_accel", 1.0, "--thermal-accel", POSITIVE, dict(
        help="thermal time-constant compression factor (default 1)")),
    ("thermal_fail", False, "--thermal-fail", None, dict(
        help="temperature-modulated fault injection via the Arrhenius "
             "intensity (implies --thermal; uses --mtbf as the 40 C "
             "baseline)")),
    ("throttle", True, "--no-throttle", None, dict(
        help="disable the trip-point frequency clamp (hot blades run to "
             "the overtemp kill point)")),
    # Job-profile memoization (repro.sched.profile_cache).  Tracing
    # attaches an observer, which itself forces the cache to bypass,
    # so traces are cache-agnostic either way.
    ("profile_cache", True, None, None, {}),
    # Network fault injection (repro.network.faults): the link/uplink
    # outage process and the reliable-delivery layer; MTBF/MTTR are in
    # virtual stream seconds.
    ("net_fault", False, "--net-fault", None, dict(
        help="inject seeded link/uplink outages; SimMPI retransmits with "
             "timeout/backoff, long node outages partition the blade "
             "(plan seed is --seed + 3)")),
    ("net_mtbf", DEFAULT_NET_MTBF_S, "--net-mtbf", POSITIVE, dict(
        metavar="S", help="per-link mean time between outages, virtual "
                          "seconds (default 2.0)")),
    ("net_mttr", DEFAULT_NET_MTTR_S, "--net-mttr", POSITIVE, dict(
        metavar="S", help="mean outage repair time, virtual seconds "
                          "(default 0.002)")),
)

#: Manifest key -> default.  A manifest recorded before a parameter
#: existed carries no key for it and means this value.
CAMPAIGN_DEFAULTS: Dict[str, Any] = {
    key: default for key, default, _, _, _ in CAMPAIGN_PARAMETERS
    if key != "seed"
}


def campaign_params(seed: int, overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Full, validated manifest parameters: defaults, *overrides*, seed."""
    unknown = set(overrides) - set(CAMPAIGN_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown sched parameters: {sorted(unknown)}")
    params = {**CAMPAIGN_DEFAULTS, **overrides, "seed": seed}
    if params["thermal_fail"] and not params["thermal"]:
        raise ValueError("thermal_fail requires thermal=True")
    for key, _, _, domain, _ in CAMPAIGN_PARAMETERS:   # used or not
        if domain is not None:
            domain.check(key, params[key])
    return params


def add_campaign_arguments(parser: argparse.ArgumentParser,
                           jobs: Optional[int]) -> None:
    """Attach every campaign flag; *jobs* is the caller's ``--jobs`` default.

    ``repro.cli sched`` runs what the flags describe and ``check
    --record`` records it, so anything one can run the other can pin.
    """
    for key, default, flag, domain, options in CAMPAIGN_PARAMETERS:
        if flag is None:
            continue
        if isinstance(default, bool):
            action = "store_false" if default else "store_true"
            parser.add_argument(flag, dest=key, action=action, **options)
            continue
        if domain is not None:          # a value outside it: usage error
            options = dict(options, type=domain)
        parser.add_argument(
            flag, dest=key, default=jobs if key == "jobs" else default,
            **options,
        )


def campaign_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """Parsed campaign flags as :func:`campaign_params` overrides.

    A parameter with no flag, or whose flag was left at ``None``
    (``check``'s ``--jobs``), is omitted, so the table's default
    applies; ``--thermal-fail`` implies ``--thermal``.
    """
    given = vars(args)
    overrides = {
        key: given[key] for key in CAMPAIGN_DEFAULTS
        if given.get(key) is not None
    }
    overrides["thermal"] = args.thermal or args.thermal_fail
    return overrides


def build_campaign(params: Dict[str, Any]) -> BatchScheduler:
    """One fully-submitted :class:`BatchScheduler` from manifest parameters.

    Keys absent from *params* (a manifest older than the parameter, a
    caller that only cares about a few) take their
    :data:`CAMPAIGN_DEFAULTS` value; ``seed`` is required.
    """
    params = {**CAMPAIGN_DEFAULTS, **params}
    seed = params["seed"]
    spec = platform_by_name(params["platform"])
    specs = synthetic_stream(
        jobs=params["jobs"],
        max_nodes=spec.nodes,
        flop_rate=spec.node_flop_rate(),
        seed=seed,
        mean_interarrival_s=params["interarrival"],
    )
    horizon = specs[-1].arrival_s + params["jobs"] * params["interarrival"]
    net_fault = None
    if params["net_fault"]:
        net_fault = NetFaultConfig(
            mtbf_s=params["net_mtbf"], mttr_s=params["net_mttr"],
            seed=seed + 3, horizon_s=horizon,
        )
    sched = BatchScheduler(
        platform=spec,
        policy=policy_by_name(params["policy"]),
        config=SchedConfig(
            checkpoint_every=params["checkpoint"] or None,
            max_retries=params["max_retries"],
            thermal=params["thermal"],
            thermal_accel=params["thermal_accel"],
            throttle=params["throttle"],
            profile_cache=params["profile_cache"],
        ),
        net_fault=net_fault,
    )
    sched.submit_stream(specs)
    if params["fail_inject"]:
        sched.inject_poisson_failures(
            horizon_s=horizon, mtbf_s=params["mtbf"], seed=seed + 1,
        )
    if params["thermal_fail"]:
        sched.inject_thermal_failures(
            horizon_s=horizon, mtbf_s=params["mtbf"], seed=seed + 2,
        )
    return sched
