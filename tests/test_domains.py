"""Every numeric parameter declares its legal values, and construction
enforces exactly those.

For each covered parameter record and each int/float init field, NaN,
+inf, -inf, 0, -1, ``True`` (and 1.5 for an int field) are tried on an
otherwise legal instance.  A value the field's declared domain admits
constructs; a value it refuses raises a ``ValueError`` naming
``<Class>.<field>``.  A numeric field with no declared domain fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import repro
from repro.cluster import NodeConfig
from repro.cluster.reliability import OutageProfile
from repro.cms import CmsConfig
from repro.core.domains import (
    FINITE, NONNEGATIVE, POSITIVE, UNIT_CLOSED_OPEN, UNIT_OPEN_CLOSED,
    whole,
)
from repro.cpus import PortSpec, ProcessorSpec
from repro.cpus.catalog import TM5600_SPEC
from repro.cpus.longrun import (
    TM5600_LADDER, DvfsTransition, LongRunModel, LongRunStep,
)
from repro.metrics import CostParameters
from repro.nbody import KarpTable, SimConfig
from repro.network import (
    FaultWindow, Link, NetFaultConfig, Nic, RetryPolicy, Switch,
)
from repro.network.link import FAST_ETHERNET
from repro.npb import OpMix
from repro.platform import FabricSpec, PlatformSpec
from repro.platform.registry import METABLADE
from repro.sched import (
    JobSpec, MicrokernelSweep, NpbKernelJob, SchedConfig, TreecodeJob,
)
from repro.thermal import ArrheniusIntensity, ThermalNetwork, ThermalSpec
from repro.vliw import SlotLimits


def _kwargs(instance) -> dict:
    return {f.name: getattr(instance, f.name)
            for f in dataclasses.fields(instance) if f.init}


#: A legal instance's keyword arguments, per covered class.
BASELINES = {
    ArrheniusIntensity: dict(base_rate_per_s=1.0),
    CmsConfig: {},
    CostParameters: {},
    DvfsTransition: dict(time_s=0.0, step=TM5600_LADDER[0]),
    FabricSpec: {},
    FaultWindow: dict(resource="link0", start_s=1.0, end_s=2.0),
    JobSpec: dict(job_id=0, arrival_s=0.0, nodes=1, walltime_est_s=1.0,
                  workload=MicrokernelSweep()),
    KarpTable: {},
    Link: dict(name="wire", bandwidth_bps=1e8, latency_s=1e-6),
    LongRunModel: dict(ladder=TM5600_LADDER, rated_watts=6.0),
    LongRunStep: dict(mhz=600.0, volts=1.5),
    MicrokernelSweep: {},
    NetFaultConfig: {},
    Nic: dict(name="nic", link=FAST_ETHERNET),
    NodeConfig: {},
    NpbKernelJob: {},
    OpMix: dict(fp=0.5, mem=0.25, int_=0.25),
    OutageProfile: dict(failures_per_year=1.0, outage_hours=1.0,
                        whole_cluster=False),
    PlatformSpec: _kwargs(METABLADE),
    PortSpec: dict(ports=("alu",), latency=1),
    ProcessorSpec: _kwargs(TM5600_SPEC),
    RetryPolicy: {},
    SchedConfig: {},
    SimConfig: {},
    SlotLimits: {},
    Switch: dict(name="switch", ports=24, port_link=FAST_ETHERNET),
    ThermalSpec: dict(r_c_per_w=1.0, c_j_per_c=1.0, chassis_r_c_per_w=0.01,
                      ambient_c=25.0),
    TreecodeJob: {},
}

#: Rules relating two or more fields, which a value its own domain
#: admits may still break: class -> the refusal's wording.
RELATIONS = {
    FaultWindow: "positive duration",
    OpMix: "sum to",
    ThermalSpec: "ambient < resume < trip < kill",
}

#: Per-instruction records on the guest hot path: left undeclared.
OUT_OF_SCOPE = {"Instr", "Atom"}

_NUMERIC = {"int", "float", "Optional[int]", "Optional[float]"}


def _numeric_fields(cls):
    return [f for f in dataclasses.fields(cls)
            if f.init and str(f.type) in _NUMERIC]


def _tries(field):
    values = [math.nan, math.inf, -math.inf, 0, -1, True]
    return values + [1.5] if "int" in str(field.type) else values


@pytest.mark.parametrize("cls", sorted(BASELINES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_construction_enforces_each_fields_declared_domain(cls):
    cls(**BASELINES[cls])
    numeric = _numeric_fields(cls)
    assert numeric, f"{cls.__name__} has no numeric field to cover"
    wrong = []
    for field in numeric:
        domain = field.metadata.get("domain")
        if domain is None:
            wrong.append(f"{cls.__name__}.{field.name}: no declared domain")
            continue
        named = f"{cls.__name__}.{field.name} must be "
        for value in _tries(field):
            kwargs = {**BASELINES[cls], field.name: value}
            try:
                cls(**kwargs)
                error = None
            except ValueError as exc:
                error = str(exc)
            if domain.admits(value):
                related = RELATIONS.get(cls)
                if error is not None and not (related and related in error):
                    wrong.append(f"{field.name}={value!r} refused: {error}")
            elif error is None or named not in error:
                wrong.append(f"{field.name}={value!r} gave {error!r}")
    assert wrong == []


def _dataclasses_in(module):
    for obj in vars(module).values():
        if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__):
            yield obj


def test_the_covered_classes_are_exactly_the_checked_records():
    # Every exported record that checks a number in __post_init__ ...
    exported = set()
    for info in pkgutil.iter_modules(repro.__path__):
        if info.ispkg:
            package = importlib.import_module(f"repro.{info.name}")
            exported |= {
                obj for obj in vars(package).values()
                if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and "__post_init__" in vars(obj) and _numeric_fields(obj)
                and obj.__name__ not in OUT_OF_SCOPE
            }
    # ... and every record anywhere that declares a domain.
    declaring = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        declaring |= {
            cls for cls in _dataclasses_in(module)
            if any("domain" in f.metadata for f in dataclasses.fields(cls))
        }
    assert exported <= declaring
    assert declaring == set(BASELINES)
    assert len(BASELINES) == 28


def _estimate(nodes=4, flop_rate=1e9):
    return MicrokernelSweep().est_runtime_s(nodes, flop_rate)


def _network(node_watts=100.0, nodes=4, nodes_per_chassis=24):
    return ThermalNetwork(nodes, ThermalSpec(**BASELINES[ThermalSpec]),
                          node_watts, nodes_per_chassis)


@pytest.mark.parametrize("call, refused", [
    (lambda: _estimate(flop_rate=math.nan), "flop_rate"),
    (lambda: _estimate(flop_rate=math.inf), "flop_rate"),
    (lambda: _estimate(flop_rate=0.0), "flop_rate"),
    (lambda: _estimate(nodes=2.5), "nodes"),
    (lambda: _estimate(nodes=0), "nodes"),
    (lambda: _network(node_watts=math.nan), "ThermalNetwork.node_watts"),
    (lambda: _network(node_watts=math.inf), "ThermalNetwork.node_watts"),
    (lambda: _network(node_watts=-1.0), "ThermalNetwork.node_watts"),
    (lambda: _network(nodes=0), "ThermalNetwork.nodes"),
    (lambda: _network(nodes=2.5), "ThermalNetwork.nodes"),
    (lambda: _network(nodes_per_chassis=0),
     "ThermalNetwork.nodes_per_chassis"),
], ids=["estimate-nan-rate", "estimate-inf-rate", "estimate-zero-rate",
        "estimate-fractional-nodes", "estimate-no-nodes",
        "network-nan-heat", "network-inf-heat", "network-negative-heat",
        "network-no-blades", "network-fractional-blades",
        "network-no-chassis"])
def test_function_arguments_are_refused_by_name(call, refused):
    # A non-machine value fails naming the argument, not later as a
    # NaN, a zero runtime or a peak temperature of inf.
    with pytest.raises(ValueError, match=f"^{refused} must be "):
        call()


@pytest.mark.parametrize("domain, admits, refuses", [
    (POSITIVE, [5e-324, 1, 1.5, np.float64(2.0)],
     [0, -0.0, -1, math.nan, math.inf, True, np.int64(1), "1"]),
    (NONNEGATIVE, [0, -0.0, 1e308], [-5e-324, math.inf, math.nan, False]),
    (FINITE, [-1e308, 0, 1e308], [-math.inf, math.inf, math.nan]),
    (UNIT_OPEN_CLOSED, [5e-324, 0.5, 1], [0, 1.0000000000000002, math.nan]),
    (UNIT_CLOSED_OPEN, [0, 0.5, 0.9999999999999999], [1, -1e-300]),
    (whole(2), [2, 10**30], [1, 2.0, True, np.int64(2), math.inf]),
    (whole(1).or_none(), [None, 1], [0, math.nan]),
])
def test_domain_values(domain, admits, refuses):
    assert [v for v in admits if not domain.admits(v)] == []
    assert [v for v in refuses if domain.admits(v)] == []


def test_a_domain_is_an_argparse_type():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=whole(2))
    parser.add_argument("--dt", type=POSITIVE)
    args = parser.parse_args(["--n", "3", "--dt", "1e-3"])
    assert (args.n, args.dt) == (3, 1e-3)
    assert type(args.n) is int
    for argv in (["--n", "1"], ["--n", "2.5"], ["--dt", "nan"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_declarations_move_no_repr_equality_or_document():
    # Metadata enters no repr, ==, or asdict: cache keys and hashes hold.
    assert repr(TreecodeJob(n=160, steps=2, seed=5)) == (
        "TreecodeJob(n=160, steps=2, seed=5)"
    )
    assert PlatformSpec.from_dict(METABLADE.to_dict()) == METABLADE
