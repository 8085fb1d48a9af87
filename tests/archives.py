"""The model-output studies that have no ``repro.cli`` spelling.

Each study below produces the exact text of one
``benchmarks/results/*.txt`` archive and checks that study's claims on
the way: a producer whose claim fails raises, and its archive is not
rewritten.  The first two functions are the paper's headline results
at a small size, as the documents ``tests/data/golden_table2.json`` and
``golden_fig3.json``.  ``tests/test_artifacts.py`` lists them with every
other committed output; regenerate on purpose only::

    PYTHONPATH=src python tests/test_artifacts.py --write 'benchmarks/*'

They are untimed: the benchmark spine is the timing record.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import BLADED_OUTAGES
from repro.cluster.reliability import HOURS_PER_YEAR
from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.core.experiments import experiment_fig3, experiment_table2
from repro.cpus.catalog import (
    ATHLON_MP_1200,
    PENTIUM_III_500,
    POWER3_375,
    TM5600_633,
)
from repro.cpus.longrun import (
    TM5600_LONGRUN,
    TM5800_LONGRUN,
    dvfs_trajectory_study,
    energy_study,
)
from repro.cpus.power import ThermalModel, node_failure_rate
from repro.isa import programs
from repro.metrics import CostParameters, tco_for
from repro.metrics.costs import DEFAULT_COSTS, YEARS
from repro.metrics.report import format_table
from repro.metrics.throughput import throughput_report
from repro.nbody.ic import plummer_sphere
from repro.nbody.kernels import direct_accelerations
from repro.nbody.parallel import run_parallel_nbody, scaling_study
from repro.nbody.sim import SimConfig
from repro.nbody.traversal import tree_accelerations
from repro.nbody.tree import HashedOctree
from repro.network.faults import NetFaultConfig, RetryPolicy
from repro.network.link import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.network.multilevel import green_destiny_fabric
from repro.network.nic import Nic
from repro.network.switch import Switch
from repro.network.timing import IdealFabric, star_fabric
from repro.network.topology import StarTopology
from repro.npb.parallel import npb_scaling
from repro.perfmodel.calibration import metablade_node_rate
from repro.platform.registry import (
    GREEN_DESTINY,
    METABLADE,
    P4_BEOWULF,
    TABLE5,
    platform_by_name,
)
from repro.sched import (
    BatchScheduler,
    JobState,
    SchedConfig,
    build_campaign,
    campaign_params,
    synthetic_stream,
)
from repro.simmpi import SimMpiRuntime
from repro.simmpi.comm import NodeFailureError
from repro.thermal import ThermalSpec
from repro.vliw.molecules import FULL_FORMAT, NARROW_FORMAT


# -- the headline results: Table 2 and Fig. 3 ------------------------------


def golden_table2():
    """Table 2 (the treecode's scaling) at n = 600 on 1, 2 and 4 CPUs:
    its rows, exact extras and rendered text, line by line."""
    params = {"n": 600, "cpus": [1, 2, 4], "seed": 2001}
    result = experiment_table2(n=params["n"], steps=1,
                               cpu_counts=tuple(params["cpus"]),
                               seed=params["seed"])
    return {"params": params, "headers": result.headers,
            "rows": result.rows, "extras": result.extras,
            "text": result.text.splitlines()}


def golden_fig3():
    """Fig. 3 (the flagship N-body run) at n = 500 for one step: its
    rows, exact flop count and energies, rendered text and art."""
    config = SimConfig(n=500, steps=1, seed=2001, ic="collision",
                       theta=0.7, softening=1e-2)
    exp, result, art = experiment_fig3(config)
    params = {"n": config.n, "steps": config.steps, "seed": config.seed}
    return {"params": params, "headers": exp.headers, "rows": exp.rows,
            "total_flops": result.total_flops,
            "energy_initial": result.energy_initial,
            "energy_final": result.energy_final,
            "text": exp.text.splitlines(), "art": art.splitlines()}


# -- the Code Morphing Software ---------------------------------------------


def _cms_cycles(config, workload):
    result = CodeMorphingSoftware(config).run(
        workload.program, workload.make_state(), max_steps=10**8
    )
    assert workload.check(result.state)
    return result.cycles


def ablation_cms_chaining():
    """Ablation: CMS translation chaining.

    Real CMS patches direct jumps between cached translations so hot
    loops never re-enter the dispatch loop.  The study measures the
    dispatch tax with chaining off and its elimination with chaining on.
    """
    wl = programs.gravity_microkernel_karp(n=48, passes=40)
    rows = []
    for label, chaining, dispatch in (
        ("chaining on, dispatch 12", True, 12),
        ("chaining off, dispatch 12", False, 12),
        ("chaining off, dispatch 50", False, 50),
    ):
        cms = CodeMorphingSoftware(
            CmsConfig(
                hot_threshold=4,
                enable_chaining=chaining,
                dispatch_cycles=dispatch,
            )
        )
        result = cms.run(wl.program, wl.make_state(), max_steps=10**8)
        assert wl.check(result.state)
        rows.append(
            [label, result.cycles, result.dispatches,
             result.chained_jumps]
        )
    chained, unchained, pricey = rows
    assert chained[1] < unchained[1] < pricey[1]
    assert chained[3] > 0 and unchained[3] == 0
    return format_table(
        ["Configuration", "Cycles", "Dispatches", "Chained jumps"],
        rows,
        title="Ablation: translation chaining in the CMS dispatch loop",
    ) + "\n"


def ablation_cms_threshold():
    """Ablation: the hot threshold - translate-eagerly vs
    interpret-mostly.  An intermediate threshold must beat both
    extremes' pathologies on a reuse-heavy kernel."""
    workload = programs.gravity_microkernel_karp(n=48, passes=40)
    rows = []
    for threshold in (1, 8, 32, 128, 10**9):
        cycles = _cms_cycles(CmsConfig(hot_threshold=threshold), workload)
        label = str(threshold) if threshold < 10**9 else "never (interp)"
        rows.append([label, cycles, round(cycles / 1e6, 2)])
    cycles = {label: c for label, c, _ in rows}
    # Translating hot code must crush pure interpretation...
    assert cycles["8"] < 0.5 * cycles["never (interp)"]
    # ...and the default threshold must be within a few percent of
    # eager translation on a reuse-heavy kernel.
    assert cycles["8"] < cycles["1"] * 1.10
    return format_table(
        ["Hot threshold", "Cycles", "Mcycles"],
        rows,
        title="Ablation: CMS translation threshold (Karp kernel)",
    ) + "\n"


def ablation_cms_tcache():
    """Ablation: translation-cache capacity - a starved cache forces
    retranslation and costs cycles."""
    workload = programs.gravity_microkernel_karp(n=48, passes=20)
    rows = []
    for capacity in (64, 256, 1 << 12, 1 << 20):
        config = CmsConfig(hot_threshold=1, tcache_bytes=capacity)
        rows.append([capacity, _cms_cycles(config, workload)])
    by_capacity = dict(rows)
    assert by_capacity[1 << 20] <= by_capacity[64]
    return format_table(
        ["Capacity (bytes)", "Cycles"],
        rows,
        title="Ablation: translation-cache capacity",
    ) + "\n"


def ablation_cms_molecule_width():
    """Ablation: molecule width - 2-atom (64-bit) molecules lose the
    ILP the 128-bit format exploits."""
    workload = programs.gravity_microkernel_karp(n=48, passes=20)
    rows = []
    for name, limits in (("128-bit (4 atoms)", FULL_FORMAT),
                         ("64-bit (2 atoms)", NARROW_FORMAT)):
        rows.append(
            [name, _cms_cycles(CmsConfig(hot_threshold=4, limits=limits),
                               workload)]
        )
    wide = rows[0][1]
    narrow = rows[1][1]
    assert wide < narrow
    return format_table(
        ["Molecule format", "Cycles"],
        rows,
        title="Ablation: molecule width (ILP available to the translator)",
    ) + "\n"


# -- economics --------------------------------------------------------------


def ablation_cooling_thermal():
    """Ablation: ambient temperature.  The Arrhenius model (failure
    rate doubles per +10 C) drives predicted failures; hot rooms punish
    hot CPUs superlinearly while the 6 W Transmeta barely notices
    ("dusty 80 F environment ... zero failures")."""
    rows = []
    for ambient_f in (65, 75, 85, 95):
        ambient_c = (ambient_f - 32) * 5.0 / 9.0
        thermal = ThermalModel(ambient_celsius=ambient_c)
        rows.append(
            [ambient_f] + [
                round(node_failure_rate(spec.processor, thermal)
                      * spec.nodes, 2)
                for spec in (METABLADE, P4_BEOWULF)
            ]
        )
    blade_rates = [r[1] for r in rows]
    trad_rates = [r[2] for r in rows]
    assert blade_rates == sorted(blade_rates)
    assert trad_rates == sorted(trad_rates)
    # The blade is more reliable at every ambient temperature.
    assert all(b < t for b, t in zip(blade_rates, trad_rates))
    return format_table(
        ["Ambient (F)", "MetaBlade fails/yr", "P4 Beowulf fails/yr"],
        rows,
        title="Ablation: ambient temperature vs predicted failures",
    ) + "\n"


def ablation_cost_sensitivity():
    """Ablation: cost parameters.  The paper notes operating costs are
    institution-specific: sweep the utility rate, space lease and
    CPU-hour price to show the blade's TCO advantage is robust across
    them."""
    rows = []
    sweeps = [
        ("baseline", CostParameters()),
        ("2x utility rate", CostParameters(utility_usd_per_kwh=0.20)),
        ("3x space lease", CostParameters(space_usd_per_sqft_year=300.0)),
        ("10x CPU-hour price", CostParameters(downtime_usd_per_cpu_hour=50.0)),
        ("half admin cost", CostParameters(
            traditional_admin_usd_per_year=7_500.0)),
    ]
    for label, params in sweeps:
        blade = tco_for(METABLADE, params).total
        trad = tco_for(P4_BEOWULF, params).total
        rows.append(
            [label, round(blade / 1000, 1), round(trad / 1000, 1),
             round(trad / blade, 2)]
        )
    # The blade keeps a TCO advantage in every scenario.
    assert all(r[3] > 1.5 for r in rows)
    return format_table(
        ["Scenario", "Blade TCO ($K)", "P4 TCO ($K)", "Ratio"],
        rows,
        title="Ablation: TCO sensitivity to institution-specific costs",
    ) + "\n"


# -- guest kernels across the processor catalog -----------------------------


def ablation_karp_variants():
    """Ablation: reciprocal-square-root implementations across CPUs.

    Three paths through the same gravitational kernel: the libm path
    (hardware sqrt + divide), Karp with linear interpolation + two
    Newton steps (the Table 1 configuration), and Karp with Chebyshev
    quadratic interpolation + one Newton step (Karp's own refinement).
    The interesting finding: on these machines the Chebyshev variant's
    extra coefficient loads cost more than the Newton step they save -
    table pressure vs arithmetic, quantified.
    """
    cpus = (TM5600_633, PENTIUM_III_500, POWER3_375)
    rows = []
    for label, builder in (
        ("math sqrt", programs.gravity_microkernel_math),
        ("Karp linear + 2 Newton", programs.gravity_microkernel_karp),
        ("Karp Chebyshev + 1 Newton",
         programs.gravity_microkernel_karp_chebyshev),
    ):
        row = [label]
        for cpu in cpus:
            result = cpu.run_workload(builder(n=64, passes=60))
            row.append(round(result.mflops, 1))
        rows.append(row)
    by_label = {r[0]: r[1:] for r in rows}
    # The Table 1 configuration beats the libm path on every CPU.
    for karp_v, libm_v in zip(
        by_label["Karp linear + 2 Newton"], by_label["math sqrt"]
    ):
        assert karp_v > libm_v
    # The Chebyshev variant's extra loads make it the slower Karp on
    # every machine here - and on the single-LSU Crusoe they cost more
    # than the whole libm path saves.  Table pressure beats arithmetic.
    for cheb_v, lin_v in zip(
        by_label["Karp Chebyshev + 1 Newton"],
        by_label["Karp linear + 2 Newton"],
    ):
        assert cheb_v < lin_v
    return format_table(
        ["Implementation"] + [c.name for c in cpus],
        rows,
        title="Ablation: reciprocal-sqrt implementations (Mflops)",
    ) + "\n"


def guest_suite_pitfalls():
    """Extension: the Section 4 benchmarking argument, made executable.

    The paper opens Section 4 with Hennessy & Patterson's pitfalls:
    clock speed and a single flops number mislead.  This study runs a
    SPEC-flavoured suite of guest kernels (dense matmul, branchy integer
    sort, pure streaming, serial Horner chains) across the processor
    catalog and demonstrates the pitfalls numerically:

    - speedups vs the Pentium III vary wildly per kernel - no single
      number summarises a machine;
    - MHz ratios mispredict performance ratios by large factors.
    """
    cpus = (PENTIUM_III_500, TM5600_633, POWER3_375, ATHLON_MP_1200)
    # Sizes large enough that CMS translation costs amortise (steady state).
    kernels = (
        ("matmul", lambda: programs.matmul(n=18)),
        ("insertion-sort", lambda: programs.insertion_sort(n=200)),
        ("memcopy", lambda: programs.memcopy(n=6000)),
        ("horner", lambda: programs.horner(n=400, degree=16)),
    )
    table = {}
    for kname, builder in kernels:
        wl = builder()
        table[kname] = {
            cpu.name: cpu.run_workload(wl).seconds for cpu in cpus
        }
    base = PENTIUM_III_500.name
    rows = [
        [kname] + [round(table[kname][base] / table[kname][cpu.name], 2)
                   for cpu in cpus]
        for kname, _ in kernels
    ]
    mhz_row = ["(MHz ratio)"] + [
        round(cpu.spec.clock_mhz / 500.0, 2) for cpu in cpus
    ]

    # Pitfall 1: per-kernel speedups of one machine span a wide range.
    for cpu in (TM5600_633, POWER3_375):
        speedups = [
            table[k][base] / table[k][cpu.name] for k, _ in kernels
        ]
        assert max(speedups) / min(speedups) > 1.5, cpu.name

    # Pitfall 2: the clock ratio mispredicts at least one kernel by 40%.
    for cpu in (TM5600_633, POWER3_375):
        mhz_ratio = cpu.spec.clock_mhz / 500.0
        misses = [
            abs(table[k][base] / table[k][cpu.name] - mhz_ratio)
            / mhz_ratio
            for k, _ in kernels
        ]
        assert max(misses) > 0.4, cpu.name
    return format_table(
        ["Kernel"] + [c.name for c in cpus],
        rows + [mhz_row],
        title="Speedup over the Pentium III, per kernel (clock ratios mislead)",
    ) + "\n"


def longrun_dvfs():
    """Extension: LongRun DVFS energy-to-solution frontier.

    Runs the Karp microkernel through the CMS pipeline and prices every
    TM5600 LongRun step: higher steps always finish sooner, but voltage
    scaling puts the energy minimum part-way down the ladder (with the
    static floor penalising the bottom step) - the knob the project's
    energy-efficiency successors were built on.  The second table steps
    the ladder mid-run: the governor moves on the live SimMPI clock, so
    flop rates change while ranks are computing.
    """
    workload = programs.gravity_microkernel_karp(n=48, passes=30)
    rows = []
    for label, model in (("TM5600", TM5600_LONGRUN),
                         ("TM5800", TM5800_LONGRUN)):
        for point in energy_study(workload, model):
            rows.append(
                [
                    label,
                    point.mhz,
                    point.volts,
                    round(point.power_watts, 2),
                    round(point.time_s * 1e3, 2),
                    round(point.energy_j * 1e3, 3),
                ]
            )
    stepped, flat = dvfs_trajectory_study()
    traj_rows = [
        [
            label,
            round(run.elapsed_s, 3),
            round(run.energy_j, 2),
            round(run.avg_power_watts, 2),
            len(run.transitions),
        ]
        for label, run in (("flat (633 MHz)", flat),
                           ("stepped ladder", stepped))
    ]
    # Stepping down the ladder mid-run trades time for energy.
    assert stepped.elapsed_s > flat.elapsed_s
    assert stepped.energy_j < flat.energy_j
    assert len(stepped.transitions) > 0
    assert len(flat.transitions) == 0
    for part in ("TM5600", "TM5800"):
        part_rows = [r for r in rows if r[0] == part]
        energies = [r[5] for r in part_rows]
        # Top step is never the energy optimum.
        assert energies.index(min(energies)) < len(energies) - 1
    # The TM5800 beats the TM5600 on energy at every common workload.
    e5600 = min(r[5] for r in rows if r[0] == "TM5600")
    e5800 = min(r[5] for r in rows if r[0] == "TM5800")
    assert e5800 < e5600
    return format_table(
        ["Part", "MHz", "V", "Power (W)", "Time (ms)", "Energy (mJ)"],
        rows,
        title="LongRun DVFS: energy-to-solution across the ladder",
    ) + "\n\n" + format_table(
        ["Trajectory", "Time (s)", "Energy (J)", "Avg power (W)",
         "Transitions"],
        traj_rows,
        title="Mid-run DVFS: governor stepping the live SimMPI clock",
    ) + "\n"


# -- the treecode -----------------------------------------------------------


def _force_errors(acc, exact, norm):
    return float(np.median(np.linalg.norm(acc - exact, axis=1) / norm))


def ablation_tree_theta():
    """Ablation: the treecode's opening angle (accuracy/work trade-off).

    Sweeping theta maps the Barnes-Hut frontier: interactions (and hence
    flops and runtime on MetaBlade) fall as theta grows, while force
    error rises.  The paper's production runs sit near theta ~ 0.7.
    """
    pos, _, mass = plummer_sphere(3000, seed=42)
    tree = HashedOctree(pos, mass, leaf_size=16)
    exact, _ = direct_accelerations(pos, mass, softening=1e-2)
    norm = np.linalg.norm(exact, axis=1)
    rows = []
    for theta in (0.3, 0.5, 0.7, 0.9, 1.2):
        acc, stats = tree_accelerations(tree, theta=theta, softening=1e-2)
        rows.append(
            [theta, stats.interactions, round(stats.flops / 1e6, 1),
             f"{_force_errors(acc, exact, norm):.2e}"]
        )
    interactions = [r[1] for r in rows]
    errors = [float(r[3]) for r in rows]
    assert interactions == sorted(interactions, reverse=True)
    assert errors[0] < errors[-1]
    return format_table(
        ["theta", "Interactions", "Mflops", "Median force error"],
        rows,
        title="Ablation: multipole acceptance criterion (opening angle)",
    ) + "\n"


def ablation_quadrupole():
    """Ablation: monopole vs quadrupole moments in the treecode.

    The production Warren-Salmon library carried multipoles; this study
    maps what they buy: at each opening angle, the quadrupole run costs
    roughly one extra interaction's worth of flops per particle-cell
    pair and cuts the force error by 2-4x - equivalently, it reaches
    monopole accuracy at a much larger, cheaper theta.
    """
    pos, _, mass = plummer_sphere(2500, seed=21)
    tree = HashedOctree(pos, mass, leaf_size=16, quadrupoles=True)
    exact, _ = direct_accelerations(pos, mass, softening=1e-2)
    norm = np.linalg.norm(exact, axis=1)
    rows = []
    for theta in (0.5, 0.7, 0.9):
        for use_quad in (False, True):
            acc, stats = tree_accelerations(
                tree, theta=theta, softening=1e-2,
                use_quadrupole=use_quad,
            )
            rows.append(
                [
                    theta,
                    "quadrupole" if use_quad else "monopole",
                    stats.interactions,
                    f"{_force_errors(acc, exact, norm):.2e}",
                ]
            )
    by_key = {(r[0], r[1]): float(r[3]) for r in rows}
    for theta in (0.5, 0.7, 0.9):
        assert by_key[(theta, "quadrupole")] < by_key[(theta, "monopole")]
    # Quadrupole at 0.9 is at least as accurate as monopole at 0.7
    # (the "larger theta for free" trade).
    assert by_key[(0.9, "quadrupole")] < by_key[(0.7, "monopole")] * 1.5
    return format_table(
        ["theta", "Moments", "Interactions", "Median force error"],
        rows,
        title="Ablation: monopole vs quadrupole cell moments",
    ) + "\n"


# -- fabrics ----------------------------------------------------------------


def ablation_network_fabric():
    """Ablation: the interconnect behind the Table 2 efficiency drop.

    Running the identical parallel treecode on (a) the modelled Fast
    Ethernet star, (b) a Gigabit-class star, and (c) an idealised
    zero-cost fabric shows how much of the scalability loss is
    communication - the paper's stated cause.
    """
    config = SimConfig(n=6000, steps=1, theta=0.7, softening=1e-2)
    cpus = 24
    nic = Nic(name="GigE NIC", link=GIGABIT_ETHERNET,
              send_overhead_s=10e-6, recv_overhead_s=10e-6)
    switch = Switch(name="24-port GigE", ports=24,
                    port_link=GIGABIT_ETHERNET, backplane_bps=48e9)
    rate = metablade_node_rate()
    serial = scaling_study(config, (1,), rate)[0].time_s
    rows = []
    for label, fabric in (
        ("Fast Ethernet star", None),
        ("Gigabit star", StarTopology(nodes=cpus, nic=nic, switch=switch)),
        ("Ideal (zero-cost)", IdealFabric(cpus)),
    ):
        run = run_parallel_nbody(config, cpus, rate, fabric=fabric)
        rows.append(
            [
                label,
                round(run.elapsed_s, 3),
                round(serial / run.elapsed_s, 2),
                round(run.communication_fraction, 2),
            ]
        )
    by_fabric = {r[0]: r for r in rows}
    fe = by_fabric["Fast Ethernet star"]
    gig = by_fabric["Gigabit star"]
    ideal = by_fabric["Ideal (zero-cost)"]
    # Faster fabric -> faster run, smaller comm share.
    assert ideal[1] <= gig[1] <= fe[1]
    assert fe[3] > ideal[3]
    return format_table(
        ["Fabric", "Time (s)", "Speedup @24", "Comm fraction"],
        rows,
        title="Ablation: interconnect fabric under the parallel treecode",
    ) + "\n"


def green_destiny_scaleout():
    """Extension: scaling the Bladed Beowulf from MetaBlade to Green
    Destiny.

    The paper orders the 240-node Green Destiny in Section 4.2; this
    study runs the parallel treecode past the single chassis onto the
    modelled two-level rack fabric and shows (a) continued speedup to
    96 blades and (b) the chassis-uplink oversubscription ablation
    (Gigabit vs Fast Ethernet uplinks).  It also checks footnote 5's
    space-economics claim: a 240-node bladed cluster leases ~$2.4K of
    floor over four years where traditional packaging pays ~$80K - "33
    times more expensive".
    """
    config = SimConfig(n=9000, steps=1, theta=0.7, softening=1e-2)
    rate = metablade_node_rate()
    serial = run_parallel_nbody(config, 1, rate, ideal_network=True)
    rows = []
    for cpus, uplink, label in (
        (24, GIGABIT_ETHERNET, "24 (one chassis)"),
        (48, GIGABIT_ETHERNET, "48, GigE uplinks"),
        (96, GIGABIT_ETHERNET, "96, GigE uplinks"),
        (96, FAST_ETHERNET, "96, FE uplinks (oversubscribed)"),
    ):
        fabric = green_destiny_fabric(nodes=cpus, uplink=uplink)
        run = run_parallel_nbody(config, cpus, rate, fabric=fabric)
        rows.append(
            [
                label,
                round(run.elapsed_s, 3),
                round(serial.elapsed_s / run.elapsed_s, 1),
                round(run.communication_fraction, 2),
            ]
        )
    # Footnote 5: four-year space lease at 240 nodes.
    blade_space = (
        GREEN_DESTINY.footprint_sqft
        * DEFAULT_COSTS.space_usd_per_sqft_year
        * YEARS
    )
    traditional_space = (
        (240 / 24) * 20.0
        * DEFAULT_COSTS.space_usd_per_sqft_year
        * YEARS
    )
    by_label = {r[0]: r for r in rows}
    # Speedup keeps improving past the chassis boundary...
    assert by_label["48, GigE uplinks"][2] > by_label["24 (one chassis)"][2]
    assert by_label["96, GigE uplinks"][2] > by_label["48, GigE uplinks"][2]
    # ...and oversubscribed uplinks hurt.
    assert (
        by_label["96, FE uplinks (oversubscribed)"][1]
        > by_label["96, GigE uplinks"][1]
    )
    assert traditional_space / blade_space == pytest.approx(33.3, abs=1)
    return format_table(
        ["Blades / fabric", "Time (s)", "Speedup", "Comm fraction"],
        rows,
        title="Green Destiny scale-out on the two-level rack fabric",
    ) + (
        f"\n\nFootnote 5 check: 240-node space lease over 4 years - "
        f"bladed ${blade_space:,.0f} vs traditional "
        f"${traditional_space:,.0f} "
        f"({traditional_space / blade_space:.0f}x)"
    ) + "\n"


def parallel_npb():
    """Extension: the parallel NPB contrast on the MetaBlade fabric.

    EP (embarrassingly parallel, LCG jump-ahead) scales almost linearly;
    IS (alltoall key exchange) drowns in Fast Ethernet - the two ends of
    the suite's communication spectrum, on the same 24-blade machine.
    Both kernels verify bit-for-bit against their serial versions before
    any timing is reported.
    """
    rate = metablade_node_rate()
    rows = []
    for kernel in ("EP", "IS"):
        for point in npb_scaling(kernel, (1, 4, 8, 16, 24), rate, n=1 << 18):
            rows.append(
                [
                    point.kernel,
                    point.cpus,
                    round(point.time_s, 4),
                    round(point.speedup, 2),
                    f"{point.efficiency:.0%}",
                    f"{point.comm_fraction:.0%}",
                ]
            )
    ep24 = next(r for r in rows if r[0] == "EP" and r[1] == 24)
    is24 = next(r for r in rows if r[0] == "IS" and r[1] == 24)
    assert ep24[3] > 12.0           # EP really scales
    assert is24[3] < ep24[3]        # IS cannot keep up
    return format_table(
        ["Kernel", "CPUs", "Time (s)", "Speedup", "Efficiency", "Comm"],
        rows,
        title="Parallel NPB on MetaBlade: EP scales, IS saturates the wire",
    ) + "\n"


# -- failures and operation -------------------------------------------------


def _ring_program(steps):
    """Degradation-aware ring: a dead neighbour is absorbed, the
    victim's own failure is fatal (the SimMPI convention)."""
    def program(comm):
        acc = comm.rank
        for step in range(steps):
            comm.compute_flops(2e6)
            comm.send((comm.rank + 1) % comm.size, acc, tag=step)
            try:
                acc += yield from comm.recv(
                    src=(comm.rank - 1) % comm.size, tag=step
                )
            except NodeFailureError as exc:
                if exc.rank == comm.rank:
                    raise
        return acc
    return program


def failure_injection():
    """Extension: Monte-Carlo operation vs the Table 5 downtime model.

    Simulates four years of operation for each Table 5 cluster with
    Poisson failure arrivals and packaging-specific blast radii, and
    cross-checks the averaged downtime cost against the closed-form
    figures the TCO model uses.  The second table injects blade
    failures into a *running* 24-rank SimMPI program.
    """
    hours, seeds = 35_040.0, 25
    rows = []
    for cluster in TABLE5:
        outages, nodes = cluster.outages, cluster.nodes
        expected = outages.downtime_cpu_hours(nodes, hours / HOURS_PER_YEAR)
        losses = [outages.lost_cpu_hours(nodes, hours, s)
                  for s in range(seeds)]
        lost = float(np.mean(losses))
        avail = float(np.mean([1.0 - x / (hours * nodes) for x in losses]))
        rows.append(
            [
                cluster.title,
                round(expected, 1),
                round(lost, 1),
                f"{avail:.4%}",
                round(lost * 5.0, 0),
            ]
        )
    live_rows = []
    for label, failures in (
        ("healthy", ()),
        ("one blade down", ((0.04, 3),)),
        ("two blades down", ((0.04, 3), (0.06, 5))),
    ):
        runtime = SimMpiRuntime(
            24, fabric=star_fabric(24), flop_rate=1e8
        )
        for time_s, rank in failures:
            runtime.fail_at(time_s, rank, "injected")
        run = runtime.run(_ring_program(8))
        live_rows.append(
            [
                label,
                len(run.failed_ranks),
                run.completed_ranks,
                round(run.elapsed_s, 3),
                # A blade failure costs its own node for the outage.
                round(len(failures) * BLADED_OUTAGES.outage_hours, 1),
            ]
        )
    for name, expected, measured, _, _ in rows:
        if expected > 0:
            assert measured == pytest.approx(expected, rel=0.4), name
    blade = next(r for r in rows if r[0] == "MetaBlade")
    traditional = [r for r in rows if r[0] != "MetaBlade"]
    assert all(blade[2] < t[2] for t in traditional)
    # Degraded-but-completed: survivors finish despite dead neighbours.
    healthy, one_down, two_down = live_rows
    assert healthy[1] == 0 and healthy[2] == 24
    assert one_down[1] == 1 and one_down[2] == 23
    assert two_down[1] == 2 and two_down[2] == 22
    return format_table(
        ["Cluster", "Analytic lost CPU-h", "Monte-Carlo lost CPU-h",
         "Availability", "Downtime cost ($)"],
        rows,
        title="Failure injection: simulated operation vs the TCO model",
    ) + "\n\n" + format_table(
        ["Scenario", "Failed ranks", "Completed ranks", "Elapsed (s)",
         "Lost CPU-h"],
        live_rows,
        title="Live injection: node failures inside a 24-rank SimMPI run",
    ) + "\n"


# -- the batch scheduler ----------------------------------------------------


def sched_throughput():
    """Extension: batch-scheduler throughput — FCFS vs EASY backfill.

    Serves the same seeded 200-job stream on the 24-blade MetaBlade
    under both queue policies, with and without Poisson node-failure
    injection (accelerated MTBF, periodic checkpointing when failures
    are on), and archives the four accounting reports.  The claims
    checked:

    - backfill strictly beats FCFS utilization on a contended stream;
    - every injected failure ends as a requeued-and-completed or an
      explicitly abandoned job (the accounting closes);
    - checkpointed reruns resume mid-job rather than from scratch.
    """
    jobs = 200

    def serve(policy_name, fail):
        sched = build_campaign(campaign_params(2001, {
            "jobs": jobs, "policy": policy_name, "interarrival": 0.002,
            "fail_inject": fail, "mtbf": 0.04, "checkpoint": 1 if fail else 0,
        }))
        outcome = sched.run()
        return outcome, throughput_report(outcome, platform=sched.platform)

    results = {
        (policy, fail): serve(policy, fail)
        for policy in ("fcfs", "backfill") for fail in (False, True)
    }
    rows = []
    for (policy, fail), (outcome, report) in sorted(results.items()):
        rows.append(
            [
                f"{policy}{' + failures' if fail else ''}",
                report.completed,
                report.abandoned,
                round(outcome.makespan_s, 3),
                round(report.utilization, 3),
                round(report.mean_wait_s, 4),
                report.failures,
                round(report.operational_gflops, 3),
            ]
        )

    # Backfill strictly beats FCFS on the contended failure-free stream.
    fcfs = results[("fcfs", False)][1]
    easy = results[("backfill", False)][1]
    assert fcfs.completed == easy.completed == jobs
    assert easy.utilization > fcfs.utilization
    assert easy.outcome.makespan_s < fcfs.outcome.makespan_s

    # With failures on, the accounting closes: every kill became a
    # requeue or the terminal failure of an abandoned job, and every
    # job reached a terminal state.
    for policy in ("fcfs", "backfill"):
        outcome, report = results[(policy, True)]
        assert report.failures > 0
        assert report.failures == report.requeues + report.abandoned
        for record in outcome.records:
            assert record.state in (JobState.COMPLETED, JobState.ABANDONED)
        # Checkpointing produced at least one genuine mid-job resume.
        resumed = [
            a for r in outcome.records for a in r.attempts
            if a.start_unit > 0
        ]
        assert report.checkpoints > 0
        assert resumed
        assert report.lost_cpu_h > 0

    # Failures cost throughput relative to the healthy run.
    assert (
        results[("backfill", True)][0].makespan_s
        >= results[("backfill", False)][0].makespan_s
    )
    return format_table(
        ["Scenario", "Done", "Given up", "Makespan (s)", "Utilization",
         "Mean wait (s)", "Kills", "Op. Gflops"],
        rows,
        title=f"Batch throughput on MetaBlade: {jobs} jobs, "
        "FCFS vs EASY backfill",
    ) + "\n\n" + "\n\n".join(
        report.format() for _, (__, report) in sorted(results.items())
    ) + "\n"


def thermal_sched():
    """Extension: the thermal subsystem under a scheduled job stream.

    Serves the same seeded stream on two registry platforms — an
    actively cooled machine-room Beowulf and the passive Green Destiny
    blades — with the lumped-RC network, thermal throttling and
    temperature-modulated fault injection enabled (audited), then
    replays the paper's causal claim as a counterfactual: under a
    deliberately hot thermal spec, the trip-point governor trades a
    little frequency for finishing the work, while the unthrottled run
    burns through the kill point and loses jobs.  The claims checked:

    - the machine-room platform runs hotter than the blades on the same
      stream (the Section 2.1 ordering);
    - with throttling, trips happen and nothing is killed for overtemp;
    - without throttling the same stream suffers overtemp kills;
    - the whole thermally-modulated run is deterministic (two passes
      give identical thermal summaries).
    """
    jobs, seed, interarrival_s, accel = 60, 2001, 0.004, 1500.0
    # The counterfactual spec: trip/kill brackets squeezed around the
    # active-cooling busy steady state, so an 85 W node *must* throttle
    # (or die) — the Green Destiny story run in both directions.
    hot_spec = ThermalSpec(
        r_c_per_w=0.35, c_j_per_c=40.0, chassis_r_c_per_w=0.01,
        ambient_c=20.0, trip_c=45.0, resume_c=35.0, kill_c=55.0,
        throttle_scale=0.5,
    )

    def serve(platform_name, thermal_spec=None, throttle=True,
              thermal_fail=True):
        spec = platform_by_name(platform_name)
        if thermal_spec is not None:
            spec = replace(spec, thermal=thermal_spec)
        stream = synthetic_stream(
            jobs=jobs,
            max_nodes=min(spec.nodes, 8),
            flop_rate=spec.node_flop_rate(),
            seed=seed,
            mean_interarrival_s=interarrival_s,
        )
        sched = BatchScheduler(
            platform=spec,
            config=SchedConfig(
                audit=True, thermal=True, thermal_accel=accel,
                throttle=throttle,
            ),
        )
        sched.submit_stream(stream)
        if thermal_fail:
            horizon = stream[-1].arrival_s + jobs * interarrival_s
            sched.inject_thermal_failures(horizon, 0.03, seed=seed + 2)
        outcome = sched.run()
        return outcome, throughput_report(outcome, platform=spec)

    results = {
        "p4-beowulf": serve("p4-beowulf"),
        "green-destiny-240": serve("green-destiny-240"),
        "hot throttled": serve("p4-beowulf", thermal_spec=hot_spec,
                               thermal_fail=False),
        "hot unthrottled": serve("p4-beowulf", thermal_spec=hot_spec,
                                 throttle=False, thermal_fail=False),
    }
    rows = []
    for label, (outcome, report) in results.items():
        summary = outcome.thermal
        rows.append(
            [
                label,
                report.completed,
                report.abandoned,
                round(summary.peak_c, 1),
                summary.trips,
                summary.overtemp_kills,
                summary.faults,
                round(report.energy_kwh * 3.6e6, 1),
            ]
        )

    # Section 2.1 ordering: machine room runs hotter than the closet
    # blades on the same stream.
    p4 = results["p4-beowulf"][0].thermal
    gd = results["green-destiny-240"][0].thermal
    assert p4.peak_c > gd.peak_c

    # The causal counterfactual: throttling trades frequency for
    # survival; the unthrottled run burns jobs at the kill point.
    throttled, t_report = results["hot throttled"]
    unthrottled, u_report = results["hot unthrottled"]
    assert throttled.thermal.trips > 0
    assert throttled.thermal.overtemp_kills == 0
    assert t_report.completed == jobs
    assert unthrottled.thermal.overtemp_kills > 0

    # Determinism: the thermally-modulated run replays bit-exactly.
    again, _ = serve("p4-beowulf")
    assert again.thermal == results["p4-beowulf"][0].thermal
    assert again.makespan_s == results["p4-beowulf"][0].makespan_s
    return format_table(
        ["Scenario", "Done", "Given up", "Peak C", "Trips",
         "Overtemp kills", "Thermal faults", "Energy (J)"],
        rows,
        title=f"Thermally modulated scheduling: {jobs} jobs, "
        f"time constants x{accel:.0f}",
    ) + "\n\n" + "\n\n".join(
        report.format() for _, report in results.values()
    ) + "\n"


def netfault_goodput():
    """Extension: goodput under link-fault campaigns of rising intensity.

    Serves the same seeded job stream against the MetaBlade scheduler
    while a seeded fault process takes node links down with shrinking
    MTBF, the SimMPI retry layer riding out short outages and the
    scheduler partitioning blades for long ones.  The claims checked:

    - the fault-free baseline completes every job with zero retransmits
      and no ``net`` ledger at all (the layer is pay-for-use);
    - retransmission work rises monotonically with fault intensity;
    - goodput (completed flops per makespan second) never improves as
      the fault rate rises, and the harshest campaign pays a measurable
      makespan penalty over the baseline;
    - every campaign is audited (clock order, message conservation,
      retransmit-ledger conservation) and replays bit-exactly.
    """
    jobs, seed, interarrival_s = 48, 2002, 0.004
    # Campaigns ordered by intensity: MTBF in virtual seconds per link
    # (None = faults off).  MTTR is held at 3 ms so short windows are
    # retransmit-survivable while the tail partitions.
    campaigns = (
        ("fault-free", None),
        ("calm", 0.5),
        ("stormy", 0.1),
        ("hostile", 0.03),
    )
    mttr_s = 0.003
    policy = RetryPolicy(rto_s=2e-4, backoff=2.0, max_retries=6)

    def serve(mtbf_s):
        sched = BatchScheduler(config=SchedConfig(audit=True))
        stream = synthetic_stream(
            jobs, sched.nodes, sched.flop_rate, seed=seed,
            mean_interarrival_s=interarrival_s,
        )
        if mtbf_s is not None:
            horizon = stream[-1].arrival_s + jobs * interarrival_s
            net = NetFaultConfig(
                mtbf_s=mtbf_s, mttr_s=mttr_s, seed=seed + 3,
                horizon_s=horizon, policy=policy,
            )
            sched = BatchScheduler(
                config=SchedConfig(audit=True), net_fault=net,
            )
        sched.submit_stream(stream)
        outcome = sched.run()
        return outcome, throughput_report(outcome)

    def goodput(outcome):
        return sum(r.flops for r in outcome.records) / outcome.makespan_s

    results = {label: serve(mtbf_s) for label, mtbf_s in campaigns}
    rows = []
    for label, (outcome, report) in results.items():
        net = outcome.net
        rows.append(
            [
                label,
                report.completed,
                net.windows if net else 0,
                net.retransmits if net else 0,
                net.partitions if net else 0,
                net.drops if net else 0,
                round(outcome.makespan_s * 1e3, 2),
                f"{goodput(outcome) / 1e6:.1f}",
            ]
        )

    # Pay-for-use: the baseline carries no net ledger at all.
    clean, clean_report = results["fault-free"]
    assert clean.net is None
    assert clean_report.completed == jobs

    # Retransmission work rises with fault intensity.
    retx = [
        results[label][0].net.retransmits
        for label, mtbf in campaigns if mtbf is not None
    ]
    assert retx == sorted(retx)
    assert retx[-1] > retx[0]

    # Goodput never improves as links get flakier, and the harshest
    # campaign pays real makespan over the baseline.
    goodputs = [goodput(out) for out, _ in results.values()]
    assert goodputs[0] == max(goodputs)
    hostile, _ = results["hostile"]
    assert hostile.makespan_s > clean.makespan_s

    # Determinism: the harshest campaign replays bit-exactly.
    again, _ = serve(dict(campaigns)["hostile"])
    assert again.net == hostile.net
    assert again.makespan_s == hostile.makespan_s
    return format_table(
        ["Campaign", "Done", "Outages", "Retransmits", "Partitions",
         "Drops", "Makespan (ms)", "Goodput (Mflop/s)"],
        rows,
        title=f"Goodput vs link-fault rate: {jobs} jobs, MTTR {mttr_s}s",
    ) + "\n"
