"""Every claim of the paper, as one list checked by one loop.

A :class:`Claim` reads a number off a regenerated table (an
``experiment_*`` result at its defaults) and puts it in an interval.
A claim about every CPU, code or cluster reads one number each and
reports the one nearest its interval's edge.  There are three kinds:

- ``intact``: a cell of Table 5, the one table that survived;
- ``prose``: a surviving sentence as a number in an interval ("the
  TM5600's Karp gain is the smallest" is its gain minus each other
  gain, ``<= 0``);
- ``reconstructed``: a Table 1 target from companion publications,
  reported but never failing a run.

:func:`evaluate` isolates each claim's errors, and :func:`render`
prints ``id | paper says | measured | margin | holds``, the margin
being the number's distance inside its interval (negative outside).
``python -m repro.cli claims`` prints it, and
``benchmarks/results/paper_claims.txt`` commits it.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.core import experiments
from repro.metrics.report import format_table

#: Each kind of claim and the title of its table.
KINDS = {
    "intact": "Intact: Table 5 as printed (totals on the unrounded sum)",
    "prose": "Prose: each surviving claim as a number in an interval",
    "reconstructed": "Reconstructed Table 1 targets (~ is within 10 %): "
                     "reported, never failing",
}


class Interval:
    """A claim's interval as it reads: ``"> 2"``, ``">= 0"``, ``"<= 0"``,
    ``"= 17"``, ``"~87"`` (within 10 %), ``"(8, 24)"``, ``"[1.5, 2)"``."""

    def __init__(self, text: str):
        m = re.fullmatch(r"([\[(])(\S+), (\S+)([\])])|(>=|<=|>|=|~) ?(\S+)",
                         text)
        if m is None:
            raise ValueError(f"not an interval: {text!r}")
        if m[1]:
            self.bounds = (float(m[2]), float(m[3]), m[1] == "[", m[4] == "]")
        else:
            x, inf = float(m[6]), math.inf
            self.bounds = {">": (x, inf, False, False),
                           ">=": (x, inf, True, False),
                           "<=": (-inf, x, False, True),
                           "=": (x, x, True, True),
                           "~": (0.9 * x, 1.1 * x, True, True)}[m[5]]
        self.text = text

    def margin(self, value: float) -> float:
        """How far *value* lies inside the interval; negative outside."""
        return min(value - self.bounds[0], self.bounds[1] - value)

    def contains(self, value: float) -> bool:
        lo, hi, lo_closed, hi_closed = self.bounds
        return (lo < value < hi or value == lo and lo_closed
                or value == hi and hi_closed)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Claim:
    """``measure()`` returns the claim's number, or one per CPU or
    cluster; ``bound`` is given as its text."""

    id: str
    source: str
    quote: str
    kind: str
    measure: Callable
    bound: Interval

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"{self.id}: unknown kind {self.kind!r}")
        object.__setattr__(self, "bound", Interval(self.bound))


@dataclass(frozen=True)
class Verdict:
    """A claim measured: its number, or the error measuring it raised."""

    claim: Claim
    value: Optional[float] = None
    error: Optional[str] = None

    @property
    def holds(self) -> bool:
        return self.error is None and self.claim.bound.contains(self.value)

    @property
    def fails(self) -> bool:
        """Whether this row fails the run; a reconstructed row never does."""
        return self.claim.kind != "reconstructed" and not self.holds


@functools.cache
def experiment_result(name: str) -> experiments.ExperimentResult:
    """``experiment_<name>()`` at its defaults, run once per process and
    shared by every reader (the claims and the tests); read it only."""
    return getattr(experiments, f"experiment_{name}")()


def _rows(table):
    return [row[0] for row in experiment_result(table).rows]


def _cell(table, row, column):
    result = experiment_result(table)
    return dict(zip(_rows(table), result.rows))[row][
        result.headers.index(column)]


def _ratio(table, column, top, bottom="Avalon"):
    return _cell(table, top, column) / _cell(table, bottom, column)


#: Table 1's CPUs with their reconstructed (math, Karp) Mflops; the
#: last two are not comparably clocked.
TABLE1 = {"piii": ("Intel Pentium III", 87, 137),
          "alpha": ("Compaq Alpha EV56", 76, 178),
          "tm5600": ("Transmeta TM5600", 115, 145),
          "power3": ("IBM Power3", 298, 379),
          "athlon": ("AMD Athlon MP", 485, 567)}


def _t1(cpu, column):
    """Table 1's unrounded *column* ("math" or "karp") for *cpu*."""
    return experiment_result("table1").extras[f"{TABLE1[cpu][0]} {column}"]


def _gain(cpu):
    return _t1(cpu, "karp") / _t1(cpu, "math")


def _t3(top, bottom):
    """*top*'s Mops over *bottom*'s on each CFD code of Table 3."""
    return [_cell("table3", code, TABLE1[top][0])
            / _cell("table3", code, TABLE1[bottom][0])
            for code in ("BT", "SP", "LU", "MG")]


def _tco_k(cluster):
    return experiment_result("table5").extras[f"{cluster} total_usd"] / 1e3


#: Table 5 as printed ($K): acquisition, admin, power and cooling,
#: space, downtime, TCO.
TABLE5 = {"Alpha Beowulf": (17, 60, 11, 8, 12, 108),
          "Athlon Beowulf": (15, 60, 6, 8, 12, 101),
          "PIII Beowulf": (16, 60, 6, 8, 12, 102),
          "P4 Beowulf": (17, 60, 11, 8, 12, 108),
          "MetaBlade": (26, 5, 2, 2, 0, 35)}
_COLUMNS = {"acquisition": "Acquisition", "admin": "System Admin",
            "power": "Power & Cooling", "space": "Space",
            "downtime": "Downtime"}
#: A total lies within $1.5K of the paper's, or as tight as its printed
#: cell was pinned (MetaBlade $35K; Alpha $107K or $108K, round-half-even).
_TOTALS = {"MetaBlade": "(34.5, 35.5)", "Alpha Beowulf": "(106.5, 108.5]"}


def _table5() -> List[Claim]:
    claims = [Claim("t5.rows", "Table 5", "five 24-node clusters", "intact",
                    lambda: len(experiment_result("table5").rows), "= 5")]
    for name, paper in TABLE5.items():
        key = name.split()[0].lower()
        claims += [Claim(f"t5.{key}.{column}", "Table 5", "", "intact",
                         lambda n=name, c=header: int(
                             _cell("table5", n, c).strip("$K")),
                         f"= {cell}")
                   for (column, header), cell in zip(_COLUMNS.items(), paper)]
        claims.append(Claim(
            f"t5.{key}.total", "Table 5", "", "intact",
            lambda n=name: _tco_k(n),
            _TOTALS.get(name, f"[{paper[5] - 1.5}, {paper[5] + 1.5}]")))
    return claims


_THIRD = '"and about one-third as well as the Athlon and Power3"'
_FOUR = '"the Bladed Beowulfs outperform the traditional Beowulf by a ' \
        'factor of four"'
_BEHIND = 'MetaBlade2 "only places behind the SGI Origin 2000"'
_MB, _MB2 = "LANL MetaBlade", "SC'01 MetaBlade2"
_SQFT, _KW = "Perf/Space (Mflop/ft^2)", "Perf/Power (Gflop/kW)"
_PROSE = [  # id, source, quote, measure, interval
    ("t1.karp_beats_math", "Table 1", "Karp's sqrt beats libm's on every CPU",
     lambda: [_t1(c, "karp") - _t1(c, "math") for c in TABLE1], "> 0"),
    ("t1.tm5600_math_lead", "Table 1", '"the Transmeta performs as well as '
     '(if not better than) the Intel and Alpha"', lambda: [
         _t1("tm5600", "math") - _t1(c, "math") for c in ("piii", "alpha")],
     ">= 0"),
    ("t1.tm5600_karp_gain", "Table 1", '"the performance of the Transmeta '
     'suffers a bit with the Karp benchmark"', lambda: [
         _gain("tm5600") - _gain(c) for c in TABLE1 if c != "tm5600"],
     "<= 0"),
    ("t1.unmatched_clocks_lead", "Table 1", "Power3 and Athlon, not "
     "comparably clocked, lead both columns", lambda: [
         _t1(fast, col) - _t1(slow, col) for fast in ("power3", "athlon")
         for slow in ("piii", "alpha", "tm5600") for col in ("math", "karp")],
     "> 0"),
    ("t2.speedup_24", "Table 2", '"The scalability results ... are in line '
     'with those for traditional clusters"',
     lambda: _cell("table2", 24, "Speed-Up"), "(8, 24)"),
    ("t2.comm_share_rise", "Table 2", '"the communication overhead is enough '
     'to cause the drop in efficiency"', lambda: _cell(
         "table2", 24, "Comm frac") - _cell("table2", 1, "Comm frac"), "> 0"),
    ("t3.tm5600_per_piii", "Table 3", '"the 633-MHz Transmeta Crusoe TM5600 '
     'performs as well as the 500-MHz Intel Pentium III"',
     lambda: _t3("tm5600", "piii"), "(0.6, 1.1)"),
    ("t3.athlon_per_tm5600", "Table 3", _THIRD,
     lambda: _t3("athlon", "tm5600"), "(2, 4)"),
    ("t3.power3_per_tm5600", "Table 3", _THIRD,
     lambda: _t3("power3", "tm5600"), "(1.8, 4)"),
    ("t4.origin2000_rank", "Table 4", _BEHIND,
     lambda: 1 + _rows("table4").index("LANL SGI Origin 2000"), "= 1"),
    ("t4.metablade2_rank", "Table 4", _BEHIND,
     lambda: 1 + _rows("table4").index(_MB2), "= 2"),
    ("t4.metablade_mflops_per_proc", "§3.3", "2.1 Gflops sustained on 24 "
     "TM5600s", lambda: _cell("table4", _MB, "Mflop/proc"), "[86.5, 88.5]"),
    ("t4.tm5600_per_ppro", "Table 4", '"about twice that of the Intel '
     'Pentium Pro 200 which was used in the Loki cluster"',
     lambda: _ratio("table4", "Mflop/proc", _MB, "LANL Loki"), "(1.5, 2.5)"),
    ("t4.tm5600_per_alpha", "Table 4", '"performs about the same as the '
     '533-MHz Compaq Alpha processors used in the Avalon cluster"',
     lambda: _ratio("table4", "Mflop/proc", _MB, "LANL Avalon"),
     "(0.5, 1.1)"),
    ("t4.metablade2_gflops", "§3.3", "3.3 Gflops on MetaBlade2",
     lambda: _cell("table4", _MB2, "Gflop"), "[3.15, 3.45]"),
    ("t5.tco_ratio", "§4.1", "each traditional Beowulf's TCO is three times "
     "the blades'", lambda: [_tco_k(name) / _tco_k("MetaBlade")
                             for name in TABLE5 if name != "MetaBlade"],
     "(2.5, 3.5)"),
    ("t6.metablade_per_avalon", "Table 6", '"beats the traditional Beowulf '
     '... by a factor of two"', lambda: _ratio("table6", _SQFT, "MetaBlade"),
     "(2, 3)"),
    ("t6.green_destiny_per_avalon", "Table 6", '"an over twenty-fold '
     'improvement"', lambda: _ratio("table6", _SQFT, "Green Destiny"),
     "> 20"),
    ("t7.metablade_per_avalon", "Table 7", _FOUR,
     lambda: _ratio("table7", _KW, "MetaBlade"), "(3.5, 4.5)"),
    ("t7.green_destiny_per_avalon", "Table 7", _FOUR,
     lambda: _ratio("table7", _KW, "Green Destiny"), "(3.5, 4.5)"),
    ("topper.performance_ratio", "§4.1", "the blades sustain 75 % of a "
     "comparably clocked traditional Beowulf's performance",
     lambda: experiment_result("topper").extras["performance_ratio"],
     "= 0.75"),
    ("topper.advantage", "§4.1", '"the total price-performance ratio for our '
     'Transmeta-based Bladed Beowulf is over twice as good"',
     lambda: experiment_result("topper").extras["topper_ratio"], "> 2"),
]

#: Every claim, in the order the table prints them.
CLAIMS: List[Claim] = _table5() + [
    Claim(claim_id, source, quote, "prose", measure, bound)
    for claim_id, source, quote, measure, bound in _PROSE
] + [
    Claim(f"t1.{cpu}.{column}", "Table 1", "", "reconstructed",
          lambda c=cpu, col=column: _t1(c, col), f"~{target}")
    for cpu, (_, *targets) in TABLE1.items()
    for column, target in zip(("math", "karp"), targets)
]


def evaluate() -> List[Verdict]:
    """Measure every claim of :data:`CLAIMS`; a claim that raises
    becomes an error verdict and the rest are still measured."""
    verdicts = []
    for claim in CLAIMS:
        try:
            values = claim.measure()
            verdicts.append(Verdict(claim, min(
                map(float, values if isinstance(values, list) else [values]),
                key=claim.bound.margin)))
        except Exception as exc:
            verdicts.append(Verdict(claim, error=f"{type(exc).__name__}: "
                                                 f"{exc}"))
    return verdicts


def render(verdicts: Sequence[Verdict]) -> str:
    """A summary line, one table per kind, the errors, each claim's words."""
    gated = [v for v in verdicts if v.claim.kind != "reconstructed"]
    blocks = [f"Paper claims: {sum(v.holds for v in gated)} of {len(gated)} "
              f"intact and prose claims hold"]
    for kind, title in KINDS.items():
        rows = [[v.claim.id, str(v.claim.bound), *(
                    ["", "", "ERROR"] if v.error else
                    [f"{v.value:.4g}", f"{v.claim.bound.margin(v.value):+.3g}",
                     "yes" if v.holds else "no"])]
                for v in verdicts if v.claim.kind == kind]
        if rows:
            blocks.append(format_table(
                ["id", "paper says", "measured", "margin", "holds"], rows,
                title=title))
    blocks.append("\n".join(f"ERROR {v.claim.id}: {v.error}"
                            for v in verdicts if v.error))
    blocks.append("\n".join(["Where the paper says it"] + [
        f"{v.claim.id}: {v.claim.source}: {v.claim.quote}"
        for v in verdicts if v.claim.quote]))
    return "\n\n".join(block for block in blocks if block) + "\n"
