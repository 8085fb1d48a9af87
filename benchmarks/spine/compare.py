"""Compare benchmark records: one row per (end-to-end metric, workload).

    python3 benchmarks/spine/compare.py BASE.json NEW.json
    python3 benchmarks/spine/compare.py --base A1.json A2.json ... \\
                                        --new  B1.json B2.json ...

The files are what ``run.py --out FILE`` writes.  Each row gives the
base value, the new value, their ratio (new / base — the base is always
the first side) and a verdict, using the bounds in ``BENCHMARK.json``:

- ``regressed``  — the new median is worse than the base by more than
  the metric's bound;
- ``improved``   — with one file per side: every new sample beats every
  base sample and the medians differ by more than the base's
  inter-quartile spread; with several files per side, the paired rule:
  the new side wins at least 9 of 10 pairs (file i against file i, ties
  counting for neither) and the medians differ by more than the base's
  inter-quartile spread;
- ``unresolved`` — neither of the above, and the spread on either side
  is wider than the bound, so "no regression" cannot be told from noise;
- ``unchanged``  — otherwise.

Exits non-zero on any ``regressed`` row or on a higher ``failed_share``:
this is the gate a CI job calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def quartile_gap(values: Sequence[float]) -> float:
    """Absolute distance between the first and third quartile."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float, paired: bool) -> Tuple[float, float, str]:
    """``(base median, new median, verdict)`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    worse_by = sign * (new_med - base_med) / base_med
    if worse_by > bound:
        return base_med, new_med, "regressed"

    def beats(b: float, a: float) -> bool:
        return sign * (b - a) < 0

    if paired:
        wins = sum(beats(b, a) for a, b in zip(base, new))
        losses = sum(beats(a, b) for a, b in zip(base, new))
        decided = wins + losses
        clear = decided > 0 and wins >= 0.9 * decided
    else:
        # One reading a side (peak_rss_mb has no in-run samples) shows
        # nothing about spread, so it can regress but not improve.
        clear = min(len(base), len(new)) > 1 and all(
            beats(b, a) for a in base for b in new
        )
    if clear and abs(new_med - base_med) > quartile_gap(base):
        return base_med, new_med, "improved"
    widest = max(
        quartile_gap(side) / statistics.median(side) for side in (base, new)
    )
    if widest > bound:
        return base_med, new_med, "unresolved"
    return base_med, new_med, "unchanged"


def side_values(records: List[Dict[str, Any]], workload: str,
                name: str) -> List[float]:
    """One value per file, or one file's in-run samples."""
    metrics = [r["workloads"][workload]["end_to_end"][name] for r in records]
    if len(metrics) == 1:
        return metrics[0].get("samples") or [metrics[0]["value"]]
    return [m["value"] for m in metrics]


def compare(base: List[Dict[str, Any]], new: List[Dict[str, Any]],
            spec: Dict[str, Any]) -> Tuple[List[List[Any]], bool]:
    """Rows ``[workload, metric, base, new, ratio, verdict]`` and pass/fail."""
    paired = len(base) > 1 and len(base) == len(new)
    rows: List[List[Any]] = []
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in r["workloads"] for r in base + new):
            continue
        for m in spec["end_to_end"]:
            b, n, word = verdict(
                side_values(base, workload, m["name"]),
                side_values(new, workload, m["name"]),
                m["better"], m["bound"], paired,
            )
            rows.append([workload, m["name"], b, n, n / b, word])
            ok &= word != "regressed"
        failed_base = max(r["workloads"][workload]["failed_share"]
                          for r in base)
        failed_new = max(r["workloads"][workload]["failed_share"]
                         for r in new)
        word = "regressed" if failed_new > failed_base else "unchanged"
        rows.append([workload, "failed_share", failed_base, failed_new,
                     None, word])
        ok &= word != "regressed"
    return rows, ok


def load(paths: Sequence[Path]) -> List[Dict[str, Any]]:
    return [json.loads(path.read_text()) for path in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("files", nargs="*", type=Path,
                        help="BASE.json NEW.json")
    parser.add_argument("--base", nargs="+", type=Path, default=[])
    parser.add_argument("--new", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)
    if args.files:
        if len(args.files) != 2 or args.base or args.new:
            parser.error("give BASE.json NEW.json, or --base ... --new ...")
        args.base, args.new = [args.files[0]], [args.files[1]]
    if not args.base or not args.new:
        parser.error("need at least one file on each side")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, ok = compare(load(args.base), load(args.new), spec)
    print(f"{'workload':<18}{'metric':<14}{'base':>15}{'new':>15}"
          f"{'new/base':>10}  verdict")
    for workload, name, b, n, ratio, word in rows:
        shown = "" if ratio is None else f"{ratio:.3f}"
        print(f"{workload:<18}{name:<14}{b:>15.5g}{n:>15.5g}"
              f"{shown:>10}  {word}")
    print("ratios are new / base; bounds from BENCHMARK.json; "
          f"{len(args.base)} base and {len(args.new)} new file(s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
