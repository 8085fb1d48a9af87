"""Telemetry exporters: JSON-lines metrics, Chrome trace JSON, tables.

Three consumers, three formats:

- :func:`write_metrics_jsonl` — one JSON object per line per metric,
  the machine-readable artifact later runs (and ``repro.cli stats``)
  aggregate;
- :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON (the ``traceEvents`` array form) loadable in
  Perfetto / ``chrome://tracing``: spans become balanced, properly
  nested ``B``/``E`` duration events per track, point events become
  instants, messages become async begin/end pairs.  Virtual seconds
  are exported as microseconds (the format's native unit).
- :func:`render_stats_table` — the aggregate table behind
  ``python -m repro.cli stats``, merging every ``metrics.jsonl``
  found under the given directories.

All output is deterministically ordered (sorted tracks, stable span
order, ``sort_keys=True``), so telemetry artifacts from identical
runs are byte-identical — which is what lets CI diff them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from repro.telemetry.registry import Registry
from repro.telemetry.spans import SpanRecorder

_US = 1e6          # virtual seconds -> trace microseconds


# ---------------------------------------------------------------------------
# JSON-lines metrics
# ---------------------------------------------------------------------------

def metrics_jsonl(registry: Registry) -> str:
    """The registry as JSON-lines text (one metric per line)."""
    return "\n".join(
        json.dumps(sample, sort_keys=True, separators=(",", ":"))
        for sample in registry.samples()
    )


def write_metrics_jsonl(registry: Registry,
                        path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = metrics_jsonl(registry)
    path.write_text(text + "\n" if text else "")
    return path


# ---------------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto-loadable)
# ---------------------------------------------------------------------------

def _ids(recorder: SpanRecorder) -> Dict[str, Dict[str, int]]:
    """Stable integer pids/tids for every process and track name."""
    pids: Dict[str, int] = {}
    tids: Dict[str, int] = {}
    names = set()
    for span in recorder.spans:
        names.add((span.pid, span.track))
    for inst in recorder.instants:
        names.add((inst.pid, inst.track))
    for ev in recorder.asyncs:
        names.add((ev.pid, ev.name))
    for pid, _track in sorted(names):
        if pid not in pids:
            pids[pid] = len(pids) + 1
    for pid, track in sorted(names):
        if track not in tids:
            tids[track] = len(tids) + 1
    return {"pids": pids, "tids": tids}


def chrome_trace(recorder: SpanRecorder) -> List[Dict[str, Any]]:
    """The recorder's spans/instants/asyncs as trace-event records."""
    ids = _ids(recorder)
    pids, tids = ids["pids"], ids["tids"]
    events: List[Dict[str, Any]] = []
    for name, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
    seen_threads = set()
    for span in recorder.spans:
        key = (span.pid, span.track)
        if key not in seen_threads:
            seen_threads.add(key)
    for inst in recorder.instants:
        seen_threads.add((inst.pid, inst.track))
    for pid_name, track in sorted(seen_threads):
        events.append({
            "ph": "M", "name": "thread_name", "pid": pids[pid_name],
            "tid": tids[track], "args": {"name": track},
        })

    # Spans: emit each track's forest depth-first so B/E pairs are
    # balanced and properly nested — children always open after and
    # close before their parent.
    forest = recorder.span_forest()
    for track in sorted(forest):
        spans = forest[track]
        children: Dict[Any, List[Any]] = {}
        roots = []
        for span in spans:
            if span.parent_id is None:
                roots.append(span)
            else:
                children.setdefault(span.parent_id, []).append(span)

        def emit(span) -> None:
            base = {
                "pid": pids[span.pid], "tid": tids[span.track],
                "cat": span.cat, "name": span.name,
            }
            args = {k: v for k, v in span.args.items() if v is not None}
            if span.truncated:
                args["truncated"] = True
            events.append({
                "ph": "B", "ts": round(span.t0 * _US, 3), **base,
                "args": args,
            })
            for child in children.get(span.span_id, ()):
                emit(child)
            events.append({
                "ph": "E", "ts": round(span.t1 * _US, 3), **base,
            })

        for root in roots:
            emit(root)

    for inst in recorder.instants:
        events.append({
            "ph": "i", "s": "t", "ts": round(inst.time * _US, 3),
            "pid": pids[inst.pid], "tid": tids[inst.track],
            "cat": inst.cat, "name": inst.name,
            "args": {k: v for k, v in inst.args.items() if v is not None},
        })
    for ev in recorder.asyncs:
        base = {
            "pid": pids[ev.pid], "tid": 0, "cat": ev.cat,
            "name": ev.name, "id": ev.event_id,
        }
        events.append({
            "ph": "b", "ts": round(ev.t0 * _US, 3), **base,
            "args": {k: v for k, v in ev.args.items() if v is not None},
        })
        events.append({"ph": "e", "ts": round(ev.t1 * _US, 3), **base})
    return events


def write_chrome_trace(recorder: SpanRecorder, path: Union[str, Path],
                       wall_events: Iterable[Dict[str, Any]] = (),
                       ) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "traceEvents": chrome_trace(recorder) + list(wall_events),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(doc, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# Aggregate stats table (repro.cli stats)
# ---------------------------------------------------------------------------

def _merge_sample(into: Dict[str, Any], sample: Dict[str, Any]) -> None:
    kind = sample["kind"]
    if kind == "counter":
        into["value"] = into.get("value", 0.0) + sample["value"]
    elif kind == "gauge":
        # Aggregating gauges across runs keeps the high-water mark.
        into["value"] = max(into.get("value", float("-inf")),
                            sample["value"])
    else:
        into["count"] = into.get("count", 0) + sample["count"]
        into["sum"] = into.get("sum", 0.0) + sample["sum"]
        mins = [v for v in (into.get("min"), sample.get("min"))
                if v is not None]
        maxs = [v for v in (into.get("max"), sample.get("max"))
                if v is not None]
        into["min"] = min(mins) if mins else None
        into["max"] = max(maxs) if maxs else None


#: What :func:`aggregate` reads from a sample, by kind.
_SAMPLE_KEYS = {
    "counter": ("metric", "value"),
    "gauge": ("metric", "value"),
    "histogram": ("metric", "count", "sum"),
}


def load_metrics(dirs: Iterable[Union[str, Path]]) -> List[Dict[str, Any]]:
    """Every sample line from every ``*.jsonl`` under *dirs*.

    A path that does not exist raises :class:`FileNotFoundError`; a line
    that is not a metric sample raises :class:`ValueError` naming it as
    ``file:line``.
    """
    samples: List[Dict[str, Any]] = []
    for root in dirs:
        root = Path(root)
        if not root.exists():
            raise FileNotFoundError(f"no such file or directory: {root}")
        paths = sorted(root.rglob("*.jsonl")) if root.is_dir() else [root]
        for path in paths:
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    sample = json.loads(line)
                    keys = _SAMPLE_KEYS[sample["kind"]]
                except (ValueError, KeyError, TypeError):
                    keys = None
                if keys is None or not all(k in sample for k in keys):
                    raise ValueError(
                        f"{path}:{lineno}: not a metric sample: {line[:60]!r}"
                    )
                samples.append(sample)
    return samples


def aggregate(samples: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Merge samples by (metric, kind, labels); sorted output order."""
    merged: Dict[Any, Dict[str, Any]] = {}
    runs: Dict[Any, int] = {}
    for sample in samples:
        key = (
            sample["metric"], sample["kind"],
            tuple(sorted(sample.get("labels", {}).items())),
        )
        entry = merged.setdefault(
            key, {"metric": sample["metric"], "kind": sample["kind"],
                  "labels": dict(sample.get("labels", {}))}
        )
        _merge_sample(entry, sample)
        runs[key] = runs.get(key, 0) + 1
    out = []
    for key in sorted(merged, key=lambda k: (k[0], k[2])):
        entry = merged[key]
        entry["samples"] = runs[key]
        out.append(entry)
    return out


def render_stats_table(dirs: Iterable[Union[str, Path]],
                       title: str = "Telemetry metrics") -> str:
    """The aggregate table ``python -m repro.cli stats`` prints."""
    from repro.metrics.report import format_table

    rows: List[List[Any]] = []
    for entry in aggregate(load_metrics(dirs)):
        labels = ",".join(
            f"{k}={v}" for k, v in sorted(entry["labels"].items())
        )
        if entry["kind"] == "histogram":
            count = entry.get("count", 0)
            mean = entry.get("sum", 0.0) / count if count else 0.0
            value = (
                f"n={count} mean={mean:.6g} "
                f"min={entry.get('min'):.6g} max={entry.get('max'):.6g}"
                if count else "n=0"
            )
        else:
            value = f"{entry.get('value', 0.0):.6g}"
        rows.append([
            entry["metric"], entry["kind"], labels, value,
            entry["samples"],
        ])
    if not rows:
        return f"{title}: no metrics found"
    return format_table(
        ["Metric", "Kind", "Labels", "Value", "Samples"],
        rows, title=title,
    )
