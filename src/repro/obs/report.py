"""'Where did the time go' analysis over a telemetry event log.

Consumes the JSONL file written by ``--telemetry``: span events carry
durations, the final ``metrics`` record carries merged counters and
histograms.  Rendered by ``repro report --telemetry PATH``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from .telemetry import Histogram


def _span_table(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    by_name: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("type") != "span":
            continue
        duration = float(event.get("duration", 0.0))
        row = by_name.setdefault(event["name"], {
            "name": event["name"], "count": 0, "total": 0.0, "max": 0.0})
        row["count"] += 1
        row["total"] += duration
        row["max"] = max(row["max"], duration)
    return sorted(by_name.values(), key=lambda row: -row["total"])


def _final_metrics(events: Sequence[Dict[str, Any]]
                   ) -> Dict[str, Any]:
    metrics: Dict[str, Any] = {}
    for event in events:
        if event.get("type") == "metrics":
            metrics = event  # last one wins: it is the campaign-final record
    return metrics


def format_telemetry_report(events: Sequence[Dict[str, Any]]) -> str:
    """Render the per-phase timing / throughput / wait analysis."""
    lines: List[str] = []
    spans = _span_table(events)
    lines.append("== where did the time go (spans) ==")
    if spans:
        lines.append(f"{'span':<28}{'count':>8}{'total s':>12}"
                     f"{'mean s':>12}{'max s':>12}")
        for row in spans:
            mean = row["total"] / row["count"] if row["count"] else 0.0
            lines.append(f"{row['name']:<28}{row['count']:>8}"
                         f"{row['total']:>12.4f}{mean:>12.6f}"
                         f"{row['max']:>12.6f}")
    else:
        lines.append("(no span events in log)")

    metrics = _final_metrics(events)
    counters: Dict[str, float] = metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("== counters ==")
        for name in sorted(counters):
            value = counters[name]
            rendered = int(value) if value == int(value) else value
            lines.append(f"{name:<40}{rendered:>14}")

    histograms: Dict[str, Any] = metrics.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("== phase histograms ==")
        lines.append(f"{'phase':<28}{'count':>8}{'mean s':>12}"
                     f"{'min s':>12}{'max s':>12}")
        for name in sorted(histograms):
            hist = Histogram.from_dict(histograms[name])
            minimum = hist.minimum if hist.minimum is not None else 0.0
            maximum = hist.maximum if hist.maximum is not None else 0.0
            lines.append(f"{name:<28}{hist.count:>8}{hist.mean:>12.6f}"
                         f"{minimum:>12.6f}{maximum:>12.6f}")

    workers: Dict[str, Dict[str, float]] = metrics.get("workers", {})
    if workers:
        lines.append("")
        lines.append("== per-worker throughput ==")
        for component in sorted(workers):
            per = workers[component]
            runs = per.get("search.runs", 0)
            steps = per.get("executor.steps", 0) + per.get("interp.steps", 0)
            waits = sum(value for name, value in per.items()
                        if name.endswith(".wait_seconds"))
            lines.append(f"{component:<28}searches={int(runs):<8}"
                         f"steps={int(steps):<10}idle_s={waits:.3f}")

    requeues = counters.get("broker.requeued", 0)
    # Every renewal is one "renew" round trip of a worker's broker client.
    renewals = counters.get("net.ops.renew", 0)
    if requeues or renewals:
        lines.append("")
        lines.append("== lease health ==")
        lines.append(f"lease renewals: {int(renewals)}")
        lines.append(f"expired-lease requeues: {int(requeues)}")

    dropped = metrics.get("dropped_events", 0)
    if dropped:
        lines.append("")
        lines.append(f"warning: {dropped} events dropped (buffer overflow)")
    return "\n".join(lines)
