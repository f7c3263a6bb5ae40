"""Cross-campaign queries over the results warehouse (``repro report``).

Everything here reads the columnar tables only — campaign metadata,
injection counters and the indexed ``outcomes`` table — so reports over a
warehouse of millions of injections never unpickle a result blob.  The
per-campaign block reproduces the aggregate lines of ``repro analyze``
byte for byte (same counter formats, same ``solution outcome kinds:``
dict), which is what lets the equivalence tests compare a store-backed
report against an in-memory run directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.outcomes import OutcomeKind
from .store import CampaignRecord, ResultStore


def _nonzero_in_kind_order(counts: Dict[str, int]) -> Dict[str, int]:
    """Nonzero counts, in the canonical OutcomeKind order ``repro analyze``
    prints them in (unknown kinds, if any, trail in store order)."""
    ordered: Dict[str, int] = {}
    for kind in OutcomeKind:
        if counts.get(kind.value):
            ordered[kind.value] = counts[kind.value]
    for kind, count in counts.items():
        if count and kind not in ordered:
            ordered[kind] = count
    return ordered


def format_campaign_list(store: ResultStore) -> str:
    """One line per campaign: identity, size and wall clock."""
    records = store.campaigns()
    if not records:
        return "(no campaigns in the results store)"
    lines = []
    for record in records:
        count = store.count(record.campaign_id)
        elapsed = ("" if record.elapsed_seconds is None
                   else f", {record.elapsed_seconds:.3f}s")
        lines.append(f"{record.describe()} — {count} injections{elapsed}")
    return "\n".join(lines)


def format_campaign_report(store: ResultStore, campaign_id: int) -> str:
    """The full aggregate report for one campaign (no blobs touched)."""
    record = store.campaign(campaign_id)
    aggregates = store.aggregates(campaign_id)
    lines = [record.describe(), aggregates.describe()]
    lines.append(f"injections completed       : "
                 f"{aggregates.injections_completed}")
    lines.append(f"latent solutions           : "
                 f"{aggregates.latent_solutions} "
                 f"(rate {aggregates.latent_rate:.3f})")
    lines.append("solution outcome kinds: "
                 f"{_nonzero_in_kind_order(aggregates.outcome_counts)}")
    return "\n".join(lines)


def format_outcome_distribution(store: ResultStore) -> str:
    """The Table-2-style outcome distribution, summed over every campaign."""
    totals: Dict[str, int] = {}
    total_solutions = 0
    for record in store.campaigns():
        for kind, count in store.outcome_distribution(
                record.campaign_id).items():
            totals[kind] = totals.get(kind, 0) + count
            total_solutions += count
    lines = ["outcome distribution (all campaigns):"]
    if not total_solutions:
        lines.append("  (no solutions recorded)")
        return "\n".join(lines)
    for kind, count in _nonzero_in_kind_order(totals).items():
        lines.append(f"  {kind:<12}: {count:>8} "
                     f"({count / total_solutions:.1%})")
    return "\n".join(lines)


def _group_by_fault_model(records: List[CampaignRecord]
                          ) -> Dict[str, List[CampaignRecord]]:
    groups: Dict[str, List[CampaignRecord]] = {}
    for record in records:
        model = str(record.meta.get("fault_model") or "(none)")
        groups.setdefault(model, []).append(record)
    return groups


def format_fault_model_coverage(store: ResultStore) -> str:
    """Per-fault-model solution coverage, with deltas against the best.

    Coverage is the fraction of injections with at least one
    undetected-error witness — the paper's per-error-category comparison —
    summed over every campaign that swept the model.
    """
    groups = _group_by_fault_model(store.campaigns())
    if not groups:
        return "per-fault-model coverage:\n  (no campaigns)"
    rows = []
    for model in sorted(groups):
        run = hit = latent = 0
        for record in groups[model]:
            aggregates = store.aggregates(record.campaign_id)
            run += aggregates.injections_run
            hit += aggregates.injections_with_solutions
            latent += aggregates.latent_solutions
        coverage = hit / run if run else 0.0
        rows.append((model, len(groups[model]), run, hit, latent, coverage))
    best = max(row[5] for row in rows)
    lines = ["per-fault-model coverage:"]
    for model, campaigns, run, hit, latent, coverage in rows:
        delta = coverage - best
        lines.append(
            f"  {model:<12}: {hit}/{run} injections with solutions "
            f"(coverage {coverage:.3f}, delta {delta:+.3f}) — "
            f"{campaigns} campaign(s), {latent} latent solution(s)")
    return "\n".join(lines)


def format_latent_rates(store: ResultStore) -> str:
    """Latent-error rate (silent corruption per solution) per campaign."""
    records = store.campaigns()
    lines = ["latent-error rates:"]
    if not records:
        lines.append("  (no campaigns)")
        return "\n".join(lines)
    for record in records:
        aggregates = store.aggregates(record.campaign_id)
        lines.append(
            f"  campaign {record.campaign_id}: "
            f"{aggregates.latent_solutions}/{aggregates.total_solutions} "
            f"latent (rate {aggregates.latent_rate:.3f})")
    return "\n".join(lines)


def _group_by_program(records: List[CampaignRecord]
                      ) -> Dict[str, List[CampaignRecord]]:
    groups: Dict[str, List[CampaignRecord]] = {}
    for record in records:
        program = str(record.meta.get("program")
                      or record.meta.get("workload") or "(unknown)")
        groups.setdefault(program, []).append(record)
    return groups


def format_parity_report(store: ResultStore) -> str:
    """The symbolic-vs-bit-flip parity table (``repro report --parity``).

    For every program that has both a ``bitflip`` campaign (the concrete
    Monte-Carlo leg) and at least one symbolic campaign in the warehouse,
    joins the two on injection point ``(breakpoint_pc, target)`` and checks
    that every outcome kind the bit flips produced is covered by the
    symbolic outcome set under the
    :data:`~repro.concrete.parity.SYMBOLIC_COVERS` abstraction (a printed
    ``err`` covers any concrete resolution; an incomplete symbolic search
    covers a concrete hang).  Columnar only — reads
    :meth:`~repro.results.store.ResultStore.outcome_kinds_by_point`,
    never a result blob.
    """
    from ..concrete.parity import covers

    lines: List[str] = []
    for program, records in sorted(
            _group_by_program(store.campaigns()).items()):
        bitflip = [r for r in records
                   if str(r.meta.get("fault_model")) == "bitflip"]
        symbolic = [r for r in records
                    if str(r.meta.get("fault_model")) != "bitflip"]
        if not bitflip or not symbolic:
            continue
        concrete_points: Dict[tuple, set] = {}
        for record in bitflip:
            for point, (kinds, _completed) in store.outcome_kinds_by_point(
                    record.campaign_id).items():
                concrete_points.setdefault(point, set()).update(kinds)
        symbolic_points: Dict[tuple, tuple] = {}
        for record in symbolic:
            for point, (kinds, completed) in store.outcome_kinds_by_point(
                    record.campaign_id).items():
                seen, complete = symbolic_points.get(point,
                                                     (frozenset(), True))
                symbolic_points[point] = (seen | kinds,
                                          complete and completed)
        lines.append(f"parity study for {program} "
                     f"({len(symbolic)} symbolic campaign(s) vs "
                     f"{len(bitflip)} bitflip campaign(s)):")
        covered_points = 0
        uncovered_kinds: set = set()
        for point in sorted(concrete_points):
            concrete_kinds = concrete_points[point]
            sym_kinds, sym_complete = symbolic_points.get(
                point, (frozenset(), True))
            if point not in symbolic_points:
                uncovered = sorted(concrete_kinds)
            else:
                uncovered = sorted(
                    kind for kind in concrete_kinds
                    if not covers(kind, sym_kinds, sym_complete))
            point_label = f"pc={point[0]} {point[1]}"
            sym_label = ",".join(sorted(sym_kinds)) or "-"
            if not sym_complete:
                sym_label += " (incomplete)"
            verdict = ("covered" if not uncovered
                       else "UNCOVERED: " + ",".join(uncovered))
            lines.append(f"  {point_label:<24} symbolic={sym_label:<32} "
                         f"bitflip={','.join(sorted(concrete_kinds)):<24} "
                         f"{verdict}")
            if uncovered:
                uncovered_kinds.update(uncovered)
            else:
                covered_points += 1
        summary = (f"  parity: symbolic covers {covered_points}/"
                   f"{len(concrete_points)} injection points")
        if concrete_points and covered_points == len(concrete_points):
            summary += " — all concrete outcome classes covered"
        elif concrete_points:
            summary += f" — UNCOVERED: {', '.join(sorted(uncovered_kinds))}"
        lines.append(summary)
    if not lines:
        return ("(no parity pairs in the results store — a parity report "
                "needs a bitflip campaign and a symbolic campaign over the "
                "same program)")
    return "\n".join(lines)


def format_report(store: ResultStore,
                  campaign_id: Optional[int] = None) -> str:
    """The ``repro report`` body: one campaign, or the whole warehouse."""
    if campaign_id is not None:
        return format_campaign_report(store, campaign_id)
    sections = [
        format_campaign_list(store),
        "",
        format_outcome_distribution(store),
        "",
        format_fault_model_coverage(store),
        "",
        format_latent_rates(store),
    ]
    return "\n".join(sections)
