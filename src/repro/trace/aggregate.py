"""Cluster-wide metrics: merge per-site/per-manager StatSets into one report.

Each manager keeps its own :class:`~repro.common.stats.StatSet`; until now
those counters were only ever read one site at a time.  This module merges
them across every manager of every site and derives the ratios the paper's
claims hinge on — steal success rate, code-cache hit rate, checkpoint-wave
cost — plus (when a tracer journal is available) a per-message-type
count/byte breakdown.

Works identically for :class:`~repro.site.simcluster.SimCluster` and
:class:`~repro.runtime.live_cluster.LiveCluster`: both expose ``.sites``
(daemons with ``.managers``), an optional ``.tracer`` and the run's
``.horizon`` (:class:`~repro.site.facade.ClusterFacade`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.stats import StatSet
from repro.trace.tracer import Tracer


def _rate(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class ClusterReport:
    """Merged counters + derived metrics for one cluster run."""

    def __init__(self, per_site: Dict[int, StatSet], merged: StatSet,
                 derived: Dict[str, float],
                 message_breakdown: Dict[str, Dict[str, float]],
                 horizon: float, nsites: int) -> None:
        self.per_site = per_site
        self.merged = merged
        self.derived = derived
        self.message_breakdown = message_breakdown
        self.horizon = horizon
        self.nsites = nsites

    def as_dict(self) -> dict:
        return {
            "nsites": self.nsites,
            "horizon": self.horizon,
            "derived": dict(self.derived),
            "counters": self.merged.as_dict(),
            "messages": {k: dict(v)
                         for k, v in self.message_breakdown.items()},
            "latency_tails": {name: hist.as_dict()
                              for name, hist in self.merged.hist_items()},
        }

    # ------------------------------------------------------------------
    def render(self, top: int = 24) -> str:
        """Human-readable cluster report (``repro stats``)."""
        lines = [f"cluster report — {self.nsites} site(s), "
                 f"horizon {self.horizon:.4f}s"]
        if self.nsites == 0:
            lines.append("(empty cluster — nothing to report)")
            return "\n".join(lines)
        lines.append("derived metrics:")
        for name in sorted(self.derived):
            value = self.derived[name]
            if isinstance(value, float) and "rate" in name:
                lines.append(f"  {name:<28s} {100.0 * value:7.1f}%")
            else:
                lines.append(f"  {name:<28s} {value:10.4g}")
        tails = list(self.merged.hist_items())
        if tails:
            lines.append("latency tails:")
            lines.append(f"  {'histogram':<22s} {'count':>7s} {'p50':>10s} "
                         f"{'p95':>10s} {'max':>10s}")
            for name, hist in tails:
                lines.append(f"  {name:<22s} {hist.count:7d} "
                             f"{hist.p50:10.4g} {hist.p95:10.4g} "
                             f"{hist.max:10.4g}")
        if self.message_breakdown:
            lines.append("messages by type:")
            lines.append(f"  {'type':<22s} {'count':>8s} {'bytes':>12s}")
            ordered = sorted(self.message_breakdown.items(),
                             key=lambda kv: -kv[1]["count"])
            for mtype, row in ordered:
                lines.append(f"  {mtype:<22s} {int(row['count']):8d} "
                             f"{int(row['bytes']):12d}")
        counters = sorted(((name, counter.count, counter.total)
                           for name, counter in self.merged.items()),
                          key=lambda row: -row[1])
        lines.append(f"top counters (of {len(counters)}):")
        lines.append(f"  {'counter':<28s} {'count':>10s} {'total':>14s}")
        for name, count, total in counters[:top]:
            lines.append(f"  {name:<28s} {count:10d} {total:14.4g}")
        return "\n".join(lines)


def aggregate_sites(sites: List, tracer: Optional[Tracer] = None,  # noqa: ANN001
                    horizon: float = 0.0) -> ClusterReport:
    """Merge stats across ``sites`` and derive cluster-level metrics."""
    per_site: Dict[int, StatSet] = {}
    merged = StatSet()
    busy = busy_sites = 0.0
    inline_sends = queued_sends = 0.0
    for index, site in enumerate(sites):
        stats = site.ledger()
        per_site[getattr(site, "site_id", index)] = stats
        merged.merge(stats)
        # the transport is not a manager: its counters live on the kernel
        # (live TCP only; the sim and the in-process hub keep none)
        transport_stats = site.kernel.transport_stats()
        inline_sends += transport_stats.get("inline_sends", 0.0)
        queued_sends += transport_stats.get("frames_enqueued", 0.0)
        cpu = site.kernel.cpu
        if cpu is not None:
            busy += cpu.busy_total
            busy_sites += 1

    def count(name: str) -> int:
        return merged.get(name).count

    derived: Dict[str, float] = {
        "executions": merged.get("executions").count,
        "work_units": merged.get("work_units").total,
        "messages_sent": merged.get("sent").count,
        "bytes_sent": merged.get("bytes_sent").total,
        "msgs_per_exec": _rate(count("sent"), count("executions")),
        # the attraction memory's price list.  An allocation publishes to
        # its own homesite (0 messages); a DIR_UPDATE is what a migration
        # between two sites that are not the directory costs.  A remote
        # read is priced from the serving side, which needs no tracer:
        # every MEM_READ draws exactly one of three replies and every
        # DIR_UPDATE one ACK — under both kernels, which run the same
        # memory protocol.
        "dir_updates_per_alloc": _rate(count("dir_updates_sent"),
                                       count("objects_allocated")),
        "msgs_per_remote_read": _rate(
            2 * (count("reads_served") + count("redirects_served")
                 + count("reads_not_found"))
            + count("dir_updates_sent") + count("dir_updates_applied")
            + count("stale_dir_updates_dropped"),
            count("migrations_in")),
        # deliveries that had to be parsed from bytes: all of them on a
        # real wire, on the sim wire only what a fault duplicated or
        # rewrote (the rest dispatch the sender's snapshot)
        "parsed_per_msg": _rate(merged.get("parsed").count,
                                merged.get("received").count),
        # suspended runs per execution — each one a re-run, and live two
        # more thread hand-offs (reactor -> worker -> reactor) — and the
        # share of frames the sending thread wrote itself instead of
        # handing to a writer thread (0 on the sim)
        "round_trips_per_exec": _rate(merged.get("ctx_round_trips").total,
                                      merged.get("executions").count),
        "inline_send_frac": _rate(inline_sends,
                                  inline_sends + queued_sends),
        # grants over *attempts*: help_sent counts at send time, so
        # requests that time out with no reply at all still land in the
        # denominator (a timed-out request is a failed attempt, not a
        # non-event); the numerator counts correlated HELP_REPLY grants,
        # not frames, so steal-half batching cannot push the rate past 1
        "steal_success_rate": _rate(merged.get("steal_grants").count,
                                    merged.get("help_sent").count),
        "steals_in": merged.get("steals_in").count,
        "steal_grants": merged.get("steal_grants").count,
        "help_timeouts": merged.get("help_timeouts").count,
        "frames_pushed": merged.get("frames_pushed").count,
        "gossip_sent": merged.get("gossip_sent").count,
        # flushes armed by a changed figure; one corrects up to three
        # partners, one that finds every partner told sends nothing
        "gossip_flushes": merged.get("gossip_flushes").count,
        # the trade conversation-scoped load reports make: fewer reports
        # per useful execution, paid for in blind probes that come back
        # refused (a HELP_REPLY without frames)
        "load_reports_per_exec": _rate(merged.get("gossip_sent").count,
                                       merged.get("executions").count),
        "help_refusal_rate": _rate(merged.get("cant_help_received").count,
                                   merged.get("help_sent").count),
        "code_hit_rate": _rate(
            merged.get("code_hit").count,
            merged.get("code_hit").count + merged.get("misses").count),
        "checkpoint_waves": merged.get("wave_commit").count,
        "wave_mean_seconds": merged.get("wave_seconds").mean,
        "recoveries": merged.get("recovery_begin").count,
        # the serialised shards inside CHECKPOINT_STATE, CHECKPOINT_REPLICA
        # and RECOVER_STATE (retries included) that went onto the wire
        "snapshot_bytes_frac": _rate(merged.get("snapshot_bytes").total,
                                     merged.get("bytes_sent").total),
        "snapshot_bytes_per_wave": _rate(merged.get("snapshot_bytes").total,
                                         count("wave_commit")),
    }
    if busy_sites and horizon > 0:
        derived["busy_fraction_mean"] = busy / (busy_sites * horizon)

    message_breakdown: Dict[str, Dict[str, float]] = {}
    if tracer is not None:
        for event in tracer.select(kind="msg_send"):
            mtype, nbytes = event.fields[0], event.fields[2]
            row = message_breakdown.setdefault(
                str(mtype), {"count": 0, "bytes": 0})
            row["count"] += 1
            row["bytes"] += nbytes

    return ClusterReport(per_site, merged, derived, message_breakdown,
                         horizon, len(sites))


def aggregate_cluster(cluster) -> ClusterReport:  # noqa: ANN001
    """Build a report straight from a SimCluster or LiveCluster."""
    return aggregate_sites(cluster.sites, tracer=cluster.tracer,
                           horizon=cluster.horizon)
