"""Online health detectors over the ``sdvm-metrics/1`` snapshot stream.

Six detector families, each targeting a failure class this repo has
actually shipped a fix for (or that the chaos fuzzer forces):

* **idle_stall** — a site sits idle for several intervals while the rest
  of the cluster holds a queue backlog: work distribution is not reaching
  it (begging storms, gossip staleness, partition residue).
* **steal_storm** — a site sends many help requests with almost no frames
  coming back: protocol time burning with no work transfer.
* **wave_stall** — the coordinator's open checkpoint wave is older than k
  sampling intervals.  PR 7's wave-supersede bug (waves silently never
  committing past ~100 sites) sat latent because nothing watched exactly
  this signal in-run.
* **recovery_wedged** — a site stays in crash recovery for many
  consecutive intervals: a lost RECOVER_* control or a wedged coordinator.
* **partition_suspect** — a live site keeps sending but receives nothing
  while the rest of the cluster exchanges traffic: one-sided reachability.
* **sdc_mismatch** — a replicated microthread's shadow re-execution
  diverged from its primary: silent data corruption (or a
  nondeterministic microthread) caught before commit.  Any non-zero
  count is anomalous, so this detector has no threshold.

Detections fire **once per episode** (the condition must clear before the
same detector re-fires for the same site), are recorded in order, and are
emitted as structured ``health`` events into the run's tracer, if any.

The monitor is pure observation: it never touches the simulator, timers,
or RNG, so attaching it cannot perturb a run beyond the sampler's timer.
"""

from __future__ import annotations

from collections import Counter as _Counter
from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional

from repro.common.stats import Histogram

#: every detector the monitor can fire, in report order
DETECTORS = ("idle_stall", "steal_storm", "wave_stall",
             "recovery_wedged", "partition_suspect", "sdc_mismatch")

#: idle-stall / steal-storm: cluster backlog (queued frames on the other
#: sites) that makes an idle or begging site suspicious
IDLE_BACKLOG_MIN = 4
#: consecutive sampling intervals a condition must hold before the
#: idle-stall / partition detectors fire (and the steal-storm window)
STALL_INTERVALS = 3
#: wave-stall: fire once an open checkpoint wave is older than this many
#: sampling intervals (the never-committing-wave bug class)
WAVE_STALL_INTERVALS = 4
#: recovery-wedged: consecutive intervals a site may stay in recovery
RECOVERY_WEDGED_INTERVALS = 8
#: steal-storm: minimum help requests inside the detection window ...
STEAL_STORM_MIN_HELP = 8
#: ... combined with a steal success ratio at or below this
STEAL_STORM_MAX_SUCCESS = 0.15


class Detection(NamedTuple):
    """One detector firing: when, where, what, and the evidence."""

    t: float
    site: int
    detector: str
    detail: str

    def __str__(self) -> str:
        return (f"t={self.t:.3f} site {self.site}: "
                f"{self.detector} ({self.detail})")


class HealthMonitor:
    """Consumes per-tick snapshot rows; accumulates detections.

    ``interval`` is the sampling period the rows arrive at (the wave-stall
    threshold is counted in it).  ``emit(ts, site, "health", detector,
    detail)`` is called for every firing when a tracer is attached
    (``emit=tracer.emit``).
    """

    def __init__(self, interval: float,
                 emit: Optional[Callable] = None) -> None:
        self.interval = interval
        self.emit = emit
        self.detections: List[Detection] = []
        self.ticks_seen = 0
        #: queue-depth and wave-age distributions across all (tick, site)
        #: samples — the verdict reports conservative tail percentiles
        self.queue_hist = Histogram()
        self.wave_age_hist = Histogram()
        # per-site consecutive-interval streaks
        self._idle_streak: Dict[int, int] = {}
        self._deaf_streak: Dict[int, int] = {}
        self._wedged_streak: Dict[int, int] = {}
        # per-site sliding windows of (help_sent, steals_in)
        self._steal_window: Dict[int, Deque] = {}
        # detectors currently in a fired episode, keyed by (detector, site)
        self._episodes: set = set()

    # ------------------------------------------------------------------
    def _fire(self, t: float, site: int, detector: str,
              detail: str) -> None:
        key = (detector, site)
        if key in self._episodes:
            return
        self._episodes.add(key)
        self.detections.append(Detection(t, site, detector, detail))
        if self.emit is not None:
            self.emit(t, site, "health", detector, detail)

    def _clear(self, site: int, detector: str) -> None:
        self._episodes.discard((detector, site))

    # ------------------------------------------------------------------
    def observe(self, t: float, rows: List[dict]) -> None:
        """Feed one sampling tick (all sites' rows share one ``t``)."""
        self.ticks_seen += 1
        alive = [row for row in rows if row["alive"]]
        backlog = sum(row["queue"] for row in alive)
        cluster_recv = sum(row["msgs_recv"] for row in alive)

        for row in alive:
            site = row["site"]
            self.queue_hist.observe(float(row["queue"]))

            # idle_stall: no work here, plenty elsewhere
            idle = (row["queue"] == 0 and row["in_flight"] == 0
                    and row["busy_frac"] < 0.05 and not row["sleeping"]
                    and not row["paused"])
            others_backlog = backlog - row["queue"]
            if idle and others_backlog >= IDLE_BACKLOG_MIN:
                streak = self._idle_streak.get(site, 0) + 1
                self._idle_streak[site] = streak
                if streak >= STALL_INTERVALS:
                    self._fire(t, site, "idle_stall",
                               f"idle {streak} intervals, cluster backlog "
                               f"{others_backlog}")
            else:
                self._idle_streak[site] = 0
                self._clear(site, "idle_stall")

            # steal_storm: windowed help volume with no frames landing
            # AND the beggar starving AND work existing elsewhere.
            # Healthy SDVM runs beg constantly by design (ready_target
            # keeps queues drained), and a serial tail phase has every
            # site begging into a workless cluster — neither is a fault.
            # The storm is begging that stays fruitless while a real
            # backlog sits on other sites: distribution is broken.
            window = self._steal_window.setdefault(
                site, deque(maxlen=STALL_INTERVALS))
            window.append((row["help_sent"], row["steals_in"],
                           row["busy_frac"]))
            help_sum = sum(w[0] for w in window)
            steal_sum = sum(w[1] for w in window)
            busy_mean = sum(w[2] for w in window) / len(window)
            storming = (len(window) == STALL_INTERVALS
                        and help_sum >= STEAL_STORM_MIN_HELP
                        and steal_sum <= STEAL_STORM_MAX_SUCCESS * help_sum
                        and busy_mean < 0.25
                        and others_backlog >= IDLE_BACKLOG_MIN)
            if storming:
                self._fire(t, site, "steal_storm",
                           f"{help_sum} help requests, {steal_sum} "
                           f"steals in {len(window)} intervals, "
                           f"busy {busy_mean:.0%}")
            else:
                self._clear(site, "steal_storm")

            # wave_stall: the coordinator's open wave outlived its budget
            age = row["wave_age"]
            if age > 0:
                self.wave_age_hist.observe(age)
            threshold = WAVE_STALL_INTERVALS * self.interval
            if age > threshold:
                self._fire(t, site, "wave_stall",
                           f"open wave age {age:.3f}s > {threshold:.3f}s")
            elif age == 0:
                self._clear(site, "wave_stall")

            # recovery_wedged: recovery should settle within a few beats
            if row["recovering"]:
                streak = self._wedged_streak.get(site, 0) + 1
                self._wedged_streak[site] = streak
                if streak >= RECOVERY_WEDGED_INTERVALS:
                    self._fire(t, site, "recovery_wedged",
                               f"recovering for {streak} intervals")
            else:
                self._wedged_streak[site] = 0
                self._clear(site, "recovery_wedged")

            # partition_suspect: talking into the void
            deaf = (row["msgs_sent"] > 0 and row["msgs_recv"] == 0
                    and cluster_recv > 0)
            if deaf:
                streak = self._deaf_streak.get(site, 0) + 1
                self._deaf_streak[site] = streak
                if streak >= STALL_INTERVALS:
                    self._fire(t, site, "partition_suspect",
                               f"sent {row['msgs_sent']} msgs, received "
                               f"none for {streak} intervals")
            else:
                self._deaf_streak[site] = 0
                self._clear(site, "partition_suspect")

            # sdc_mismatch: replica divergence — one is already too many
            mismatches = row.get("sdc_mismatches", 0)
            if mismatches > 0:
                self._fire(t, site, "sdc_mismatch",
                           f"{mismatches} replica mismatch(es) this "
                           f"interval")
            else:
                self._clear(site, "sdc_mismatch")

    # ------------------------------------------------------------------
    # run-end verdict

    @property
    def ok(self) -> bool:
        return not self.detections

    def verdict(self) -> dict:
        """Machine-readable summary for the run end / ``repro health``."""
        counts = _Counter(d.detector for d in self.detections)
        return {
            "ok": self.ok,
            "ticks": self.ticks_seen,
            "detections": len(self.detections),
            "by_detector": {name: counts.get(name, 0)
                            for name in DETECTORS},
            # conservative-bound tails (Histogram.percentile never
            # under-reports) — the detectors' raw material, surfaced
            "queue_p50": self.queue_hist.percentile(0.50),
            "queue_p90": self.queue_hist.percentile(0.90),
            "wave_age_p99": self.wave_age_hist.percentile(0.99),
        }

    def render(self, limit: int = 20) -> str:
        """Human-readable report: firings first, then the verdict line."""
        lines = []
        for detection in self.detections[:limit]:
            lines.append(f"  HEALTH {detection}")
        hidden = len(self.detections) - limit
        if hidden > 0:
            lines.append(f"  ... and {hidden} more detection(s)")
        v = self.verdict()
        fired = [f"{name}={count}"
                 for name, count in v["by_detector"].items() if count]
        status = "OK" if v["ok"] else "ANOMALOUS (" + ", ".join(fired) + ")"
        lines.append(f"health: {status} over {v['ticks']} tick(s); "
                     f"queue p50/p90 {v['queue_p50']:g}/{v['queue_p90']:g}, "
                     f"wave age p99 {v['wave_age_p99']:.3f}s")
        return "\n".join(lines)


def analyze_log(log) -> HealthMonitor:  # noqa: ANN001
    """Replay a loaded :class:`MetricsLog` through the detectors offline
    (``repro health``), at the sampling interval of the log header."""
    monitor = HealthMonitor(log.interval)
    for t, rows in log.ticks():
        monitor.observe(t, rows)
    return monitor
