"""Configuration dataclasses for sites, cluster, network, and cost model.

The :class:`CostModel` is what stands in for the paper's Pentium IV testbed:
simulated executions charge *work units* (via ``ctx.charge``) and protocol
actions charge fixed CPU costs, so the discrete-event kernel produces
realistic, reproducible timings.  Defaults are calibrated in
``repro.bench.calibration`` so that the single-site SDVM overhead for the
paper's prime benchmark lands near the reported ~3 % (§5) and the Table 1
speedup bands are met.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

from repro.common.errors import ConfigError


@dataclass(frozen=True, slots=True)
class CostModel:
    """CPU-side cost parameters (all in seconds unless noted).

    ``work_unit_time`` converts application work units into seconds on a
    site of speed 1.0; a site of speed ``s`` executes work ``w`` in
    ``w * work_unit_time / s`` seconds.
    """

    work_unit_time: float = 1e-6
    #: fixed CPU cost to serialize+dispatch one message (message manager)
    msg_fixed_cost: float = 12e-6
    #: additional per-byte serialize cost
    msg_byte_cost: float = 2e-9
    #: scheduling-manager decision (queue pop, code lookup trigger)
    sched_decision_cost: float = 3e-6
    #: allocating a microframe in the attraction memory
    frame_alloc_cost: float = 4e-6
    #: applying one result parameter to a waiting microframe
    result_apply_cost: float = 2e-6
    #: processing-manager context switch between virtually parallel threads
    context_switch_cost: float = 5e-6
    #: fixed + per-source-byte cost of compiling a microthread on the fly
    compile_fixed_cost: float = 0.08
    compile_byte_cost: float = 4e-7
    #: per-byte cost of encrypting/decrypting a message (security manager)
    crypto_byte_cost: float = 6e-9
    #: fixed cost of encrypting/decrypting a message
    crypto_fixed_cost: float = 6e-6

    def work_seconds(self, work: float, speed: float) -> float:
        """Seconds to execute ``work`` units on a site of relative ``speed``."""
        if speed <= 0:
            raise ConfigError(f"site speed must be positive, got {speed}")
        return work * self.work_unit_time / speed


@dataclass(frozen=True, slots=True)
class NetworkConfig:
    """Link-level model for the simulated network (network manager, §4)."""

    #: one-way propagation latency per link
    latency: float = 120e-6
    #: link bandwidth, bytes/second (100 Mbit/s LAN by default)
    bandwidth: float = 12.5e6
    #: transport protocol model (§4: TCP works, UDP not viable, T/TCP proposed)
    transport: Literal["tcp", "ttcp", "udp"] = "tcp"
    #: per-message connection overhead for TCP (SYN/ACK handshake amortization)
    tcp_handshake_cost: float = 250e-6
    #: fraction of messages a connection cache absorbs the handshake for
    tcp_connection_reuse: float = 0.9
    #: T/TCP: single-packet transactions, tiny fixed cost instead of handshake
    ttcp_transaction_cost: float = 30e-6
    #: UDP model: loss probability and reorder probability per message
    udp_loss_rate: float = 0.01
    udp_reorder_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.latency < 0 or self.bandwidth <= 0:
            raise ConfigError("latency must be >= 0 and bandwidth > 0")
        if not (0.0 <= self.udp_loss_rate < 1.0):
            raise ConfigError("udp_loss_rate must be in [0, 1)")
        if self.transport not in ("tcp", "ttcp", "udp"):
            raise ConfigError(f"unknown transport {self.transport!r}")


@dataclass(frozen=True, slots=True)
class LiveTransportConfig:
    """Reliability knobs for the *live* TCP transport (:mod:`repro.net.tcp`).

    The sim kernel models the network with :class:`NetworkConfig`; this class
    instead configures the real-socket path: per-peer send queues drained by
    a writer thread, reconnect with exponential backoff, dead-letter
    accounting once the retry budget is spent, and an optional keepalive
    failure detector that reports suspected-dead peers to the crash manager.
    """

    #: seconds to wait for one TCP connect attempt
    connect_timeout: float = 5.0
    #: max frames queued per peer before ``send`` applies backpressure
    send_queue_limit: int = 1024
    #: delivery attempts (connect+write) per frame before dead-lettering
    retry_budget: int = 6
    #: first retry delay; doubles each attempt up to ``backoff_max``
    backoff_initial: float = 0.05
    backoff_max: float = 1.0
    #: seconds between keepalive frames to every known peer
    #: (0 disables the transport-level failure detector, matching the
    #: cluster-level default: idle clusters quiesce)
    heartbeat_interval: float = 0.0
    #: consecutive failed delivery attempts before a peer is suspected dead
    heartbeat_misses: int = 3

    def __post_init__(self) -> None:
        if self.connect_timeout <= 0:
            raise ConfigError("connect_timeout must be positive")
        if self.send_queue_limit < 1:
            raise ConfigError("send_queue_limit must be >= 1")
        if self.retry_budget < 1:
            raise ConfigError("retry_budget must be >= 1")
        if self.backoff_initial <= 0 or self.backoff_max < self.backoff_initial:
            raise ConfigError(
                "need 0 < backoff_initial <= backoff_max")
        if self.heartbeat_interval < 0:
            raise ConfigError("heartbeat_interval must be >= 0")
        if self.heartbeat_misses < 1:
            raise ConfigError("heartbeat_misses must be >= 1")


@dataclass(frozen=True, slots=True)
class SchedulingConfig:
    """Scheduling-manager policy knobs (§3.3, §4).  Values that held one
    setting everywhere are constants next to their reader (sched/manager.py,
    cluster/manager.py, proc/manager.py), not fields."""

    #: local execution order.  Paper: FIFO "momentarily" to avoid starvation.
    local_policy: Literal["fifo", "lifo", "priority"] = "fifo"
    #: which frame to give away on a help request.  Paper: LIFO to hide latency.
    help_reply_policy: Literal["fifo", "lifo"] = "lifo"
    #: keep this many frames in the ready queue (prefetch code eagerly)
    ready_target: int = 2
    #: honour CDAG scheduling hints (priority / critical path), §3.3
    use_hints: bool = True
    #: refuse to give away frames when fewer than this many remain locally
    keep_local_min: int = 1
    #: max frames handed over per HELP_REPLY or proactive push (the
    #: steal-half batch is capped here)
    steal_batch_max: int = 4
    #: the longest a LOAD_REPORT correction waits (0 disables them; the
    #: load/queue figures piggybacked on regular traffic are always on).
    #: Not a period: a flush is armed only when a peer this site is in
    #: conversation with (it sent them a message within half of
    #: ``gossip_staleness``) may hold an out-of-date stealable-queue figure,
    #: and fires at the next multiple of this interval after the site's
    #: start.  Each flush corrects at most ``GOSSIP_FANOUT``
    #: (sched/manager.py) such peers.  Peers it has not talked to get
    #: nothing, and an idle site with nothing to correct runs no timer
    gossip_interval: float = 0.0
    #: how long a first-hand load/queue figure stays valid for victim
    #: selection and push targeting.  Half of it is how long a sender
    #: keeps correcting a peer after its last message to it; nothing
    #: re-sends an unchanged figure, so a lost report misleads until this
    #: horizon expires it at the receiver.  With ``gossip_interval`` 0
    #: nothing corrects a figure: keep this short
    gossip_staleness: float = 5e-3
    #: proactively push surplus executable frames toward known-idle peers
    push_enabled: bool = True
    #: only push while more than this many frames sit in the executable queue
    push_min_queue: int = 1
    #: fraction of microthreads executed twice with result comparison
    #: before their effects dispatch — the silent-data-corruption defense
    #: (0.0 keeps the execution pipeline byte-identical to no-replication
    #: behavior; selection is a deterministic per-frame hash, no RNG)
    replicate_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.ready_target < 1:
            raise ConfigError("ready_target must be >= 1")
        if self.steal_batch_max < 1:
            raise ConfigError("steal_batch_max must be >= 1")
        if self.gossip_interval < 0:
            raise ConfigError("gossip_interval must be >= 0")
        if self.gossip_staleness <= 0:
            raise ConfigError("gossip_staleness must be positive")
        if self.push_min_queue < 0:
            raise ConfigError("push_min_queue must be >= 0")
        if not 0.0 <= self.replicate_frac <= 1.0:
            raise ConfigError("replicate_frac must be in [0, 1]")


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Cluster-manager knobs: membership, id allocation, liveness (§3.4, §4)."""

    #: logical-id allocation strategy (the three concepts discussed in §4)
    id_allocation: Literal["central", "contingent", "modulo"] = "central"
    #: size of the id block handed to each contingent server
    contingent_size: int = 16
    #: whether sites exchange heartbeats (required for crash detection;
    #: off by default so idle clusters quiesce and sim runs terminate)
    heartbeats_enabled: bool = False
    #: heartbeat period and the timeout after which a site is declared crashed
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 2.0
    #: heartbeat partners per tick: 0 sends to every alive peer (full
    #: pairwise liveness, the default for small clusters); k > 0 sends to
    #: the k ring successors in sorted-id order and watches only the k
    #: predecessors, turning the O(sites^2) heartbeat mesh into O(sites*k)
    #: for large clusters (detection then relies on CRASH_NOTICE fan-out)
    heartbeat_fanout: int = 0

    def __post_init__(self) -> None:
        if self.contingent_size < 1:
            raise ConfigError("contingent_size must be >= 1")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ConfigError("heartbeat_timeout must exceed heartbeat_interval")


@dataclass(frozen=True, slots=True)
class SecurityConfig:
    """Security-manager knobs (§4)."""

    enabled: bool = False
    #: pre-shared cluster password used to authenticate first contact
    cluster_password: str = "sdvm"
    #: sim-kernel-only fast path: charge the exact same simulated byte and
    #: CPU costs for sealing/opening envelopes, but skip the real keystream
    #: cipher + MAC work (and the DH shared-secret modpow).  Envelopes keep
    #: their sealed layout and size, so virtual-time results are identical
    #: to a real-crypto run at a fraction of the host CPU cost.  The live
    #: kernel ignores this flag and always runs real crypto.
    simulate_crypto: bool = False


@dataclass(frozen=True, slots=True)
class CheckpointConfig:
    """Crash-management knobs (§2.2, ref [4])."""

    enabled: bool = False
    #: seconds between coordinated checkpoint waves
    interval: float = 5.0
    #: how many replicas of each site snapshot to keep on other sites
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError("checkpoint interval must be positive")
        if self.replicas < 0:
            raise ConfigError("checkpoint replicas must be >= 0")


@dataclass(frozen=True, slots=True)
class PowerConfig:
    """Power management — the paper's organic-computing proposal (§2.2).

    "If the system's power supply is low or sites are out of work, some
    sites are switched to a sleep state."  Out-of-work sites sleep after
    ``sleep_after`` idle seconds (no stealing, no heartbeat chatter) and
    wake on the first incoming message.  Wattages feed the per-site energy
    accounting used by ``benchmarks/bench_power_sleep.py``.
    """

    enabled: bool = False
    sleep_after: float = 0.5
    busy_watts: float = 100.0
    idle_watts: float = 60.0
    sleep_watts: float = 5.0

    def __post_init__(self) -> None:
        if self.sleep_after <= 0:
            raise ConfigError("sleep_after must be positive")
        if min(self.busy_watts, self.idle_watts, self.sleep_watts) < 0:
            raise ConfigError("wattages must be non-negative")


@dataclass(frozen=True, slots=True)
class SiteConfig:
    """Per-site properties advertised at sign-on (§3.4)."""

    #: relative processing speed (1.0 = the paper's P4 1.7 GHz reference)
    speed: float = 1.0
    #: binary-format tag (the paper's Linux/HP-UX platform id, §3.4)
    platform: str = "py-generic"
    #: number of virtually parallel microthreads for latency hiding (§4: ~5).
    #: 0 makes the site service-only (memory/code server, no execution)
    max_parallel: int = 5
    #: human-readable name for logs
    name: str = ""
    #: whether this site stores every microthread (code distribution site, §4)
    code_distribution: bool = False
    #: §2.2 public-resource-computing proposal: "The SDVM is run on a core
    #: of reliable sites ... and unsafe sites."  Unreliable sites never
    #: coordinate checkpoints, keep snapshots, or inherit state — their
    #: crashes are intercepted by the reliable core.
    reliable: bool = True

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ConfigError("site speed must be positive")
        if self.max_parallel < 0:
            raise ConfigError("max_parallel must be >= 0")


@dataclass(frozen=True, slots=True)
class SDVMConfig:
    """Aggregate configuration for a cluster run."""

    cost: CostModel = field(default_factory=CostModel)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    live_transport: LiveTransportConfig = field(
        default_factory=LiveTransportConfig)
    scheduling: SchedulingConfig = field(default_factory=SchedulingConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    security: SecurityConfig = field(default_factory=SecurityConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    #: structured cluster-wide tracing: every manager reports typed events
    #: into one repro.trace.Tracer (Chrome-trace export, metrics reports,
    #: flight dumps on a crash).  Off by default — the disabled hot path
    #: is a single attribute check.
    trace: bool = False
    #: seconds between per-site snapshot samples (``sdvm-metrics/1`` rows
    #: fed to the health detectors): virtual seconds under the sim kernel,
    #: wall clock under the live kernel.  0 turns the sampler off, the
    #: default: under the sim its timer changes the event interleaving,
    #: so bench baselines are bit-identical only with it off
    metrics_interval: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.metrics_interval < 0:
            raise ConfigError("metrics_interval must be >= 0")

    def with_(self, **kwargs: object) -> "SDVMConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)  # type: ignore[arg-type]
