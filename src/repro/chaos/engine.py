"""The chaos controller: injects a :class:`FaultPlan` into a sim cluster.

Two injection surfaces:

* **Scheduled actions** (crash, sign-off, slowdown) fire at exact virtual
  times through :class:`~repro.site.simcluster.SimCluster` hooks.
* **Link mangling** (partition, drop, duplicate, delay, reorder) hooks
  :meth:`SimNetwork.send` — the network consults ``network.chaos`` per
  message and the controller answers with a list of delivery offsets
  (empty = dropped, two entries = duplicated, shifted = delayed).

Partitions model an *outage on a reliable transport*: traffic crossing
the cut is held back and delivered just after the heal (TCP retransmits
across a brief outage; it does not silently lose acknowledged sends).
Partitions that outlive the heartbeat timeout therefore still escalate
to crash suspicion — no heartbeat gets through until the heal — while
sub-timeout partitions stay survivable, which is exactly the failure
model the runtime promises.  Silent loss is modelled separately by
``LinkFault.drop``, and surviving *that* is the recovery layer's
ack/retry job.

All probabilistic decisions draw from the controller's own seeded RNG,
never the simulator's, so (a) a chaos run is bit-reproducible from the
plan + seed and (b) attaching a controller does not perturb the RNG
stream of chaos-free runs (the bench baselines stay bit-identical).
"""

from __future__ import annotations

import random
import struct
from typing import Dict, List, Optional

from repro.chaos.plan import (CorruptFault, CrashFault, FaultPlan, LinkFault,
                              PartitionFault, SignOffFault, SlowFault)
from repro.common.errors import SDVMError

#: mixed into the plan seed so the injection stream is decorrelated from
#: any other consumer of the same seed
_CHAOS_SEED_SALT = 0xC4A05


class ChaosController:
    """Applies one fault plan to one cluster run."""

    def __init__(self, cluster, plan: FaultPlan) -> None:  # noqa: ANN001
        plan.validate()
        if plan.nsites != len(cluster.sites):
            raise SDVMError(
                f"plan wants {plan.nsites} sites, cluster has "
                f"{len(cluster.sites)}")
        self.cluster = cluster
        self.plan = plan
        self.rng = random.Random((plan.seed << 4) ^ _CHAOS_SEED_SALT)
        #: site index -> physical network address
        self._phys: Dict[int, int] = {
            index: int(site.kernel.local_physical())
            for index, site in enumerate(cluster.sites)}
        self._partitions: List[PartitionFault] = []
        self._links: List[LinkFault] = []
        self._corrupt_results: List[CorruptFault] = []
        self._corrupt_wire: List[CorruptFault] = []
        self._installed = False

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Arm every fault; called once before the run starts."""
        if self._installed:
            raise SDVMError("chaos controller already installed")
        self._installed = True
        sim = self.cluster.sim
        for fault in self.plan.faults:
            if isinstance(fault, CrashFault):
                sim.schedule_at(fault.at, self._do_crash, fault.site)
            elif isinstance(fault, SignOffFault):
                sim.schedule_at(fault.at, self._do_sign_off, fault.site)
            elif isinstance(fault, SlowFault):
                sim.schedule_at(fault.start, self._set_slowdown,
                                fault.site, fault.factor)
                sim.schedule_at(fault.end, self._set_slowdown,
                                fault.site, 1.0)
            elif isinstance(fault, PartitionFault):
                self._partitions.append(fault)
            elif isinstance(fault, LinkFault):
                self._links.append(fault)
            elif isinstance(fault, CorruptFault):
                if fault.mode == "result":
                    self._corrupt_results.append(fault)
                else:
                    self._corrupt_wire.append(fault)
            else:
                raise SDVMError(f"unhandled fault {fault!r}")
        if self._corrupt_results:
            for index, site in enumerate(self.cluster.sites):
                site.processing_manager.sdc_arm(self, index)
        if self._partitions or self._links or self._corrupt_wire:
            # with neither partitions nor links armed, filter_send returns
            # None without an RNG draw, so param-only plans leave the
            # delivery schedule untouched
            self.cluster.network.chaos = self

    # ------------------------------------------------------------------
    # scheduled actions

    def _trace(self, kind: str, detail: object) -> None:
        tracer = self.cluster.tracer
        if tracer is not None:
            tracer.emit(self.cluster.sim.now, -1, "chaos_fault",
                        kind, detail)

    def _do_crash(self, index: int) -> None:
        site = self.cluster.site_by_index(index)
        if site.running:
            self._trace("crash", index)
            site.crash()

    def _do_sign_off(self, index: int) -> None:
        site = self.cluster.site_by_index(index)
        if site.running:
            self._trace("sign_off", index)
            site.sign_off()

    def _set_slowdown(self, index: int, factor: float) -> None:
        site = self.cluster.site_by_index(index)
        if site.running:
            self._trace("slow", f"{index}x{factor}")
            site.kernel.cpu.slowdown = factor

    # ------------------------------------------------------------------
    # link mangling (called by SimNetwork.send per message)

    def _crosses_partition(self, fault: PartitionFault,
                           src: int, dst: int) -> bool:
        group = {self._phys[i] for i in fault.group}
        return (src in group) != (dst in group)

    def filter_send(self, src: int, dst: int) -> Optional[List[float]]:
        """Decide the fate of one message on the (src, dst) physical link.

        Returns ``None`` for "untouched" (the network takes its normal
        single-delivery path with zero chaos overhead), else a list of
        extra delivery delays: empty = dropped, one entry per copy
        otherwise.
        """
        now = self.cluster.sim.now
        latency = self.cluster.network.config.latency
        for fault in self._partitions:
            if (fault.start <= now < fault.end
                    and self._crosses_partition(fault, src, dst)):
                # hold the message until just after the heal: reliable
                # transports retransmit across an outage, they don't drop
                return [fault.end - now + self.rng.random() * latency]
        offsets: Optional[List[float]] = None
        for fault in self._links:
            if not fault.start <= now < fault.end:
                continue
            if fault.src >= 0 and self._phys[fault.src] != src:
                continue
            if fault.dst >= 0 and self._phys[fault.dst] != dst:
                continue
            if fault.drop > 0.0 and self.rng.random() < fault.drop:
                return []
            if offsets is None:
                offsets = [0.0]
            if fault.delay > 0.0:
                offsets = [extra + fault.delay for extra in offsets]
            if fault.reorder > 0.0 and self.rng.random() < fault.reorder:
                shift = (3.0 + self.rng.random()) * latency
                offsets = [extra + shift for extra in offsets]
            if fault.dup > 0.0 and self.rng.random() < fault.dup:
                offsets.append(offsets[0]
                               + (1.0 + self.rng.random()) * latency)
        return offsets

    # ------------------------------------------------------------------
    # silent data corruption (CorruptFault)

    def _flip_value(self, value, flips):  # noqa: ANN001
        """Bit-flip the first numeric leaf, staying serde-encodable.

        Ints flip within bits 0..61 (the zigzag codec rejects values
        outside 64 signed bits); floats flip mantissa bits only, so the
        corrupted value stays finite (inf/NaN would be a *loud* failure,
        not a silent one).  Containers (dataflow payloads are routinely
        dicts/tuples of partial state) are searched depth-first in
        deterministic order and rebuilt around the one flipped leaf —
        the original object is never mutated.  Returns
        ``(new_value, did_flip)``.
        """
        if isinstance(value, bool):
            return value, False
        if isinstance(value, int):
            for _ in range(flips):
                value ^= 1 << self.rng.randrange(62)
            return value, True
        if isinstance(value, float):
            bits = struct.unpack("<Q", struct.pack("<d", value))[0]
            for _ in range(flips):
                bits ^= 1 << self.rng.randrange(52)
            return struct.unpack("<d", struct.pack("<Q", bits))[0], True
        if isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                flipped, did = self._flip_value(item, flips)
                if did:
                    out = list(value)
                    out[i] = flipped
                    return (tuple(out) if isinstance(value, tuple)
                            else out), True
            return value, False
        if isinstance(value, dict):
            for key in value:  # insertion order: deterministic
                flipped, did = self._flip_value(value[key], flips)
                if did:
                    out = dict(value)
                    out[key] = flipped
                    return out, True
            return value, False
        return value, False

    #: effect-data keys that hold a microthread's produced values, in
    #: corruption preference order (see proc.context.EffectKind)
    _RESULT_KEYS = (("send_result", "value"), ("exit_program", "result"),
                    ("mem_write", "value"))

    def corrupt_effects(self, index: int, effects) -> bool:  # noqa: ANN001
        """Maybe bit-flip one produced value in a completing execution.

        Called by the site's processing manager (primary and shadow
        completions alike) when result-mode corruption is armed.  Returns
        True when a flip was applied, so the caller can taint-track the
        effect list through to commit.
        """
        now = self.cluster.sim.now
        for fault in self._corrupt_results:
            if not fault.start <= now < fault.end:
                continue
            if fault.site >= 0 and fault.site != index:
                continue
            if fault.prob < 1.0 and self.rng.random() >= fault.prob:
                continue
            for effect in effects:
                kind = effect.kind.value
                for ekind, key in self._RESULT_KEYS:
                    if kind != ekind or key not in effect.data:
                        continue
                    flipped, did = self._flip_value(effect.data[key],
                                                    fault.flips)
                    if did:
                        effect.data[key] = flipped
                        self._trace("corrupt_result", index)
                        return True
        return False

    @property
    def corrupts_wire(self) -> bool:
        return bool(self._corrupt_wire)

    #: wire mode -> message type -> the payload key whose first numeric
    #: leaf is flipped: ``"param"`` hits the dataflow write that fills a
    #: waiting microframe's parameter slot, ``"replicate"`` a replicated
    #: execution's shipped arguments and the effects its replay answers
    #: with
    _WIRE_KEYS = {"param": {"APPLY_RESULT": "value"},
                  "replicate": {"REPLICATE": "args", "VERDICT": "effects"}}

    def corrupt_wire(self, src: int, dst: int,
                     data: bytes) -> Optional[bytes]:
        """Maybe bit-flip a value in flight.

        Targets the payloads ``_WIRE_KEYS`` names for the fault's mode
        inside *plaintext* security envelopes; sealed envelopes pass
        untouched — a flipped bit there trips the MAC, which is a loud
        failure, not a silent one.  Returns the re-wrapped envelope
        bytes, or None when the message is left alone.
        """
        from repro.messages.message import SDMessage
        now = self.cluster.sim.now
        for fault in self._corrupt_wire:
            if not fault.start <= now < fault.end:
                continue
            if fault.site >= 0 and self._phys[fault.site] != dst:
                continue
            if len(data) < 3:
                return None
            flag, addr_len = struct.unpack_from(">BH", data, 0)
            if flag != 0:  # sealed envelope: the MAC would catch the flip
                return None
            header, body = data[:3 + addr_len], data[3 + addr_len:]
            msg = SDMessage.decode(body)
            key = self._WIRE_KEYS[fault.mode].get(msg.type.name)
            if key is None:
                continue
            if fault.prob < 1.0 and self.rng.random() >= fault.prob:
                return None
            flipped, did = self._flip_value(msg.payload.get(key),
                                            fault.flips)
            if not did:
                return None
            msg.payload[key] = flipped
            self._trace("corrupt_" + fault.mode, dst)
            return header + msg.encode()
        return None
