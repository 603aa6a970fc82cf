"""Fault plans: typed, serializable schedules of injected failures.

A :class:`FaultPlan` is the unit of chaos testing — a cluster shape plus a
list of faults pinned to exact virtual times.  Plans round-trip through
JSON so failing schedules found by the fuzzer can be shrunk to minimal
repros and committed as a regression corpus (``tests/chaos_corpus/``).

Every source of randomness used while *generating* a plan lives in a
dedicated ``random.Random(seed)``; injecting the plan draws from the chaos
engine's own RNG stream (never the simulator's), so the same seed + plan
always replays the exact same run.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.common.errors import SDVMError


@dataclass(frozen=True)
class CrashFault:
    """Abrupt site death at ``at`` (no relocation, no goodbye)."""

    at: float
    site: int
    kind: str = "crash"


@dataclass(frozen=True)
class SignOffFault:
    """Orderly departure at ``at`` (state relocates to an heir)."""

    at: float
    site: int
    kind: str = "sign_off"


@dataclass(frozen=True)
class PartitionFault:
    """Bidirectional partition between ``group`` and everyone else.

    All traffic crossing the cut is dropped during [start, end); the
    partition heals itself at ``end``.  Keep the window shorter than the
    heartbeat timeout unless the plan *wants* mutual crash suspicion.
    """

    start: float
    end: float
    group: Tuple[int, ...]
    kind: str = "partition"


@dataclass(frozen=True)
class LinkFault:
    """A window of message mangling on matching links.

    ``src``/``dst`` select one direction (-1 matches any site), so a
    single fault can target one link, one site's ingress/egress, or the
    whole fabric.  ``drop``/``dup``/``reorder`` are per-message
    probabilities; ``delay`` is a fixed extra delivery delay in seconds.
    """

    start: float
    end: float
    src: int = -1
    dst: int = -1
    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0
    reorder: float = 0.0
    kind: str = "link"


@dataclass(frozen=True)
class SlowFault:
    """CPU slowdown: site runs ``factor``x slower during [start, end)."""

    start: float
    end: float
    site: int
    factor: float = 4.0
    kind: str = "slow"


@dataclass(frozen=True)
class CorruptFault:
    """Silent data corruption during [start, end).

    ``mode`` selects the injection point: ``"result"`` bit-flips a value
    a microthread produced, at the completion-time hook in
    ``proc/manager.py`` (before the microframe's effects dispatch).
    The two wire modes bit-flip a value *in flight* inside
    ``SimNetwork.send``: ``"param"`` the payload of an APPLY_RESULT (a
    microframe parameter), ``"replicate"`` that of a REPLICATE (the
    arguments a buddy replays) or a VERDICT (the effects it answers
    with).  Replicated execution defends against ``"result"`` and
    ``"replicate"`` corruption only: a buddy replays the inputs the
    primary received, so a parameter flipped on its way in is repeated
    faithfully and commits — ``"param"`` corruption is undefended.
    ``site`` is the executing site (result mode) or the message
    destination (wire modes); -1 matches any site.  ``prob`` is the
    per-result / per-message corruption probability, ``flips`` the
    number of bits flipped.
    """

    start: float
    end: float
    site: int = -1
    mode: str = "result"
    prob: float = 1.0
    flips: int = 1
    kind: str = "corrupt"


Fault = object  # union of the six dataclasses above

_FAULT_TYPES: Dict[str, Type] = {
    "crash": CrashFault,
    "sign_off": SignOffFault,
    "partition": PartitionFault,
    "link": LinkFault,
    "slow": SlowFault,
    "corrupt": CorruptFault,
}


def _validate_fault(f: Fault) -> None:
    """Structural checks shared by JSON loading and plan validation."""
    start = getattr(f, "start", None)
    end = getattr(f, "end", None)
    if start is not None and end is not None and not start < end:
        raise SDVMError(
            f"{f.kind} fault window must have start < end, got "
            f"[{start}, {end})")
    if isinstance(f, CorruptFault):
        if f.mode not in ("result", "param", "replicate"):
            raise SDVMError(
                f"corrupt fault mode must be 'result', 'param' or "
                f"'replicate', got {f.mode!r}")
        if not 0.0 < f.prob <= 1.0:
            raise SDVMError(
                f"corrupt fault prob must be in (0, 1], got {f.prob}")
        if f.flips < 1:
            raise SDVMError(
                f"corrupt fault flips must be >= 1, got {f.flips}")


def fault_from_dict(data: dict) -> Fault:
    kind = data.get("kind")
    cls = _FAULT_TYPES.get(kind)
    if cls is None:
        raise SDVMError(f"unknown fault kind {kind!r}")
    known = {f.name for f in fields(cls)}
    unexpected = sorted(set(data) - known)
    if unexpected:
        raise SDVMError(
            f"unexpected field {unexpected[0]!r} in {kind} fault "
            f"(known fields: {', '.join(sorted(known - {'kind'}))})")
    kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
    if cls is PartitionFault:
        kwargs["group"] = tuple(kwargs.get("group", ()))
    fault = cls(**kwargs)
    _validate_fault(fault)
    return fault


@dataclass
class FaultPlan:
    """One reproducible chaos scenario: cluster shape + fault schedule."""

    seed: int = 0
    nsites: int = 4
    #: site index the workload is submitted at — the frontend must stay up
    submit_site: int = 0
    #: checkpoint wave interval for the run
    ckpt_interval: float = 0.2
    #: virtual-time budget for the run (progress timeout handles hangs)
    horizon: float = 60.0
    #: whether the plan expects the program to finish with a correct
    #: result (False: completion-or-declared-failure is enough)
    expect_complete: bool = True
    #: workload to run under the faults (see chaos.fuzz.WORKLOADS);
    #: "memstress" / "memscatter" exercise the attraction-memory directory
    workload: str = "primes"
    #: fraction of microthreads executed twice with result comparison
    #: (the SDC defense; 0.0 keeps the execution path byte-identical)
    replicate_frac: float = 0.0
    name: str = ""
    faults: List[Fault] = field(default_factory=list)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.nsites < 1:
            raise SDVMError(f"nsites must be >= 1, got {self.nsites}")
        if not 0 <= self.submit_site < self.nsites:
            raise SDVMError(
                f"submit_site {self.submit_site} is outside "
                f"[0, {self.nsites})")
        if self.ckpt_interval <= 0:
            raise SDVMError(
                f"ckpt_interval must be positive, got {self.ckpt_interval}")
        if self.horizon <= 0:
            raise SDVMError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 <= self.replicate_frac <= 1.0:
            raise SDVMError(
                f"replicate_frac must be in [0, 1], "
                f"got {self.replicate_frac}")
        for f in self.faults:
            _validate_fault(f)
            for attr in ("site", "src", "dst"):
                idx = getattr(f, attr, None)
                if idx is not None and idx >= self.nsites:
                    raise SDVMError(
                        f"fault {f} names site {idx} but the plan has "
                        f"only {self.nsites} sites")
            if isinstance(f, PartitionFault):
                if any(i >= self.nsites for i in f.group):
                    raise SDVMError(f"partition group {f.group} exceeds "
                                    f"nsites={self.nsites}")

    # ------------------------------------------------------------------
    # JSON round-trip (the corpus format)

    def to_dict(self) -> dict:
        doc = {"schema": "sdvm-chaos/1", **asdict(self)}
        for f in doc["faults"]:
            if "group" in f:
                f["group"] = list(f["group"])
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        schema = doc.get("schema", "sdvm-chaos/1")
        if schema != "sdvm-chaos/1":
            raise SDVMError(f"unsupported chaos plan schema {schema!r}")
        # a field the document leaves out keeps its default; a key that
        # names no field is ignored
        plan = cls(**{f.name: doc[f.name] for f in fields(cls)
                      if f.name in doc and f.name != "faults"},
                   faults=[fault_from_dict(f)
                           for f in doc.get("faults", [])])
        plan.validate()
        return plan

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def replace_faults(self, faults: List[Fault]) -> "FaultPlan":
        return replace(self, faults=list(faults))


# ---------------------------------------------------------------------------
# seeded plan generation (the fuzzer's front half)

#: crashes are scheduled no earlier than this many checkpoint intervals in,
#: so at least one wave has committed and recovery (not declared failure)
#: is the expected outcome
_MIN_CRASH_WAVES = 3.0


def random_plan(seed: int, nsites: int = 4,
                ckpt_interval: float = 0.2,
                corrupt: bool = False,
                workload: str = "primes") -> FaultPlan:
    """Generate one seeded random fault plan.

    The generator keeps plans *survivable by construction*: the submit
    site never dies (the frontend holds the program handle), at least one
    site stays alive, partitions heal well inside the heartbeat timeout,
    and crashes land only after a checkpoint has plausibly committed —
    so ``expect_complete`` is True and any non-completion is a real bug.

    ``corrupt`` additionally draws one site-targeted result-corruption
    window and turns full replication on, so the defense must detect and
    outvote every flip (the corrupt draws happen *after* the base fault
    loop — ``corrupt=False`` plans stay bit-identical per seed).

    ``workload`` names the program the plan runs (a key of
    ``chaos.fuzz.WORKLOADS``); it draws nothing, so one seed schedules
    the same faults under every workload.
    """
    rng = random.Random(seed)
    plan = FaultPlan(seed=seed, nsites=nsites, submit_site=0,
                     ckpt_interval=ckpt_interval, workload=workload,
                     name=f"fuzz-{seed}")
    killable = [i for i in range(nsites) if i != plan.submit_site]
    rng.shuffle(killable)
    # keep one non-frontend site untouched as a guaranteed survivor
    killable = killable[:max(0, len(killable) - 1)]

    faults: List[Fault] = []
    t_min = _MIN_CRASH_WAVES * ckpt_interval
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.40 and killable:
            site = killable.pop()
            faults.append(CrashFault(at=round(
                t_min + rng.random() * 1.5, 4), site=site))
        elif roll < 0.55 and killable:
            site = killable.pop()
            faults.append(SignOffFault(at=round(
                t_min + rng.random() * 1.5, 4), site=site))
        elif roll < 0.75:
            start = round(0.3 + rng.random() * 1.2, 4)
            # heal inside any sane heartbeat timeout
            duration = round(0.01 + rng.random() * 0.04, 4)
            group = (rng.randrange(nsites),)
            faults.append(PartitionFault(start=start,
                                         end=round(start + duration, 4),
                                         group=group))
        elif roll < 0.90:
            start = round(0.3 + rng.random() * 1.2, 4)
            duration = round(0.05 + rng.random() * 0.3, 4)
            faults.append(LinkFault(start=start,
                                    end=round(start + duration, 4),
                                    dup=round(0.1 + rng.random() * 0.4, 3),
                                    delay=round(rng.random() * 2e-3, 6),
                                    reorder=round(rng.random() * 0.3, 3)))
        else:
            start = round(0.3 + rng.random() * 1.0, 4)
            faults.append(SlowFault(start=start,
                                    end=round(start + 0.2
                                              + rng.random() * 0.6, 4),
                                    site=rng.randrange(nsites),
                                    factor=round(2.0 + rng.random() * 6.0,
                                                 2)))
    if corrupt:
        # site-targeted: site=-1 would corrupt primary and replica
        # identically, which no amount of comparison can detect
        start = round(0.1 + rng.random() * 1.0, 4)
        faults.append(CorruptFault(
            start=start,
            end=round(start + 0.3 + rng.random() * 1.2, 4),
            site=rng.randrange(nsites),
            mode="result",
            prob=round(0.3 + rng.random() * 0.7, 3)))
        plan.replicate_frac = 1.0
    faults.sort(key=lambda f: (getattr(f, "at", getattr(f, "start", 0.0)),
                               f.kind))
    plan.faults = faults
    plan.validate()
    return plan


# ---------------------------------------------------------------------------
# plan shrinking (the fuzzer's back half)

#: passes over the fault list before the shrinker gives up
_SHRINK_ROUNDS = 8


def shrink_plan(plan: FaultPlan,
                still_fails: Callable[[FaultPlan], bool]) -> FaultPlan:
    """Greedy delta-debugging: drop faults while the failure reproduces.

    ``still_fails`` re-runs a candidate plan and reports whether the
    original failure is still observed.  Deterministic replay makes this
    sound: a candidate either reproduces or it does not, with no flake in
    between.  Returns the smallest failing plan found.
    """
    current = plan
    for _ in range(_SHRINK_ROUNDS):
        shrunk = False
        for index in range(len(current.faults)):
            candidate = current.replace_faults(
                current.faults[:index] + current.faults[index + 1:])
            if candidate.faults != current.faults and still_fails(candidate):
                current = candidate
                shrunk = True
                break
        if not shrunk:
            break
    return current
