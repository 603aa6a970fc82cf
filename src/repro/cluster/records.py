"""Site records — entries of the cluster manager's site list."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.serde import Encoded

#: bit positions of the wire form's flags word (see
#: :meth:`SiteRecord.to_wire`)
_F_ALIVE = 1
_F_LEFT = 2
_F_CODE_DIST = 4
_F_RELIABLE = 8


@dataclass(slots=True)
class SiteRecord:
    """Everything one site knows about another (or itself).

    Mirrors the paper's list contents: logical and physical addresses,
    platform id, performance characteristics, and the statistical load data
    used to pick help-request targets (§4).
    """

    logical: int
    physical: str
    platform: str = "py-generic"
    speed: float = 1.0
    name: str = ""
    code_distribution: bool = False
    #: member of the reliable core (§2.2); unreliable sites are excluded
    #: from coordinator/heir/snapshot-keeper duties
    reliable: bool = True
    #: False once the site crashed or signed off
    alive: bool = True
    #: True when the site left in an orderly fashion (vs. crashed)
    left: bool = False
    #: the site that adopted this site's frames/objects after sign-off
    heir: Optional[int] = None
    # -- the fields above travel (:meth:`to_wire`), those below stay home
    #: last load figure heard from this site (executable+ready+in-flight)
    load: int = 0
    #: last *stealable* queue depth heard (scheduler executable+ready) —
    #: what victim selection and proactive push actually key on
    queue: int = 0
    #: local time the load/queue figures were last updated (-1 = never
    #: heard).  None of the three is in the wire forms: the figures travel
    #: only in a message's envelope, and the receiver sets all three from
    #: there (a second-hand figure would arrive with no age to judge it by)
    load_at: float = -1.0
    #: when we last heard anything from it (any message proves life)
    last_seen: float = 0.0
    #: when we last sent it anything (-1 = never): a message is as good
    #: as a heartbeat, so the heartbeat tick skips a peer written to since
    #: the previous tick
    last_sent: float = -1.0
    #: the wire form last handed out, re-encoded when it no longer matches
    _wire: Optional[Encoded] = field(default=None, init=False, repr=False,
                                     compare=False)

    def to_wire(self) -> Encoded:
        """The record on the wire, positionally: a 7-tuple with the four
        booleans packed into one flags word, so a 1024-site SIGN_ON_ACK
        does not spend most of its bytes on repeated keys.  Encoded once
        per change (:class:`~repro.serde.Encoded`): every SIGN_ON_ACK and
        CLUSTER_INFO that carries the record copies the same bytes.
        ``from_wire(to_wire())`` round-trips everything but the locally
        kept figures (``load``, ``queue``, ``load_at``, ``last_seen``,
        ``last_sent``)."""
        flags = ((_F_ALIVE if self.alive else 0)
                 | (_F_LEFT if self.left else 0)
                 | (_F_CODE_DIST if self.code_distribution else 0)
                 | (_F_RELIABLE if self.reliable else 0))
        plain = (self.logical, self.physical, self.platform, self.speed,
                 self.name, flags, -1 if self.heir is None else self.heir)
        wire = self._wire
        if wire != plain:
            wire = self._wire = Encoded(plain)
        return wire

    @classmethod
    def from_wire(cls, data: Sequence) -> "SiteRecord":
        """The record ``data`` describes.  An :class:`Encoded` ``data`` (a
        record shared in process) becomes its wire form, so passing the
        record on encodes nothing."""
        logical, physical, platform, speed, name, flags, heir = data
        # positional: the wire fields lead the dataclass
        record = cls(logical, physical, platform, speed, name,
                     flags & _F_CODE_DIST != 0, flags & _F_RELIABLE != 0,
                     flags & _F_ALIVE != 0, flags & _F_LEFT != 0,
                     None if heir < 0 else heir)
        if type(data) is Encoded:
            record._wire = data
        return record

    def merge_newer(self, other: "SiteRecord") -> None:
        """Adopt fields from a record that carries newer information.

        Liveness transitions are monotone (alive -> dead) because a dead
        site never comes back under the same logical id.
        """
        self.physical = other.physical
        self.platform = other.platform
        self.speed = other.speed
        self.name = other.name or self.name
        self.code_distribution = other.code_distribution or self.code_distribution
        self.reliable = other.reliable
        if not other.alive:
            self.alive = False
            self.left = self.left or other.left
            if other.heir is not None:
                self.heir = other.heir
