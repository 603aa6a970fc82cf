"""Site records — entries of the cluster manager's site list."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    #: when we last heard anything from it (heartbeats or piggybacked)
    last_seen: float = 0.0
    #: False once the site crashed or signed off
    alive: bool = True
    #: True when the site left in an orderly fashion (vs. crashed)
    left: bool = False
    #: the site that adopted this site's frames/objects after sign-off
    heir: Optional[int] = None

    def to_wire(self) -> list:
        """The record on the wire, positionally: a 7-element list with the
        four booleans packed into one flags word, so a 1024-site
        SIGN_ON_ACK does not spend most of its bytes on repeated keys.
        ``from_wire(to_wire())`` round-trips everything but the locally
        kept figures (``load``, ``queue``, ``load_at``, ``last_seen``)."""
        flags = ((_F_ALIVE if self.alive else 0)
                 | (_F_LEFT if self.left else 0)
                 | (_F_CODE_DIST if self.code_distribution else 0)
                 | (_F_RELIABLE if self.reliable else 0))
        return [self.logical, self.physical, self.platform, self.speed,
                self.name, flags, -1 if self.heir is None else self.heir]

    @classmethod
    def from_wire(cls, data: list) -> "SiteRecord":
        logical, physical, platform, speed, name, flags, heir = data
        return cls(
            logical=logical,
            physical=physical,
            platform=platform,
            speed=speed,
            name=name,
            code_distribution=bool(flags & _F_CODE_DIST),
            reliable=bool(flags & _F_RELIABLE),
            alive=bool(flags & _F_ALIVE),
            left=bool(flags & _F_LEFT),
            heir=None if heir < 0 else heir,
        )

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
