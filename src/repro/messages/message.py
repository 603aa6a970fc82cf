"""SDMessage definition, message-type registry, and wire encoding."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.common.errors import SerializationError
from repro.common.ids import ManagerId
from repro.serde import dumps_record, loads_record, wire_copy


class MsgType(enum.IntEnum):
    """Every message kind exchanged between SDVM managers.

    Grouped by owning protocol; the paper describes each protocol in §3–§4.
    """

    # -- scheduling / work stealing (§3.3, §4 scheduling manager)
    HELP_REQUEST = 10          # idle site asks another site for work
    HELP_REPLY = 11            # an executable/ready frame, if one was spared
    CANT_HELP = 12             # "my queues are empty, too"

    # -- replicated execution (SDC defense, §4 processing manager)
    REPLICATE = 15             # an execution's recorded inputs, to repeat
    VERDICT = 16               # the effects the repeat produced

    # -- code distribution (§3.4, §4 code manager)
    CODE_REQUEST = 20          # need microthread (thread id, platform id)
    CODE_REPLY_BINARY = 21     # platform-matching binary
    CODE_REPLY_SOURCE = 22     # source only; requester compiles on the fly
    CODE_PUSH_BINARY = 23      # freshly compiled binary -> distribution site
    CODE_NOT_FOUND = 24

    # -- attraction memory / COMA (§4 attraction memory)
    APPLY_RESULT = 30          # write a parameter into a waiting microframe
    MEM_READ = 31              # request a memory object's value
    MEM_READ_REPLY = 32
    MEM_WRITE = 33             # update a memory object
    MEM_OBJECT = 35            # object transfer (migration payload)
    MEM_LOCATION = 36          # directory redirect: "object now lives at X"
    DIR_UPDATE = 37            # owner publishes ownership to the homesite
    FRAME_TRANSFER = 38        # a microframe migrates (help reply / relocation)
    MEM_NOT_FOUND = 39
    DIR_ACK = 40               # directory site acknowledges a DIR_UPDATE

    # -- cluster membership (§3.4, §4 cluster manager)
    SIGN_ON = 50               # join request to a known site
    SIGN_ON_ACK = 51           # logical id + cluster info in return
    SIGN_OFF = 52              # orderly leave announcement
    CLUSTER_INFO = 53          # gossip: site records piggybacked
    HEARTBEAT = 54
    ID_BLOCK_REQUEST = 55      # contingent strategy: ask for an id block
    ID_BLOCK_REPLY = 56
    LOAD_REPORT = 57           # statistical load data for help targeting

    # -- program management (§4 program manager)
    PROGRAM_REGISTER = 60      # announce a program + its code home site
    PROGRAM_TERMINATED = 61    # microthreads may be dropped from caches
    PROGRAM_RESULT = 62        # final result routed to the frontend site

    # -- input/output (§4 I/O manager)
    IO_OUTPUT = 70             # console output -> frontend
    IO_FILE_OPEN = 71
    IO_FILE_READ = 73
    IO_FILE_READ_REPLY = 74
    IO_FILE_WRITE = 75
    IO_FILE_WRITE_ACK = 76
    IO_FILE_CLOSE = 77

    # -- crash management (§2.2, ref [4])
    CHECKPOINT_BEGIN = 80      # coordinator starts a checkpoint wave
    CHECKPOINT_STATE = 81      # a site's serialized snapshot -> keeper
    CHECKPOINT_ACK = 82
    CHECKPOINT_COMMIT = 83     # wave complete; snapshot becomes "last good"
    CRASH_NOTICE = 84          # heartbeat timeout observed for a site
    RECOVER_BEGIN = 85         # coordinator starts rollback
    RECOVER_STATE = 86         # snapshot shard restored onto a survivor
    RECOVER_DONE = 87
    CHECKPOINT_REPLICA = 88    # committed snapshot copied to backup sites
    RECOVER_ACK = 89           # receipt for retried recovery control

    # -- security (§4 security manager)
    KEY_EXCHANGE_INIT = 90
    KEY_EXCHANGE_REPLY = 91

    # -- site maintenance (§4 site manager)
    STATUS_QUERY = 95
    STATUS_REPLY = 96
    SHUTDOWN = 97


#: the manager that owns each message type, one row per manager: the type
#: names the manager at both ends, so no envelope carries a manager id
_OWNED_BY = {
    ManagerId.SCHEDULING: "HELP_REQUEST HELP_REPLY CANT_HELP LOAD_REPORT",
    ManagerId.PROCESSING: "REPLICATE VERDICT",
    ManagerId.CODE: "CODE_REQUEST CODE_REPLY_BINARY CODE_REPLY_SOURCE "
                    "CODE_PUSH_BINARY CODE_NOT_FOUND",
    ManagerId.ATTRACTION_MEMORY: "APPLY_RESULT MEM_READ MEM_READ_REPLY "
        "MEM_WRITE MEM_OBJECT MEM_LOCATION DIR_UPDATE FRAME_TRANSFER "
        "MEM_NOT_FOUND DIR_ACK",
    ManagerId.CLUSTER: "SIGN_ON SIGN_ON_ACK SIGN_OFF CLUSTER_INFO HEARTBEAT "
                       "ID_BLOCK_REQUEST ID_BLOCK_REPLY CRASH_NOTICE",
    ManagerId.PROGRAM: "PROGRAM_REGISTER PROGRAM_TERMINATED PROGRAM_RESULT",
    ManagerId.IO: "IO_OUTPUT IO_FILE_OPEN IO_FILE_READ IO_FILE_READ_REPLY "
                  "IO_FILE_WRITE IO_FILE_WRITE_ACK IO_FILE_CLOSE",
    ManagerId.CRASH: "CHECKPOINT_BEGIN CHECKPOINT_STATE CHECKPOINT_ACK "
        "CHECKPOINT_COMMIT CHECKPOINT_REPLICA RECOVER_BEGIN RECOVER_STATE "
        "RECOVER_DONE RECOVER_ACK",
    ManagerId.SECURITY: "KEY_EXCHANGE_INIT KEY_EXCHANGE_REPLY",
    ManagerId.SITE: "STATUS_QUERY STATUS_REPLY SHUTDOWN",
}
MANAGER_OF: Dict[MsgType, ManagerId] = {
    MsgType[name]: manager for manager, names in _OWNED_BY.items()
    for name in names.split()}
#: the owner's method that handles each type: ``_on_`` and the type's name
#: in lower case (``_on_help_request``), as ``ast.NodeVisitor`` names its
#: ``visit_<Class>``.  A type whose owner has no such method is a reply
#: only its request reads; a late copy of one is dropped at the site
HANDLER_OF: Dict[MsgType, str] = {
    mtype: "_on_" + mtype.name.lower() for mtype in MsgType}

# value -> member map for decode: a plain dict lookup instead of the enum
# class's __call__ machinery (decode runs once per received message)
_MSG_BY_VALUE = MsgType._value2member_map_


@dataclass(slots=True)
class SDMessage:
    """One manager-to-manager message.

    ``payload`` must contain only codec-serializable values (see
    :mod:`repro.serde.codec`); this is enforced at encode time.
    ``seq`` is assigned by the sending message manager; ``reply_to``
    correlates request/response pairs.  Source and target manager are the
    type's owner (:data:`MANAGER_OF`), the handler its method
    :data:`HANDLER_OF`.
    """

    type: MsgType
    src_site: int
    dst_site: int
    payload: Dict[str, Any] = field(default_factory=dict)
    program: int = -1
    seq: int = -1
    reply_to: int = -1
    #: sender's load figure (queued + running frames), piggybacked on
    #: every message so cluster managers keep fresh "statistical data about
    #: e. g. the other sites' load" (§4) without dedicated traffic.  The
    #: only place the figure travels: no payload repeats it.  A frame
    #: count, so a small varint on the wire.  -1 = not supplied.
    src_load: int = -1
    #: sender's *stealable* queue depth (executable+ready frames), also
    #: piggybacked on every message and nowhere else — the scheduler's
    #: victim selection and proactive push run off this figure.  -1 = not
    #: supplied.
    src_queue: int = -1
    #: cached wire encoding (encode-once: messages are immutable once the
    #: message manager hands them to the transport, so ``wire_size()`` and
    #: ``send`` share one serialization).  Never set by ``decode`` — a
    #: received message may legitimately be re-addressed (heir forwarding)
    #: before it is encoded again.
    _wire: Optional[bytes] = field(default=None, init=False, repr=False,
                                   compare=False)

    def encode(self) -> bytes:
        """Serialize to wire bytes: one codec record (tag ``R``, see
        :func:`repro.serde.dumps_record`), whose eight untagged zigzag
        varints are type, src_site, dst_site, program, seq, reply_to,
        src_load and src_queue, followed by the payload dict's count and
        pairs.

        Encode-once: the first call caches the envelope and every later
        call returns the same ``bytes`` object.  Mutating the message after
        the first ``encode()`` does not change its wire form — senders must
        fully assemble a message before handing it to the message manager.
        A header figure that is not an ``int`` and a payload that is not
        a dict raise :class:`SerializationError`.
        """
        wire = self._wire
        if wire is None:
            wire = self._wire = dumps_record((
                int(self.type), self.src_site, self.dst_site, self.program,
                self.seq, self.reply_to, self.src_load, self.src_queue,
            ), self.payload)
        return wire

    @classmethod
    def decode(cls, data: bytes) -> "SDMessage":
        (mtype, src_site, dst_site, program, seq, reply_to, src_load,
         src_queue, payload) = loads_record(data)
        msg_type = _MSG_BY_VALUE.get(mtype)
        if msg_type is None:
            raise SerializationError(f"unknown message type {mtype} on wire")
        # direct slot assignment instead of the dataclass __init__ — decode
        # runs once per received message and the kwargs machinery is
        # measurable there.  Every slot must be set, including the wire
        # cache (deliberately left cold, see the field comment).
        msg = cls.__new__(cls)
        msg.type = msg_type
        msg.src_site = src_site
        msg.dst_site = dst_site
        msg.payload = payload
        msg.program = program
        msg.seq = seq
        msg.reply_to = reply_to
        msg.src_load = src_load
        msg.src_queue = src_queue
        msg._wire = None
        return msg

    def snapshot(self) -> "SDMessage":
        """What ``SDMessage.decode(self.encode())`` builds, without the
        bytes: a private copy whose payload shares no mutable container
        with this message (see :func:`repro.serde.wire_copy`), the wire
        cache cold.  Raises the :class:`SerializationError` that encode or
        decode would, so a caller can fall back to the bytes.
        """
        self.encode()  # checks header and payload; cached after a send
        msg_type = _MSG_BY_VALUE.get(self.type)
        if msg_type is None:
            raise SerializationError(
                f"unknown message type {self.type} on wire")
        msg = SDMessage.__new__(SDMessage)
        msg.type = msg_type
        msg.src_site = self.src_site
        msg.dst_site = self.dst_site
        msg.payload = wire_copy(self.payload)
        msg.program = self.program
        msg.seq = self.seq
        msg.reply_to = self.reply_to
        msg.src_load = self.src_load
        msg.src_queue = self.src_queue
        msg._wire = None
        return msg

    def invalidate_wire(self) -> None:
        """Drop the cached encoding after a legitimate mutation.

        The message manager calls this before stamping seq/src/load fields
        on send, so a sender that probed :meth:`wire_size` beforehand cannot
        pin a stale envelope.
        """
        self._wire = None

    def wire_size(self) -> int:
        """Encoded size in bytes — drives the simulated bandwidth model.

        Shares the encode-once cache with :meth:`encode`, so asking for a
        message's size before (or after) sending it costs one serialization
        total, and ``wire_size() == len(encode())`` always holds.
        """
        return len(self.encode())

    def __repr__(self) -> str:
        return (f"SDMessage({self.type.name} {self.src_site} -> "
                f"{self.dst_site}/{MANAGER_OF[self.type].name} "
                f"seq={self.seq})")


class SnapshotEnvelope(bytes):
    """Envelope bytes with the sender's :meth:`SDMessage.snapshot` riding
    along, for a wire that never leaves the process.

    The bytes are the complete envelope and everything that sizes, traces,
    corrupts or unseals a message reads them; the receiver alone asks for
    the rider, to dispatch it in place of parsing bytes this process
    encoded itself.  The rider falls off by construction: slicing,
    concatenating or re-encoding yields plain ``bytes``, and :meth:`take`
    gives it up once, so a second delivery of one envelope is parsed and
    the two deliveries share no container.
    """

    def __new__(cls, data: bytes, message: SDMessage) -> "SnapshotEnvelope":
        self = super().__new__(cls, data)
        self._message = message
        return self

    def take(self) -> Optional[SDMessage]:
        """The snapshot, on the first call only."""
        message, self._message = self._message, None
        return message


def make_reply(request: SDMessage, msg_type: MsgType,
               payload: Optional[Dict[str, Any]] = None) -> SDMessage:
    """Build a response addressed back at the requesting site."""
    return SDMessage(
        type=msg_type,
        src_site=request.dst_site, dst_site=request.src_site,
        payload=payload or {},
        program=request.program,
        reply_to=request.seq,
    )
