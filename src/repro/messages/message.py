"""SDMessage definition, message-type registry, and wire encoding."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.common.errors import SerializationError
from repro.common.ids import ManagerId
from repro.serde import dumps_record, loads_record, wire_copy


class MsgType(enum.IntEnum):
    """Every message kind exchanged between SDVM managers.

    Grouped by owning protocol; the paper describes each protocol in §3–§4.
    """

    # -- scheduling / work stealing (§3.3, §4 scheduling manager)
    HELP_REQUEST = 10          # idle site asks another site for work
    HELP_REPLY = 11            # frames spared, or none: "my queues are empty"

    # -- replicated execution (SDC defense, §4 processing manager)
    REPLICATE = 15             # an execution's recorded inputs, to repeat
    VERDICT = 16               # the effects the repeat produced

    # -- code distribution (§3.4, §4 code manager)
    CODE_REQUEST = 20          # need microthread (thread id, platform id)
    CODE_SOURCE = 22           # source text to compile on the fly, if any
    CODE_BINARY = 23           # a platform's binary: fetched or pushed

    # -- attraction memory / COMA (§4 attraction memory)
    APPLY_RESULT = 30          # write a parameter into a waiting microframe
    MEM_READ = 31              # request a memory object's value
    MEM_READ_REPLY = 32        # the value, else its owner, else neither
    MEM_WRITE = 33             # update a memory object
    DIR_UPDATE = 37            # owner publishes ownership to the homesite
    FRAME_TRANSFER = 38        # a microframe migrates (help reply / relocation)

    # -- cluster membership (§3.4, §4 cluster manager)
    SIGN_ON = 50               # join request to a known site
    SIGN_ON_ACK = 51           # logical id + cluster info in return
    SIGN_OFF = 52              # orderly leave announcement
    CLUSTER_INFO = 53          # gossip: site records piggybacked
    HEARTBEAT = 54
    LOAD_REPORT = 57           # statistical load data for help targeting

    # -- program management (§4 program manager)
    PROGRAM_REGISTER = 60      # announce a program + its code home site
    PROGRAM_TERMINATED = 61    # microthreads may be dropped from caches
    PROGRAM_RESULT = 62        # final result routed to the frontend site

    # -- input/output (§4 I/O manager)
    IO_OUTPUT = 70             # console output -> frontend
    IO_INPUT = 71              # a microthread's input request -> frontend
    IO_FILE = 73               # read / write / seek / close at the file's site
    IO_FILE_REPLY = 74         # the value or the error of one IO_FILE

    # -- crash management (§2.2, ref [4])
    CHECKPOINT_BEGIN = 80      # coordinator starts a checkpoint wave
    CHECKPOINT_STATE = 81      # a site's serialized snapshot -> keeper
    CHECKPOINT_ACK = 82
    CHECKPOINT_COMMIT = 83     # wave complete; snapshot becomes "last good"
    CRASH_NOTICE = 84          # heartbeat timeout observed for a site
    RECOVER_BEGIN = 85         # coordinator starts rollback
    RECOVER_STATE = 86         # a shard to restore, or a leaver's hand-off
    RECOVER_DONE = 87
    CHECKPOINT_REPLICA = 88    # committed snapshot copied to backup sites

    # -- delivery (§4 message manager)
    ACK = 89                   # receipt for a must-arrive message

    # -- security (§4 security manager)
    KEY_EXCHANGE = 90          # a DH public value; a reply answers in kind


class Row(NamedTuple):
    """One message type's row of :data:`MESSAGE_TABLE`."""

    type: MsgType
    #: the manager that sends and handles the type: the type names it at
    #: both ends, so no envelope carries a manager id
    owner: ManagerId
    #: the payload's field names in wire order.  The wire carries a
    #: presence mask (bit i: ``fields[i]`` is there) and the present values
    #: in this order; the names stay in memory
    fields: Tuple[str, ...]
    #: the mask bits every message of the type sets: the fields each
    #: sender fills in
    required: int
    #: a departed site that is still forwarding relays the type to its heir
    forwardable: bool
    #: the field that carries a computation's values — what silent data
    #: corruption in flight hits (``ChaosController._WIRE_KEYS``), or None
    data: Optional[str]
    #: the receiver's message manager acks a handled copy with an ACK, and
    #: the sender's resends it until one comes back (``MessageManager.
    #: request``)
    must_arrive: bool


def _row(mtype: MsgType, owner: ManagerId, fields: str = "",
         forward: bool = False, data: Optional[str] = None,
         must_arrive: bool = False) -> Row:
    """A row from its fields in wire order, each optional one marked with
    a trailing ``?``."""
    names = fields.split()
    return Row(mtype, owner, tuple(name.rstrip("?") for name in names),
               sum(1 << bit for bit, name in enumerate(names)
                   if not name.endswith("?")),
               forward, data, must_arrive)


_T, _M = MsgType, ManagerId
#: the message table: one row per type, the route-table idiom.
#: ``msg.payload`` is a dict by field name in memory; only
#: :meth:`SDMessage.encode` and :meth:`SDMessage.decode` read the table, to
#: put the values on the wire by position and to refuse a field its row
#: does not name.  A field is required when every sender fills it in
MESSAGE_TABLE: Dict[MsgType, Row] = {row.type: row for row in (
    # -- scheduling / work stealing
    _row(_T.HELP_REQUEST, _M.SCHEDULING, "want record? hops? thief? rseq?",
         forward=True),
    _row(_T.HELP_REPLY, _M.SCHEDULING, "frames? program_infos? epoch?"),
    _row(_T.LOAD_REPORT, _M.SCHEDULING),
    # -- replicated execution
    _row(_T.REPLICATE, _M.PROCESSING,
         "frame thread targets args oplog now work", data="args"),
    _row(_T.VERDICT, _M.PROCESSING, "tainted effects", data="effects"),
    # -- code distribution
    _row(_T.CODE_REQUEST, _M.CODE, "tid platform binary_only",
         forward=True),
    _row(_T.CODE_SOURCE, _M.CODE, "tid source?"),
    _row(_T.CODE_BINARY, _M.CODE, "tid platform binary", forward=True),
    # -- attraction memory
    _row(_T.APPLY_RESULT, _M.ATTRACTION_MEMORY, "addr slot value epoch",
         forward=True, data="value"),
    _row(_T.MEM_READ, _M.ATTRACTION_MEMORY, "addr", forward=True),
    _row(_T.MEM_READ_REPLY, _M.ATTRACTION_MEMORY,
         "addr value? epoch? version? recorded? owner?"),
    _row(_T.MEM_WRITE, _M.ATTRACTION_MEMORY, "addr value hops?",
         forward=True),
    _row(_T.DIR_UPDATE, _M.ATTRACTION_MEMORY, "addr owner version epoch",
         forward=True, must_arrive=True),
    _row(_T.FRAME_TRANSFER, _M.ATTRACTION_MEMORY,
         "frames program_infos epoch", forward=True),
    # -- cluster membership
    _row(_T.SIGN_ON, _M.CLUSTER,
         "physical platform speed name code_distribution reliable",
         forward=True),
    _row(_T.SIGN_ON_ACK, _M.CLUSTER, "your_id sites programs id_block?"),
    _row(_T.SIGN_OFF, _M.CLUSTER, "leaver heir", must_arrive=True),
    _row(_T.CLUSTER_INFO, _M.CLUSTER, "sites"),
    _row(_T.HEARTBEAT, _M.CLUSTER),
    _row(_T.CRASH_NOTICE, _M.CLUSTER, "site"),
    # -- program management
    _row(_T.PROGRAM_REGISTER, _M.PROGRAM, "info relay?", forward=True),
    _row(_T.PROGRAM_TERMINATED, _M.PROGRAM, "pid"),
    _row(_T.PROGRAM_RESULT, _M.PROGRAM, "pid result failed failure"),
    # -- input/output
    _row(_T.IO_OUTPUT, _M.IO, "text", forward=True),
    _row(_T.IO_INPUT, _M.IO, "prompt addr slot"),
    _row(_T.IO_FILE, _M.IO, "handle op arg"),
    _row(_T.IO_FILE_REPLY, _M.IO, "value? error?"),
    # -- crash management
    _row(_T.CHECKPOINT_BEGIN, _M.CRASH, "wave phase"),
    _row(_T.CHECKPOINT_STATE, _M.CRASH, "wave state"),
    _row(_T.CHECKPOINT_ACK, _M.CRASH, "wave"),
    _row(_T.CHECKPOINT_COMMIT, _M.CRASH, "wave aborted?", must_arrive=True),
    _row(_T.CHECKPOINT_REPLICA, _M.CRASH, "wave shards"),
    _row(_T.RECOVER_BEGIN, _M.CRASH, "epoch dead heir", must_arrive=True),
    _row(_T.RECOVER_STATE, _M.CRASH, "state epoch shard", must_arrive=True),
    _row(_T.RECOVER_DONE, _M.CRASH, "epoch", must_arrive=True),
    # -- delivery
    _row(_T.ACK, _M.MESSAGE),
    # -- security
    _row(_T.KEY_EXCHANGE, _M.SECURITY, "public"),
)}
#: the owner's method that handles each type: ``_on_`` and the type's name
#: in lower case (``_on_help_request``), as ``ast.NodeVisitor`` names its
#: ``visit_<Class>``.  A type whose owner has no such method is a reply
#: only its request reads; a late copy of one is dropped at the site
HANDLER_OF: Dict[MsgType, str] = {
    mtype: "_on_" + mtype.name.lower() for mtype in MsgType}


def _payload_error(row: Row, problem: str) -> SerializationError:
    return SerializationError(
        f"{row.type.name} payload {problem} (fields: "
        f"{' '.join(row.fields) or 'none'})")


@dataclass(slots=True)
class SDMessage:
    """One manager-to-manager message.

    ``payload`` must contain only codec-serializable values (see
    :mod:`repro.serde.codec`); this is enforced at encode time.
    ``seq`` is assigned by the sending message manager; ``reply_to``
    correlates request/response pairs.  Source and target manager are the
    type's owner (its :data:`MESSAGE_TABLE` row), the handler its method
    :data:`HANDLER_OF`; the row also names the payload's fields.
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
        src_load and src_queue, followed by the presence mask of the
        type's row (:data:`MESSAGE_TABLE`) and the present payload values
        in row order.  No field name goes on the wire.

        Encode-once: the first call caches the envelope and every later
        call returns the same ``bytes`` object.  Mutating the message after
        the first ``encode()`` does not change its wire form — senders must
        fully assemble a message before handing it to the message manager.
        A type without a row, a header figure that is not an ``int``, a
        payload that is not a dict, a payload key the row does not name
        and a missing required field raise :class:`SerializationError`.
        """
        wire = self._wire
        if wire is None:
            row = MESSAGE_TABLE.get(self.type)
            if row is None:
                raise SerializationError(f"unknown message type {self.type}")
            payload = self.payload
            if type(payload) is not dict:
                raise _payload_error(row, "is not a dict")
            mask = 0
            values: List[Any] = []
            for bit, name in enumerate(row.fields):
                if name in payload:
                    mask |= 1 << bit
                    values.append(payload[name])
            if len(values) != len(payload):
                unknown = [key for key in payload if key not in row.fields]
                raise _payload_error(row, f"has no field {unknown[0]!r}")
            if mask & row.required != row.required:
                raise _payload_error(row, "lacks a required field")
            wire = self._wire = dumps_record((
                int(self.type), self.src_site, self.dst_site, self.program,
                self.seq, self.reply_to, self.src_load, self.src_queue,
            ), mask, values)
        return wire

    @classmethod
    def decode(cls, data: bytes) -> "SDMessage":
        """The message :meth:`encode` wrote.  Anything else — an unknown
        type, a truncated record, a mask bit beyond the type's row or a
        required field the mask leaves out — raises
        :class:`SerializationError`, so no handler sees a payload its row
        does not promise."""
        (mtype, src_site, dst_site, program, seq, reply_to, src_load,
         src_queue, mask, values) = loads_record(data)
        row = MESSAGE_TABLE.get(mtype)
        if row is None:
            raise SerializationError(f"unknown message type {mtype} on wire")
        fields = row.fields
        if mask >> len(fields):
            raise _payload_error(row, f"mask {mask:#x} is beyond its row")
        if mask & row.required != row.required:
            raise _payload_error(row, "lacks a required field")
        if len(values) != len(fields):
            fields = [name for bit, name in enumerate(fields)
                      if mask >> bit & 1]
        # direct slot assignment instead of the dataclass __init__ — decode
        # runs once per received message and the kwargs machinery is
        # measurable there.  Every slot must be set, including the wire
        # cache (deliberately left cold, see the field comment).
        msg = cls.__new__(cls)
        msg.type = row.type
        msg.src_site = src_site
        msg.dst_site = dst_site
        msg.payload = dict(zip(fields, values))
        msg.program = program
        msg.seq = seq
        msg.reply_to = reply_to
        msg.src_load = src_load
        msg.src_queue = src_queue
        msg._wire = None
        return msg

    def snapshot(self) -> "SDMessage":
        """What ``SDMessage.decode(self.encode())`` builds, without the
        bytes: a private copy whose payload, in row order, shares no
        mutable container with this message (see
        :func:`repro.serde.wire_copy`), the wire cache cold.  Raises the
        :class:`SerializationError` that encode or decode would, so a
        caller can fall back to the bytes.
        """
        self.encode()  # checks header and payload; cached after a send
        row = MESSAGE_TABLE[self.type]
        payload = self.payload
        msg = SDMessage.__new__(SDMessage)
        msg.type = row.type
        msg.src_site = self.src_site
        msg.dst_site = self.dst_site
        # depth 1: a value sits inside the record, as it does on the wire
        msg.payload = {name: wire_copy(payload[name], 1)
                       for name in row.fields if name in payload}
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
                f"{self.dst_site}/{MESSAGE_TABLE[self.type].owner.name} "
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
