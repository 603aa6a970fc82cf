"""SDMessage — the manager-to-manager message format (paper §4, Fig. 6).

"All communication is done between managers only, so a message contains the
source's and the target's site ids and manager ids apart from other
administrational information and the payload data itself."
"""

from repro.messages.message import (MsgType, SDMessage, SnapshotEnvelope,
                                    make_reply)

__all__ = ["SDMessage", "MsgType", "SnapshotEnvelope", "make_reply"]
