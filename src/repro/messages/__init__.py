"""SDMessage — the manager-to-manager message format (paper §4, Fig. 6).

"All communication is done between managers only, so a message contains the
source's and the target's site ids and manager ids apart from other
administrational information and the payload data itself."  Here the
type names the manager at both ends (the owner of its row in
:data:`MESSAGE_TABLE`), not the wire, and the manager's method that
handles it (:data:`HANDLER_OF`, ``_on_<type>``): the site routes a message
by its type alone.  The row also names the payload's fields, so the wire
carries their values by position and no field name.
"""

from repro.messages.message import (HANDLER_OF, MESSAGE_TABLE, MsgType,
                                    SDMessage, SnapshotEnvelope, make_reply)

__all__ = ["HANDLER_OF", "MESSAGE_TABLE", "SDMessage", "MsgType",
           "SnapshotEnvelope", "make_reply"]
