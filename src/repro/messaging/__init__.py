"""The DTN messaging application (the paper's Section IV).

Messages are replicated items; a host's filter selects the messages
addressed to it (plus any addresses it volunteers to relay for). The
application inherits reliable, at-most-once, eventually consistent delivery
from the substrate.
"""

from .app import DeliveryCallback, MessagingApp
from .message import Message

__all__ = [
    "DeliveryCallback",
    "Message",
    "MessagingApp",
]
