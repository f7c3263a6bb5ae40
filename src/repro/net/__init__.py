"""Network campaign fabric: the TCP broker and its client.

``repro.net`` turns the distributed backend into a genuinely networked
service for hosts that share nothing but a route to one port:

* :class:`BrokerServer` — a stdlib-only threaded TCP server holding one
  campaign queue in memory (``repro broker --listen HOST:PORT``); payloads
  are opaque bytes, so the server never unpickles campaign objects;
* :class:`SocketBroker` — the client implementing the same
  :class:`~repro.distributed.broker.Broker` contract as the filesystem
  broker, so ``repro worker --queue tcp://host:port`` and ``repro analyze
  --queue tcp://…`` work unchanged;
* :mod:`repro.net.framing` — the length-prefixed JSON/pickle wire format.

Broker selection by queue URL lives in
:func:`repro.distributed.broker.open_broker`.
"""

from .client import (BrokerConnectionError, BrokerOperationError,
                     SocketBroker, parse_queue_url)
from .framing import ProtocolError, recv_message, send_message
from .server import BrokerServer, parse_listen_address

__all__ = [
    "BrokerConnectionError", "BrokerOperationError", "BrokerServer",
    "ProtocolError", "SocketBroker", "parse_listen_address",
    "parse_queue_url", "recv_message", "send_message",
]
