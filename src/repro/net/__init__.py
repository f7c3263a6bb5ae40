"""The campaign broker: the one medium between coordinator and workers.

``repro.net`` holds a campaign's task queue and hands its tasks to workers
over a socket — TCP, so workers may run on any host that shares nothing
with the coordinator but a route to one port, or a Unix socket for a
coordinator's own local workers:

* :class:`BrokerServer` — a stdlib-only threaded socket server holding one
  campaign queue in memory.  ``repro broker --listen HOST:PORT`` serves one
  over TCP for workers on other hosts — any peer that reaches the port may
  use it, so listen on trusted networks only; a ``repro analyze --workers
  N`` coordinator starts a private one (:func:`private_server`) on a Unix
  socket in a directory only its owner can enter.  Payloads are opaque
  bytes, so the server never unpickles campaign objects;
* :class:`SocketBroker` — the client every coordinator and worker uses,
  with the :class:`CampaignManifest` and :class:`ClaimedTask` records it
  carries and :func:`enqueue_campaign` to publish a campaign;
* :mod:`repro.net.framing` — the length-prefixed JSON/pickle wire format.

This package imports nothing from :mod:`repro.distributed`, which builds
the coordinator and the worker loop on top of it.
"""

from .client import (BrokerConnectionError, BrokerOperationError,
                     CampaignManifest, ClaimedTask, SocketBroker,
                     enqueue_campaign, parse_queue_url)
from .framing import ProtocolError, recv_message, send_message
from .server import BrokerServer, parse_listen_address, private_server

__all__ = [
    "BrokerConnectionError", "BrokerOperationError", "BrokerServer",
    "CampaignManifest", "ClaimedTask", "ProtocolError", "SocketBroker",
    "enqueue_campaign", "parse_listen_address", "parse_queue_url",
    "private_server", "recv_message", "send_message",
]
