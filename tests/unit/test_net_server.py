"""The asyncio socket server: routing, sharding, tenancy, bad frames.

``repro.net.server.ReproServer`` hosts the registry's simulated
providers behind TCP.  These tests exercise the server through the real
client machinery (:class:`ConnectionPool` + the frame codec) on a
background :class:`ServerThread` — no mocked sockets — and pin the
routing contract: tenants never see each other's documents, documents
hash onto stable shards, malformed frames answer with an error frame
(or, when framing itself is lost, a dropped connection) instead of
taking the server down.
"""

from __future__ import annotations

import socket as socketlib

import pytest

from repro.errors import NetworkTimeoutError, ProtocolError
from repro.net.pool import ConnectionPool
from repro.net.server import ReproServer, ServerThread
from repro.net.transport import (
    AsyncioSocketTransport,
    decode_response_frame,
)
from repro.obs import value_of


@pytest.fixture(scope="module")
def served():
    with ServerThread(shards=4) as (host, port):
        yield host, port


@pytest.fixture()
def pool(served):
    host, port = served
    p = ConnectionPool(host, port, size=2, window=8, timeout=5.0)
    yield p
    p.close()


def _save_via(transport: AsyncioSocketTransport, doc: str,
              text: str) -> None:
    from repro.extension.session import PrivateEditingSession

    session = PrivateEditingSession(doc, "pw", transport=transport,
                                    service=transport.service)
    session.open()
    session.type_text(0, text)
    assert session.save().ok


# -- control frames ------------------------------------------------------


def test_ping(served):
    host, port = served
    transport = AsyncioSocketTransport(host, port)
    try:
        assert transport.ping() is True
    finally:
        transport.close()


def test_unknown_service_answers_an_error_frame(pool):
    reply = pool.request({"op": "ping", "svc": "dropbox", "tn": "t"})
    with pytest.raises(ProtocolError, match="unknown service"):
        decode_response_frame(reply)


def test_unknown_op_answers_an_error_frame(pool):
    reply = pool.request({"op": "teleport", "svc": "gdocs", "tn": "t"})
    with pytest.raises(ProtocolError, match="unknown op"):
        decode_response_frame(reply)


def test_malformed_http_frame_answers_an_error_frame(pool):
    # op=http but no embedded request fields
    reply = pool.request({"op": "http", "svc": "gdocs", "tn": "t"})
    with pytest.raises(ProtocolError, match="missing field"):
        decode_response_frame(reply)


def test_view_of_unknown_doc_is_empty(served):
    host, port = served
    transport = AsyncioSocketTransport(host, port, service="gdocs",
                                       tenant="lonely")
    try:
        assert transport.server_view("never-created") == ""
    finally:
        transport.close()


# -- tenancy and sharding ------------------------------------------------


def test_tenants_are_isolated(served):
    host, port = served
    alpha = AsyncioSocketTransport(host, port, service="bespin",
                                   tenant="alpha")
    beta = AsyncioSocketTransport(host, port, service="bespin",
                                  tenant="beta")
    try:
        _save_via(alpha, "shared-name", "alpha's words")
        assert alpha.server_view("shared-name") != ""
        # same service, same doc id, different tenant: nothing there
        assert beta.server_view("shared-name") == ""
    finally:
        alpha.close()
        beta.close()


def test_sharding_is_stable_and_spreads():
    server = ReproServer(shards=4)
    docs = [f"doc-{i}" for i in range(64)]
    shards = {doc: server._shard_of("t", doc) for doc in docs}
    # deterministic
    assert shards == {doc: server._shard_of("t", doc) for doc in docs}
    # spreads: 64 docs over 4 shards should touch them all
    assert set(shards.values()) == {0, 1, 2, 3}
    # tenant participates in the hash: same doc may land elsewhere
    assert any(server._shard_of("u", doc) != shard
               for doc, shard in shards.items())


def test_backend_instances_are_lazy_and_sharded(served):
    host, port = served
    tenant = "lazy-tenant"
    transports = [
        AsyncioSocketTransport(host, port, service="gdocs", tenant=tenant)
        for _ in range(1)
    ]
    try:
        # enough docs to touch several shards of this tenant's universe
        for i in range(12):
            _save_via(transports[0], f"spread-{i}", f"text {i}")
    finally:
        for transport in transports:
            transport.close()


def test_instances_gauge_falls_back_when_the_server_stops():
    """``server.shard.instances`` counts live instances: a stopped
    server takes its own off the gauge, once."""
    start = value_of("server.shard.instances")
    hosted = ServerThread(shards=2)
    host, port = hosted.start()
    try:
        transport = AsyncioSocketTransport(host, port, service="gdocs",
                                           tenant="gauge-tenant")
        try:
            for i in range(6):
                _save_via(transport, f"gauge-{i}", f"text {i}")
        finally:
            transport.close()
        created = hosted.server.instance_count
        assert created >= 1
        assert value_of("server.shard.instances") == start + created
    finally:
        hosted.stop()
    assert value_of("server.shard.instances") == start
    hosted.server.shutdown()
    assert value_of("server.shard.instances") == start


# -- broken framing ------------------------------------------------------


def test_garbage_length_prefix_drops_the_connection(served):
    host, port = served
    raw = socketlib.create_connection((host, port), timeout=5.0)
    try:
        raw.sendall(b"not-a-number\nwhatever")
        # server closes; the read sees EOF
        raw.settimeout(5.0)
        assert raw.recv(64) == b""
    finally:
        raw.close()


def test_oversized_frame_is_refused(served):
    host, port = served
    raw = socketlib.create_connection((host, port), timeout=5.0)
    try:
        raw.sendall(b"99999999999\n")  # past MAX_FRAME_BYTES
        raw.settimeout(5.0)
        assert raw.recv(64) == b""
    finally:
        raw.close()


def test_dead_connection_surfaces_as_timeout(served):
    """A pool whose server vanished raises NetworkTimeoutError — the
    resilient client's retry dialect — not a bare socket error."""
    victim = ServerThread(shards=1)
    host, port = victim.start()
    pool = ConnectionPool(host, port, size=1, window=4, timeout=2.0)
    try:
        assert "s" in pool.request(
            {"op": "ping", "svc": "gdocs", "tn": "t"})
        victim.stop()
        with pytest.raises(NetworkTimeoutError):
            pool.request({"op": "ping", "svc": "gdocs", "tn": "t"})
    finally:
        pool.close()
