"""The fleet harness: one hosted provider, N private-editing sessions.

:mod:`repro.bench.load` (N users, one document each) and
:mod:`repro.bench.collab` (N writers on one document) are both a fleet
of :class:`Driver`\\ s run against one provider under :func:`fleet`.
The transport decides where the provider lives and what a cell's clock
is:

* ``"socket"`` — every session speaks pooled, pipelined TCP frames
  (:class:`repro.net.transport.AsyncioSocketTransport`) over one shared
  :class:`repro.net.pool.ConnectionPool` to a
  :class:`repro.net.server.ReproServer`, self-hosted on a background
  thread unless ``address`` names a running one.  The clock is
  :func:`time.perf_counter`: latencies are **wall-clock**.
* ``"inprocess"`` — every session shares one
  :class:`~repro.net.latency.SimClock` and one 4 MB/s
  :class:`~repro.net.latency.SharedLink` (so 10k sessions do *not*
  each get a private 4 MB/s — see ``net/latency.py``), each with its
  own ``WAN_2011`` latency draw.  Each document gets its own simulated
  server, shared by every session on it, so a server's session ids
  (and with them the bytes a fault truncates) do not depend on how
  many other documents the cell holds.  The clock is the shared
  ``SimClock``: latencies are **simulated**.

Faults ride on top of either transport unchanged: a driver's
:class:`~repro.net.faults.FaultPlan` wraps delivery below the mediator,
which is the point of the transport seam.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.extension.session import PrivateEditingSession
from repro.net.faults import FaultPlan, updates_only
from repro.net.latency import SharedLink, SimClock, WAN_2011
from repro.net.policy import RetryPolicy
from repro.services import registry

__all__ = ["Driver", "fleet", "SEED"]

SEED = 20110613  # same fixed seed as every other bench in this repo


class Driver:
    """One session plus its fault plan, edit RNG and save tallies.

    ``session`` are the remaining
    :class:`~repro.extension.session.PrivateEditingSession` keywords:
    the cell's options plus the transport keywords :func:`fleet` gives.
    """

    def __init__(self, index: int, doc_id: str, password: str,
                 fault_rate: float, seed: int, **session):
        self.index = index
        self.plan = (
            FaultPlan.uniform(fault_rate, seed=seed + index,
                              match=updates_only)
            if fault_rate > 0 else None
        )
        self.rng = random.Random(seed ^ (index * 2654435761))
        self.session = PrivateEditingSession(
            doc_id, password, faults=self.plan,
            retry_policy=RetryPolicy(seed=seed + index), verify_acks=True,
            **session,
        )
        self.saves = 0  # non-noop save attempts
        self.conflicts = 0
        self.save_failures = 0

    def save(self):
        """Save, counting the attempt unless it was a noop."""
        outcome = self.session.save()
        if outcome.kind != "noop":
            self.saves += 1
            self.conflicts += bool(outcome.conflict)
            self.save_failures += not outcome.ok
        return outcome


@contextmanager
def fleet(transport: str, service: str, seed: int, *,
          address: tuple[str, int] | None, shards: int,
          service_time: float, merge: bool, pool_size: int,
          window: int) -> Iterator[tuple[Callable[[int, str], dict],
                                         Callable[[], float]]]:
    """Host one cell's server; yield ``(keywords, now)``.

    ``keywords(i, doc_id)`` are the transport keywords of session ``i``
    on ``doc_id``, for :class:`Driver`; ``now()`` is the cell's clock.
    The socket server has ``shards`` document shards, ``service_time``
    seconds of per-request handling and the OT merge path when
    ``merge``; the pool holds ``pool_size`` connections of ``window``
    in-flight frames.
    """
    if transport == "inprocess":
        clock = SimClock()
        link = SharedLink(bytes_per_second=4_000_000.0)
        servers: dict[str, object] = {}

        def local(i: int, doc_id: str) -> dict:
            if doc_id not in servers:
                servers[doc_id] = registry.make_server(
                    service, merge_concurrent=merge)
            latency = WAN_2011(seed=seed + i)
            latency.link = link
            return {"server": servers[doc_id], "latency": latency,
                    "clock": clock}

        yield local, clock.now
        return
    if transport != "socket":
        raise ValueError(f"unknown transport {transport!r}")
    from repro.net.pool import ConnectionPool
    from repro.net.server import ServerThread
    from repro.net.transport import AsyncioSocketTransport

    hosted = None
    if address is None:
        hosted = ServerThread(shards=shards, service_time=service_time,
                              merge_concurrent=merge)
        address = hosted.start()
    host, port = address
    pool = ConnectionPool(host, port, size=pool_size, window=window,
                          timeout=30.0)

    def remote(i: int, doc_id: str) -> dict:
        return {"transport": AsyncioSocketTransport(
            host, port, service=service, pool=pool)}

    try:
        yield remote, time.perf_counter
    finally:
        pool.close()
        if hosted is not None:
            hosted.stop()
