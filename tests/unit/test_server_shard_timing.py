"""The frame server's shard histograms measure what their names say.

``server.shard.queue_seconds`` is the wait between a frame reaching its
shard and the shard's executor starting it; ``server.shard.exec_seconds``
is the backend call.  On a one-worker shard the second of two
concurrent frames must queue behind the whole execution of the first.

Both frames are made to reach the shard before either starts: a gate
job holds the shard's one worker until the second frame has arrived.
Without it the second frame arrives a little after the first started
executing, so its wait is the first frame's execution *minus* that
arrival gap, and ``queue.max >= execution.max`` fails by the gap.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.net.http import HttpResponse
from repro.net.server import ReproServer
from repro.net.transport import encode_request_frame
from repro.obs import histogram
from repro.services import bespin, registry

_FIRST_EXEC = 0.08
_SECOND_EXEC = 0.01


class _SlowBackend:
    """Takes ``_FIRST_EXEC`` seconds on its first call, less after."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, request):
        self.calls += 1
        time.sleep(_FIRST_EXEC if self.calls == 1 else _SECOND_EXEC)
        return HttpResponse(200, "")


@pytest.fixture()
def server(monkeypatch):
    backend = _SlowBackend()
    monkeypatch.setattr(registry, "make_server",
                        lambda service, **kw: backend)
    srv = ReproServer(shards=1)
    yield srv
    srv.shutdown()


def test_queue_wait_excludes_execution(server):
    queue = histogram("server.shard.queue_seconds")
    execution = histogram("server.shard.exec_seconds")
    queue.reset()
    execution.reset()
    frames = [
        encode_request_frame(bespin.put_request(f"p/{i}.py", "x"),
                             rid=str(i), service="bespin")
        for i in range(2)
    ]

    gate = threading.Event()
    arrivals = 0
    on_shard = server._on_shard

    async def counting_on_shard(shard, fn, *args):
        nonlocal arrivals
        arrivals += 1
        if arrivals == len(frames):
            # runs once this frame's task yields, i.e. after _on_shard
            # has stamped its arrival and handed it to the executor
            asyncio.get_running_loop().call_soon(gate.set)
        return await on_shard(shard, fn, *args)

    server._on_shard = counting_on_shard

    async def both():
        held = server._executors[0].submit(gate.wait, 5.0)
        try:
            return await asyncio.gather(
                *(server._dispatch(f) for f in frames))
        finally:
            gate.set()
            assert held.result(timeout=5.0)

    asyncio.run(both())
    assert execution.count == queue.count == 2
    # the first frame waited only for the gate to open; the second
    # waited for the first frame's whole execution (the slowest one
    # observed) on top of that
    assert queue.min < _SECOND_EXEC
    assert execution.max >= _FIRST_EXEC
    assert queue.max >= execution.max
