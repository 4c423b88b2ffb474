"""An asyncio socket server hosting any registry backend.

This is the other end of :class:`repro.net.transport.AsyncioSocketTransport`:
a single-process TCP server that accepts length-prefixed HTTP-form
frames (see :mod:`repro.net.transport` for the format) and routes each
embedded request into a simulated provider from
:mod:`repro.services.registry`.

Two axes of scale:

* **Multi-tenant** — the ``tn`` frame field partitions server state.
  Each (service, tenant) pair gets its own lazily-created backend
  universe, so thousands of principals share one process without
  sharing a byte of document state.
* **Document-sharded** — within a tenant, documents hash onto
  ``shards`` independent backend instances, each with a dedicated
  single-thread executor.  Requests for one document are therefore
  *serialized* (the provider's per-doc ordering guarantees hold
  without any backend knowing about threads), while requests for
  different documents run concurrently across shards.  Sharding whole
  backend instances is sound because every registered provider keeps
  all state for a document inside the instance that owns it — there is
  no cross-document state to split.

``service_time`` models the provider's per-request handling latency as
a non-blocking ``asyncio.sleep``: the event loop overlaps thousands of
in-flight waits, which is exactly the behaviour that lets aggregate
throughput scale far past a single synchronous session (the effect
``benchmarks/bench_load.py`` measures).

The trust boundary is unchanged: this module lives on the *untrusted*
side, sees only ciphertext, and must never import the trusted layer —
``tools/layering_check.py`` enforces it.

:class:`ServerThread` runs the whole loop on a background thread for
tests and the in-process load generator; ``repro serve`` runs it in the
foreground.
"""

from __future__ import annotations

import asyncio
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from repro.encoding.formenc import encode_form, parse_form
from repro.errors import ProtocolError
from repro.net.http import HttpResponse
from repro.net.pool import MAX_FRAME_BYTES
from repro.net.transport import (
    OP_HTTP,
    OP_PING,
    OP_VIEW,
    decode_request_frame,
    encode_response_frame,
)
from repro.obs import counter, gauge, histogram
from repro.services import registry
from repro.services.catalog import CatalogService, CatalogStore

__all__ = ["ReproServer", "ServerThread"]

_FRAMES = counter("net.server.frames")
_FRAME_BYTES = counter("net.server.frame_bytes")
_CONNECTIONS = counter("net.server.connections")
_ERRORS = counter("net.server.errors")
_DISPATCHES = counter("server.shard.dispatches")
_INSTANCES = gauge("server.shard.instances")
#: frame arrival at a shard -> its executor starting the work
_QUEUE_SECONDS = histogram("server.shard.queue_seconds")
#: the backend call itself, on the shard's executor thread
_EXEC_SECONDS = histogram("server.shard.exec_seconds")


class ReproServer:
    """The asyncio frame server: tenants × services × document shards.

    ``shards`` backend instances exist per (service, tenant), created
    lazily on first touch; ``service_time`` adds that many seconds of
    simulated (non-blocking) handling latency to every ``op=http``
    request.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 shards: int = 4, service_time: float = 0.0,
                 merge_concurrent: bool = False):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.host = host
        self.port = port
        self.shards = shards
        self.service_time = service_time
        #: hosted backends that support it run the server-side OT merge
        #: path for stale saves (repro.services.ot)
        self.merge_concurrent = merge_concurrent
        self._lock = threading.Lock()
        # (service, tenant, shard) -> backend instance
        self._instances: dict[tuple[str, str, int], object] = {}
        # (service, tenant) -> the catalog shared by that pair's shards:
        # document state is sharded, but listings / search / audit
        # chains are tenant-global (CatalogStore locks internally, so
        # cross-shard executor threads share it safely)
        self._catalogs: dict[tuple[str, str], CatalogStore] = {}
        # one single-thread executor per shard index: per-doc apply is
        # serialized, cross-doc apply is concurrent
        self._executors = [
            ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"repro-shard-{i}"
            )
            for i in range(shards)
        ]
        self._server: asyncio.base_events.Server | None = None

    # -- routing ---------------------------------------------------------

    def _shard_of(self, tenant: str, doc_id: str) -> int:
        key = f"{tenant}/{doc_id}".encode("utf-8")
        return zlib.crc32(key) % self.shards

    def _instance(self, service: str, tenant: str, shard: int):
        key = (service, tenant, shard)
        with self._lock:
            inst = self._instances.get(key)
            if inst is None:
                merging = self.merge_concurrent and registry.backend_for(
                    service).capabilities.merges_stale_saves
                store = self._catalogs.get((service, tenant))
                if store is None:
                    store = CatalogStore()
                    self._catalogs[(service, tenant)] = store
                inst = CatalogService(
                    registry.make_server(service, merge_concurrent=merging),
                    store=store,
                )
                self._instances[key] = inst
                _INSTANCES.add(1)
            return inst

    @property
    def instance_count(self) -> int:
        """Live backend instances (created lazily on first touch,
        dropped by :meth:`shutdown`)."""
        with self._lock:
            return len(self._instances)

    # -- dispatch --------------------------------------------------------

    async def _on_shard(self, shard: int, fn, *args):
        """Run ``fn(*args)`` on ``shard``'s executor, observing the wait
        for the executor and the execution separately."""
        stamps: list[float] = []

        def run():
            stamps.append(perf_counter())
            try:
                return fn(*args)
            finally:
                stamps.append(perf_counter())

        arrived = perf_counter()
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executors[shard], run)
        finally:
            if stamps:
                _QUEUE_SECONDS.observe(stamps[0] - arrived)
                _EXEC_SECONDS.observe(stamps[-1] - stamps[0])

    async def _dispatch(self, fields: dict[str, str]) -> dict[str, str]:
        """One frame in, one frame out; never raises."""
        rid = fields.get("id", "")
        op = fields.get("op", OP_HTTP)
        service = fields.get("svc", "")
        tenant = fields.get("tn", "default")
        if service not in registry.SERVICE_NAMES:
            _ERRORS.inc()
            return {"id": rid, "e": f"unknown service {service!r}"}
        if op == OP_PING:
            return encode_response_frame(
                HttpResponse(status=200, body="pong"), rid=rid
            )
        if op == OP_VIEW:
            doc_id = fields.get("doc", "")
            shard = self._shard_of(tenant, doc_id)
            inst = self._instance(service, tenant, shard)
            _DISPATCHES.inc()
            try:
                stored = await self._on_shard(
                    shard, registry.server_view, service, inst, doc_id)
            except Exception as exc:  # backend crash must not kill the loop
                _ERRORS.inc()
                return encode_response_frame(
                    HttpResponse(status=500, body=f"view failed: {exc}"),
                    rid=rid,
                )
            return encode_response_frame(
                HttpResponse(status=200, body=stored), rid=rid
            )
        if op != OP_HTTP:
            _ERRORS.inc()
            return {"id": rid, "e": f"unknown op {op!r}"}
        try:
            request = decode_request_frame(fields)
        except ProtocolError as exc:
            _ERRORS.inc()
            return {"id": rid, "e": str(exc)}
        backend = registry.backend_for(service)
        doc_id = backend.doc_id_of(request) or ""
        shard = self._shard_of(tenant, doc_id)
        inst = self._instance(service, tenant, shard)
        if self.service_time > 0:
            # the provider "working": non-blocking, so ten thousand of
            # these overlap on one event loop
            await asyncio.sleep(self.service_time)
        _DISPATCHES.inc()
        try:
            response = await self._on_shard(shard, inst, request)
        except Exception as exc:
            _ERRORS.inc()
            response = HttpResponse(status=500, body=f"server error: {exc}")
        return encode_response_frame(response, rid=rid)

    # -- the connection loop ---------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        _CONNECTIONS.inc()
        wlock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()

        async def _answer(fields: dict[str, str]) -> None:
            reply = await self._dispatch(fields)
            payload = encode_form(reply).encode("utf-8")
            async with wlock:
                writer.write(b"%d\n" % len(payload) + payload)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass  # peer went away mid-write; reader loop will end

        try:
            while True:
                try:
                    header = await reader.readline()
                except (ConnectionError, OSError, asyncio.LimitOverrunError):
                    break
                if not header:
                    break
                try:
                    length = int(header)
                    if not 0 <= length <= MAX_FRAME_BYTES:
                        raise ValueError(length)
                except ValueError:
                    _ERRORS.inc()
                    break  # framing lost — drop the connection
                try:
                    payload = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break
                _FRAMES.inc()
                _FRAME_BYTES.inc(len(payload))
                try:
                    fields = parse_form(payload.decode("utf-8"))
                except (ProtocolError, UnicodeDecodeError):
                    _ERRORS.inc()
                    fields = {"id": "", "op": "?"}
                # one task per frame: responses may complete (and be
                # written) out of order — that is the pipelining
                task = asyncio.ensure_future(_answer(fields))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            pass  # server shutting down — close this connection quietly
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Bind (if needed) and serve until cancelled (``repro serve``)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop executors (after the loop itself has stopped) and drop
        this server's instances from the live-instance gauge."""
        for pool in self._executors:
            pool.shutdown(wait=False)
        with self._lock:
            _INSTANCES.add(-len(self._instances))
            self._instances.clear()


class ServerThread:
    """Run a :class:`ReproServer` event loop on a background thread.

    ``with ServerThread(shards=4) as (host, port): ...`` — tests and the
    load generator self-host the socket stack this way; ``repro serve``
    uses :meth:`ReproServer.serve_forever` directly instead.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 shards: int = 4, service_time: float = 0.0,
                 merge_concurrent: bool = False):
        self.server = ReproServer(
            host=host, port=port, shards=shards, service_time=service_time,
            merge_concurrent=merge_concurrent,
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failed: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server.host, self.server.port

    def start(self) -> tuple[str, int]:
        """Start the loop thread; returns the bound (host, port)."""
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-server"
        )
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("server thread failed to start")
        if self._failed is not None:
            raise RuntimeError(f"server failed to bind: {self._failed}")
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._failed = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            srv = self.server._server
            if srv is not None:
                srv.close()
                loop.run_until_complete(srv.wait_closed())
            # drain connection-handler tasks so the loop closes clean
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self) -> None:
        """Stop the loop, join the thread, shut the executors down."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.server.shutdown()

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
