"""The transport seam: how a request physically reaches the service.

Until PR 7 every exchange travelled through a direct in-process call —
``Channel`` held the simulated server as a Python callable and invoked
it.  That is still the default (and the reference semantics every fuzz
and chaos baseline is pinned against), but it is now one
:class:`Transport` among two:

* :class:`InProcessTransport` — wraps the in-process server callable.
  Byte-for-byte today's behaviour: no serialization, no copies, the
  response object is the very object the simulated server built.
* :class:`AsyncioSocketTransport` — speaks length-prefixed HTTP-form
  frames over TCP to a :class:`repro.net.server.ReproServer` (an
  asyncio socket server hosting any registry backend, multi-tenant and
  document-sharded).  Requests ride a shared
  :class:`repro.net.pool.ConnectionPool` — a bounded set of pipelined
  connections — so thousands of sessions multiplex over a handful of
  sockets and responses may complete out of order (each frame carries a
  request id that matches the answer back to its asker).

The trust story is unchanged: a transport sits *below* the mediating
extension, so only ciphertext ever enters :meth:`Transport.send`.  The
layering lint (``tools/layering_check.py``) enforces that nothing in
``repro.net`` imports the trusted layer, and that client code reaches a
server only through this seam.

## The frame format

One frame is ``b"<decimal length>\\n" + payload`` where the payload is
a UTF-8, form-encoded field dict (:mod:`repro.encoding.formenc` — the
same codec the save protocol itself uses, hence "HTTP-form frames").
Request fields: ``id`` (request id), ``op`` (``http`` / ``view`` /
``ping``), ``svc`` (registry service name), ``tn`` (tenant), and for
``op=http`` the embedded request as ``m``/``u``/``b``/``h`` (method,
URL, body, nested form-encoded headers).  Response fields: ``id``,
``s`` (status), ``b`` (body), ``h`` (headers), or ``e`` (a
transport-level error).  Transport-level failures — a dead connection,
a missing answer — surface as
:class:`~repro.errors.NetworkTimeoutError`, which is exactly what the
resilient client's retry machinery (idempotency keys included) already
knows how to survive.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.encoding.formenc import encode_form, parse_form
from repro.errors import ProtocolError
from repro.net.http import HttpRequest, HttpResponse
from repro.obs import counter

__all__ = [
    "Transport",
    "InProcessTransport",
    "AsyncioSocketTransport",
    "encode_request_frame",
    "decode_request_frame",
    "encode_response_frame",
    "decode_response_frame",
    "OP_HTTP",
    "OP_VIEW",
    "OP_PING",
]

_REQUESTS = counter("net.transport.requests")
_REMOTE_REQUESTS = counter("net.transport.remote_requests")
_FRAME_BYTES = counter("net.transport.frame_bytes")
_VIEWS = counter("net.transport.views")
_ERRORS = counter("net.transport.errors")

#: frame operations (the `op` field)
OP_HTTP = "http"
OP_VIEW = "view"
OP_PING = "ping"


class Transport(ABC):
    """Delivers one :class:`HttpRequest` and returns the response.

    Instances are callable (``transport(request)``), so anything that
    used to hold a bare server callable — the :class:`~repro.net.channel.Channel`,
    a :class:`~repro.net.faults.FaultPlan` performing its own delivery —
    composes with a transport unchanged.
    """

    @abstractmethod
    def send(self, request: HttpRequest) -> HttpResponse:
        """One request/response exchange (may raise
        :class:`~repro.errors.NetworkTimeoutError`)."""

    def __call__(self, request: HttpRequest) -> HttpResponse:
        return self.send(request)

    def close(self) -> None:
        """Release transport resources (no-op by default)."""


class InProcessTransport(Transport):
    """Today's behaviour behind the new seam: a direct function call.

    No serialization, no copies — the response is the object the
    simulated server constructed, so every fuzz digest, chaos cell, and
    bench baseline recorded against the in-process stack is untouched.
    """

    def __init__(self, server):
        self._server = server

    @property
    def server(self):
        """The wrapped in-process server callable."""
        return self._server

    def send(self, request: HttpRequest) -> HttpResponse:
        """Invoke the wrapped server directly."""
        _REQUESTS.inc()
        return self._server(request)


# -- the frame codec ----------------------------------------------------------


def encode_request_frame(request: HttpRequest, *, rid: str, service: str,
                         tenant: str = "default",
                         op: str = OP_HTTP) -> dict[str, str]:
    """The field dict for one outgoing request frame."""
    return {
        "id": rid,
        "op": op,
        "svc": service,
        "tn": tenant,
        "m": request.method,
        "u": request.url,
        "b": request.body,
        "h": encode_form(request.headers),
    }


def decode_request_frame(fields: dict[str, str]) -> HttpRequest:
    """Rebuild the embedded :class:`HttpRequest` from request fields."""
    try:
        return HttpRequest(
            method=fields["m"],
            url=fields["u"],
            body=fields.get("b", ""),
            headers=parse_form(fields.get("h", "")),
        )
    except KeyError as exc:
        raise ProtocolError(f"request frame missing field {exc}") from None


def encode_response_frame(response: HttpResponse, *,
                          rid: str) -> dict[str, str]:
    """The field dict for one response frame."""
    return {
        "id": rid,
        "s": str(response.status),
        "b": response.body,
        "h": encode_form(response.headers),
    }


def decode_response_frame(fields: dict[str, str]) -> HttpResponse:
    """Rebuild the :class:`HttpResponse` a response frame carries
    (raises :class:`~repro.errors.ProtocolError` on a frame-level
    ``e`` error or an unparseable status)."""
    if "e" in fields:
        raise ProtocolError(f"transport error: {fields['e']}")
    try:
        status = int(fields["s"])
    except (KeyError, ValueError):
        raise ProtocolError(
            f"response frame has no usable status: {fields!r}"
        ) from None
    return HttpResponse(
        status=status,
        body=fields.get("b", ""),
        headers=parse_form(fields.get("h", "")),
    )


# -- the socket transport -----------------------------------------------------


class AsyncioSocketTransport(Transport):
    """HTTP-form frames over TCP to a :class:`repro.net.server.ReproServer`.

    The client side is synchronous (the editing stack above it is), but
    requests are pooled and pipelined: many transports — one per
    session — share one :class:`~repro.net.pool.ConnectionPool`, whose
    reader threads match out-of-order responses back to their callers
    by request id.  ``service`` names the registry backend the hosted
    server should route to; ``tenant`` partitions the server's state so
    many principals share one process without sharing documents.
    """

    def __init__(self, host: str, port: int, *, service: str = "gdocs",
                 tenant: str = "default", pool=None, pool_size: int = 2,
                 window: int = 32, timeout: float = 10.0):
        # imported here so importing the transport seam never drags the
        # socket machinery in (InProcessTransport must stay weightless)
        from repro.net.pool import ConnectionPool

        self.service = service
        self.tenant = tenant
        self._owns_pool = pool is None
        self._pool = pool if pool is not None else ConnectionPool(
            host, port, size=pool_size, window=window, timeout=timeout
        )

    @property
    def pool(self):
        """The (possibly shared) connection pool underneath."""
        return self._pool

    def send(self, request: HttpRequest) -> HttpResponse:
        """One pooled, pipelined request/response over the wire."""
        _REQUESTS.inc()
        _REMOTE_REQUESTS.inc()
        fields = encode_request_frame(
            request, rid="", service=self.service, tenant=self.tenant
        )
        reply = self._pool.request(fields)
        try:
            response = decode_response_frame(reply)
        except ProtocolError:
            _ERRORS.inc()
            raise
        _FRAME_BYTES.inc(len(request.body) + len(response.body))
        return response

    def server_view(self, doc_id: str) -> str:
        """Raw stored bytes for ``doc_id`` on the remote server — the
        socket stand-in for :func:`repro.services.registry.server_view`,
        so convergence oracles work across the wire."""
        _VIEWS.inc()
        reply = self._pool.request({
            "id": "", "op": OP_VIEW, "svc": self.service,
            "tn": self.tenant, "doc": doc_id,
        })
        return decode_response_frame(reply).body

    def ping(self) -> bool:
        """Round-trip a control frame (liveness probe)."""
        reply = self._pool.request({
            "id": "", "op": OP_PING, "svc": self.service, "tn": self.tenant,
        })
        return decode_response_frame(reply).ok

    def close(self) -> None:
        """Close the pool if this transport owns it (shared pools are
        closed by whoever created them)."""
        if self._owns_pool:
            self._pool.close()
