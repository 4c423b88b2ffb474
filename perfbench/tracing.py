"""Span recording for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Tracer.install`
replaces the public entry points of each layer with timing wrappers for
the duration of the traced run and :meth:`Tracer.uninstall` puts the
originals back, so nothing under ``src/`` knows it is being traced.

A span is ``(rid, sid, parent, name, t0, t1)``: ``rid`` identifies the
benchmark operation (one save, open or search) the span belongs to,
``sid`` the span itself and ``parent`` the span that caused it.  Spans
are kept in memory and written out once, at the end of the run.

Over the socket transport the server's backend runs on a shard executor
thread that cannot see the client's span stack, so the traced pool stamps
each frame with a header carrying ``rid:sid`` of its own span and the
backend probe adopts it as parent.  The pool span's self time is then
what the client waited on beyond the backend's own work.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter

TRACE_HEADER = "X-Perfbench-Trace"

#: the layer each span-name prefix belongs to; op.* roots are the
#: benchmark's own operation spans, whose self time is unattributed
LAYERS = ("client", "extension", "core", "net", "services")


def layer_of(name: str) -> str | None:
    """The layer a span name belongs to (None for a benchmark root)."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int | None, str, float, float]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, *,
             rid: int | None = None, parent: int | None = None):
        """Run ``fn`` inside a span named ``name``.

        Inside another span the new span inherits its request id and
        takes it as parent.  Outside any span a span is recorded only
        when ``rid`` is given (an operation root, or a server-side span
        whose context came in a header); otherwise ``fn`` runs untraced.
        """
        stack = self._stack()
        if stack:
            rid, parent = stack[-1]
        elif rid is None:
            return fn(*args, **(kwargs or {}))
        sid = next(self._ids)
        stack.append((rid, sid))
        t0 = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((rid, sid, parent, name, t0, t1))

    def op(self, kind: str, fn, *args):
        """Run one benchmark operation as a root span ``op.<kind>``."""
        return self.call(f"op.{kind}", fn, args, rid=next(self._ids))

    def current(self) -> tuple[int, int] | None:
        """``(rid, sid)`` of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, inner=None) -> None:
        original = owner.__dict__[attr]
        target = inner if inner is not None else original
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, target, args, kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the public entry point of every measured layer."""
        from repro.client.resilient import ResilientClient
        from repro.client.workspace import Workspace
        from repro.core.document import EncryptedDocument
        from repro.core.transform import EncryptionEngine
        from repro.encoding.formenc import encode_form, parse_form
        from repro.extension.gdocs_ext import GDocsExtension
        from repro.net.channel import Channel
        from repro.net.pool import ConnectionPool
        from repro.net.transport import (AsyncioSocketTransport,
                                         InProcessTransport)
        from repro.services import registry
        from repro.services.catalog import CatalogStore

        patches = [
            (ResilientClient, "save", "client.save"),
            (ResilientClient, "open", "client.open"),
            (ResilientClient, "type_text", "client.edit"),
            (ResilientClient, "delete_text", "client.edit"),
            (Workspace, "search", "client.workspace.search"),
            (Workspace, "open", "client.workspace.open"),
            (Workspace, "close", "client.workspace.close"),
            (Workspace, "verify_history", "client.workspace.verify"),
            (GDocsExtension, "on_request", "extension.on_request"),
            (GDocsExtension, "on_response", "extension.on_response"),
            (EncryptedDocument, "apply_delta", "core.apply_delta"),
            (EncryptedDocument, "wire", "core.wire"),
            (EncryptionEngine, "encrypt", "core.encrypt"),
            (EncryptionEngine, "decrypt", "core.decrypt"),
            (Channel, "send", "net.channel.send"),
            (InProcessTransport, "send", "net.transport.send"),
            (AsyncioSocketTransport, "send", "net.transport.send"),
            (CatalogStore, "lookup", "services.catalog.lookup"),
        ]
        for owner, attr, name in patches:
            self._patch(owner, attr, name)

        pool_request = ConnectionPool.__dict__["request"]
        tracer = self

        def stamped_request(pool, fields, *args, **kwargs):
            # the embedded request's headers travel in the frame's "h"
            # field; the server decodes them into request.headers
            context = tracer.current()
            if context is not None:
                headers = parse_form(fields.get("h", ""))
                headers[TRACE_HEADER] = "%d:%d" % context
                fields = {**fields, "h": encode_form(headers)}
            return pool_request(pool, fields, *args, **kwargs)

        self._patch(ConnectionPool, "request", "net.pool.request",
                    inner=stamped_request)

        # servers the socket server builds inside the traced run get a
        # probe; in-process runs hand a probe to the session instead
        make_server = registry.__dict__["make_server"]

        def probed_make_server(*args, **kwargs):
            return BackendProbe(tracer, make_server(*args, **kwargs))

        setattr(registry, "make_server", probed_make_server)
        self._patches.append((registry, "make_server", make_server))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every recorded span as JSON (one list per span)."""
        fields = ("rid", "sid", "parent", "name", "t0", "t1")
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": fields, "spans": self.spans}, out)


class BackendProbe:
    """Times every request into a backend server callable as
    ``services.backend.apply``; attribute access passes through, so
    ``registry.server_view`` still reads the wrapped server's store."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self.inner = inner

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __call__(self, request):
        rid = parent = None
        stamp = request.headers.get(TRACE_HEADER)
        if stamp is not None:
            rid_text, _, sid_text = stamp.partition(":")
            rid, parent = int(rid_text), int(sid_text)
        return self._tracer.call("services.backend.apply", self.inner,
                                 (request,), rid=rid, parent=parent)


# -- analysis ----------------------------------------------------------------


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class OpTrace:
    """The spans of one operation: per-name self and total seconds."""

    __slots__ = ("kind", "duration", "root_self", "self_s", "total_s")

    def __init__(self, kind, duration, root_self, self_s, total_s):
        self.kind = kind
        self.duration = duration
        self.root_self = root_self
        self.self_s = self_s
        self.total_s = total_s

    def layer_self(self, layer: str) -> float:
        """Self seconds of every span in ``layer``."""
        return sum(v for name, v in self.self_s.items()
                   if layer_of(name) == layer)


def op_traces(spans) -> list[OpTrace]:
    """Group spans by operation and compute each span's self time.

    Self time is a span's duration minus the part of it its children
    cover.  The children of a span include server-side spans that named
    it as parent across the socket.
    """
    by_sid = {}
    children: dict[int, list[tuple[float, float]]] = {}
    by_rid: dict[int, list] = {}
    for span in spans:
        rid, sid, parent, _name, t0, t1 = span
        by_sid[sid] = span
        by_rid.setdefault(rid, []).append(span)
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    ops = []
    for group in by_rid.values():
        root = next((s for s in group if s[2] is None), None)
        if root is None or not root[3].startswith("op."):
            continue
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        root_self = 0.0
        for _rid, sid, _parent, name, t0, t1 in group:
            own = (t1 - t0) - _covered(t0, t1, children.get(sid, []))
            if sid == root[1]:
                root_self = own
                continue
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
        ops.append(OpTrace(root[3][3:], root[5] - root[4], root_self,
                           self_s, total_s))
    return ops
