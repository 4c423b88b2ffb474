"""The service registry: one name → backend/server/view for each cloud.

This is the sanctioned factory surface for everything that needs "a
service by name" — the session builder, the fuzzer, the chaos CLI, and
the fault benchmark all iterate over :data:`SERVICE_NAMES` instead of
hardcoding Google Documents.  It lives in the services layer because it
is the *only* module above the wire-protocol seam that is allowed to
touch the simulated servers (``tools/layering_check.py`` enforces that
client/extension code gets its servers from here, never by importing
``repro.services.gdocs.server`` and friends directly).

Four registered services:

``gdocs``
    The SIV-A protocol: sessions, revisions, incremental deltas.
``bespin``
    Whole-file PUTs, no sessions or revisions.
``buzzword``
    Whole-document XML POSTs, paragraphs in ``<textRun>`` tags.
``replicated``
    A :class:`~repro.services.replicated.ReplicatedService` facade over
    three independent gdocs providers.  Clients speak plain gdocs to
    it (the facade's whole point), so its *client-side* backend is
    :data:`~repro.services.backend.GDOCS`.

:func:`server_view` reads the raw stored bytes for a document —
whatever shape the provider stores (flat wire string, XML, majority
ciphertext) — and :func:`decrypt_view` turns those bytes back into
plaintext with the document password; every fault harness reaches it
through ``PrivateEditingSession.stored_text``, the convergence oracle
stated once for every provider.
"""

from __future__ import annotations

from typing import Callable

from repro.core.transform import EncryptionEngine
from repro.net.http import HttpRequest, HttpResponse
from repro.services.backend import (
    BESPIN,
    BUZZWORD,
    GDOCS,
    ServiceBackend,
)
from repro.services.bespin import BespinServer
from repro.services.buzzword import BuzzwordServer
from repro.services.catalog import CatalogService
from repro.services.gdocs.server import GDocsServer
from repro.services.replicated import ReplicatedService

__all__ = [
    "SERVICE_NAMES",
    "REPLICA_COUNT",
    "backend_for",
    "make_server",
    "server_view",
    "decrypt_view",
]

#: every service the stack can run against, in documentation order
SERVICE_NAMES = ("gdocs", "bespin", "buzzword", "replicated")

#: how many gdocs providers back one replicated facade
REPLICA_COUNT = 3

_BACKENDS: dict[str, ServiceBackend] = {
    "gdocs": GDOCS,
    "bespin": BESPIN,
    "buzzword": BUZZWORD,
    # the facade emulates one gdocs endpoint toward the client
    "replicated": GDOCS,
}

Server = Callable[[HttpRequest], HttpResponse]


def _check(service: str) -> None:
    if service not in SERVICE_NAMES:
        raise ValueError(
            f"unknown service {service!r}; expected one of {SERVICE_NAMES}"
        )


def backend_for(service: str) -> ServiceBackend:
    """The wire protocol a *client* of ``service`` speaks."""
    _check(service)
    return _BACKENDS[service]


def make_server(service: str, merge_concurrent: bool = False,
                catalog: bool = False) -> Server:
    """A fresh simulated server (or replicated facade) for ``service``.

    ``merge_concurrent`` turns on the server-side OT merge path
    (:mod:`repro.services.ot`): stale delta saves are rebased over the
    intervening history instead of rejected as conflicts.  Only
    meaningful on backends whose protocol can express it
    (``capabilities.merges_stale_saves``); asking for it elsewhere is a
    caller bug, not a silent downgrade.

    ``catalog`` wraps the server in a
    :class:`repro.services.catalog.CatalogService` — the tenant-catalog
    endpoint (doc listing, encrypted search index, audit chains) plus
    the piggybacked save maintenance.  Off by default: the unwrapped
    server is byte-identical to every pre-catalog baseline.
    """
    _check(service)
    if merge_concurrent and \
            not _BACKENDS[service].capabilities.merges_stale_saves:
        raise ValueError(
            f"service {service!r} cannot merge stale saves (whole-file "
            "protocol has no delta language to transform)"
        )
    if service == "gdocs":
        server: Server = GDocsServer(merge_concurrent=merge_concurrent)
    elif service == "bespin":
        server = BespinServer()
    elif service == "buzzword":
        server = BuzzwordServer()
    else:
        server = ReplicatedService(
            [GDocsServer(merge_concurrent=merge_concurrent)
             for _ in range(REPLICA_COUNT)], service=GDOCS
        )
    if catalog:
        server = CatalogService(server)
    return server


def server_view(service: str, server: Server, doc_id: str) -> str:
    """The raw bytes ``server`` currently stores for ``doc_id``
    (ciphertext under the extension; ``""`` when nothing stored yet).

    For ``replicated`` this is the majority read through the facade —
    the logical stored state, exactly what a fetch would return.
    """
    _check(service)
    if service == "gdocs":
        store = server.store
        if doc_id not in store.doc_ids():
            return ""
        return store.get(doc_id).content
    if service == "bespin":
        return server.files.get(doc_id, "")
    if service == "buzzword":
        return server.documents.get(doc_id, "")
    response = server(GDOCS.fetch_request(doc_id))
    return response.body if response.ok else ""


def decrypt_view(service: str, stored: str, password: str) -> str:
    """Plaintext of ``stored`` bytes as :func:`server_view` returned
    them — the convergence oracle's view of the provider's state.

    The backend's ``map_content`` decrypts every content chunk (one
    wire document, or one per Buzzword ``<textRun>``; each names its
    scheme in its own header), and its fetch parser reads the result
    exactly as the client would.
    """
    backend = backend_for(service)
    if not stored:
        return ""
    engine = EncryptionEngine(password=password)
    plain = backend.map_content(stored, engine.decrypt)
    return backend.parse_fetch("", HttpResponse(200, plain), -1).content
