"""PrivateEditingSession: the one-call user experience of SIV-C.

"A user first installs the extension and activates it ... goes to
docs.google.com and uses its existing interface ... The extension
intercepts this request and prompts the user to set a password.  The
newly created document is now an encrypted document."

This module wires the whole stack — simulated server, channel with
latency, extension mediator, and the oblivious client — behind one
object, which is what the examples and macro-benchmarks drive.

The stack is service-parameterized: ``service`` picks any name from
:data:`repro.services.registry.SERVICE_NAMES` ("gdocs", "bespin",
"buzzword", "replicated"), the registry builds the server, and one
capability check picks the mediator/client pair.  A backend with
``incremental_updates`` gets :class:`~repro.extension.gdocs_ext.GDocsExtension`
and :class:`~repro.client.gdocs_client.GDocsClient`; every other backend
gets :class:`~repro.extension.whole_file.WholeFileExtension` and a plain
:class:`~repro.client.resilient.ResilientClient`.  The user-facing
surface (open / type / save / ``server_view``) is identical across
services — the paper's claim that the mediation approach generalizes,
in executable form.

Options a service's protocol cannot express raise ``ValueError``
rather than being ignored: stego, freshness, countermeasures and
``decrypt_acks`` need incremental updates; the workspace ``indexer``
and ``audit`` need ``capabilities.catalog_acks``.
"""

from __future__ import annotations

from repro.client.gdocs_client import GDocsClient
from repro.client.resilient import ResilientClient, SaveOutcome
from repro.extension.countermeasures import Countermeasures
from repro.extension.freshness import FreshnessMonitor
from repro.extension.gdocs_ext import GDocsExtension
from repro.extension.passwords import PasswordVault
from repro.extension.whole_file import WholeFileExtension
from repro.net.channel import Channel
from repro.net.latency import LatencyModel
from repro.services import registry

__all__ = ["PrivateEditingSession"]

#: (option, capability flag it needs) — set on a backend without the
#: flag, the option raises instead of being silently ignored
_REQUIRES = (
    ("countermeasures", "incremental_updates"),
    ("decrypt_acks", "incremental_updates"),
    ("stego", "incremental_updates"),
    ("freshness", "incremental_updates"),
    ("indexer", "catalog_acks"),
    ("audit", "catalog_acks"),
)


class PrivateEditingSession:
    """A user editing one cloud document privately, on any service."""

    def __init__(
        self,
        doc_id: str,
        password: str,
        server=None,
        scheme: str = "recb",
        block_chars: int = 8,
        latency: LatencyModel | None = None,
        countermeasures: Countermeasures | None = None,
        extension_enabled: bool = True,
        rng=None,
        index_factory=None,
        decrypt_acks: bool = False,
        stego: bool = False,
        freshness: FreshnessMonitor | None = None,
        faults=None,
        retry_policy=None,
        verify_acks: bool = False,
        service: str = "gdocs",
        transport=None,
        clock=None,
        max_log: int | None = None,
        indexer=None,
        audit: bool = False,
    ):
        #: which cloud this session runs against (a
        #: repro.services.registry.SERVICE_NAMES name)
        self.service = service
        backend = registry.backend_for(service)
        options = {"countermeasures": countermeasures,
                   "decrypt_acks": decrypt_acks, "stego": stego,
                   "freshness": freshness, "indexer": indexer,
                   "audit": audit}
        for option, flag in _REQUIRES:
            if options[option] not in (None, False) and \
                    not getattr(backend.capabilities, flag):
                raise ValueError(
                    f"{option} needs a service with {flag}; "
                    f"{service!r} has none"
                )
        #: transport: an optional repro.net.transport.Transport that
        #: replaces the in-process server entirely (e.g. an
        #: AsyncioSocketTransport to a remote repro.net.server); when
        #: set, no local server is built and ``server`` is ignored.
        #: clock: share one SimClock across many sessions (load tests).
        self.transport = transport
        if transport is not None:
            self.server = None
        else:
            self.server = server if server is not None \
                else registry.make_server(service)
        #: faults: an optional repro.net.faults.FaultPlan making the
        #: cloud unreliable; retry_policy: the client's
        #: repro.net.policy.RetryPolicy answer to it; verify_acks: have
        #: the extension hash-check every Ack against its mirror
        #: (whole-file acks carry no hash, so the check abstains there)
        self.faults = faults
        target = transport if transport is not None else self.server
        self.channel = Channel(target, latency=latency, clock=clock,
                               max_log=max_log, faults=faults)
        self.vault = PasswordVault({doc_id: password})
        if backend.capabilities.incremental_updates:
            extension = GDocsExtension(
                self.vault,
                scheme=scheme,
                block_chars=block_chars,
                rng=rng,
                index_factory=index_factory,
                countermeasures=countermeasures,
                clock=self.channel.clock,
                decrypt_acks=decrypt_acks,
                stego=stego,
                freshness=freshness,
                verify_acks=verify_acks,
                # the workspace seam: a shared
                # repro.extension.catalog.WorkspaceIndexer plus the
                # audit-trail opt-in, threaded per session by
                # repro.client.workspace.Workspace
                indexer=indexer,
                audit=audit,
            )
            self.client = GDocsClient(self.channel, doc_id,
                                      policy=retry_policy)
        else:
            extension = WholeFileExtension(
                backend, self.vault, scheme=scheme,
                block_chars=block_chars, rng=rng,
                index_factory=index_factory,
            )
            self.client = ResilientClient(self.channel, doc_id, backend,
                                          policy=retry_policy)
        self.extension = extension if extension_enabled else None
        if self.extension is not None:
            self.channel.set_mediator(self.extension)

    # -- user actions, delegated to the oblivious client ----------------

    def open(self) -> str:
        """Open (or create) the document; returns its plaintext."""
        self.client.open()
        return self.client.editor.text

    def type_text(self, pos: int, text: str) -> None:
        """User action: insert ``text`` at ``pos``."""
        self.client.type_text(pos, text)

    def delete_text(self, pos: int, count: int) -> None:
        """User action: delete ``count`` characters at ``pos``."""
        self.client.delete_text(pos, count)

    def save(self) -> SaveOutcome:
        """Autosave (full on the session's first save, delta after;
        whole-file services re-send everything every time)."""
        return self.client.save()

    def close(self) -> None:
        """Flush pending edits and end the session."""
        self.client.close()

    @property
    def text(self) -> str:
        """What the user sees."""
        return self.client.editor.text

    # -- inspection -------------------------------------------------------

    def server_view(self) -> str:
        """What the (untrusted) server stores for this document.

        Over a socket transport the bytes come back across the wire
        (the transport's ``server_view`` control frame); in-process the
        registry reads the local server's store directly — either way,
        the convergence oracle sees the same thing.
        """
        remote = getattr(self.transport, "server_view", None)
        if remote is not None:
            return remote(self.client.doc_id)
        return registry.server_view(self.service, self.server,
                                    self.client.doc_id)

    @property
    def complaints(self) -> list[str]:
        return self.client.complaints

    @property
    def now(self) -> float:
        """Simulated wall-clock (advanced by channel latency)."""
        return self.channel.clock.now()
