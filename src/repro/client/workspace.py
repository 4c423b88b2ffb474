"""Workspace: many private documents, one tenant, one shared transport.

Every layer below already scales past a single document — the PR 7
server is multi-tenant and document-sharded — and this module is the
client side of that story.  A :class:`Workspace` owns the tenant's key
material and fans it out:

* **per-document passwords** derived from one tenant secret, so each
  :class:`~repro.extension.session.PrivateEditingSession` gets its own
  document key while the user remembers one secret;
* **one shared server/transport** for every session it opens (the
  sessions multiplex over the same connection pool in socket mode);
* **an encrypted search index** — a shared
  :class:`~repro.extension.catalog.WorkspaceIndexer` threaded into
  every session's extension, which emits encrypted index delta records
  as a side effect of each save's IncE transformation; :meth:`search`
  sends only the trapdoor and decrypts the postings locally;
* **one freshness record** — a
  :class:`~repro.extension.freshness.FreshnessMonitor` shared by every
  session: the RPC versions and the audit-chain anchors
  (:mod:`repro.core.auditchain`) this client has witnessed, and the
  alerts.  Each session's extension witnesses every clean Ack's link;
  when that leaves the anchor behind the document (a revision gap),
  :meth:`verify_history` fetches the chain from the anchor on and
  witnesses it against the stored document, detecting rollback and
  history forks (the attacks ``repro.security.ActiveServerAdversary``
  mounts).

Layering: this is client code.  It never builds a server — callers
construct one through ``repro.services.registry`` (or point a
:class:`~repro.net.transport.AsyncioSocketTransport` at a hosted one)
and hand it in; ``tools/layering_check.py`` keeps it that way.
"""

from __future__ import annotations

import hashlib
import hmac
import zlib

from repro.core import auditchain
from repro.crypto.random import DeterministicRandomSource
from repro.extension.catalog import WorkspaceIndexer
from repro.extension.freshness import FreshnessMonitor
from repro.extension.session import PrivateEditingSession
from repro.net.channel import Channel
from repro.net.latency import SimClock
from repro.obs import counter
from repro.services.catalog import (
    catalog_chain_request,
    catalog_list_request,
    catalog_lookup_request,
)
from repro.services.gdocs import protocol

__all__ = ["Workspace"]

_SESSIONS = counter("client.workspace.sessions")
_SEARCHES = counter("client.workspace.searches")
_VERIFIES = counter("client.workspace.history_verifies")

#: exchanges each channel of a workspace keeps in its log (a ring):
#: the catalog channel sends a lookup per search and a chain fetch per
#: open, a document session a save per autosave, and an unbounded log
#: would hold every body for the session's (or tenant's) lifetime.
#: Readers that need every exchange attach a tap instead.
CATALOG_LOG_ENTRIES = 256


class Workspace:
    """A tenant's view over many encrypted documents.

    ``secret`` is the one thing the user remembers; everything else —
    document passwords, search trapdoor keys, posting blob keys — is
    derived from it.  Exactly one of ``server`` (an in-process server
    callable, typically catalog-wrapped via
    ``registry.make_server("gdocs", catalog=True)``) or ``transport``
    (a :class:`~repro.net.transport.Transport` to a hosted server,
    shared by every session) must be provided.

    Sessions speak the gdocs protocol: the search index and the audit
    trail ride on its catalog acks.
    ``rng_seed`` pins every session's nonce stream for reproducible
    harness runs; leave it None for secure per-session randomness.
    """

    def __init__(self, secret: str, *, server=None, transport=None,
                 scheme: str = "recb", block_chars: int = 8,
                 rng_seed: int | None = None):
        if (server is None) == (transport is None):
            raise ValueError(
                "Workspace needs exactly one of server= or transport= "
                "(clients never build servers; see docs/architecture.md)"
            )
        self._secret = secret
        self._doc_key = hashlib.sha256(
            b"workspace-docs|" + secret.encode("utf-8")).digest()
        self._server = server
        self._transport = transport
        self._scheme = scheme
        self._block_chars = block_chars
        self._rng_seed = rng_seed
        #: doc_id -> its nonce stream, when ``rng_seed`` pins them
        self._rngs: dict[str, DeterministicRandomSource] = {}
        self.clock = SimClock()
        self.indexer = WorkspaceIndexer(secret)
        self._sessions: dict[str, PrivateEditingSession] = {}
        #: what this client has witnessed of every document (versions,
        #: audit anchors), shared by all its sessions
        self.freshness = FreshnessMonitor()
        #: every integrity alert ever raised, ``(doc_id, message)``
        self.alerts = self.freshness.alerts
        # catalog traffic (list/lookup/chain) is opaque to the document
        # mediator — it rides its own unmediated channel to the same
        # server/transport, carrying only trapdoors and encrypted blobs
        self.catalog_channel = Channel(
            transport if transport is not None else server,
            clock=self.clock, max_log=CATALOG_LOG_ENTRIES,
        )

    # -- key derivation --------------------------------------------------

    def password_for(self, doc_id: str) -> str:
        """The per-document password derived from the tenant secret."""
        return hmac.new(self._doc_key, doc_id.encode("utf-8"),
                        hashlib.sha256).hexdigest()

    def _session_rng(self, doc_id: str):
        """The document's nonce stream under ``rng_seed`` (else None).

        Kept across close and reopen: re-seeding on every open would
        replay the nonces an earlier session of the document drew.
        """
        if self._rng_seed is None:
            return None
        rng = self._rngs.get(doc_id)
        if rng is None:
            rng = self._rngs[doc_id] = DeterministicRandomSource(
                (self._rng_seed << 8) ^ zlib.crc32(doc_id.encode("utf-8")))
        return rng

    # -- session lifecycle -----------------------------------------------

    @property
    def open_docs(self) -> list[str]:
        return sorted(self._sessions)

    def session(self, doc_id: str) -> PrivateEditingSession:
        """The open session for ``doc_id`` (KeyError when not open)."""
        return self._sessions[doc_id]

    def open(self, doc_id: str) -> str:
        """Open (or create) one document; returns its plaintext.

        Opening an existing document adopts its text into the index
        shadow without re-emitting records, then verifies the audit
        chain from the anchor on (rollback detection happens *before*
        the user resumes editing stale content).
        """
        session = self._sessions.get(doc_id)
        if session is not None:
            return session.text
        session = PrivateEditingSession(
            doc_id,
            self.password_for(doc_id),
            server=self._server,
            transport=self._transport,
            scheme=self._scheme,
            block_chars=self._block_chars,
            rng=self._session_rng(doc_id),
            verify_acks=True,
            clock=self.clock,
            max_log=CATALOG_LOG_ENTRIES,
            indexer=self.indexer,
            freshness=self.freshness,
        )
        text = session.open()
        self._sessions[doc_id] = session
        _SESSIONS.inc()
        self.indexer.adopt(doc_id, text)
        self.verify_history(doc_id)
        return text

    def close(self, doc_id: str) -> None:
        """Flush, audit-check, and end one document's session."""
        session = self._sessions.get(doc_id)
        if session is None:
            return
        session.close()
        self._catch_up(doc_id)
        del self._sessions[doc_id]
        self.indexer.forget(doc_id)

    def close_all(self) -> None:
        """Close every open session (flush, audit-check, forget)."""
        for doc_id in list(self._sessions):
            self.close(doc_id)

    # -- editing ---------------------------------------------------------

    def text(self, doc_id: str) -> str:
        """What the user sees in ``doc_id``'s editor."""
        return self._sessions[doc_id].text

    def type_text(self, doc_id: str, pos: int, text: str) -> None:
        """User action: insert ``text`` at ``pos`` in ``doc_id``."""
        self._sessions[doc_id].type_text(pos, text)

    def delete_text(self, doc_id: str, pos: int, count: int) -> None:
        """User action: delete ``count`` chars at ``pos`` in ``doc_id``."""
        self._sessions[doc_id].delete_text(pos, count)

    def save(self, doc_id: str):
        """Save one document.  The extension witnessed the Ack's audit
        link; a landed save it could not check is checked here."""
        outcome = self._sessions[doc_id].save()
        if outcome.ok:
            self._catch_up(doc_id)
        return outcome

    def save_all(self) -> dict[str, object]:
        """Save every open document; outcomes keyed by doc id."""
        return {doc_id: self.save(doc_id) for doc_id in sorted(self._sessions)}

    # -- the catalog -----------------------------------------------------

    def list_docs(self) -> list[str]:
        """Every document id the tenant's catalog has seen."""
        response = self.catalog_channel.send(catalog_list_request())
        if not response.ok or not response.body:
            return []
        return sorted(response.body.split(","))

    def search(self, word: str) -> list[str]:
        """The documents whose current saved text contains ``word``.

        Sends only ``HMAC(k_search, word)``; the posting blobs decrypt
        locally (blobs that fail authentication are dropped, so a
        tampering catalog can suppress results but not inject ids)."""
        _SEARCHES.inc()
        trapdoor = self.indexer.trapdoor(word)
        response = self.catalog_channel.send(
            catalog_lookup_request(trapdoor))
        if not response.ok:
            return []
        found = set()
        for blob in response.body.split(","):
            if not blob:
                continue
            doc_id = self.indexer.decrypt_blob(trapdoor, blob)
            if doc_id is not None:
                found.add(doc_id)
        return sorted(found)

    # -- history integrity -----------------------------------------------

    def _catch_up(self, doc_id: str) -> None:
        """Verify the chain when the anchor is behind the document."""
        anchor = self.freshness.anchor(doc_id)
        if (anchor.rev if anchor else 0) < \
                self._sessions[doc_id].client.revision:
            self.verify_history(doc_id)

    def verify_history(self, doc_id: str) -> list[str]:
        """Fetch the audit chain of ``doc_id`` from the anchor on and
        witness it (:meth:`FreshnessMonitor.witness`).

        Returns the alerts raised ([] when the history checks out); a
        clean chain's head becomes the new anchor.  Three layers of
        defence:

        * the chain must *self-verify* (every link recomputes from the
          anchor's, or from genesis when this client has none);
        * its head must match the stored document (revision and
          ciphertext hash) — catches a plain rollback, where the store
          rewinds but the audited chain does not;
        * its entry at the anchor's revision must be the anchor —
          catches a *forged* chain, recomputed wholesale over
          rolled-back content, which self-verifies but cannot reproduce
          the link this client already witnessed.
        """
        _VERIFIES.inc()
        session = self._sessions[doc_id]
        anchor = self.freshness.anchor(doc_id)
        response = self.catalog_channel.send(catalog_chain_request(
            doc_id, anchor.rev if anchor else 0))
        if not response.ok:
            return self.freshness.alert(doc_id, (
                f"audit chain fetch failed (http {response.status})"))
        try:
            entries = auditchain.decode_entries(response.body)
        except ValueError:
            return self.freshness.alert(doc_id, "audit chain unparseable")
        stored = (session.client.revision,
                  protocol.content_hash(session.server_view()))
        return self.freshness.witness(doc_id, entries, stored)
