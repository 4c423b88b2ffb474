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
* **a trust store over the audit trail** — the newest ``(rev, link)``
  of :mod:`repro.core.auditchain` per document.  Saves verify the new
  link incrementally; :meth:`verify_history` re-fetches and re-verifies
  the whole chain against the stored document and the trust anchor,
  detecting rollback and history forks (the attacks
  ``repro.security.ActiveServerAdversary`` mounts).

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
_ALERTS = counter("client.workspace.audit_alerts")
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
                 index_factory=None, rng_seed: int | None = None):
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
        self._index_factory = index_factory
        self._rng_seed = rng_seed
        #: doc_id -> its nonce stream, when ``rng_seed`` pins them
        self._rngs: dict[str, DeterministicRandomSource] = {}
        self.clock = SimClock()
        self.indexer = WorkspaceIndexer(secret)
        self._sessions: dict[str, PrivateEditingSession] = {}
        #: doc_id -> (rev, link): the audit-chain head this client has
        #: witnessed and verified — the rollback-detection anchor
        self._trust: dict[str, tuple[int, str]] = {}
        #: every integrity alert ever raised, ``(doc_id, message)``
        self.alerts: list[tuple[str, str]] = []
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
        shadow without re-emitting records, then verifies the full
        audit chain (rollback detection happens *before* the user
        resumes editing stale content).
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
            index_factory=self._index_factory,
            rng=self._session_rng(doc_id),
            verify_acks=True,
            clock=self.clock,
            max_log=CATALOG_LOG_ENTRIES,
            indexer=self.indexer,
        )
        text = session.open()
        self._sessions[doc_id] = session
        _SESSIONS.inc()
        self.indexer.adopt(doc_id, text)
        self.verify_history(doc_id)
        return text

    def close(self, doc_id: str) -> None:
        """Flush, audit-check, and end one document's session."""
        session = self._sessions.pop(doc_id, None)
        if session is None:
            return
        session.close()
        self._adopt_audit(doc_id, session)
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
        """Save one document; on success fold the acknowledged audit
        link into the trust store (incremental chain verification)."""
        session = self._sessions[doc_id]
        outcome = session.save()
        if outcome.ok:
            self._adopt_audit(doc_id, session)
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

    def _alert(self, doc_id: str, message: str,
               alerts: list[str]) -> None:
        alerts.append(message)
        self.alerts.append((doc_id, message))
        _ALERTS.inc()

    def _adopt_audit(self, doc_id: str,
                     session: PrivateEditingSession) -> None:
        """Incremental chain verification on one acknowledged save."""
        extension = session.extension
        entry = getattr(extension, "audit_trail", {}).get(doc_id)
        if entry is None:
            return
        rev, content_hash, link = entry
        trusted = self._trust.get(doc_id)
        alerts: list[str] = []
        if trusted is not None:
            trusted_rev, trusted_link = trusted
            if rev == trusted_rev:
                if link != trusted_link:
                    self._alert(doc_id, (
                        f"audit link changed at rev {rev} without a new "
                        f"revision (history rewritten)"), alerts)
            elif rev == trusted_rev + 1:
                expect = auditchain.link_hash(trusted_link, rev,
                                              content_hash)
                if link != expect:
                    self._alert(doc_id, (
                        f"audit link at rev {rev} does not extend the "
                        f"trusted chain (forked history)"), alerts)
            elif rev < trusted_rev:
                self._alert(doc_id, (
                    f"acknowledged rev {rev} behind trusted rev "
                    f"{trusted_rev} (rollback)"), alerts)
            else:
                # a revision gap (e.g. recovery full-saves after
                # conflicts): fall back to verifying the whole chain
                self.verify_history(doc_id)
                return
        if not alerts:
            self._trust[doc_id] = (rev, link)

    def verify_history(self, doc_id: str) -> list[str]:
        """Fetch and verify the full audit chain for ``doc_id``.

        Returns the alerts raised ([] when the history checks out), and
        adopts the verified head as the new trust anchor.  Three layers
        of defence:

        * the chain must *self-verify* (every link recomputes);
        * its head must match the stored document (revision and
          ciphertext hash) — catches a plain rollback, where the store
          rewinds but the audited chain does not;
        * it must agree with the trust store at the remembered revision
          — catches a *forged* chain, recomputed wholesale over
          rolled-back content, which self-verifies but cannot reproduce
          the link this client already witnessed.
        """
        _VERIFIES.inc()
        session = self._sessions[doc_id]
        alerts: list[str] = []
        response = self.catalog_channel.send(catalog_chain_request(doc_id))
        if not response.ok:
            self._alert(doc_id, f"audit chain fetch failed "
                                f"(http {response.status})", alerts)
            return alerts
        try:
            entries = auditchain.decode_entries(response.body)
        except ValueError:
            self._alert(doc_id, "audit chain unparseable", alerts)
            return alerts
        trusted = self._trust.get(doc_id)
        if not entries:
            if trusted is not None:
                self._alert(doc_id, "audit chain vanished after this "
                                    "client witnessed links", alerts)
            return alerts
        for problem in auditchain.verify_entries(entries):
            self._alert(doc_id, f"audit chain corrupt: {problem}", alerts)
        head = entries[-1]
        revision = session.client.revision
        stored_hash = protocol.content_hash(session.server_view())
        if head.rev != revision:
            self._alert(doc_id, (
                f"audit head rev {head.rev} != document rev {revision} "
                f"(rollback or unaudited writes)"), alerts)
        elif head.ciphertext_hash != stored_hash:
            self._alert(doc_id, (
                f"stored ciphertext does not match audited head at rev "
                f"{head.rev} (rollback)"), alerts)
        if trusted is not None:
            trusted_rev, trusted_link = trusted
            witnessed = next(
                (e for e in entries if e.rev == trusted_rev), None)
            if witnessed is None:
                self._alert(doc_id, (
                    f"trusted rev {trusted_rev} missing from chain "
                    f"(history rewritten)"), alerts)
            elif witnessed.link != trusted_link:
                self._alert(doc_id, (
                    f"chain disagrees with trusted link at rev "
                    f"{trusted_rev} (forged chain)"), alerts)
        if not alerts:
            self._trust[doc_id] = (head.rev, head.link)
        return alerts
