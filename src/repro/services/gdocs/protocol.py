"""The reverse-engineered Google Documents save protocol (SIV-A).

The paper documents these observations, all reproduced here:

* opening a document starts an *edit session* via
  ``POST /Doc?docID=<id>``;
* within a session the **first** save POSTs the whole document in the
  ``docContents`` form field;
* every subsequent save carries only a ``delta`` field (the incremental
  language of :mod:`repro.core.delta`);
* the server answers every content update with an **Ack** carrying
  ``contentFromServer`` and ``contentFromServerHash`` — the current
  content to the best of the server's knowledge.  (The paper found a
  single-user client works flawlessly when these are replaced by the
  empty string and ``0``.)

This module is the single place the field names and message shapes are
defined; the server, the benign client, and the extension all build
messages through it.  On the trusted side the answers are read by
:class:`repro.services.backend.GDocsBackend` (``parse_open``,
``parse_save`` — the Ack becomes a
:class:`~repro.services.backend.SaveAck`), which also holds the request
grammar the extension and the replication facade route by
(``classify``).
"""

from __future__ import annotations

import hashlib

from repro.encoding.formenc import encode_form
from repro.net.http import HttpRequest

__all__ = [
    "DOC_PATH", "HOST",
    "F_DOC_CONTENTS", "F_DELTA", "F_SID", "F_REV", "F_ACTION", "F_IDEM",
    "A_STATUS", "A_REV", "A_CONTENT", "A_CONTENT_HASH", "A_CONFLICT",
    "A_MERGED", "A_MERGE_PATCH", "H_RETRY_AFTER",
    "NEUTRAL_CONTENT", "NEUTRAL_HASH",
    "content_hash",
    "open_request", "full_save_request", "delta_save_request",
    "fetch_request", "feature_request",
]

HOST = "docs.google.com"
DOC_PATH = "/Doc"

# request form fields
F_DOC_CONTENTS = "docContents"
F_DELTA = "delta"
F_SID = "sid"
F_REV = "rev"
F_ACTION = "action"
#: idempotency key (a reproduction extension for the fault model):
#: a client retrying a timed-out save re-sends the same key, and the
#: server answers a replay from its cache instead of re-applying
F_IDEM = "idem"

#: response header carrying the server's backoff ask on 429/503
H_RETRY_AFTER = "Retry-After"

# ack response fields
A_STATUS = "status"
A_REV = "rev"
A_CONTENT = "contentFromServer"
A_CONTENT_HASH = "contentFromServerHash"
A_CONFLICT = "conflict"
A_MERGED = "merged"
#: cdelta (wire-string delta) that carries the *saver's* post-save
#: document to the merged revision — only present on merged acks
A_MERGE_PATCH = "mergePatch"

#: what the extension substitutes into Acks (SIV-A: empty string / 0)
NEUTRAL_CONTENT = ""
NEUTRAL_HASH = "0"


def content_hash(content: str) -> str:
    """The hash the server computes over its stored content."""
    return hashlib.sha1(content.encode("utf-8")).hexdigest()


def _doc_url(doc_id: str, **params: str) -> str:
    query = encode_form({"docID": doc_id, **params})
    return f"http://{HOST}{DOC_PATH}?{query}"


def open_request(doc_id: str) -> HttpRequest:
    """Start (or join) an edit session for ``doc_id``."""
    return HttpRequest("POST", _doc_url(doc_id), body="")


def full_save_request(doc_id: str, sid: str, rev: int,
                      content: str, idem: str | None = None) -> HttpRequest:
    """The first save of a session: whole contents in ``docContents``.

    ``idem`` attaches an idempotency key (resilient clients only; the
    wire stays byte-identical to the legacy protocol when omitted).
    """
    fields = {F_SID: sid, F_REV: str(rev), F_DOC_CONTENTS: content}
    if idem is not None:
        fields[F_IDEM] = idem
    return HttpRequest("POST", _doc_url(doc_id), body=encode_form(fields))


def delta_save_request(doc_id: str, sid: str, rev: int,
                       delta_text: str, idem: str | None = None,
                       ) -> HttpRequest:
    """A subsequent save: only the difference, in ``delta``.

    ``idem`` attaches an idempotency key, as for full saves.
    """
    fields = {F_SID: sid, F_REV: str(rev), F_DELTA: delta_text}
    if idem is not None:
        fields[F_IDEM] = idem
    return HttpRequest("POST", _doc_url(doc_id), body=encode_form(fields))


def fetch_request(doc_id: str) -> HttpRequest:
    """Download the stored document (document open / passive refresh)."""
    return HttpRequest("GET", _doc_url(doc_id))


def feature_request(doc_id: str, action: str, **fields: str) -> HttpRequest:
    """A server-side feature call (spellcheck, translate, export,
    drawing...) — the requests the extension must block."""
    body = encode_form(fields) if fields else ""
    return HttpRequest("POST", _doc_url(doc_id, action=action), body=body)
