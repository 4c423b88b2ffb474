"""The plaintext oracle and the invariant checks it anchors.

The differential idea: every trace op is interpreted twice — once by
the system under test (EncryptedDocument / PrivateEditingSession) and
once by :func:`apply_op`, which edits a plain Python string with slice
arithmetic.  The string *is* the specification; any divergence between
it and what decrypts out of the encrypted pipeline is a bug by
definition, no matter which layer introduced it.

Checks raise :class:`InvariantViolation` carrying a :class:`Violation`
record (kind, step, detail).  The ``kind`` string doubles as the
failure identity during shrinking: a candidate smaller trace only
counts as "still failing" if it fails with the *same* kind, so the
shrinker cannot wander from one bug to a different one.

Invariant catalogue (the names used in ``Violation.kind``):

``oracle-divergence``
    ``doc.text != oracle`` — decrypt(state) no longer equals the
    plaintext the user typed.
``length-mismatch``
    ``doc.char_length`` disagrees with the oracle length.
``index-checkrep``
    the mirror's block store failed its representation invariant: a
    leaf's prefix sums or size bounds, a leaf's outer width or place
    (the paper's skip-count law), or the outer BlockIndex's own
    invariant (skip-list spans, AVL balance, ...).
``leaf-divergence``
    the mirror (leaves of ``LEAF_BLOCKS``) and its per-block twin
    (``repro.core.document.per_block``), fed the same deltas from the
    same seed, returned different cdeltas or hold different text or
    wire.
``roundtrip``
    re-loading ``doc.wire()`` fresh (full parse + decrypt + RPC
    checksum verify) failed or produced different plaintext.
``cdelta-divergence``
    the ciphertext delta applied server-side (flat string and/or
    leaf table) does not reproduce the reference wire re-encoded
    from the client's records (:func:`reference_wire`).
``ack-divergence``
    the Ack hash disagrees with the SHA-1 of :func:`reference_wire`:
    either the mirror's ``wire_hash`` (the extension's Ack check) or
    the leaf store's midstate digest (the server's
    ``contentFromServerHash``), each resumed from SHA-1 midstates that
    every update must cut back to its first changed character.
``wire-divergence``
    the mirror's kept wire text (``doc.wire()``, spliced with each
    cdelta rather than re-encoded) differs from :func:`reference_wire`.
    Needed on its own because the mirror splices the very cdelta the
    server applies: a cdelta bug would move both copies in step, so
    only the from-records reference can tell.
``coalesce-divergence``
    a coalesced keystroke burst encrypted with one batched cipher
    call produced different bytes (cdelta wire or full ciphertext)
    than the sequential per-cluster reference path.
``full-save-divergence``
    a full save the extension answered (by IncE on its mirror, or
    afresh) posted a wire that does not decrypt, under keys derived
    from the password alone, to the plaintext the client posted; that
    a fresh encryption of the same plaintext does not decrypt to; or
    that differs from the mirror's records re-encoded
    (:func:`reference_wire`).  The mirror itself must also pass
    :func:`check_document` against the posted plaintext.
``convergence``
    after faults quiesce, client text and decrypted server state (or
    two merging clients) disagree.
``save-failed``
    a save that must succeed (post-quiesce) returned a typed failure.
``plaintext-leak``
    a plaintext sentinel appeared in bytes that crossed the Channel.
``search-mismatch``
    the encrypted search index answered a trapdoor lookup with a
    document set different from the plaintext word oracle's.
``audit-false-alarm``
    an untampered audit chain failed verification (integrity checking
    must not cry wolf).
``audit-miss``
    a rollback-attacking server — stale chain or forged
    self-consistent chain — went undetected by ``verify_history``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.delta import Delta
from repro.core.document import (
    EncryptedDocument,
    create_document,
    load_document,
)
from repro.core.keys import KeyMaterial
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import encode_area
from repro.errors import ReproError
from repro.fuzz.generators import POS_SCALE

__all__ = [
    "Violation",
    "InvariantViolation",
    "resolve_pos",
    "apply_op",
    "op_delta",
    "check_document",
    "check_roundtrip",
    "check_store",
    "check_wire",
    "check_full_save",
    "reference_wire",
    "check_equal",
    "check_no_leak",
    "leak_blobs",
]


@dataclass
class Violation:
    """One invariant failure, serializable alongside its trace."""

    kind: str
    step: int = -1          #: op index in the trace (-1: end-of-trace check)
    detail: str = ""

    def to_dict(self) -> dict:
        """The violation as a plain dict for corpus serialization."""
        return {"kind": self.kind, "step": self.step, "detail": self.detail}


class InvariantViolation(ReproError):
    """Raised by the checks below; ``.violation`` has the record."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(
            f"[{violation.kind}] step {violation.step}: {violation.detail}"
        )


def _fail(kind: str, step: int, detail: str) -> None:
    raise InvariantViolation(Violation(kind=kind, step=step, detail=detail))


def _clip(text: str, limit: int = 80) -> str:
    return text if len(text) <= limit else text[:limit] + f"...(+{len(text) - limit})"


# -- oracle ------------------------------------------------------------------


def resolve_pos(posq: int, length: int) -> int:
    """Map a position quantum (0..POS_SCALE) onto ``0..length``."""
    if length <= 0:
        return 0
    return min(length, posq * (length + 1) // (POS_SCALE + 1))


def op_delta(op: tuple, length: int) -> Delta | None:
    """The :class:`Delta` an edit op denotes against a document of
    ``length`` chars, or None when it resolves to a no-op."""
    kind = op[0]
    if kind == "i":
        _, posq, text = op[0], op[1], op[2]
        if not text:
            return None
        return Delta.insertion(resolve_pos(posq, length), text)
    if kind == "d":
        pos = resolve_pos(op[1], length)
        count = min(op[2], length - pos)
        if count <= 0:
            return None
        return Delta.deletion(pos, count)
    if kind == "r":
        pos = resolve_pos(op[1], length)
        count = min(op[2], length - pos)
        text = op[3]
        if count <= 0 and not text:
            return None
        if count <= 0:
            return Delta.insertion(pos, text)
        if not text:
            return Delta.deletion(pos, count)
        return Delta.replacement(pos, count, text)
    raise ValueError(f"not an edit op: {op!r}")


def apply_op(text: str, op: tuple) -> str:
    """The specification: apply an edit op to a plain string."""
    kind = op[0]
    pos = resolve_pos(op[1], len(text))
    if kind == "i":
        return text[:pos] + op[2] + text[pos:]
    if kind == "d":
        return text[:pos] + text[pos + op[2]:] if op[2] > 0 else text
    if kind == "r":
        return text[:pos] + op[3] + text[pos + op[2]:]
    raise ValueError(f"not an edit op: {op!r}")


# -- checks ------------------------------------------------------------------


def check_document(doc: EncryptedDocument, oracle: str, step: int) -> None:
    """Per-step document laws: text, length, leaf and index rep."""
    got = doc.text
    if got != oracle:
        _fail("oracle-divergence", step,
              f"doc.text={_clip(got)!r} oracle={_clip(oracle)!r}")
    if doc.char_length != len(oracle):
        _fail("length-mismatch", step,
              f"char_length={doc.char_length} oracle={len(oracle)}")
    try:
        doc._leaves.checkrep()
    except Exception as exc:  # checkrep uses bare AssertionError too
        _fail("index-checkrep", step, f"{type(exc).__name__}: {exc}")


def check_roundtrip(doc: EncryptedDocument, oracle: str, step: int) -> None:
    """Full parse + decrypt (+ RPC checksum verify) of ``doc.wire()``."""
    try:
        fresh = load_document(doc.wire(), key_material=doc.key_material)
    except ReproError as exc:
        _fail("roundtrip", step, f"reload failed: {type(exc).__name__}: {exc}")
        return
    if fresh.text != oracle:
        _fail("roundtrip", step,
              f"reload={_clip(fresh.text)!r} oracle={_clip(oracle)!r}")


def reference_wire(doc: EncryptedDocument) -> str:
    """The stored form re-encoded from the mirror's records.

    Independent of the kept, cdelta-spliced text ``doc.wire()`` returns:
    header plus every record in order, Base32-encoded from scratch.
    """
    return doc._header.encode() + encode_area(*doc._columns())


def check_store(store_name: str, stored_wire: str, reference: str,
                step: int) -> None:
    """cdelta fidelity: the server's copy equals the reference wire."""
    if stored_wire != reference:
        _fail("cdelta-divergence", step,
              f"{store_name} store diverged from client records "
              f"(server {len(stored_wire)} chars, "
              f"reference {len(reference)})")


def check_wire(doc: EncryptedDocument, reference: str, step: int) -> None:
    """The mirror's spliced wire equals the from-records reference."""
    got = doc.wire()
    if got != reference:
        _fail("wire-divergence", step,
              f"spliced mirror wire ({len(got)} chars) differs from the "
              f"records re-encoded ({len(reference)} chars)")


def check_full_save(mirror: EncryptedDocument, plaintext: str, wire: str,
                    keys: KeyMaterial, step: int = -1) -> None:
    """The differential oracle for one full save: ``wire`` is what the
    extension posted for ``plaintext``, ``mirror`` its state after the
    rewrite, ``keys`` derived from the password and the wire's salt."""
    kind = "full-save-divergence"
    try:
        posted = load_document(wire, key_material=keys)
    except ReproError as exc:
        _fail(kind, step, f"posted wire does not load: "
                          f"{type(exc).__name__}: {exc}")
        return
    check_equal(kind, posted.text, plaintext, step,
                "decrypt(posted wire) vs posted plaintext")
    fresh = create_document(plaintext, key_material=keys,
                            scheme=posted.scheme,
                            block_chars=posted.block_chars,
                            rng=DeterministicRandomSource(len(plaintext)))
    check_equal(kind, load_document(fresh.wire(), key_material=keys).text,
                posted.text, step,
                "decrypt(fresh encryption) vs decrypt(posted wire)")
    check_document(mirror, plaintext, step)
    if reference_wire(mirror) != wire:
        _fail(kind, step, "posted wire differs from the mirror's records "
                          "re-encoded")


def check_equal(kind: str, a: str, b: str, step: int, what: str) -> None:
    """Generic convergence assertion with clipped diagnostics."""
    if a != b:
        _fail(kind, step, f"{what}: {_clip(a)!r} != {_clip(b)!r}")


def leak_blobs(*sessions) -> list[str]:
    """Everything of ``sessions`` an eavesdropper saw: each logged
    request and response body, and the URL and body of every request
    the session's fault plan saw leave (whether or not its exchange
    completed).  A session whose channel log is a bounded ring yields
    only the exchanges the ring still holds."""
    blobs: list[str] = []
    for session in sessions:
        if session.faults is not None:
            for request in session.faults.observed:
                blobs += (request.url, request.body)
        for exchange in session.channel.exchange_log:
            blobs += (exchange.request.body, exchange.response.body)
    return blobs


def check_no_leak(blobs, sentinel: str, step: int = -1) -> None:
    """No plaintext sentinel in anything that crossed the Channel."""
    needle = sentinel.encode()
    for blob in blobs:
        data = blob if isinstance(blob, bytes) else str(blob).encode()
        if needle in data:
            _fail("plaintext-leak", step,
                  f"sentinel {sentinel!r} found in channel bytes")
