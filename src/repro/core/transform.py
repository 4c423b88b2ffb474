"""The ``enc_scheme`` object of Fig. 2.

The extension's request mediator holds one :class:`EncryptionEngine` per
open document.  It exposes the three public interfaces the paper names
— ``encrypt``, ``decrypt``, and ``transform_delta`` — and "maintains a
copy of the state of the ciphertext document which is needed to
transform the delta" (the :class:`EncryptedDocument` mirror).  A fourth,
``save_full``, answers a full save by splicing the mirror instead of
re-encrypting the whole document whenever the mirror can be trusted.

The methods speak *strings*: full saves carry the wire document,
incremental saves carry serialized deltas, matching what actually rides
in the form fields the mediator rewrites.
"""

from __future__ import annotations

from repro.core.delta import Delta
from repro.core.document import (
    EncryptedDocument,
    create_document,
    load_document,
)
from repro.core.keys import KeyMaterial
from repro.crypto.random import RandomSource
from repro.errors import TransformError

__all__ = ["EncryptionEngine"]


class EncryptionEngine:
    """Per-document encryption state machine for the mediator."""

    def __init__(
        self,
        password: str,
        scheme: str = "recb",
        block_chars: int = 8,
        rng: RandomSource | None = None,
    ):
        self._password = password
        self._scheme = scheme
        self._block_chars = block_chars
        self._rng = rng
        self._keys: KeyMaterial | None = None
        self._mirror: EncryptedDocument | None = None
        #: set by :meth:`taint`: the next full save re-encrypts afresh
        self._tainted = False

    @property
    def mirror(self) -> EncryptedDocument | None:
        """The ciphertext-document mirror (None before first use)."""
        return self._mirror

    @property
    def scheme(self) -> str:
        return self._scheme

    def encrypt(self, plaintext: str, version: int = 0) -> str:
        """Encrypt a full document afresh.

        Replaces the mirror (at RPC version ``version``); the key (and
        salt) is derived once per engine so re-saves of the same
        document stay openable with the same password.
        """
        if self._keys is None:
            self._keys = KeyMaterial.from_password(
                self._password, rng=self._rng
            )
        self._mirror = create_document(
            plaintext,
            key_material=self._keys,
            scheme=self._scheme,
            block_chars=self._block_chars,
            rng=self._rng,
            version=version,
        )
        self._tainted = False
        return self._mirror.wire()

    def save_full(self, plaintext: str) -> tuple[str, Delta | None]:
        """A full save (the ``docContents`` path); ``(wire, delta)``.

        With a trusted mirror the common prefix and suffix of its text
        and ``plaintext`` leave one replacement ``delta``; IncE applies
        it (re-encrypting only the blocks it touches) and the mirror's
        whole wire is returned.  Equal texts give the empty delta and
        re-send the mirror's bytes unchanged.

        With no mirror, or a tainted one, the text is encrypted afresh
        and ``delta`` is None.  The RPC version counter continues past
        the old mirror's, so a reader that saw it does not take the new
        document for a rollback.

        Kept apart from :meth:`encrypt` on purpose: a caller encrypting
        several independent texts on one engine (the whole-file
        mediator's chunks) must never splice one from another, which
        would give their matching stretches identical records.
        """
        mirror = self._mirror
        if mirror is None or self._tainted:
            version = getattr(mirror, "version", -1) + 1
            return self.encrypt(plaintext, version=version), None
        delta = Delta.between(mirror.text, plaintext)
        mirror.apply_delta(delta)
        return mirror.wire(), delta

    def taint(self) -> None:
        """Stop trusting the mirror for splicing: the server's copy
        diverged from it, or it was refused.  The next full save
        re-encrypts afresh; the next :meth:`decrypt` clears the taint."""
        self._tainted = True

    def decrypt(self, wire_text: str) -> str:
        """Decrypt a stored document (document-open path); adopts it as
        the mirror so subsequent deltas can be transformed."""
        self._mirror = load_document(
            wire_text,
            password=self._password,
            rng=self._rng,
        )
        self._keys = self._mirror.key_material
        self._scheme = self._mirror.scheme
        self._block_chars = self._mirror.block_chars
        self._tainted = False
        return self._mirror.text

    def transform_delta(self, delta_text: str) -> str:
        """Translate a plaintext delta into the ciphertext delta."""
        if self._mirror is None:
            raise TransformError(
                "no ciphertext mirror: a full save or load must precede "
                "incremental updates"
            )
        delta = Delta.parse(delta_text)
        return self._mirror.apply_delta(delta).serialize()
