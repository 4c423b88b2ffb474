"""The whole-file extension: one mediator for Bespin, Buzzword, and any
protocol that re-sends the whole document on every save (SIII).

Encrypt the content of every full save, let reads through and decrypt
what they return, drop everything else (server features such as
Buzzword's word count included).  No service is named here: the
backend's ``classify`` says what a request is, ``doc_id_of`` which
document it addresses, and ``map_content`` where its content sits — the
whole PUT body for Bespin, each ``<textRun>`` body for Buzzword, whose
XML structure stays visible to the server.
"""

from __future__ import annotations

from repro.core.transform import EncryptionEngine
from repro.encoding.wire import looks_encrypted
from repro.errors import (
    CiphertextFormatError,
    DecryptionError,
    IntegrityError,
    PasswordError,
)
from repro.extension.passwords import PasswordVault
from repro.net.http import HttpRequest, HttpResponse
from repro.services.backend import KIND_READ, KIND_SAVE_FULL, ServiceBackend

__all__ = ["WholeFileExtension"]


class WholeFileExtension:
    """Mediator encrypting the content of whole-file saves."""

    def __init__(self, backend: ServiceBackend, vault: PasswordVault, *,
                 scheme: str = "recb", block_chars: int = 8, rng=None):
        self._backend = backend
        self._vault = vault
        self._scheme = scheme
        self._block_chars = block_chars
        self._rng = rng
        self._engines: dict[str, EncryptionEngine] = {}
        self.warnings: list[str] = []

    def engine(self, doc_id: str) -> EncryptionEngine:
        """Per-document encryption engine (created on first use); all
        chunks share its key, and a decrypted read adopts the stored
        salt for later saves."""
        if doc_id not in self._engines:
            self._engines[doc_id] = EncryptionEngine(
                password=self._vault.get(doc_id),
                scheme=self._scheme,
                block_chars=self._block_chars,
                rng=self._rng,
            )
        return self._engines[doc_id]

    def on_request(self, request: HttpRequest) -> HttpRequest | None:
        """Encrypt full saves; allow reads; drop everything else."""
        kind = self._backend.classify(request)
        if kind == KIND_READ or (kind == KIND_SAVE_FULL
                                 and request.method == "DELETE"):
            return request  # a DELETE carries no content to protect
        if kind != KIND_SAVE_FULL:
            return None
        engine = self.engine(self._backend.doc_id_of(request))
        return request.with_body(
            self._backend.map_content(request.body, engine.encrypt)
        )

    def on_response(self, request: HttpRequest,
                    response: HttpResponse) -> HttpResponse:
        """Decrypt the content reads return for the oblivious client."""
        if not (response.ok
                and self._backend.classify(request) == KIND_READ):
            return response
        doc_id = self._backend.doc_id_of(request)

        def decrypt(content: str) -> str:
            if not looks_encrypted(content):
                return content  # listings, never-encrypted files
            try:
                return self.engine(doc_id).decrypt(content)
            except (DecryptionError, IntegrityError, CiphertextFormatError,
                    PasswordError) as exc:
                self.warnings.append(f"{doc_id}: {exc}")
                return content

        return response.with_body(
            self._backend.map_content(response.body, decrypt)
        )
