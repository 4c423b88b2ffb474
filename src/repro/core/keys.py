"""Per-document keys derived from user passwords (SII, SIV-C).

The prototype had users control security "using per-document passwords";
the document key is derived from the password with PBKDF2-HMAC-SHA256
over a per-document random salt.  The salt travels in the plaintext
document header (:class:`repro.encoding.wire.DocumentHeader`) — it is
not secret — so anyone who knows the password can open a shared
document, which is exactly the paper's sharing story (share the Google
document, share the password over another channel).

Password quality and establishment are explicitly out of the paper's
scope; iteration count is configurable and deliberately modest by
default so the test suite stays fast.

Derivations are memoised: reopening a document re-derives from the same
``(password, salt, iterations)`` every time, so the last
:data:`KDF_MEMO_ENTRIES` results are kept in this (trusted, client-side)
process and a repeat costs a dictionary lookup instead of a PBKDF2 run.
A new salt or a wrong password is a different memo key and derives as
before; docs/security.md ("Key derivation memo") gives the argument.
"""

from __future__ import annotations

import hashlib
import hmac
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.random import RandomSource, SystemRandomSource
from repro.errors import PasswordError
from repro.obs import counter

#: default PBKDF2 iteration count (kept modest; a deployment would raise it)
DEFAULT_ITERATIONS = 5000

SALT_BYTES = 10  # encodes to 16 base32 chars in the document header
KEY_BYTES = 16   # AES-128, matching the paper's 2^128 key-search claim

#: derivations the memo keeps (least recently used evicted first); a
#: workspace reopening a few hundred documents stays inside it
KDF_MEMO_ENTRIES = 256

#: PBKDF2 runs — memo hits do not count, so a reopen reads 0
_DERIVATIONS = counter("crypto.kdf.derivations")

_memo: OrderedDict[tuple[str, bytes, int], bytes] = OrderedDict()
_memo_lock = threading.Lock()


def _derive(password: str, salt: bytes, iterations: int) -> bytes:
    """PBKDF2-HMAC-SHA256, memoised on ``(password, salt, iterations)``."""
    memo_key = (password, salt, iterations)
    with _memo_lock:
        key = _memo.get(memo_key)
        if key is not None:
            _memo.move_to_end(memo_key)
            return key
    key = hashlib.pbkdf2_hmac(
        "sha256", password.encode("utf-8"), salt, iterations, KEY_BYTES
    )
    _DERIVATIONS.inc()
    with _memo_lock:
        _memo[memo_key] = key
        if len(_memo) > KDF_MEMO_ENTRIES:
            _memo.popitem(last=False)
    return key


@dataclass(frozen=True)
class KeyMaterial:
    """A document key together with the salt that produced it."""

    key: bytes
    salt: bytes
    iterations: int = DEFAULT_ITERATIONS

    @classmethod
    def from_password(
        cls,
        password: str,
        salt: bytes | None = None,
        iterations: int = DEFAULT_ITERATIONS,
        rng: RandomSource | None = None,
    ) -> "KeyMaterial":
        """Derive key material, generating a fresh salt if none given."""
        if not password:
            raise PasswordError("password must be non-empty")
        if salt is None:
            salt = (rng or SystemRandomSource()).token(SALT_BYTES)
        key = _derive(password, salt, iterations)
        return cls(key=key, salt=salt, iterations=iterations)

    def check(self, other_key: bytes) -> bool:
        """Constant-time key comparison."""
        return hmac.compare_digest(self.key, other_key)
