"""SHA-1 of a string that changes in place, resumed from midstates.

Every gdocs Ack carries ``contentFromServerHash``, the SHA-1 of the
stored text (:func:`repro.services.gdocs.protocol.content_hash`, the
definition this module must equal on every input).  SHA-1 is
Merkle–Damgård: the hash of ``a + b`` is the chaining value after ``a``
fed ``b``.  :class:`Sha1Midstates` keeps such chaining values — Python
``sha1`` objects, copied — after consecutive pieces of a string, so
when the string changes at character ``p`` the next digest resumes from
the last midstate at or before ``p`` and hashes only the suffix.

Two holders use it.  The client mirror keeps midstates every
:data:`STRIDE` characters of its kept wire (:meth:`hexdigest`); the
gdocs store keeps one after each of its leaves (:meth:`extend`).  A
midstate is a chaining value of text its holder already has: no key,
nothing the text itself does not give away (docs/security.md).
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import sha1
from repro.obs import counter

__all__ = ["STRIDE", "Sha1Midstates"]

#: characters between the midstates :meth:`Sha1Midstates.hexdigest`
#: keeps over a flat string
STRIDE = 8_192

#: bytes fed to SHA-1 by every midstate holder: with midstates this is
#: the suffix after each change, not the whole string
_BYTES = counter("crypto.sha1.bytes")


class Sha1Midstates:
    """Midstates ``(end, state)``: ``state`` has hashed the string's
    first ``end`` characters (UTF-8 encoded), ends increasing."""

    __slots__ = ("_ends", "_states", "_digest")

    def __init__(self) -> None:
        self._ends: list[int] = []
        self._states: list = []
        #: the whole string's digest, until the next change
        self._digest: str | None = None

    def __len__(self) -> int:
        """Midstates kept."""
        return len(self._ends)

    def truncate(self, pos: int) -> None:
        """The string changed at character ``pos``: forget every
        midstate that covers characters past it."""
        keep = bisect_right(self._ends, pos)
        del self._ends[keep:], self._states[keep:]
        self._digest = None

    def extend(self, pieces: list[str], tail: str) -> str:
        """The digest of the string whose text after the last midstate
        is ``pieces`` then ``tail``, keeping a midstate after each
        piece (none after ``tail``).  Unchanged since the last digest,
        the string's digest is returned as kept."""
        if self._digest is None:
            ends, states = self._ends, self._states
            state = states[-1].copy() if states else sha1()
            end = ends[-1] if ends else 0
            for piece in pieces:
                data = piece.encode()
                state.update(data)
                _BYTES.inc(len(data))
                end += len(piece)
                ends.append(end)
                states.append(state.copy())
            data = tail.encode()
            state.update(data)
            _BYTES.inc(len(data))
            self._digest = state.hexdigest()
        return self._digest

    def hexdigest(self, text: str) -> str:
        """``content_hash(text)``, hashing only what follows the last
        kept midstate and keeping one every :data:`STRIDE` characters."""
        if self._digest is None:
            start = self._ends[-1] if self._ends else 0
            stop = len(text) - len(text) % STRIDE
            self.extend(
                [text[at:at + STRIDE] for at in range(start, stop, STRIDE)],
                text[stop:])
        return self._digest
