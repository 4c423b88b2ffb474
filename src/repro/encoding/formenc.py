"""Percent / ``application/x-www-form-urlencoded`` codec.

The Google Documents save protocol carries everything in form-encoded
POST bodies (``docContents=...&delta=...``); the mediator has to decode
exactly what the client encoded and re-encode what it rewrites, so the
codec is implemented here rather than assumed (the JS prototype used
``encodeURIComponent``/``decodeURIComponent``/``unescape``).

Every save crosses this codec several times, so neither direction runs
a Python loop per character:

* **Fast paths.** :func:`quote` returns its input unchanged when every
  character is unreserved (one ``re.fullmatch``; Base32 ciphertext
  always qualifies).  :func:`unquote` returns its input unchanged when
  it is ASCII and holds no ``%`` (and no ``+`` when ``plus_spaces``).
* **Slow paths.** :func:`quote` encodes to UTF-8, views the bytes as
  Latin-1 text and maps every byte through one 256-entry
  ``str.translate`` table (itself, ``+`` or ``%XX``).  :func:`unquote`
  replaces ``+``, splits the UTF-8 bytes on ``%``, looks each chunk's
  two-character prefix up in a table of every valid hex pair, joins the
  pieces and decodes strictly.  The only Python loop is one step per
  escape.

Strictness contract: both functions either return or raise
:class:`~repro.errors.ProtocolError` — never another exception — and
``unquote(quote(t)) == t`` for every ``t`` that ``quote`` accepts.  An
escape is ``%`` followed by exactly two ASCII hex digits: a truncated
escape, a sign or space (``%+1``, ``% f``, ``%-0``) or a non-ASCII
digit is rejected; so is a decoded byte string that is not valid UTF-8,
and a lone surrogate in the input of either function (it has no UTF-8
encoding).

The original per-character routines are kept as ``_quote_scalar`` /
``_unquote_scalar``: they are the executable spec the fast and slow
paths are cross-checked against in tests.  They predate the contract
above and differ from it in exactly two ways, which the tests list:
``_unquote_scalar`` accepts whatever ``int(pair, 16)`` accepts (``%+1``
decodes to ``"\\x01"``), and both let ``UnicodeEncodeError`` escape on a
lone surrogate.
"""

from __future__ import annotations

import re

from repro.errors import ProtocolError
from repro.obs import counter

#: characters of every body handed to :func:`parse_form` — one save's
#: path should decode each distinct body at most once
_BYTES_DECODED = counter("formenc.bytes_decoded")

_UNRESERVED_CHARS = (
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "abcdefghijklmnopqrstuvwxyz"
    "0123456789-_.~*"
)
_UNRESERVED = set(_UNRESERVED_CHARS)
_ALL_UNRESERVED = re.compile(f"[{re.escape(_UNRESERVED_CHARS)}]*")
_HEX = "0123456789ABCDEF"

#: byte (as a Latin-1 character) -> its form encoding
_QUOTE_TABLE = [
    chr(b) if chr(b) in _UNRESERVED else f"%{b:02X}" for b in range(256)
]
_QUOTE_PLUS_TABLE = [
    "+" if b == 0x20 else enc for b, enc in enumerate(_QUOTE_TABLE)
]
#: every valid two-digit escape body, either case -> its byte
_HEX_PAIRS = {
    (a + b).encode("ascii"): bytes([int(a + b, 16)])
    for a in "0123456789abcdefABCDEF"
    for b in "0123456789abcdefABCDEF"
}


def quote(text: str, plus_spaces: bool = True) -> str:
    """Percent-encode ``text`` for use in a form body.

    Spaces become ``+`` when ``plus_spaces`` (form convention); every
    other byte outside the unreserved set becomes ``%XX`` over its UTF-8
    encoding.
    """
    if _ALL_UNRESERVED.fullmatch(text):
        return text
    return _quote_slow(text, plus_spaces)


def unquote(text: str, plus_spaces: bool = True) -> str:
    """Invert :func:`quote`."""
    plus = plus_spaces and "+" in text
    if not plus and "%" not in text and text.isascii():
        return text
    return _unquote_slow(text, plus_spaces)


def _quote_slow(text: str, plus_spaces: bool) -> str:
    """:func:`quote` for any input: one ``str.translate`` over the
    UTF-8 bytes viewed as Latin-1 characters."""
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ProtocolError(f"form field is not encodable: {exc}") from None
    table = _QUOTE_PLUS_TABLE if plus_spaces else _QUOTE_TABLE
    return raw.decode("latin-1").translate(table)


def _unquote_slow(text: str, plus_spaces: bool) -> str:
    """:func:`unquote` for any input: split the UTF-8 bytes on ``%`` and
    replace each chunk's two-digit prefix by its byte."""
    if plus_spaces:
        text = text.replace("+", " ")
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ProtocolError(f"form field is not valid UTF-8: {exc}") from None
    head, *chunks = raw.split(b"%")
    last = len(chunks) - 1
    out = bytearray(head)
    for i, chunk in enumerate(chunks):
        byte = _HEX_PAIRS.get(chunk[:2])
        if byte is None:
            what = "truncated" if i == last and len(chunk) < 2 else "invalid"
            escape = "%" + chunk[:2].decode("utf-8", "replace")
            raise ProtocolError(f"{what} percent escape {escape!r}")
        out += byte
        out += chunk[2:]
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"form field is not valid UTF-8: {exc}") from None


def encode_form(fields: dict[str, str]) -> str:
    """Serialize ``fields`` as a form body, preserving insertion order."""
    return "&".join(f"{quote(k)}={quote(v)}" for k, v in fields.items())


def parse_form(body: str) -> dict[str, str]:
    """Parse a form body into a dict (last occurrence of a key wins)."""
    _BYTES_DECODED.inc(len(body))
    fields: dict[str, str] = {}
    if not body:
        return fields
    for pair in body.split("&"):
        key, sep, value = pair.partition("=")
        if not sep:
            raise ProtocolError(f"malformed form pair {pair!r}")
        fields[unquote(key)] = unquote(value)
    return fields


def _quote_scalar(text: str, plus_spaces: bool = True) -> str:
    """Reference per-character encoder (the fast paths' executable spec)."""
    out: list[str] = []
    for ch in text:
        if ch in _UNRESERVED:
            out.append(ch)
        elif ch == " " and plus_spaces:
            out.append("+")
        else:
            for byte in ch.encode("utf-8"):
                out.append("%" + _HEX[byte >> 4] + _HEX[byte & 0xF])
    return "".join(out)


def _unquote_scalar(text: str, plus_spaces: bool = True) -> str:
    """Reference per-character decoder (the fast paths' executable spec)."""
    out = bytearray()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "%":
            if i + 3 > n:
                raise ProtocolError(f"truncated percent escape in {text[i:]!r}")
            try:
                out.append(int(text[i + 1 : i + 3], 16))
            except ValueError:
                raise ProtocolError(
                    f"invalid percent escape {text[i:i + 3]!r}"
                ) from None
            i += 3
        elif ch == "+" and plus_spaces:
            out.append(0x20)
            i += 1
        else:
            out.extend(ch.encode("utf-8"))
            i += 1
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"form field is not valid UTF-8: {exc}") from None
