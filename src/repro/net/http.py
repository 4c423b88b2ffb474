"""Minimal HTTP-shaped messages for the simulated services.

The 2011 prototype intercepted real Firefox HTTP traffic; the simulation
carries the same information in plain dataclasses: method, URL (with
query), headers, and a text body (the services all use form-encoded or
XML text bodies).  Nothing here does networking — delivery is the job
of :mod:`repro.net.channel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.encoding.formenc import encode_form, parse_form
from repro.errors import ProtocolError
from repro.obs import counter

__all__ = ["HttpRequest", "HttpResponse", "parse_url"]

#: actual parse work vs. requests served from the per-instance cache —
#: the pair proves host/path/query no longer re-parse the same URL
_URL_PARSES = counter("net.url_parses")
_URL_CACHE_HITS = counter("net.url_cache_hits")


def _seeded(message, fields: dict[str, str]):
    """``message`` with its form-parse cache filled from ``fields``.

    ``with_form`` already holds the dict its body encodes, so every
    later reader of ``.form`` gets a copy instead of decoding the body
    again.  Only ``with_form`` fills the cache: ``.form`` on any other
    message parses without keeping the result, so a message kept in an
    exchange log holds a second copy of its fields only if it was built
    by ``with_form``.
    """
    message.__dict__["_form"] = dict(fields)
    return message


def _form_of(message) -> dict[str, str]:
    """A fresh dict of ``message``'s form fields (cached or parsed)."""
    cached = message.__dict__.get("_form")
    if cached is not None:
        return dict(cached)
    return parse_form(message.body)


def parse_url(url: str) -> tuple[str, str, dict[str, str]]:
    """Split a URL into ``(host, path, query_params)``."""
    _URL_PARSES.inc()
    rest = url
    if "://" in rest:
        scheme, _, rest = rest.partition("://")
        if scheme not in ("http", "https"):
            raise ProtocolError(f"unsupported scheme {scheme!r}")
    host, slash, tail = rest.partition("/")
    path = slash + tail
    if not host:
        raise ProtocolError(f"URL {url!r} has no host")
    path, _, query = path.partition("?")
    params = parse_form(query) if query else {}
    return host, path or "/", params


@dataclass(frozen=True)
class HttpRequest:
    """One client→server message."""

    method: str
    url: str
    body: str = ""
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def _parsed(self) -> tuple[str, str, dict[str, str]]:
        """The parse of :attr:`url`, computed once per instance.

        The dataclass is frozen, so the cache is stashed directly in
        ``__dict__`` (which bypasses the frozen ``__setattr__``), the
        same mechanism ``functools.cached_property`` relies on.  One
        mediated exchange reads host/path/query several times; without
        this every read re-ran :func:`parse_url`.
        """
        cached = self.__dict__.get("_parsed_url")
        if cached is None:
            cached = parse_url(self.url)
            self.__dict__["_parsed_url"] = cached
        else:
            _URL_CACHE_HITS.inc()
        return cached

    @property
    def host(self) -> str:
        return self._parsed[0]

    @property
    def path(self) -> str:
        return self._parsed[1]

    @property
    def query(self) -> dict[str, str]:
        # Copy so a caller mutating the result cannot poison the cache.
        return dict(self._parsed[2])

    @property
    def form(self) -> dict[str, str]:
        """The body parsed as a form (POST bodies in this protocol)."""
        return _form_of(self)

    def with_body(self, body: str) -> "HttpRequest":
        """Copy of this request with a replaced body."""
        return replace(self, body=body)

    def with_form(self, fields: dict[str, str]) -> "HttpRequest":
        """Copy of this request with a re-encoded form body; its
        ``.form`` hands back ``fields`` without decoding the body."""
        return _seeded(self.with_body(encode_form(fields)), fields)

    @property
    def wire_bytes(self) -> int:
        """Approximate on-the-wire size (for the latency model)."""
        head = len(self.method) + len(self.url) + 12
        head += sum(len(k) + len(v) + 4 for k, v in self.headers.items())
        return head + len(self.body.encode("utf-8"))


@dataclass(frozen=True)
class HttpResponse:
    """One server→client message."""

    status: int
    body: str = ""
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def form(self) -> dict[str, str]:
        return _form_of(self)

    def with_body(self, body: str) -> "HttpResponse":
        """Copy of this response with a replaced body."""
        return replace(self, body=body)

    def with_form(self, fields: dict[str, str]) -> "HttpResponse":
        """Copy of this response with a re-encoded form body; its
        ``.form`` hands back ``fields`` without decoding the body."""
        return _seeded(self.with_body(encode_form(fields)), fields)

    @property
    def wire_bytes(self) -> int:
        head = 20 + sum(len(k) + len(v) + 4 for k, v in self.headers.items())
        return head + len(self.body.encode("utf-8"))
