#!/usr/bin/env python3
"""layering-check: keep the trusted side of the stack server-blind.

The refactor that extracted :mod:`repro.services.backend` holds only if
nothing above the seam quietly reaches around it.  This lint parses
every module under ``src/repro`` (AST only — nothing is imported) and
enforces the layering that ``docs/architecture.md`` documents:

* **client and extension code** (``repro.client.*``,
  ``repro.extension.*``) may import from ``repro.services`` only the
  wire-protocol surface: ``repro.services.backend``, the request/
  response builders (``repro.services.gdocs.protocol``,
  ``repro.services.bespin``'s builders, ``repro.services.buzzword``'s
  XML helpers).  The *simulated servers* and their storage
  (``repro.services.gdocs.server`` / ``storage``), the
  replication facade (``repro.services.replicated``), and the
  server-constructing ``repro.services.registry`` are off limits: a client that imports a server is a client whose
  tests prove nothing about the wire contract.
  (``repro.extension.session`` alone gets a registry exemption: the
  session builder is exactly the place that turns a service *name*
  into a server; every other mediator takes a ``ServiceBackend``.)
* **service code** (``repro.services.*``) may not import
  ``repro.client`` or ``repro.extension`` — providers are untrusted
  and know nothing of the mediation stack above them.
* **the OT merge engine** (``repro.services.ot``, PR 8) additionally
  may not import ``repro.crypto``: it rebases ciphertext deltas
  *blind*, and a merge engine holding key material would be a
  provider that can read.
* **transport/server code** (``repro.net.*``, PR 7) sits below the
  trust boundary and sees only ciphertext: it may not import the
  trusted layer (``repro.client``, ``repro.extension``) *or*
  ``repro.crypto`` — a transport with key material in scope is a
  transport one bug away from leaking it.
* **trusted code reaches a server only through the Transport seam**:
  ``repro.client.*`` / ``repro.extension.*`` may not import
  ``repro.net.server`` (the socket server is provider territory), and
  the client layer may not import ``repro.net.pool`` either — it holds
  a ``Transport``, never raw connections.
* **the tenant catalog** (``repro.services.catalog``, PR 10) is a
  provider like any other (trusted-layer imports banned by the
  services rule) and additionally may not import ``repro.crypto``:
  it stores opaque trapdoors and posting blobs, and a catalog with
  key material in scope could decrypt exactly what searchable
  encryption keeps from it.
* **the audit-chain core** (``repro.core.auditchain``, PR 10) is
  shared by the client (verifier) and the catalog (prover) and may
  not import ``repro.services`` — a chain primitive reaching into
  server code would let the prover pick what the verifier checks.
* as a belt-and-braces check, client/extension modules may not bind
  the server class names (``GDocsServer``, ``BespinServer``,
  ``CatalogService``, ...) via ``from ... import`` even through a
  re-export.

Run via ``make layering-check`` (part of ``make test``); exits
non-zero listing every violation with its file and line.
"""

from __future__ import annotations

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: modules client/extension code must never import (server internals)
SERVER_MODULES = (
    "repro.services.gdocs.server",
    "repro.services.gdocs.storage",
    "repro.services.replicated",
)

#: server-side class names that must not be bound above the seam
SERVER_NAMES = frozenset({
    "GDocsServer", "BespinServer", "BuzzwordServer",
    "ReplicatedService", "FlakyServer", "DocumentStore",
    "CatalogService", "CatalogStore",
})

#: the server-constructing registry, banned on the trusted side...
REGISTRY = "repro.services.registry"
#: ...except in the one service builder
REGISTRY_USER = "repro.extension.session"

#: the socket server — untrusted territory, banned on the trusted side
NET_SERVER = "repro.net.server"

#: the raw connection machinery — clients hold a Transport, not sockets
NET_POOL = "repro.net.pool"

#: what transport/server code (repro.net.*) must never import
NET_BANNED = ("repro.client", "repro.extension", "repro.crypto")

#: the server-side OT merge engine (PR 8) — pure ciphertext-delta
#: algebra.  It already may not import client/extension (it lives
#: under repro.services); key material is banned on top of that: a
#: merge engine that can decrypt is a provider that can read.
OT_MODULE = "repro.services.ot"
OT_BANNED = ("repro.crypto",)

#: the catalog server op (PR 10) — trapdoor-keyed posting store plus
#: the tenant's audit chains.  The general services rule already bans
#: the trusted layer; key material is banned on top: a catalog holding
#: keys could decrypt the very postings searchable encryption hides.
CATALOG_MODULE = "repro.services.catalog"
CATALOG_BANNED = ("repro.crypto",)

#: the audit-chain core (PR 10) — pure hash-link algebra shared by the
#: client (verifier) and the catalog (appender).  It must not import
#: the services layer: a chain primitive reaching into server code
#: would let the prover pick what the verifier checks.
AUDIT_MODULE = "repro.core.auditchain"
AUDIT_BANNED = ("repro.services",)


def _module_name(path: pathlib.Path) -> str:
    relative = path.relative_to(SRC.parent).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(tree: ast.AST):
    """Yield (lineno, imported_module, bound_names) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import; resolve best-effort later
                continue
            names = tuple(alias.name for alias in node.names)
            yield node.lineno, node.module or "", names


def _covers(imported: str, names: tuple[str, ...], module: str) -> bool:
    """Does ``from imported import names`` (or ``import imported``)
    reach ``module``?  ``from repro.services import registry`` does."""
    return any(path == module or path.startswith(module + ".")
               for path in (imported, *(f"{imported}.{n}" for n in names)))


def check(path: pathlib.Path) -> list[str]:
    """All layering violations in one source file."""
    return check_source(_module_name(path),
                        path.read_text(encoding="utf-8"),
                        str(path.relative_to(REPO)))


def check_source(module: str, source: str, where: str = "<source>"
                 ) -> list[str]:
    """All layering violations in ``source`` as module ``module``
    (split out from :func:`check` so tests can feed synthetic code)."""
    tree = ast.parse(source, filename=where)
    problems: list[str] = []
    in_trusted = (module.startswith("repro.client")
                  or module.startswith("repro.extension"))
    in_services = module.startswith("repro.services")
    in_net = module == "repro.net" or module.startswith("repro.net.")

    for lineno, imported, names in _imports(tree):
        spot = f"{where}:{lineno}"
        if in_trusted:
            if _covers(imported, names, NET_SERVER):
                problems.append(
                    f"{spot}: {module} imports the socket server "
                    f"({imported}) — trusted code reaches a server "
                    f"only through the Transport seam"
                )
            if (_covers(imported, names, NET_POOL)
                    and module.startswith("repro.client")):
                problems.append(
                    f"{spot}: {module} imports {NET_POOL} — clients "
                    f"hold a Transport, never raw connections"
                )
            for banned in SERVER_MODULES:
                if _covers(imported, names, banned):
                    problems.append(
                        f"{spot}: {module} imports server internals "
                        f"{imported} (go through repro.services.backend)"
                    )
            if _covers(imported, names, REGISTRY) and module != REGISTRY_USER:
                problems.append(
                    f"{spot}: {module} imports {REGISTRY} — clients "
                    f"and mediators take a ServiceBackend, only "
                    f"{REGISTRY_USER} builds servers"
                )
            bound = SERVER_NAMES.intersection(names)
            if bound:
                problems.append(
                    f"{spot}: {module} binds server name(s) "
                    f"{', '.join(sorted(bound))} from {imported}"
                )
        if in_services and (_covers(imported, names, "repro.client")
                            or _covers(imported, names, "repro.extension")):
            problems.append(
                f"{spot}: service module {module} imports the trusted "
                f"layer ({imported}) — providers are untrusted and "
                f"must not know the mediation stack"
            )
        if module == OT_MODULE:
            for banned in OT_BANNED:
                if _covers(imported, names, banned):
                    problems.append(
                        f"{spot}: {module} imports {imported} — the OT "
                        f"merge engine transforms ciphertext deltas "
                        f"blind and must never hold key material"
                    )
        if module == CATALOG_MODULE or \
                module.startswith(CATALOG_MODULE + "."):
            for banned in CATALOG_BANNED:
                if _covers(imported, names, banned):
                    problems.append(
                        f"{spot}: {module} imports {imported} — the "
                        f"catalog stores opaque trapdoors and postings "
                        f"and must never hold key material"
                    )
        if module == AUDIT_MODULE:
            for banned in AUDIT_BANNED:
                if _covers(imported, names, banned):
                    problems.append(
                        f"{spot}: {module} imports {imported} — the "
                        f"audit-chain core is shared by verifier and "
                        f"prover; pulling in server code would let the "
                        f"prover pick what the verifier checks"
                    )
        if in_net:
            for banned in NET_BANNED:
                if _covers(imported, names, banned):
                    problems.append(
                        f"{spot}: transport module {module} imports "
                        f"{imported} — repro.net sits below the trust "
                        f"boundary and must see only ciphertext"
                    )
    return problems


def main() -> int:
    """Lint every module under src/repro; print violations, exit 1."""
    problems: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        problems.extend(check(path))
    if problems:
        print("layering-check: FAIL")
        for problem in problems:
            print("  " + problem)
        return 1
    count = len(list(SRC.rglob('*.py')))
    print(f"layering-check: OK ({count} modules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
