"""Command-line interface: ``python -m repro <command>``.

A small operational surface over the library, for working with wire
documents as files:

* ``encrypt``  — plaintext file → ciphertext wire document
* ``decrypt``  — wire (or stego) document → plaintext
* ``edit``     — apply an insert/delete/replace *incrementally* to a
  wire document, printing the ciphertext delta that a server would
  receive (the IncE operation, observable)
* ``inspect``  — parse a wire document's public metadata without any
  password; verify it when a password is given
* ``demo``     — a one-command tour of the simulated private-editing
  stack
* ``chaos``    — the demo on a hostile network: a seeded fault plan
  drops/duplicates/corrupts traffic while the resilient client retries
  and resyncs; prints what was injected and whether the document
  converged
* ``serve``    — host the registry's simulated services behind a real
  asyncio TCP socket (``repro.net.server``): multi-tenant,
  document-sharded, speaking length-prefixed HTTP-form frames
* ``loadgen``  — drive N concurrent private-editing sessions against a
  served (or self-hosted) socket server — the load generator behind
  ``make bench-load``, one cell at a time
* ``stats``    — render a JSON metrics sidecar (as written by
  ``--metrics-json`` or the benchmark harness) as a readable listing
* ``fuzz``     — the differential fuzzer (``repro.fuzz``): seeded edit
  traces through the full stack, every step checked against a
  plaintext oracle; failures shrink to minimal replay files

Every command accepts ``--metrics`` (print the populated metrics
registry to stderr when done) and ``--metrics-json PATH`` (write the
registry as a JSON sidecar).  Passwords are taken from ``--password``
or the ``REPRO_PASSWORD`` environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core import create_document, load_document
from repro.core.delta import Delta
from repro.encoding.stego import looks_stego, stego_unwrap, stego_wrap
from repro.encoding.wire import RECORD_CHARS, parse_document
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
        if not content.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)


def _password(args: argparse.Namespace) -> str:
    password = args.password or os.environ.get("REPRO_PASSWORD")
    if not password:
        raise SystemExit(
            "error: a password is required (--password or REPRO_PASSWORD)"
        )
    return password


def _load(path: str, password: str):
    content = _read(path)
    if looks_stego(content):
        content = stego_unwrap(content)
    return load_document(content, password=password)


# -- commands ----------------------------------------------------------------


def cmd_encrypt(args: argparse.Namespace) -> int:
    """``repro encrypt``: plaintext file -> ciphertext wire document."""
    text = _read(args.infile)
    doc = create_document(
        text,
        password=_password(args),
        scheme=args.scheme,
        block_chars=args.block_chars,
    )
    wire = doc.wire()
    if args.stego:
        wire = stego_wrap(wire)
    _write(args.output, wire)
    print(
        f"encrypted {doc.char_length} chars -> {len(wire)} stored chars "
        f"({doc.scheme}, b={doc.block_chars}, "
        f"blow-up {len(wire) / max(1, doc.char_length):.1f}x)",
        file=sys.stderr,
    )
    return 0


def cmd_decrypt(args: argparse.Namespace) -> int:
    """``repro decrypt``: wire (or stego) document -> plaintext."""
    doc = _load(args.infile, _password(args))
    _write(args.output, doc.text)
    return 0


def cmd_edit(args: argparse.Namespace) -> int:
    """``repro edit``: apply one edit incrementally, printing the cdelta size."""
    doc = _load(args.infile, _password(args))
    delta = Delta.replacement(
        args.at, args.delete or 0, args.insert or ""
    )
    cdelta = doc.apply_delta(delta)
    wire = doc.wire()
    if args.stego:
        wire = stego_wrap(wire)
    _write(args.infile if args.in_place else args.output, wire)
    touched = sum(
        len(op.text) if hasattr(op, "text") else op.count
        for op in cdelta.ops
        if type(op).__name__ in ("Insert", "Delete")
    )
    print(
        f"applied edit at {args.at}: ciphertext delta rewrites "
        f"~{touched // RECORD_CHARS} records "
        f"({len(cdelta.serialize())} delta chars, document is "
        f"{doc.char_length} chars)",
        file=sys.stderr,
    )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """``repro inspect``: show a wire document's public metadata."""
    content = _read(args.infile)
    stego = looks_stego(content)
    if stego:
        content = stego_unwrap(content)
    header, records = parse_document(content)
    data_records = [r for r in records if r.char_count > 0]
    chars = sum(r.char_count for r in records)
    print(f"scheme:        {header.scheme}")
    print(f"block chars:   {header.block_chars}")
    print(f"nonce bits:    {header.nonce_bits}")
    print(f"stego wrapped: {'yes' if stego else 'no'}")
    print(f"records:       {len(records)} "
          f"({len(data_records)} data, "
          f"{len(records) - len(data_records)} bookkeeping)")
    print(f"plaintext:     {chars} chars (from public block counters)")
    print(f"stored size:   {len(content)} chars "
          f"(blow-up {len(content) / max(1, chars):.1f}x)")
    password = args.password or os.environ.get("REPRO_PASSWORD")
    if password:
        doc = load_document(content, password=password)
        verdict = "verified (integrity)" if doc.supports_integrity else \
            "decrypted (no integrity in this scheme)"
        print(f"with password: {verdict}; version "
              f"{getattr(doc, 'version', 'n/a')}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: render a stored JSON metrics sidecar."""
    from repro.obs.export import load_sidecar, render_json_text

    try:
        sidecar = load_sidecar(args.infile)
    except ValueError as exc:
        print(f"error: invalid metrics sidecar: {exc}", file=sys.stderr)
        return 1
    print(render_json_text(
        sidecar, title=f"metrics ({args.infile}, registry "
                       f"{sidecar['registry']!r})"
    ))
    return 0


def _emit_metrics(args: argparse.Namespace) -> None:
    """Honor ``--metrics`` / ``--metrics-json`` after a command ran."""
    if not (getattr(args, "metrics", False)
            or getattr(args, "metrics_json", None)):
        return
    # Materialize every instrumented layer so the registry shows the
    # full metric namespace (zero-valued where this command was idle).
    import repro.net.channel  # noqa: F401
    import repro.services.gdocs.server  # noqa: F401
    from repro.obs.export import render_text, write_sidecar

    if getattr(args, "metrics", False):
        print(render_text(title="-- metrics --"), file=sys.stderr)
    path = getattr(args, "metrics_json", None)
    if path:
        write_sidecar(path)


def cmd_demo(args: argparse.Namespace) -> int:
    """``repro demo``: a one-command tour of the private-editing stack."""
    from repro.extension import PrivateEditingSession

    session = PrivateEditingSession("demo", "demo-password",
                                    scheme="rpc")
    session.open()
    session.type_text(0, "This never reaches the provider in the clear.")
    session.save()
    session.type_text(0, "Demo: ")
    session.save()
    print("user sees: ", session.text)
    stored = session.server_view()
    print("server has:", stored[:64] + "...")
    print(f"({len(stored)} stored chars; 2 saves: 1 full + 1 delta)")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: the demo under a seeded hostile network,
    against any registered service (``--service``)."""
    from repro.extension import PrivateEditingSession
    from repro.net.faults import FaultPlan
    from repro.net.policy import RetryPolicy
    from repro.obs import default_registry

    plan = FaultPlan.uniform(args.rate, seed=args.seed)
    session = PrivateEditingSession(
        "chaos", "chaos-password", scheme=args.scheme,
        faults=plan, retry_policy=RetryPolicy(seed=args.seed),
        verify_acks=True, service=args.service,
    )
    session.open()
    session.type_text(0, "Edited over a network that loses, reorders, "
                         "and corrupts.")
    outcomes = [session.save()]
    session.type_text(0, "Chaos demo: ")
    outcomes.append(session.save())
    outcomes.append(session.settle())  # recovery: the weather clears

    print(f"fault plan:  seed={args.seed} rate={args.rate} "
          f"service={args.service} ({len(plan.injections)} injections)")
    for index, kind in plan.injections:
        print(f"  exchange {index:3d}: {kind}")
    failed = [o for o in outcomes if not o.ok]
    snapshot = default_registry().snapshot()
    print(f"saves:       2 + settle "
          f"({len(failed)} unrecoverable, "
          f"{snapshot.get('client.retries.attempts', 0):.0f} retries, "
          f"{snapshot.get('client.resyncs', 0):.0f} resyncs)")
    stored = session.server_view()
    converged = session.stored_text() == session.text
    print(f"user sees:   {session.text}")
    print(f"server has:  {stored[:56]}...")
    print(f"converged:   {'yes' if converged else 'NO'} "
          f"(stored ciphertext decrypts to the user's text)")
    return 0 if converged else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: host the simulated services on a TCP socket
    until interrupted (any registry backend, multi-tenant, sharded)."""
    import asyncio

    from repro.net.server import ReproServer

    server = ReproServer(
        host=args.host, port=args.port, shards=args.shards,
        service_time=args.service_time,
        merge_concurrent=args.merge_concurrent,
    )

    async def _serve() -> None:
        host, port = await server.start()
        print(f"repro server on {host}:{port} "
              f"({args.shards} shards/tenant, "
              f"service_time={args.service_time * 1000:.0f}ms); "
              f"Ctrl-C to stop", file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nserver stopped", file=sys.stderr)
    finally:
        server.shutdown()
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """``repro loadgen``: one load cell — N concurrent sessions against
    a socket server (self-hosted unless ``--host/--port`` name one)."""
    import json as _json

    from repro.bench.load import run_load

    address = None
    if args.port:
        address = (args.host, args.port)
    cell = run_load(
        sessions=args.sessions, rounds=args.rounds, service=args.service,
        transport=args.transport, address=address, workers=args.workers,
        fault_rate=args.rate, service_time=args.service_time,
    )
    _json.dump(cell.row(), sys.stdout, indent=2)
    print()
    return 0 if cell.converged_sample else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """``repro fuzz``: run the differential fuzzer; exit 1 on any
    invariant violation (failures are shrunk and written as replay
    files when ``--corpus-dir`` is given)."""
    from repro.fuzz import FuzzRunner
    from repro.fuzz.generators import Trace
    from repro.fuzz.runner import run_trace

    if args.replay:
        import json as _json

        data = _json.loads(_read(args.replay))
        # accept both a bare trace and a corpus file wrapping one
        trace = Trace.from_dict(data.get("trace", data))
        violation = run_trace(trace)
        if violation is None:
            print(f"replay {args.replay}: no violation "
                  f"(seed {trace.seed}, mode {trace.mode})")
            return 0
        print(f"replay {args.replay}: [{violation.kind}] "
              f"step {violation.step}: {violation.detail}",
              file=sys.stderr)
        return 1

    runner = FuzzRunner(
        seed=args.seed,
        iters=args.iters,
        profile=args.profile,
        mode=args.mode,
        scheme=args.scheme,
        service=args.service,
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
    )

    def progress(done: int, total: int) -> None:
        print(f"  ... {done}/{total}", file=sys.stderr)

    report = runner.run(progress=progress if args.verbose else None)
    print(f"fuzz: {report.iterations} iterations "
          f"(profile {report.profile}, seed {report.seed}) -> "
          f"{len(report.failures)} violation(s)")
    print(f"run digest: {report.digest}")
    for failure in report.failures:
        v = failure["violation"]
        where = failure.get("corpus_file", "(no corpus dir)")
        print(f"  seed {failure['seed']}: [{v['kind']}] {v['detail']}",
              file=sys.stderr)
        print(f"    shrunk replay: {where}", file=sys.stderr)
        print(f"    rerun: repro fuzz --seed {failure['seed']} "
              f"--iters 1 --profile {report.profile}", file=sys.stderr)
    return 0 if report.ok else 1


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Private editing on untrusted cloud services "
                    "(Huang & Evans, 2011) — reproduction CLI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_password(p):
        p.add_argument("--password", help="document password "
                       "(or set REPRO_PASSWORD)")

    def add_metrics(p):
        p.add_argument("--metrics", action="store_true",
                       help="print the metrics registry to stderr "
                            "when the command finishes")
        p.add_argument("--metrics-json", metavar="PATH",
                       help="write the metrics registry to PATH as a "
                            "JSON sidecar (see `repro stats`)")

    p = sub.add_parser("encrypt", help="encrypt a plaintext file")
    add_password(p)
    add_metrics(p)
    p.add_argument("--scheme", choices=["recb", "rpc"], default="rpc")
    p.add_argument("--block-chars", type=int, default=8)
    p.add_argument("--stego", action="store_true",
                   help="disguise the ciphertext as pseudo-prose")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("infile", nargs="?", default="-")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a wire document")
    add_password(p)
    add_metrics(p)
    p.add_argument("-o", "--output", default="-")
    p.add_argument("infile", nargs="?", default="-")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("edit", help="apply one edit incrementally")
    add_password(p)
    add_metrics(p)
    p.add_argument("--at", type=int, required=True,
                   help="character position of the edit")
    p.add_argument("--insert", help="text to insert")
    p.add_argument("--delete", type=int,
                   help="number of characters to delete")
    p.add_argument("--stego", action="store_true")
    p.add_argument("--in-place", action="store_true",
                   help="write the result back to INFILE")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("infile")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("inspect", help="show a wire document's metadata")
    add_password(p)
    add_metrics(p)
    p.add_argument("infile", nargs="?", default="-")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("demo", help="run the private-editing demo")
    add_metrics(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("chaos", help="run the demo on a faulty network")
    add_metrics(p)
    p.add_argument("--seed", type=int, default=7,
                   help="fault/retry RNG seed (default 7); a failing "
                        "run replays exactly from its seed")
    p.add_argument("--service",
                   choices=["gdocs", "bespin", "buzzword", "replicated"],
                   default="gdocs",
                   help="cloud service to run the demo against")
    p.add_argument("--rate", type=float, default=0.25,
                   help="per-exchange fault probability per kind")
    p.add_argument("--scheme", choices=["recb", "rpc"], default="rpc")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("fuzz", help="run the differential fuzzer")
    add_metrics(p)
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; case i uses trace seed SEED+i, so "
                        "any failure replays alone by its seed")
    p.add_argument("--iters", type=int, default=2000,
                   help="number of seeded traces to run (default 2000)")
    p.add_argument("--profile", default="ci",
                   choices=["ci", "quick", "engine", "burst", "deep",
                            "collab", "workspace"],
                   help="trace-shape profile (default ci)")
    p.add_argument("--mode",
                   choices=["engine", "session", "concurrent",
                            "workspace"],
                   help="force one execution mode (default: mixed)")
    p.add_argument("--service",
                   choices=["gdocs", "bespin", "buzzword", "replicated"],
                   help="pin networked traces to one cloud service "
                        "(default: session traces draw one)")
    p.add_argument("--scheme", choices=["recb", "rpc"],
                   help="force one scheme (default: mixed)")
    p.add_argument("--corpus-dir", metavar="DIR",
                   help="write shrunk failing traces as replay JSON "
                        "files under DIR")
    p.add_argument("--replay", metavar="FILE",
                   help="re-run one saved trace JSON instead of fuzzing")
    p.add_argument("--no-shrink", action="store_true",
                   help="report raw failing traces without minimizing")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print progress every 500 cases")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("serve", help="host the simulated services on "
                                     "a TCP socket")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8911,
                   help="TCP port (default 8911; 0 picks a free one)")
    p.add_argument("--shards", type=int, default=4,
                   help="document shards per (service, tenant) — "
                        "per-doc serialized, cross-doc concurrent")
    p.add_argument("--service-time", type=float, default=0.0,
                   help="simulated per-request server handling time in "
                        "seconds (non-blocking; default 0)")
    p.add_argument("--merge-concurrent", action="store_true",
                   help="OT-merge stale saves over the intervening "
                        "history instead of answering conflict "
                        "(backends with merges_stale_saves only)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("loadgen", help="drive N concurrent sessions "
                                       "against a socket server")
    p.add_argument("--sessions", type=int, default=100)
    p.add_argument("--rounds", type=int, default=2,
                   help="edit+save rounds per session")
    p.add_argument("--service",
                   choices=["gdocs", "bespin", "buzzword", "replicated"],
                   default="gdocs")
    p.add_argument("--transport", choices=["socket", "inprocess"],
                   default="socket")
    p.add_argument("--host", default="127.0.0.1",
                   help="server to target (with --port); self-hosts "
                        "when no --port is given")
    p.add_argument("--port", type=int, default=0,
                   help="server port (0 = self-host a fresh server)")
    p.add_argument("--workers", type=int, default=64,
                   help="driver threads (socket mode)")
    p.add_argument("--rate", type=float, default=0.05,
                   help="per-exchange fault probability per kind")
    p.add_argument("--service-time", type=float, default=0.020,
                   help="self-hosted server's simulated handling time")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("stats", help="render a JSON metrics sidecar")
    p.add_argument("infile", help="sidecar path (from --metrics-json "
                                  "or the benchmark harness)")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        _emit_metrics(args)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any
        # well-behaved CLI.  Point stdout at devnull so the interpreter's
        # exit-time flush does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
