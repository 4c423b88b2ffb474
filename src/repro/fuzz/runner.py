"""Trace execution: drive the real stack and check it every step.

Three execution modes, selected by ``Trace.mode``:

``engine``
    The core pipeline with no network: an :class:`EncryptedDocument`
    built over the trace's scheme × index, with the resulting cdeltas
    applied to a *flat wire string* and a :class:`LeafText` — the
    stored-wire type of the gdocs store and of the mirror itself —
    which must stay byte-equal to the client's own rewrite, while the
    leaf table's midstate digest and the mirror's ``wire_hash`` must
    equal the SHA-1 of that rewrite (the Ack check).  A per-block twin
    of the mirror (one block per leaf, the paper's index;
    :func:`repro.core.document.per_block`), built from its own copy of
    the seed, takes the same deltas and must return the same cdeltas
    and pass the same document checks.
    Checks run after every op; the trace ends with a fresh
    ``load_document`` round-trip (full parse + decrypt + RPC checksum
    verification).

``session``
    A resilient :class:`PrivateEditingSession` against the trace's
    ``service`` (any name in ``repro.services.registry.SERVICE_NAMES``
    — gdocs, bespin, buzzword, or the replicated facade) with the
    trace's fault schedule on the Channel.  Mid-trace saves may fail
    (typed ``SaveOutcome``), but ``PrivateEditingSession.settle`` must
    come back clean, the stored bytes must decrypt to the client's
    text (``PrivateEditingSession.stored_text`` states the oracle
    uniformly across providers), and a lowercase plaintext sentinel
    must never appear in anything that crossed the wire
    (``repro.fuzz.model.leak_blobs``; lowercase cannot occur in
    Base32 ciphertext).  A second session then reopens
    the stored document, edits it and saves: its first save is a full
    post the extension answers by IncE on the mirror it decrypted on
    open.  Every full save of a gdocs session passes the full-save
    differential oracle (``check_full_save``) as it is rewritten.

``concurrent``
    Two sessions sharing one server.  rECB runs the merging server
    (``merge_concurrent=True`` + ``decrypt_acks``); RPC runs the
    rejecting server, exercising the conflict → OT-resync path.  After
    faults quiesce, a bounded drain (save both until quiescent) plus a
    re-open must leave both clients and the decrypted server state
    identical — the OT convergence obligation.

``workspace``
    One :class:`repro.client.workspace.Workspace` over several
    documents on a catalog-wrapped server.  On top of per-document
    convergence and the leak check, the encrypted search index is
    judged against a plaintext word oracle and the audit chains are
    judged twice: honest histories must verify clean, and an
    :class:`~repro.security.adversary.ActiveServerAdversary` mounting
    a plain rollback and a forged self-consistent chain must both be
    detected.

:class:`FuzzRunner` iterates seeds, hashes every (trace, fingerprint)
pair into a run digest — identical seed ⇒ byte-identical digest — and
on failure shrinks the trace and serializes a replay file under the
corpus directory.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.client.coalesce import EditCoalescer
from repro.client.workspace import Workspace
from repro.core.document import create_document, per_block
from repro.core.keys import KeyMaterial
from repro.core.leaves import LeafText
from repro.core.scheme import scheme_factory
from repro.crypto.random import DeterministicRandomSource
from repro.datastructures import IndexedAVL, IndexedSkipList, ReferenceIndex
from repro.encoding.wire import split_header
from repro.errors import ReproError
from repro.extension.catalog import extract_words
from repro.extension.gdocs_ext import GDocsExtension
from repro.extension.session import PrivateEditingSession
from repro.fuzz.generators import PROFILES, SERVICES, Trace, generate_trace
from repro.fuzz.model import (
    InvariantViolation,
    Violation,
    apply_op,
    check_document,
    check_equal,
    check_full_save,
    check_no_leak,
    check_roundtrip,
    check_store,
    check_wire,
    leak_blobs,
    op_delta,
    reference_wire,
    resolve_pos,
)
from repro.net.faults import FaultPlan, FaultSpec, updates_only
from repro.net.policy import RetryPolicy
from repro.obs.metrics import counter
from repro.security.adversary import ActiveServerAdversary
from repro.services import registry
from repro.services.gdocs import protocol as gdocs_protocol
from repro.services.gdocs.server import GDocsServer

__all__ = ["SENTINEL", "FuzzReport", "FuzzRunner", "run_trace", "execute_trace"]

#: lowercase sentinel typed into every networked trace; Base32
#: ciphertext is uppercase-only, so seeing it on the wire is a leak
SENTINEL = "leakcheck sentinel kilimanjaro"

_PASSWORD = "fuzz-password"

_INDEX_FACTORIES = {
    "skiplist": IndexedSkipList,
    "avl": IndexedAVL,
    "reference": ReferenceIndex,
}

#: traces executed (each counted once, pass or fail)
_CASES = counter("fuzz.cases")
#: edit operations interpreted across all traces
_OPS = counter("fuzz.ops")
#: invariant violations observed (pre-shrink)
_VIOLATIONS = counter("fuzz.violations")


@functools.lru_cache(maxsize=1)
def _engine_keys() -> KeyMaterial:
    """One cached key for engine mode (derivation dominates otherwise)."""
    return KeyMaterial.from_password(
        _PASSWORD, rng=DeterministicRandomSource(0xF0)
    )


def _plan_from_dict(data: dict | None) -> FaultPlan | None:
    if not data:
        return None
    specs = [
        FaultSpec(
            kind=s["kind"],
            rate=s.get("rate", 0.0),
            at=tuple(s.get("at") or ()),
            limit=s.get("limit"),
            match=updates_only if s.get("updates_only") else None,
            where=s.get("where", "request"),
        )
        for s in data.get("specs", ())
    ]
    if not specs:
        return None
    return FaultPlan(specs, seed=data.get("seed", 0),
                     timeout_seconds=data.get("timeout", 2.0))


# -- engine mode -------------------------------------------------------------


def _run_engine(trace: Trace) -> str:
    doc, twin = (
        cls.create(
            trace.init,
            key_material=_engine_keys(),
            block_chars=trace.block_chars,
            rng=DeterministicRandomSource(trace.seed or 1),
            index_factory=_INDEX_FACTORIES[trace.index],
        )
        for cls in (scheme_factory(trace.scheme),
                    per_block(scheme_factory(trace.scheme)))
    )
    oracle = trace.init
    flat = doc.wire() if trace.store in ("both", "flat") else None
    leaves = (LeafText(doc.wire())
              if trace.store in ("both", "pieces") else None)

    for step, op in enumerate(trace.ops):
        if op[0] == "s":
            continue  # engine mode has no network; saves are no-ops
        _OPS.inc()
        delta = op_delta(op, len(oracle))
        oracle = apply_op(oracle, op)
        if delta is None:
            continue
        cdelta = doc.apply_delta(delta)
        reference = reference_wire(doc)
        check_wire(doc, reference, step)
        acked = gdocs_protocol.content_hash(reference)
        check_equal("ack-divergence", doc.wire_hash(), acked, step,
                    "mirror Ack hash vs the SHA-1 of the reference wire")
        if flat is not None:
            flat = cdelta.apply(flat)
            check_store("flat", flat, reference, step)
        if leaves is not None:
            leaves.apply_delta(cdelta)
            check_store("leaf", leaves.join(), reference, step)
            check_equal("ack-divergence", leaves.hexdigest(), acked, step,
                        "leaf store Ack hash vs the SHA-1 of the reference")
        check_document(doc, oracle, step)
        twin_cdelta = twin.apply_delta(delta)
        check_document(twin, oracle, step)
        check_equal("leaf-divergence", cdelta.serialize(),
                    twin_cdelta.serialize(), step,
                    "cdelta, leaves vs the per-block twin")

    check_equal("leaf-divergence", doc.wire(), twin.wire(), -1,
                "wire, leaves vs the per-block twin")
    check_roundtrip(doc, oracle, -1)
    _check_coalescing(trace)
    return doc.wire()


#: burst cap for the coalescing differential — small enough that a
#: typical trace flushes several bursts through the cap path
_COALESCE_DIFF_MAX_OPS = 8


def _check_coalescing(trace: Trace) -> None:
    """Differential oracle for the coalesced cipher path.

    The tentpole safety obligation: folding a burst of keystroke deltas
    into one composed delta and encrypting every touched cluster in a
    single batched cipher call must be *wire-identical* — same cdelta,
    same full ciphertext — to the sequential reference path that issues
    one cipher call per cluster (``_coalesce_ciphers = False``).  Both
    documents share the trace's seed, so any byte of divergence is a
    real bug in the coalescing layer, never nonce noise.
    """

    def build(coalesce: bool):
        doc = create_document(
            trace.init,
            key_material=_engine_keys(),
            scheme=trace.scheme,
            block_chars=trace.block_chars,
            rng=DeterministicRandomSource(trace.seed or 1),
            index_factory=_INDEX_FACTORIES[trace.index],
        )
        doc._coalesce_ciphers = coalesce
        return doc

    batched, sequential = build(True), build(False)
    text = trace.init
    journal = EditCoalescer(max_ops=_COALESCE_DIFF_MAX_OPS)

    def apply_burst(burst, step: int) -> None:
        if burst is None:
            return
        wire_b = batched.apply_delta(burst).serialize()
        wire_s = sequential.apply_delta(burst).serialize()
        check_equal("coalesce-divergence", wire_b, wire_s, step,
                    "cdelta wire, batched vs per-cluster ciphers")
        check_equal("coalesce-divergence", reference_wire(batched),
                    reference_wire(sequential), step,
                    "ciphertext, batched vs per-cluster ciphers")

    for step, op in enumerate(trace.ops):
        if op[0] == "s":
            apply_burst(journal.flush("save"), step)
            continue
        delta = op_delta(op, len(text))
        text = apply_op(text, op)
        if delta is None:
            continue
        apply_burst(journal.add(delta), step)
    apply_burst(journal.flush("drain"), len(trace.ops))
    check_document(batched, text, -1)
    check_roundtrip(batched, text, -1)


# -- session mode ------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _password_keys(salt: bytes) -> KeyMaterial:
    """Keys derived from the fuzz password alone (not the mirror's)."""
    return KeyMaterial.from_password(_PASSWORD, salt=salt)


class _FullSaveOracle:
    """Mediator wrapper judging every full save the extension rewrites
    with :func:`check_full_save`, before the request reaches the wire."""

    def __init__(self, extension: GDocsExtension):
        self._extension = extension

    def on_request(self, request):
        rewritten = self._extension.on_request(request)
        if rewritten is not None and rewritten is not request:
            plaintext = request.form.get(gdocs_protocol.F_DOC_CONTENTS)
            if plaintext is not None:
                wire = rewritten.form[gdocs_protocol.F_DOC_CONTENTS]
                engine = self._extension.engine(request.query["docID"])
                check_full_save(engine.mirror, plaintext, wire,
                                _password_keys(split_header(wire)[0].salt))
        return rewritten

    def on_response(self, request, response):
        return self._extension.on_response(request, response)


def _session(trace: Trace, *, server=None, seed_salt: int = 0,
             faults=None, decrypt_acks: bool = False) -> PrivateEditingSession:
    session = PrivateEditingSession(
        f"fuzz-{trace.seed}",
        _PASSWORD,
        server=server,
        scheme=trace.scheme,
        block_chars=trace.block_chars,
        rng=DeterministicRandomSource((trace.seed << 4) + seed_salt + 1),
        faults=faults,
        retry_policy=RetryPolicy(seed=trace.seed + seed_salt),
        verify_acks=True,
        decrypt_acks=decrypt_acks,
        service=trace.service,
    )
    if session.client.backend.capabilities.incremental_updates:
        # the oracle reads the gdocs form's docContents field; whole-file
        # saves carry no such form
        session.channel.set_mediator(_FullSaveOracle(session.extension))
    return session


def _apply_session_op(session: PrivateEditingSession, op: tuple) -> None:
    kind = op[0]
    length = len(session.text)
    pos = resolve_pos(op[1], length)
    if kind == "i":
        if op[2]:
            session.type_text(pos, op[2])
    elif kind == "d":
        count = min(op[2], length - pos)
        if count > 0:
            session.delete_text(pos, count)
    elif kind == "r":
        count = min(op[2], length - pos)
        if count > 0:
            session.delete_text(pos, count)
        if op[3]:
            session.type_text(pos, op[3])


def _run_session(trace: Trace) -> str:
    session = _session(trace, faults=_plan_from_dict(trace.faults))
    session.open()
    session.type_text(0, SENTINEL + " " + trace.init)
    session.save()  # may fail mid-faults; typed outcome, never a raise

    for step, op in enumerate(trace.ops):
        if op[0] == "s":
            session.save()
            continue
        _OPS.inc()
        _apply_session_op(session, op)

    # a settle that never comes back clean is a liveness violation
    outcome = session.settle()
    if not outcome.clean:
        raise InvariantViolation(Violation(
            "save-failed", -1,
            f"post-quiesce saves never came back clean: "
            f"ok={outcome.ok} conflict={outcome.conflict} "
            f"resynced={outcome.resynced} {outcome.error}"))
    check_equal("convergence", session.stored_text(), session.text, -1,
                "decrypt(server) vs client text")

    # reopen on a fault-free link: the new session's first save is a
    # full post of an edited document, answered from the mirror its
    # extension decrypted on open
    reopened = _session(trace, server=session.server, seed_salt=3)
    check_equal("convergence", reopened.open(), session.text, -1,
                "reopened text vs client text")
    reopened.type_text(len(reopened.text) // 2, "reopened ")
    outcome = reopened.save()
    if not outcome.ok:
        raise InvariantViolation(Violation(
            "save-failed", -1,
            f"first save after the reopen failed: {outcome.error}"))
    check_equal("convergence", reopened.stored_text(), reopened.text, -1,
                "decrypt(server) vs reopened client text")
    check_no_leak(leak_blobs(session, reopened), SENTINEL)
    return reopened.server_view() + "\n--\n" + reopened.text


# -- concurrent mode ---------------------------------------------------------

_DRAIN_ROUNDS = 12


def _run_concurrent(trace: Trace) -> str:
    merging = trace.scheme == "recb"
    server = GDocsServer(merge_concurrent=merging)
    plan = _plan_from_dict(trace.faults)
    n = max(2, trace.clients)
    # faults ride on client 0's channel only: one flaky link is enough
    # chaos, and keeps held-request replay within a single channel
    sessions = tuple(
        _session(trace, server=server, seed_salt=7 * i,
                 faults=plan if i == 0 else None,
                 decrypt_acks=merging)
        for i in range(n)
    )
    one = sessions[0]

    one.open()
    one.type_text(0, SENTINEL + " " + trace.init)
    one.save()
    for other in sessions[1:]:
        other.open()
        other.save()

    for step, op in enumerate(trace.ops):
        session = sessions[op[-1] % len(sessions)]
        if op[0] == "s":
            session.save()
            continue
        _OPS.inc()
        _apply_session_op(session, op)

    if plan is not None:
        plan.quiesce()

    # drain: round-robin saves until every session is quiescent (noop).
    # A conflict-mode round lands at most one writer, so the budget
    # grows with the number of extra writers.
    rounds = _DRAIN_ROUNDS + 2 * (n - 2)
    for _ in range(rounds):
        outcomes = [s.save() for s in sessions]
        if all(o.ok and o.kind == "noop" for o in outcomes):
            break
        if any(o.error and "http 413" in o.error for o in outcomes):
            # A stable quota refusal is the contract's other legal
            # terminal state: a typed SaveOutcome, not convergence.
            # (Reachable for real: a save corrupted in flight leaves
            # the store garbled; a second client opening before the
            # repair sees raw ciphertext — refusing to forge plaintext
            # is the extension's job — and edits typed into that view
            # re-encrypt ciphertext, exploding past the server quota.)
            check_no_leak(leak_blobs(*sessions), SENTINEL)
            return "quota-refused\n--\n" + one.server_view()
    else:
        last = " ".join(f"{o.kind}/{o.ok}" for o in outcomes)
        raise InvariantViolation(Violation(
            "convergence", -1,
            f"drain did not quiesce in {rounds} rounds "
            f"(last: {last})"))

    # refresh every editor from the server and require agreement
    texts = [s.open() for s in sessions]
    for i, text in enumerate(texts[1:], start=1):
        check_equal("convergence", texts[0], text, -1,
                    "client texts after drain + re-open")
    check_equal("convergence", one.stored_text(), texts[0], -1,
                "decrypt(server) vs refreshed clients")
    check_no_leak(leak_blobs(*sessions), SENTINEL)
    return one.server_view() + "\n--\n" + texts[0]


# -- workspace mode -----------------------------------------------------------

#: at most this many distinct words are search-checked per trace (they
#: are drawn sorted, so the sample is deterministic); the cap keeps a
#: wordy trace from turning one case into hundreds of lookups
_SEARCH_SAMPLE = 24


def _run_workspace(trace: Trace) -> str:
    """One tenant, several documents, and three oracles on top of the
    usual convergence/leak checks:

    * *search*: for a sample of words from the final texts, the
      encrypted index must return exactly the documents whose plaintext
      contains the word (and nothing for an absent probe word);
    * *audit (honest)*: every document's chain must verify clean;
    * *audit (malicious)*: an :class:`ActiveServerAdversary` then rolls
      one document back (chain left stale) and forges a self-consistent
      replacement chain over rolled-back content on another — both must
      raise alerts, else ``audit-miss``.
    """
    n_docs = max(2, trace.clients)
    doc_ids = [f"ws-{trace.seed}-{i}" for i in range(n_docs)]
    server = registry.make_server("gdocs", catalog=True)
    ws = Workspace(
        f"tenant-{trace.seed}",
        server=server,
        scheme=trace.scheme,
        block_chars=trace.block_chars,
        rng_seed=trace.seed,
    )
    # the catalog channel keeps only a ring of recent exchanges; the
    # leak oracle below must see every one
    catalog_bodies: list[str] = []
    ws.catalog_channel.add_tap(lambda exchange: catalog_bodies.extend(
        (exchange.request.url, exchange.request.body,
         exchange.response.body)))
    for doc_id in doc_ids:
        ws.open(doc_id)
    ws.type_text(doc_ids[0], 0, SENTINEL + " " + trace.init)
    ws.save(doc_ids[0])

    for op in trace.ops:
        doc_id = doc_ids[op[-1] % n_docs]
        if op[0] == "s":
            ws.save(doc_id)
            continue
        _OPS.inc()
        _apply_session_op(ws.session(doc_id), op)

    # two more edited saves per document: every audit chain ends at
    # least two links deep and the store holds real version history for
    # the rollback attacks below
    for i, doc_id in enumerate(doc_ids):
        for depth in range(2):
            ws.type_text(doc_id, 0, f"depth{depth} marker{i} ")
            ws.save(doc_id)
    ws.save_all()

    # oracle: per-document convergence through the catalog wrapper
    truth: dict[str, str] = {}
    for doc_id in doc_ids:
        check_equal("convergence", ws.session(doc_id).stored_text(),
                    ws.text(doc_id), -1,
                    f"decrypt(server) vs client text for {doc_id}")
        truth[doc_id] = ws.text(doc_id)

    listed = set(ws.list_docs())
    missing = [d for d in doc_ids if d not in listed]
    if missing:
        raise InvariantViolation(Violation(
            "search-mismatch", -1, f"catalog listing missing {missing}"))

    # oracle: encrypted search vs the plaintext ground truth
    indexed = {d: set(extract_words(text)) for d, text in truth.items()}
    words = sorted({w for ws_words in indexed.values() for w in ws_words})
    for word in words[:_SEARCH_SAMPLE]:
        expected = sorted(d for d in doc_ids if word in indexed[d])
        check_equal("search-mismatch", ",".join(ws.search(word)),
                    ",".join(expected), -1, f"search({word!r})")
    probe = f"zzzabsent{trace.seed}"
    check_equal("search-mismatch", ",".join(ws.search(probe)), "",
                -1, f"search({probe!r}) (word in no document)")

    # oracle: honest histories verify clean
    for doc_id in doc_ids:
        alerts = ws.verify_history(doc_id)
        if alerts:
            raise InvariantViolation(Violation(
                "audit-false-alarm", -1,
                f"clean history of {doc_id} raised {alerts[0]!r}"))

    # each document session logs into a bounded ring; a full one may
    # have dropped exchanges the sweep must see, so it stops the run
    sessions = [ws.session(d) for d in doc_ids]
    for session in sessions:
        if len(session.channel.exchange_log) == session.channel.max_log:
            raise RuntimeError(
                f"leak sweep incomplete: {session.client.doc_id}'s "
                f"channel log ring ({session.channel.max_log}) is full")
    check_no_leak(leak_blobs(*sessions) + catalog_bodies, SENTINEL)

    # attack 1: plain rollback — stored content rewound, chain left
    # stale.  The audited head no longer matches the store.
    adv = ActiveServerAdversary(server.store)
    victim = doc_ids[0]
    adv.rollback(victim, 1)
    if not ws.verify_history(victim):
        raise InvariantViolation(Violation(
            "audit-miss", -1,
            f"rolled-back {victim} verified clean (stale chain)"))

    # attack 2: forged chain — roll back *and* rebuild a
    # self-consistent chain over the stale content.  Every link
    # recomputes and the head matches the store, so only the client's
    # remembered (rev, link) anchor can refute it.
    target = doc_ids[1]
    stored = server.store.get(target)
    old = stored.history[0] if stored.history else stored.content
    adv.overwrite(target, old)
    rev_now = ws.session(target).client.revision
    history = [(rev, gdocs_protocol.content_hash(f"forged-{rev}"))
               for rev in range(1, rev_now)]
    history.append((rev_now, gdocs_protocol.content_hash(old)))
    adv.forge_chain(server.catalog, target, history)
    if not ws.verify_history(target):
        raise InvariantViolation(Violation(
            "audit-miss", -1,
            f"forged self-consistent chain over rolled-back {target} "
            f"verified clean"))

    return "\n--\n".join([truth[d] for d in doc_ids]
                         + [",".join(sorted(listed))])


_MODES = {
    "engine": _run_engine,
    "session": _run_session,
    "concurrent": _run_concurrent,
    "workspace": _run_workspace,
}


def execute_trace(trace: Trace) -> str:
    """Run ``trace``; return its fingerprint or raise
    :class:`InvariantViolation`.  Any other exception escaping the
    stack is itself a finding and is wrapped as a ``crash-*``
    violation."""
    _CASES.inc()
    try:
        return _MODES[trace.mode](trace)
    except InvariantViolation:
        raise
    except (ReproError, AssertionError, RecursionError, ArithmeticError,
            LookupError, TypeError, ValueError, AttributeError) as exc:
        raise InvariantViolation(Violation(
            f"crash-{type(exc).__name__}", -1, str(exc)[:200])) from exc


def run_trace(trace: Trace) -> Violation | None:
    """Non-raising wrapper: the violation for ``trace``, or None."""
    try:
        execute_trace(trace)
        return None
    except InvariantViolation as exc:
        _VIOLATIONS.inc()
        return exc.violation


# -- the runner --------------------------------------------------------------


@dataclass
class FuzzReport:
    """What one :meth:`FuzzRunner.run` did."""

    iterations: int = 0
    seed: int = 0
    profile: str = "ci"
    digest: str = ""               #: sha256 over every (trace, fingerprint)
    failures: list[dict] = field(default_factory=list)
    corpus_files: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """The report as a plain dict (CLI ``--metrics-json`` style)."""
        return {
            "iterations": self.iterations,
            "seed": self.seed,
            "profile": self.profile,
            "digest": self.digest,
            "failures": self.failures,
            "corpus_files": self.corpus_files,
            "ok": self.ok,
        }


class FuzzRunner:
    """Iterate seeded traces; shrink and serialize any failure.

    ``seed`` anchors the whole run: case *i* uses trace seed
    ``seed + i``, so any failing case can be replayed alone by seed.
    """

    def __init__(
        self,
        seed: int = 0,
        iters: int = 100,
        profile: str = "ci",
        mode: str | None = None,
        scheme: str | None = None,
        service: str | None = None,
        corpus_dir: str | Path | None = None,
        shrink: bool = True,
        max_failures: int = 5,
    ):
        if profile not in PROFILES:
            raise ValueError(
                f"unknown profile {profile!r}; have {sorted(PROFILES)}")
        if service is not None and service not in SERVICES:
            raise ValueError(
                f"unknown service {service!r}; have {SERVICES}")
        self.seed = seed
        self.iters = iters
        self.profile = profile
        self.mode = mode
        self.scheme = scheme
        self.service = service
        self.corpus_dir = Path(corpus_dir) if corpus_dir else None
        self.shrink = shrink
        self.max_failures = max_failures

    def run(self, progress=None) -> FuzzReport:
        """Execute the configured campaign and return its report.

        Generates ``iters`` traces from consecutive seeds, runs each,
        folds every ``(trace, fingerprint)`` pair into the replay
        digest, and — on failure — shrinks the trace and writes a
        corpus file.  ``progress`` (if given) is called as
        ``progress(done, total)`` every few hundred cases.  Stops
        early after ``max_failures`` distinct failures.
        """
        from repro.fuzz.shrink import shrink_trace

        report = FuzzReport(seed=self.seed, profile=self.profile)
        hasher = hashlib.sha256()
        for i in range(self.iters):
            trace = generate_trace(
                self.seed + i, self.profile,
                mode=self.mode, scheme=self.scheme,
                service=self.service,
            )
            violation = None
            try:
                fingerprint = execute_trace(trace)
            except InvariantViolation as exc:
                _VIOLATIONS.inc()
                violation = exc.violation
                fingerprint = "VIOLATION:" + violation.kind
            hasher.update(trace.to_json().encode())
            hasher.update(b"\x00")
            hasher.update(fingerprint.encode())
            hasher.update(b"\x01")
            report.iterations += 1

            if violation is not None:
                small = (shrink_trace(trace, violation)
                         if self.shrink else trace)
                entry = {
                    "seed": trace.seed,
                    "iteration": i,
                    "violation": violation.to_dict(),
                    "trace": small.to_dict(),
                }
                report.failures.append(entry)
                if self.corpus_dir is not None:
                    path = self._write_corpus(small, violation)
                    entry["corpus_file"] = str(path)
                    report.corpus_files.append(str(path))
                if len(report.failures) >= self.max_failures:
                    break
            if progress is not None and (i + 1) % 500 == 0:
                progress(i + 1, self.iters)

        report.digest = hasher.hexdigest()
        return report

    def _write_corpus(self, trace: Trace, violation: Violation) -> Path:
        self.corpus_dir.mkdir(parents=True, exist_ok=True)
        name = f"shrunk-{violation.kind}-seed{trace.seed}.json"
        path = self.corpus_dir / name
        payload = {
            "violation": violation.to_dict(),
            "trace": trace.to_dict(),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                   ensure_ascii=True) + "\n")
        return path
