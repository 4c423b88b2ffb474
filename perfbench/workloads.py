"""The perfbench workloads: inputs from a seed, set-up, the timed closed
loop, settling, and the output checks.

Every workload is a closed loop: a user's next operation starts only
after the previous one returned (an autosave waits for its ack).  Inputs
-- document texts, keystroke bursts, the operation mix -- are generated
from the seed before anything is timed; the loop cycles through them.
Servers come from ``registry.make_server`` looked up at call time, so a
traced run can hand back a probed server without the workload knowing.
"""

from __future__ import annotations

import gc
import random
import threading
from collections import defaultdict
from time import perf_counter

from repro.client.workspace import Workspace
from repro.errors import ReproError
from repro.extension.catalog import extract_words
from repro.extension.session import PrivateEditingSession
from repro.net.faults import FaultPlan, updates_only
from repro.net.policy import RetryPolicy
from repro.net.pool import ConnectionPool
from repro.net.server import ServerThread
from repro.net.transport import AsyncioSocketTransport
from repro.obs import counter
from repro.services import registry
from repro.workloads.text import WORDS, random_sentence

#: keystroke characters: letters plus space, so edits make and split words
LETTERS = "abcdefghijklmnopqrstuvwxyz "

#: pre-generated steps per loop stream; a run that outlasts them cycles
STEPS = 6000


class BenchFailure(Exception):
    """An operation the workload needs to succeed did not."""


def make_document(rng: random.Random, chars: int) -> tuple[str, list[str]]:
    """Prose of at least ``chars`` characters and the sentences in it."""
    sentences: list[str] = []
    total = 0
    while total < chars:
        sentence = random_sentence(rng)
        sentences.append(sentence)
        total += len(sentence) + 1
    return " ".join(sentences), sentences


def make_steps(rng: random.Random, count: int, params: dict) -> list:
    """``count`` edit steps: a burst of keystrokes typed one character at
    a time from a random position, sometimes followed by a short delete
    elsewhere.  Positions are fractions of the document length at the
    time of the edit."""
    lo, hi = params["burst_keystrokes"]
    dlo, dhi = params["delete_chars"]
    steps = []
    for _ in range(count):
        burst = "".join(rng.choice(LETTERS)
                        for _ in range(rng.randint(lo, hi)))
        delete = None
        if rng.random() < params["delete_prob"]:
            delete = (rng.random(), rng.randint(dlo, dhi))
        steps.append((rng.random(), burst, delete))
    return steps


def apply_step(session: PrivateEditingSession, step) -> int:
    """Type one step into ``session``; returns the keystrokes made."""
    frac, burst, delete = step
    pos = int(frac * (len(session.text) + 1))
    for offset, char in enumerate(burst):
        session.type_text(pos + offset, char)
    if delete is not None:
        frac, count = delete
        length = len(session.text)
        if length > count:
            session.delete_text(int(frac * (length - count)), count)
    return len(burst) + (delete is not None)


def create_document(session: PrivateEditingSession,
                    text: str) -> PrivateEditingSession:
    """Create the session's document holding ``text`` (one full save);
    the session's later saves are deltas."""
    session.open()
    session.type_text(0, text)
    outcome = session.save()
    if not outcome.ok:
        raise BenchFailure(f"set-up save failed: {outcome.error}")
    return session


def settle_heap() -> None:
    """Collect, then freeze every surviving object out of the cyclic
    collector's reach (CPython's practice for services after warm-up).

    Without it every full collection during timing walks the whole
    set-up heap; on shared hosts that walk's cost swings with memory
    speed, which made opens and the save tail bimodal across runs.
    Collections still run over everything the timed operations allocate.
    """
    gc.collect()
    gc.freeze()


def timed_open(reader: PrivateEditingSession) -> float:
    """Seconds a second client takes to open an existing document
    (fetch plus full decrypt)."""
    t0 = perf_counter()
    reader.open()
    return perf_counter() - t0


def view_problem(view: str, password: str, text: str) -> str | None:
    """Why a stored view does not decrypt to ``text`` (None when it does)."""
    try:
        plain = registry.decrypt_view("gdocs", view, password)
    except ReproError as exc:
        return f"server view does not decrypt ({type(exc).__name__})"
    if plain != text:
        return "decrypted server view != editor text"
    return None


def leaked_sentences(view: str, sentences: list[str]) -> int:
    """How many generated plaintext sentences appear in a stored view."""
    return sum(1 for sentence in sentences if sentence in view)


class OpLog:
    """Latencies per operation kind, plus counter deltas attributed to
    the kind of operation that caused them.

    With a tracer, every other operation (by ``ops`` parity, so the
    edit and save of one round go together) runs as a traced root span;
    its latency lands in ``traced`` instead of ``latencies``, so the two
    halves of one loop give the tracing overhead.  Attribution reads the
    named counters around every untraced operation, which is exact only
    when one thread runs operations; multi-threaded workloads pass no
    counters and use a capture over the whole loop instead.
    """

    def __init__(self, counter_names=(), tracer=None):
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.traced: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._names = list(counter_names)
        self._counters = [counter(name) for name in self._names]
        self._tracer = tracer
        self.attributed = bool(self._names)
        self.ops = 0
        self.failed = 0
        self.keystrokes = 0
        self.elapsed = 0.0

    def _tracing(self) -> bool:
        return self._tracer is not None and self.ops % 2 == 1

    def run(self, kind: str, fn, *args):
        """Time one operation of ``kind``; returns its result."""
        if self._tracing():
            t0 = perf_counter()
            result = self._tracer.op(kind, fn, *args)
            self.traced[kind].append(perf_counter() - t0)
            return result
        counters = self._counters
        before = [c.value for c in counters]
        t0 = perf_counter()
        result = fn(*args)
        self.latencies[kind].append(perf_counter() - t0)
        if counters:
            totals = self.counts[kind]
            for name, c, b in zip(self._names, counters, before):
                totals[name] += c.value - b
        return result

    def count(self, kind: str) -> int:
        """Operations of ``kind`` run, traced or not."""
        return len(self.latencies[kind]) + len(self.traced[kind])

    def edit(self, session, step) -> None:
        """Type one step; untraced keystrokes are client.edit_us's base."""
        keystrokes = self.run("edit", apply_step, session, step)
        if not self._tracing():
            self.keystrokes += keystrokes

    def round(self, session, step) -> None:
        """One closed-loop edit+save round on ``session``."""
        self.edit(session, step)
        if not self.run("save", session.save).ok:
            self.failed += 1
        self.ops += 1

    @classmethod
    def merge(cls, logs: list["OpLog"]) -> "OpLog":
        """One log holding every operation of ``logs``."""
        merged = cls()
        for log in logs:
            for kind, values in log.latencies.items():
                merged.latencies[kind].extend(values)
            for kind, values in log.traced.items():
                merged.traced[kind].extend(values)
            merged.ops += log.ops
            merged.failed += log.failed
            merged.keystrokes += log.keystrokes
            merged.elapsed = max(merged.elapsed, log.elapsed)
        return merged


def fan_out(count: int, body) -> None:
    """Run ``body(t)`` for t in range(count) on ``count`` threads; the
    first exception any of them raised is re-raised here."""
    errors: list[BaseException] = []

    def guarded(t: int) -> None:
        try:
            body(t)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,),
                                name=f"perfbench-{t}")
               for t in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class Workload:
    """Base: subclasses generate inputs, set up, run, settle and check."""

    name = ""

    def __init__(self, seed: int, params: dict):
        self.seed = seed
        self.params = params
        #: open latencies measured during set-up (seconds)
        self.setup_opens: list[float] = []

    def generate(self) -> None:
        """Make every input from the seed (before any timing)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build fresh servers and sessions, ready for the loop."""
        raise NotImplementedError

    def run(self, seconds: float, counter_names, tracer=None) -> OpLog:
        """The timed closed loop."""
        raise NotImplementedError

    def settle(self) -> None:
        """Let every pending save land (no-op without faults)."""

    def check(self) -> list[str]:
        """Output checks; the problems found ([] when correct)."""
        raise NotImplementedError

    def open_samples(self, log: OpLog) -> list[float]:
        """Open latencies the open_* metrics are taken from."""
        return self.setup_opens

    def stored_and_plain(self) -> tuple[int, int]:
        """Stored ciphertext characters and plaintext characters."""
        raise NotImplementedError

    def close(self) -> None:
        """Release servers, threads and connections."""
        gc.unfreeze()


class SoloLarge(Workload):
    name = "solo-large"
    doc_id = "solo"

    @property
    def password(self) -> str:
        return f"solo-{self.seed}"

    def generate(self) -> None:
        rng = random.Random(self.seed)
        self.text, self.sentences = make_document(
            rng, self.params["doc_chars"][0])
        self.steps = make_steps(rng, STEPS, self.params)

    def _session(self) -> PrivateEditingSession:
        return PrivateEditingSession(
            self.doc_id, self.password, server=self.server,
            retry_policy=RetryPolicy(seed=self.seed),
            verify_acks=self.params["verify_acks"], max_log=8,
        )

    def _fresh_document(self) -> None:
        """A new server holding the document as first uploaded."""
        self.server = registry.make_server("gdocs")
        self.session = create_document(self._session(), self.text)
        settle_heap()

    def setup(self) -> None:
        #: problems found in documents of earlier episodes
        self.retired_problems: list[str] = []
        self._fresh_document()
        for _ in range(self.params["opens_per_setup"]):
            self.setup_opens.append(timed_open(self._session()))

    def run(self, seconds, counter_names, tracer=None) -> OpLog:
        """Episodes of ``episode_saves`` rounds, each on a fresh upload
        of the document, until ``seconds`` have passed; the episode
        running at the deadline is finished.

        Every save splits the blocks it touches and the stored form
        never re-packs, so save cost keeps rising with the saves made
        since upload (about a third over 600).  With one long episode a
        run's median would depend on how many saves it got through;
        fixed episodes make every run sample the same stretch.  The
        uploads between episodes are not timed.
        """
        log = OpLog(counter_names, tracer)
        steps, episode = self.steps, self.params["episode_saves"]
        between = 0.0
        t0 = perf_counter()
        deadline = t0 + seconds
        while True:
            for _ in range(episode):
                log.round(self.session, steps[log.ops % len(steps)])
            if perf_counter() >= deadline:
                break
            r0 = perf_counter()
            self.retired_problems += self._document_problems()
            gc.unfreeze()
            self._fresh_document()
            between += perf_counter() - r0
        log.elapsed = perf_counter() - t0 - between
        return log

    def _view(self) -> str:
        return registry.server_view("gdocs", self.server, self.doc_id)

    def _document_problems(self) -> list[str]:
        view = self._view()
        problems = []
        wrong = view_problem(view, self.password, self.session.text)
        if wrong:
            problems.append(f"solo: {wrong}")
        leaks = leaked_sentences(view, self.sentences)
        if leaks:
            problems.append(f"solo: {leaks} plaintext sentences stored")
        return problems

    def check(self) -> list[str]:
        return self.retired_problems + self._document_problems()

    def stored_and_plain(self) -> tuple[int, int]:
        return len(self._view()), len(self.session.text)


class FleetSocket(Workload):
    name = "fleet-socket"

    def generate(self) -> None:
        rng = random.Random(self.seed)
        lo, hi = self.params["doc_chars"]
        self.docs = [make_document(rng, rng.randint(lo, hi))
                     for _ in range(self.params["documents"])]
        self.streams = [
            make_steps(random.Random(f"{self.seed}/{t}"), STEPS, self.params)
            for t in range(self.params["threads"])
        ]

    def _password(self, i: int) -> str:
        return f"fleet-{self.seed}-{i}"

    def _session(self, i: int, plan) -> PrivateEditingSession:
        params = self.params
        policy = RetryPolicy(seed=self.seed * 1009 + i,
                             max_attempts=params["retry_max_attempts"],
                             deadline=params["retry_deadline_s"])
        return PrivateEditingSession(
            f"doc-{i:03d}", self._password(i), faults=plan,
            retry_policy=policy, verify_acks=params["verify_acks"],
            transport=AsyncioSocketTransport(*self.address, pool=self.pool),
            max_log=8,
        )

    def _plan(self, i: int) -> FaultPlan:
        faults = self.params["faults"]
        return FaultPlan.uniform(
            faults["rate_per_kind"], seed=self.seed * 7919 + i,
            kinds=tuple(faults["kinds"]), match=updates_only,
        )

    def _parts(self) -> list[list[int]]:
        threads = self.params["threads"]
        return [list(range(t, len(self.docs), threads))
                for t in range(threads)]

    def setup(self) -> None:
        params = self.params
        self.hosted = ServerThread(shards=params["shards"],
                                   service_time=params["service_time"])
        self.address = self.hosted.start()
        self.pool = ConnectionPool(*self.address,
                                   size=params["connections"],
                                   window=params["pool_window"],
                                   timeout=30.0)
        self.sessions: list[PrivateEditingSession | None] = \
            [None] * len(self.docs)
        self.plans: list[FaultPlan | None] = [None] * len(self.docs)
        parts = self._parts()
        fan_out(len(parts), lambda t: self._create_part(parts[t]))
        settle_heap()
        fan_out(len(parts), lambda t: self._open_part(parts[t]))

    def _create_part(self, indices: list[int]) -> None:
        for i in indices:
            plan = self._plan(i)
            self.sessions[i] = create_document(self._session(i, plan),
                                               self.docs[i][0])
            self.plans[i] = plan

    def _open_part(self, indices: list[int]) -> None:
        for i in indices[::self.params["open_every"]]:
            self.setup_opens.append(timed_open(self._session(i, None)))

    def run(self, seconds, counter_names, tracer=None) -> OpLog:
        # two threads share the process: per-op counter attribution
        # would double count, so counters come from the caller's capture
        parts = self._parts()
        logs = [OpLog((), tracer) for _ in parts]
        deadline = perf_counter() + seconds

        def drive(t: int) -> None:
            log, steps = logs[t], self.streams[t]
            sessions = [self.sessions[i] for i in parts[t]]
            t0 = perf_counter()
            while perf_counter() < deadline:
                k = log.ops
                log.round(sessions[k % len(sessions)], steps[k % len(steps)])
            log.elapsed = perf_counter() - t0

        fan_out(len(parts), drive)
        return OpLog.merge(logs)

    def settle(self) -> None:
        """The repository's settle rule: quiesce the fault plans, then
        save until a clean ack lands."""
        parts = self._parts()

        def body(t: int) -> None:
            for i in parts[t]:
                session = self.sessions[i]
                self.plans[i].quiesce()
                outcome = session.save()
                for _ in range(4):
                    if outcome.ok and not outcome.conflict \
                            and not outcome.resynced:
                        break
                    outcome = session.save()

        fan_out(len(parts), body)

    def check(self) -> list[str]:
        problems = []
        for i, session in enumerate(self.sessions):
            view = session.server_view()
            wrong = view_problem(view, self._password(i), session.text)
            if wrong:
                problems.append(f"fleet: doc {i}: {wrong}")
            leaks = leaked_sentences(view, self.docs[i][1])
            if leaks:
                problems.append(f"fleet: doc {i}: {leaks} sentences stored")
        return problems

    def stored_and_plain(self) -> tuple[int, int]:
        stored = sum(len(s.server_view()) for s in self.sessions)
        return stored, sum(len(s.text) for s in self.sessions)

    def close(self) -> None:
        self.pool.close()
        self.hosted.stop()
        super().close()


class WorkspaceMix(Workload):
    name = "workspace-mix"

    def generate(self) -> None:
        rng = random.Random(self.seed)
        params = self.params
        tags = sorted({f"tag{rng.randrange(16 ** 6):06x}"
                       for _ in range(params["tags"])})
        self.doc_ids = [f"doc-{d:02d}" for d in range(params["documents"])]
        self.docs = []
        for _ in self.doc_ids:
            text, sentences = make_document(rng, params["doc_chars"][0])
            planted = " ".join(rng.sample(tags, params["tags_per_doc"]))
            self.docs.append((f"{text} {planted}.", sentences))
        mix = params["mix"]
        kinds, weights = list(mix), list(mix.values())
        self.ops = []
        for _ in range(STEPS * 4):
            kind = rng.choices(kinds, weights)[0]
            doc = rng.randrange(len(self.doc_ids))
            if kind == "search":
                pool = WORDS if rng.random() < 0.5 else tags
                payload = rng.choice(pool).lower()
            elif kind == "save":
                payload = make_steps(rng, 1, params)[0]
            else:
                payload = None
            self.ops.append((kind, doc, payload))

    def setup(self) -> None:
        self.server = registry.make_server("gdocs", catalog=True)
        self.ws = Workspace(f"perfbench-{self.seed}", server=self.server,
                            rng_seed=self.seed)
        #: doc id -> words of its last saved text (the search oracle)
        self.saved_words: dict[str, set[str]] = {}
        for doc, (text, _) in zip(self.doc_ids, self.docs):
            self.ws.open(doc)
            self.ws.type_text(doc, 0, text)
            outcome = self.ws.save(doc)
            if not outcome.ok:
                raise BenchFailure(f"set-up save failed: {outcome.error}")
            self.saved_words[doc] = set(extract_words(text))
        self.search_mismatches = 0
        settle_heap()

    def run(self, seconds, counter_names, tracer=None) -> OpLog:
        ws, saved = self.ws, self.saved_words
        log = OpLog(counter_names, tracer)
        checking = 0.0
        t0 = perf_counter()
        deadline = t0 + seconds
        while perf_counter() < deadline:
            kind, d, payload = self.ops[log.ops % len(self.ops)]
            doc = self.doc_ids[d]
            if kind == "search":
                found = log.run("search", ws.search, payload)
                c0 = perf_counter()
                expect = sorted(doc_id for doc_id, words in saved.items()
                                if payload in words)
                if found != expect:
                    self.search_mismatches += 1
                checking += perf_counter() - c0
            elif kind == "reopen":
                log.run("close", ws.close, doc)
                log.run("open", ws.open, doc)
            else:
                session = ws.session(doc)
                log.edit(session, payload)
                if log.run("save", ws.save, doc).ok:
                    c0 = perf_counter()
                    saved[doc] = set(extract_words(session.text))
                    checking += perf_counter() - c0
                else:
                    log.failed += 1
            log.ops += 1
        # the oracle's bookkeeping is the benchmark's, not the program's
        log.elapsed = perf_counter() - t0 - checking
        return log

    def open_samples(self, log: OpLog) -> list[float]:
        return log.latencies["open"]

    def check(self) -> list[str]:
        problems = []
        if self.search_mismatches:
            problems.append(f"workspace: {self.search_mismatches} searches "
                            "disagree with the plaintext oracle")
        if self.ws.alerts:
            problems.append(f"workspace: {len(self.ws.alerts)} audit alerts, "
                            f"first {self.ws.alerts[0]}")
        for doc, (_, sentences) in zip(self.doc_ids, self.docs):
            session = self.ws.session(doc)
            view = session.server_view()
            wrong = view_problem(view, self.ws.password_for(doc),
                                 session.text)
            if wrong:
                problems.append(f"workspace: {doc}: {wrong}")
            leaks = leaked_sentences(view, sentences)
            if leaks:
                problems.append(f"workspace: {doc}: {leaks} sentences stored")
        return problems

    def stored_and_plain(self) -> tuple[int, int]:
        sessions = [self.ws.session(doc) for doc in self.doc_ids]
        return (sum(len(s.server_view()) for s in sessions),
                sum(len(s.text) for s in sessions))


WORKLOADS = {cls.name: cls for cls in (SoloLarge, FleetSocket, WorkspaceMix)}
