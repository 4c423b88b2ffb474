"""Seeded trace generation: the fuzzer's input language.

A *trace* is a complete, JSON-serializable description of one fuzz
case: which stack configuration to build (scheme × index × store ×
block capacity), the initial plaintext, a list of edit operations, an
optional fault schedule, and how many clients interleave.  Traces are
pure data — the runner interprets them — which is what makes failures
replayable (``tests/corpus/*.json``) and shrinkable (drop an op, rerun).

Determinism is the load-bearing property: :func:`generate_trace` draws
every choice from one ``random.Random(seed)``, so an identical seed
yields a byte-identical trace (``Trace.to_json`` is canonical JSON),
and the runner resolves the trace with integer arithmetic only.

Edit positions are stored in *position quanta* (``0..POS_SCALE``, a
fraction of the current document length) rather than absolute offsets:
under faults and concurrent merges a client's text at step *k* is not
predictable at generation time, so absolute positions could go out of
range.  Quanta always resolve to a valid position — 0 and POS_SCALE
hit the exact start/end boundaries — and resolution is deterministic.

The string corpus mixes plain ASCII words, multi-byte unicode (two- to
four-byte UTF-8, combining marks), delta/form metacharacters (tabs,
``%``, ``+``, ``&``, ``=``) and degenerate shapes (empty, single char,
long runs), because each of those classes has broken a real codec
somewhere in this stack's history.  :func:`corpus_strings` exposes the
same corpus to the encoder property tests so they stay in sync with
what the fuzzer feeds the full pipeline.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, fields

__all__ = [
    "TRACE_FORMAT",
    "POS_SCALE",
    "SCHEMES",
    "INDEXES",
    "STORES",
    "MODES",
    "SERVICES",
    "Profile",
    "PROFILES",
    "Trace",
    "generate_trace",
    "gen_text",
    "corpus_strings",
]

#: corpus/replay file format marker
TRACE_FORMAT = "repro.fuzz/v1"

#: positions are fractions of the live document length in units of
#: 1/POS_SCALE (integer math keeps JSON byte-stable across platforms)
POS_SCALE = 10_000

SCHEMES = ("recb", "rpc")
INDEXES = ("skiplist", "avl", "reference")
#: which server store the cdelta is checked against ("both" cross-checks
#: the flat string and the leaf table every step).  "pieces" now builds
#: the gdocs leaf table (``LeafText``), which replaced the piece table;
#: the serialized value stays so corpus traces and digests do not move.
STORES = ("both", "flat", "pieces")
MODES = ("engine", "session", "concurrent", "workspace")
#: services a networked trace may target (mirrors
#: repro.services.registry.SERVICE_NAMES; kept literal so a corpus file
#: is readable without imports).  engine mode has no service at all and
#: concurrent mode stays gdocs — OT merging is a gdocs-protocol notion.
SERVICES = ("gdocs", "bespin", "buzzword", "replicated")

#: session-mode service draw, gdocs-weighted: the richest protocol gets
#: the most fuzz, but every backend sees regular traffic
_SESSION_SERVICES = (
    "gdocs", "gdocs", "gdocs", "bespin", "buzzword", "replicated",
)

#: fault kinds a generated schedule may draw from (mirrors
#: repro.net.faults.FAULT_KINDS; kept literal so a corpus file is
#: readable without imports)
FAULT_KINDS = (
    "drop", "blackhole", "delay", "dup", "reorder",
    "truncate", "corrupt", "http_5xx", "http_429",
)

# -- the string corpus -------------------------------------------------------

_WORDS = (
    "lorem ipsum dolor sit amet editor cloud private delta block cipher "
    "nonce index skip list splice record checksum oracle shrink replay"
).split()

#: multi-byte UTF-8: 2-byte (é, ñ), 3-byte (CJK, arrows), 4-byte
#: (emoji, gothic), plus combining marks — each stresses the 8-byte
#: payload packing differently
_UNICODE = (
    "é", "ñ", "ü", "ß", "λ", "Ω", "ж", "ق",
    "文", "書", "編", "集", "→", "∑", "€",
    "😀", "🔐", "𐍈",
    "é", "ä́",
)

#: metacharacters of the delta wire form (%-escapes, tabs) and the
#: form codec (&, =, +, %), plus whitespace shapes
_SPECIALS = ("\t", "%", "+", "&", "=", "\n", " ", "%09", "%25", "~", "*")


def gen_text(rng: random.Random, max_chars: int) -> str:
    """One corpus string of at most ``max_chars`` characters."""
    if max_chars <= 0:
        return ""
    style = rng.randrange(8)
    if style == 0:
        return ""  # degenerate: empty
    if style == 1:
        return rng.choice(rng.choice((_WORDS, _UNICODE, _SPECIALS)))[:max_chars]
    if style == 2:  # degenerate: one atom repeated across block boundaries
        atom = rng.choice(("a", "é", "文", "😀", "\t", " "))
        return (atom * rng.randint(1, max_chars))[:max_chars]
    parts: list[str] = []
    size = 0
    unicode_bias = style >= 6  # two styles lean heavily non-ASCII
    while size < max_chars and len(parts) < 4 * max_chars:
        roll = rng.random()
        if roll < (0.55 if unicode_bias else 0.12):
            piece = rng.choice(_UNICODE)
        elif roll < 0.70 if unicode_bias else roll < 0.22:
            piece = rng.choice(_SPECIALS)
        else:
            piece = rng.choice(_WORDS) + (" " if rng.random() < 0.8 else "")
        parts.append(piece)
        size += len(piece)
    return "".join(parts)[:max_chars]


def corpus_strings(seed: int, count: int, max_chars: int = 120) -> list[str]:
    """The shared string corpus, as the encoder property tests use it.

    Deterministic in ``seed``; always includes the degenerate shapes
    (empty, single char, block-boundary lengths) before random draws.
    """
    rng = random.Random(seed)
    fixed = ["", "a", "é", "😀", "a" * 8, "b" * 9, "文" * 8,
             "\t%+&= \n", "x" * max_chars]
    return fixed + [gen_text(rng, max_chars) for _ in range(count)]


# -- trace data model --------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """One fuzz case, fully describing a deterministic run.

    ``ops`` entries are JSON-shaped lists:

    * ``["i", posq, text, client]`` — insert ``text`` at position
      quantum ``posq``;
    * ``["d", posq, count, client]`` — delete up to ``count`` chars;
    * ``["r", posq, count, text, client]`` — replace;
    * ``["s", client]`` — save checkpoint (session/concurrent modes).

    ``faults`` is either None or a dict ``{"seed", "timeout", "specs":
    [{"kind", "rate", "at", "limit", "where", "updates_only"}]}``
    mirroring :class:`repro.net.faults.FaultSpec`.
    """

    seed: int
    mode: str = "engine"
    scheme: str = "recb"
    #: the mirror's index structure in engine traces; networked modes
    #: draw it too, so seeded traces keep their bytes, but run the
    #: default skip list (every structure yields the same wire)
    index: str = "skiplist"
    store: str = "both"
    block_chars: int = 8
    init: str = ""
    ops: tuple = ()
    faults: dict | None = None
    clients: int = 1
    #: which cloud service a networked trace runs against (``engine``
    #: mode ignores it; ``concurrent`` mode requires "gdocs")
    service: str = "gdocs"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.service not in SERVICES:
            raise ValueError(f"unknown service {self.service!r}")
        if self.mode == "concurrent" and self.service != "gdocs":
            raise ValueError(
                "concurrent traces run against gdocs only (OT merging "
                "is a gdocs-protocol notion)"
            )
        if self.mode == "workspace" and self.service != "gdocs":
            raise ValueError(
                "workspace traces run against gdocs only (the catalog's "
                "piggybacked maintenance rides the gdocs save protocol)"
            )
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.index not in INDEXES:
            raise ValueError(f"unknown index {self.index!r}")
        if self.store not in STORES:
            raise ValueError(f"unknown store {self.store!r}")
        # ops arrive as lists from JSON; freeze for hashing/equality
        object.__setattr__(
            self, "ops", tuple(tuple(op) for op in self.ops)
        )

    def replaced(self, **changes) -> "Trace":
        """A copy with ``changes`` applied (shrink steps use this)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(changes)
        return Trace(**data)

    def to_dict(self) -> dict:
        """The trace as a plain dict, ``format``-stamped for replay."""
        return {
            "format": TRACE_FORMAT,
            "seed": self.seed,
            "mode": self.mode,
            "scheme": self.scheme,
            "index": self.index,
            "store": self.store,
            "block_chars": self.block_chars,
            "init": self.init,
            "ops": [list(op) for op in self.ops],
            "faults": self.faults,
            "clients": self.clients,
            "service": self.service,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        if data.get("format", TRACE_FORMAT) != TRACE_FORMAT:
            raise ValueError(
                f"unsupported trace format {data.get('format')!r}"
            )
        return cls(
            seed=data["seed"],
            mode=data.get("mode", "engine"),
            scheme=data.get("scheme", "recb"),
            index=data.get("index", "skiplist"),
            store=data.get("store", "both"),
            block_chars=data.get("block_chars", 8),
            init=data.get("init", ""),
            ops=data.get("ops", ()),
            faults=data.get("faults"),
            clients=data.get("clients", 1),
            service=data.get("service", "gdocs"),
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace variance, ASCII
        escapes — byte-identical for equal traces on every platform."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"), ensure_ascii=True)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))


# -- profiles ----------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Iteration-shape knobs: how big, how chaotic, which modes."""

    name: str
    #: cumulative mode thresholds drawn against random(); order matches
    #: MODES.  Pre-workspace profiles carry 3-tuples: zip() against the
    #: 4-entry MODES truncates, so their draws (and every recorded
    #: digest) stay byte-identical — workspace traces come only from
    #: profiles that weight the fourth slot explicitly.
    mode_weights: tuple = (0.60, 0.25, 0.15)
    max_init: int = 120
    max_ops: int = 12
    max_insert: int = 24
    max_delete: int = 48
    #: probability a session/concurrent trace carries a fault schedule
    fault_prob: float = 0.7
    max_fault_specs: int = 2
    rate_range: tuple = (0.10, 0.40)
    save_prob: float = 0.35
    block_chars_choices: tuple = (8, 8, 8, 4, 1)
    #: concurrent traces draw their writer count from [2, max_clients];
    #: the default keeps the draw out of the rng stream entirely so
    #: every pre-existing profile's traces stay byte-identical
    max_clients: int = 2


PROFILES = {
    "ci": Profile(name="ci"),
    "quick": Profile(
        name="quick", mode_weights=(1.0, 0.0, 0.0), max_init=64,
        max_ops=8, max_insert=16, fault_prob=0.0,
    ),
    "engine": Profile(
        name="engine", mode_weights=(1.0, 0.0, 0.0), fault_prob=0.0,
    ),
    # long keystroke runs for the edit-coalescing differential: engine
    # mode only (the oracle drives the document directly), no faults,
    # enough ops per trace that bursts of every size hit the cap paths
    "burst": Profile(
        name="burst", mode_weights=(1.0, 0.0, 0.0), max_ops=24,
        max_insert=32, fault_prob=0.0,
    ),
    "deep": Profile(
        name="deep", mode_weights=(0.45, 0.30, 0.25), max_init=600,
        max_ops=32, max_insert=64, max_delete=160, fault_prob=0.8,
        max_fault_specs=3, rate_range=(0.10, 0.50),
    ),
    # the N-writer collaboration profile: every trace is concurrent,
    # 2–16 writers on one document, moderate fault pressure — the
    # many-writer merge path under the same plaintext-oracle judge
    "collab": Profile(
        name="collab", mode_weights=(0.0, 0.0, 1.0), max_ops=20,
        max_insert=24, fault_prob=0.4, max_fault_specs=2,
        rate_range=(0.05, 0.25), max_clients=16,
    ),
    # the multi-document tenant profile: every trace opens a workspace
    # of 2–4 documents, edits across them, and judges the encrypted
    # search index plus the audit chain against ground truth (including
    # a rollback-attacking server).  Fault-free: the catalog's save
    # piggyback rides acknowledged saves, so chaos belongs to the other
    # profiles.  max_clients doubles as the document count here.
    "workspace": Profile(
        name="workspace", mode_weights=(0.0, 0.0, 0.0, 1.0),
        max_ops=16, max_insert=24, fault_prob=0.0, max_clients=4,
    ),
}


# -- generation --------------------------------------------------------------


def _gen_edit_op(rng: random.Random, profile: Profile,
                 client: int) -> list:
    posq = rng.choice((0, POS_SCALE, rng.randrange(POS_SCALE + 1),
                       rng.randrange(POS_SCALE + 1)))
    kind = rng.random()
    if kind < 0.45:
        return ["i", posq, gen_text(rng, profile.max_insert), client]
    if kind < 0.75:
        return ["d", posq, rng.randint(1, profile.max_delete), client]
    return ["r", posq, rng.randint(0, profile.max_delete),
            gen_text(rng, profile.max_insert), client]


def _gen_faults(rng: random.Random, profile: Profile) -> dict | None:
    if rng.random() >= profile.fault_prob:
        return None
    lo, hi = profile.rate_range
    specs = []
    for _ in range(rng.randint(1, profile.max_fault_specs)):
        kind = rng.choice(FAULT_KINDS)
        if rng.random() < 0.75:  # rate-driven chaos
            specs.append({
                "kind": kind,
                "rate": round(rng.uniform(lo, hi), 3),
                "at": [],
                "limit": None,
                "where": rng.choice(("request", "response")),
                "updates_only": True,
            })
        else:  # deterministically scheduled strike on an early save
            specs.append({
                "kind": kind,
                "rate": 0.0,
                "at": [rng.randint(1, 4)],
                "limit": 1,
                "where": rng.choice(("request", "response")),
                "updates_only": False,
            })
    return {
        "seed": rng.randrange(2 ** 31),
        "timeout": 2.0,
        "specs": specs,
    }


def _pick_mode(rng: random.Random, profile: Profile) -> str:
    roll = rng.random()
    acc = 0.0
    for mode, weight in zip(MODES, profile.mode_weights):
        acc += weight
        if roll < acc:
            return mode
    return MODES[0]


def generate_trace(
    seed: int,
    profile: str | Profile = "ci",
    mode: str | None = None,
    scheme: str | None = None,
    index: str | None = None,
    service: str | None = None,
) -> Trace:
    """Generate the trace for ``seed`` (pure function of its inputs).

    ``service`` pins the cloud backend for session-mode traces; left
    None, session traces draw one (gdocs-weighted) and engine /
    concurrent traces stay on gdocs.  Pinning a non-gdocs service
    forces session mode — the other modes don't speak those protocols.
    """
    prof = PROFILES[profile] if isinstance(profile, str) else profile
    rng = random.Random(seed)
    if service is not None and service != "gdocs":
        mode = "session"
    mode = mode or _pick_mode(rng, prof)
    scheme = scheme or rng.choice(SCHEMES)
    index = index or rng.choice(INDEXES)
    if service is None:
        service = (rng.choice(_SESSION_SERVICES)
                   if mode == "session" else "gdocs")
    if mode not in ("concurrent", "workspace"):
        clients = 1
    elif prof.max_clients > 2:
        clients = rng.randint(2, prof.max_clients)
    else:
        # no rng draw: keeps pre-existing profiles' streams (and their
        # corpus replay digests) byte-identical
        clients = 2

    init = gen_text(rng, rng.choice((0, 1, prof.max_init // 8,
                                     prof.max_init)))
    ops: list[list] = []
    for _ in range(rng.randint(1, prof.max_ops)):
        client = rng.randrange(clients)
        ops.append(_gen_edit_op(rng, prof, client))
        if mode != "engine" and rng.random() < prof.save_prob:
            ops.append(["s", client])

    faults = _gen_faults(rng, prof) if mode != "engine" else None
    return Trace(
        seed=seed,
        mode=mode,
        scheme=scheme,
        index=index,
        store="both",
        block_chars=rng.choice(prof.block_chars_choices),
        init=init,
        ops=tuple(tuple(op) for op in ops),
        faults=faults,
        clients=clients,
        service=service,
    )
