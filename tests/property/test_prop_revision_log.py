"""The inverse-delta revision log reads like the flat list it replaced.

Random sequences of delta saves, full saves (small, and above one
leaf of the store), quota refusals, adversary overwrites
(``history.append`` + ``content =`` + ``revision += 1``), bare raw
appends and bare ``content =`` assignments run against a
:class:`StoredDocument` and against a reference that keeps every
version as a plain string.  After every step the history, its indexes
and slices, ``ops_log``, ``deltas_since`` and the head must agree.
"""

import random

import pytest

from repro.core.delta import Delta
from repro.errors import QuotaExceededError
from repro.security.adversary import ActiveServerAdversary
from repro.core.leaves import LEAF_CHARS
from repro.services.gdocs.storage import MAX_DOCUMENT_CHARS, DocumentStore

SEEDS = 100
STEPS = 30
ALPHABET = "abcxyz \t%"


def _text(rng, size):
    return "".join(rng.choices(ALPHABET, k=size))


def _delta(rng, length):
    """A random valid delta (wire text) for a ``length``-char document."""
    ops, cursor = [], 0
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(3)
        if kind == 0 and cursor < length:
            n = rng.randrange(1, length - cursor + 1)
            ops.append(f"={n}")
            cursor += n
        elif kind == 1 and cursor < length:
            n = rng.randrange(1, min(8, length - cursor) + 1)
            ops.append(f"-{n}")
            cursor += n
        else:
            text = _text(rng, rng.randrange(1, 6))
            ops.append("+" + text.replace("%", "%25").replace("\t", "%09"))
    return "\t".join(ops)


class FlatReference:
    """What the store kept before: every version as a string."""

    def __init__(self, max_history):
        self.max_history = max_history
        self.head = ""
        self.versions: list[str] = []
        self.ops: list[str | None] = []
        self.floor = 0
        self.revision = 0

    def commit(self, new, op):
        self.versions.append(self.head)
        self.ops.append(op)
        self.head = new
        self.revision += 1
        if self.max_history is not None:
            excess = len(self.versions) - self.max_history
            if excess > 0:
                del self.versions[:excess]
                del self.ops[:excess]
                self.floor += excess

    def deltas_since(self, revision):
        if revision < self.floor:
            return None
        window = self.ops[revision - self.floor:]
        return None if None in window else window


def _step(rng, store, adversary, ref):
    doc = store.get("d")
    roll = rng.random()
    if roll < 0.45:
        op = _delta(rng, len(ref.head))
        store.apply_delta("d", op)
        ref.commit(Delta.parse(op).apply(ref.head), op)
    elif roll < 0.60:
        new = _text(rng, rng.randrange(0, 120))
        store.set_content("d", new)
        ref.commit(new, None)
    elif roll < 0.64:
        size = 2 * LEAF_CHARS + rng.randrange(1, 2_000)
        new = (_text(rng, 512) * (size // 512 + 1))[:size]
        store.set_content("d", new)
        ref.commit(new, None)
    elif roll < 0.70:
        with pytest.raises(QuotaExceededError):
            if rng.random() < 0.5:
                grow = MAX_DOCUMENT_CHARS - len(ref.head) + 1
                store.apply_delta("d", f"+{'q' * grow}")
            else:
                store.set_content("d", "q" * (MAX_DOCUMENT_CHARS + 1))
    elif roll < 0.80:
        if ref.versions and rng.random() < 0.5:
            new = ref.versions[-rng.randrange(1, len(ref.versions) + 1)]
        else:
            new = _text(rng, rng.randrange(0, 60))
        adversary.overwrite("d", new)
        ref.versions.append(ref.head)
        ref.ops.append(None)
        ref.head = new
        ref.revision += 1
    elif roll < 0.90:
        new = _text(rng, rng.randrange(0, 60))
        doc.content = new
        ref.head = new
    else:
        raw = _text(rng, rng.randrange(0, 40))
        doc.history.append(raw)
        ref.versions.append(raw)
        ref.ops.append(None)


def _check(rng, doc, ref):
    assert doc.content == ref.head
    assert doc.revision == ref.revision
    assert doc.history_floor == ref.floor
    assert len(doc.history) == len(ref.versions)
    assert list(doc.history) == ref.versions
    assert doc.ops_log == ref.ops
    n = len(ref.versions)
    if n:
        k = rng.randrange(1, n + 1)
        assert doc.history[-k] == ref.versions[-k]
        lo, hi = sorted(rng.randrange(n + 1) for _ in range(2))
        assert doc.history[lo:hi] == ref.versions[lo:hi]
        assert doc.history[::-2] == ref.versions[::-2]
    for revision in range(ref.floor - 1, ref.revision + 2):
        assert doc.deltas_since(revision) == ref.deltas_since(revision)


@pytest.mark.parametrize("max_history", [None, 5, 40])
def test_history_matches_a_flat_list(max_history):
    for seed in range(SEEDS):
        rng = random.Random(seed)
        store = DocumentStore()
        doc = store.create("d")
        doc.max_history = max_history
        adversary = ActiveServerAdversary(store)
        ref = FlatReference(max_history)
        for _ in range(STEPS):
            _step(rng, store, adversary, ref)
            _check(rng, doc, ref)
        assert doc.history == ref.versions
        assert repr(doc.history) == f"RevisionHistory({ref.versions!r})"
