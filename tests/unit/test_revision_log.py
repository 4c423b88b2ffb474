"""The server's revision history is one per-revision log.

Each retained revision costs its forward op and the inverse delta that
takes the next version back to it, so a keystroke save retains a few
characters, not a copy of the ciphertext.  These tests pin that cost,
and that tampering with the store (a raw ``history.append`` next to a
``content`` assignment) keeps the log's forward ops aligned with its
versions, which is what ``deltas_since`` answers from.
"""

import gc
import random
import tracemalloc

from repro.security.adversary import ActiveServerAdversary
from repro.services.gdocs.storage import DocumentStore, StoredDocument


def _tampered_store():
    store = DocumentStore()
    store.create("d")
    store.set_content("d", "hello")
    store.apply_delta("d", "+!")
    ActiveServerAdversary(store).overwrite("d", "evil")
    return store, store.get("d")


class TestTamperingKeepsTheLogAligned:
    def test_overwrite_breaks_the_delta_chain(self):
        _, doc = _tampered_store()
        assert doc.history == ["", "hello", "!hello"]
        assert doc.ops_log == [None, "+!", None]
        # a full replace intervened: nothing to rebase a stale save over
        assert doc.deltas_since(2) is None
        assert doc.deltas_since(3) == []

    def test_compaction_keeps_ops_and_versions_together(self):
        store, doc = _tampered_store()
        doc.max_history = 2
        store.apply_delta("d", "=4\t+?")
        assert doc.history == ["!hello", "evil"]
        assert doc.ops_log == [None, "=4\t+?"]
        assert doc.history_floor == 2
        assert doc.deltas_since(2) is None
        assert doc.deltas_since(3) == ["=4\t+?"]


class TestRetainedHistory:
    def test_keystroke_saves_retain_their_delta_not_the_document(self):
        rng = random.Random(5)
        doc = StoredDocument(
            "d", "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ234567")
                         for _ in range(16_000)))
        length = doc.length
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                doc.apply_delta(f"={rng.randrange(length)}\t+Q")
                length += 1
                doc.content  # the Ack hash reads the head every save
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a string per save would pin 200 x 16k = 3.2 MB; the log keeps
        # two short wire strings per save plus the one current head
        assert retained < 16_000 + 200 * 400
        assert sum(len(back) for back in doc.history._backs) <= 200 * 12
        assert not gc.is_tracked(doc.history._backs[-1])
        assert len(doc.history) == 200
