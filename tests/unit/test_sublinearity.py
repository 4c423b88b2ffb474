"""The paper's sub-linearity claim as a counter-based regression test.

Section V claims IncE does work proportional to the edited cluster plus
the index search path — O(cluster + log n) — not to the document size.
Timing cannot enforce that robustly in CI, but operation counts can:
``obs.capture`` diffs ``crypto.aes.calls`` and ``index.node_visits``
around a single-word edit on a >=10k-block document and bounds them by
``blocks_reencrypted + C*log2(n)``.  If ``apply_delta`` ever degrades
to touching O(n) blocks, these bounds fail by orders of magnitude
(measured: ~3 AES calls for the edit vs ~17k for a full rewrite).
"""

import gc
import math

import pytest

from repro.core import (
    LEAF_BLOCKS,
    Delta,
    KeyMaterial,
    create_document,
    load_document,
)
from repro.core.leaves import LEAF_CHARS
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import Record
from repro.extension.gdocs_ext import GDocsExtension
from repro.extension.session import PrivateEditingSession
from repro.obs import capture

KEYS = KeyMaterial.from_password("sublinear", salt=b"sublinear1")

#: ~108k chars at block_chars=8 -> ~13.5k blocks, past the 10k floor
TEXT = "lorem ipsum dolor sit amet " * 4000

#: generous constants — the skip list's pole heights are randomized, so
#: visit counts vary between runs (measured 37-101 at n~13.5k since the
#: splice/get_range rewrite; 100-250 before it); the bounds leave ~3x
#: headroom over the worst observation while staying ~100x below the
#: O(n) cost a regression would produce
AES_LOG_FACTOR = 4
VISITS_LOG_FACTOR = 24


def _big_doc(scheme):
    return create_document(TEXT, key_material=KEYS, scheme=scheme,
                           block_chars=8, rng=DeterministicRandomSource(3))


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
class TestSingleEditIsSublinear:
    def test_aes_calls_bounded_by_cluster_plus_log(self, scheme):
        doc = _big_doc(scheme)
        n_blocks = doc.char_length // doc.block_chars
        assert n_blocks >= 10_000
        with capture() as cap:
            doc.apply_delta(Delta.replacement(doc.char_length // 2, 0,
                                              "word "))
        bound = cap["doc.blocks_reencrypted"] + \
            AES_LOG_FACTOR * math.log2(n_blocks)
        assert 0 < cap["crypto.aes.calls"] <= bound, (
            f"{scheme}: single-word edit on {n_blocks} blocks cost "
            f"{cap['crypto.aes.calls']} cipher calls (bound {bound:.0f}) — "
            f"apply_delta is no longer sub-linear"
        )
        assert cap["doc.clusters"] == 1

    def test_index_visits_logarithmic(self, scheme):
        doc = _big_doc(scheme)
        n_blocks = doc.char_length // doc.block_chars
        with capture() as cap:
            doc.apply_delta(Delta.replacement(doc.char_length // 2, 0,
                                              "word "))
        bound = VISITS_LOG_FACTOR * math.log2(n_blocks)
        assert 0 < cap["index.node_visits"] <= bound, (
            f"{scheme}: edit walked {cap['index.node_visits']} index nodes "
            f"(bound {bound:.0f}) — the block index is no longer O(log n)"
        )
        # The whole cluster must ride one range splice, not per-rank
        # delete/insert loops, and its level-0 walk is O(cluster).
        assert cap["index.splices"] == 1
        assert cap["index.range_visits"] <= 16 * cap["doc.blocks_repacked"] + 16

    def test_full_rewrite_shows_the_linear_contrast(self, scheme):
        """The same counters DO scale with n when every block changes —
        proof the sub-linear numbers above aren't an instrumentation
        blind spot.  Since the splice rewrite, the O(n) component of a
        whole-document replacement shows up as level-0 walk steps
        (``index.range_visits``), not as search-path descents."""
        doc = _big_doc(scheme)
        n_blocks = doc.char_length // doc.block_chars
        with capture() as cap:
            doc.apply_delta(Delta.replacement(0, doc.char_length,
                                              "x" * doc.char_length))
        assert cap["crypto.aes.calls"] >= n_blocks
        assert cap["index.range_visits"] >= n_blocks


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_verified_delta_save_encodes_only_new_records(scheme, monkeypatch):
    """One delta save through the full mediated stack, Ack hash check
    included, Base32-encodes O(cluster) records: the mirror splices the
    cdelta into its kept wire text instead of re-encoding ~13.5k
    records to hash-check the Ack."""
    checked: list[bool] = []
    original = GDocsExtension._ack_diverges

    def spy(self, doc_id, fields):
        checked.append(original(self, doc_id, fields))
        return checked[-1]

    monkeypatch.setattr(GDocsExtension, "_ack_diverges", spy)
    session = PrivateEditingSession("sublinear", "pw", scheme=scheme,
                                    rng=DeterministicRandomSource(5),
                                    verify_acks=True)
    session.open()
    session.type_text(0, TEXT)
    assert session.save().kind == "full"
    n_blocks = len(TEXT) // 8
    assert n_blocks >= 10_000
    session.type_text(len(TEXT) // 2, "word ")
    with capture() as cap:
        outcome = session.save()
    assert outcome.kind == "delta" and outcome.ok and not outcome.complaints
    assert checked == [False, False], "the Ack hash check must run and pass"
    bound = cap["doc.blocks_reencrypted"] + 2
    assert 0 < cap["wire.records_encoded"] <= bound, (
        f"{scheme}: a verified delta save on {n_blocks} blocks encoded "
        f"{cap['wire.records_encoded']} records (bound {bound}) — the "
        f"Ack check re-encodes the whole mirror again"
    )


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
@pytest.mark.parametrize("stored_chars", [40_000, 400_000])
def test_verified_delta_save_hashes_the_changed_suffix(scheme,
                                                       stored_chars):
    """Both SHA-1 runs of a verified delta save — the server's
    ``contentFromServerHash`` and the extension's Ack check — resume
    from midstates.  An edit in the last 1% of the document hashes the
    suffix after its first changed wire character, plus the part of the
    first changed leaf before it, on the server and on the client,
    which keep the same leaves of the same wire.
    An edit at character 0 hashes the whole wire on both sides."""
    text = (TEXT * 4)[:stored_chars * 2 // 7]  # ~3.5 wire chars each
    session = PrivateEditingSession("hashed", "pw", scheme=scheme,
                                    rng=DeterministicRandomSource(8),
                                    verify_acks=True)
    session.open()
    session.type_text(0, text)
    assert session.save().kind == "full"
    stored = session.server.store.get("hashed")
    assert abs(stored.length - stored_chars) < stored_chars // 10

    def hashed_by_save(pos):
        session.type_text(pos, "word ")
        with capture() as cap:
            outcome = session.save()
        assert outcome.kind == "delta" and outcome.ok
        assert not outcome.complaints
        changed_at = Delta.parse(stored.ops_log[-1]).ops[0].count
        return cap["crypto.sha1.bytes"], stored.length - changed_at

    hashed, suffix = hashed_by_save(len(text) * 99 // 100)
    assert suffix <= stored.length // 50
    bound = 2 * suffix + 3 * LEAF_CHARS
    assert 0 < hashed <= bound, (
        f"{scheme}: an edit {suffix} chars from the end of a "
        f"{stored.length}-char document hashed {hashed} bytes "
        f"(bound {bound})")
    hashed, _ = hashed_by_save(0)
    assert hashed == 2 * stored.length


def _one_keystroke_full_save_after_reopen(scheme: str, chars: int):
    """Store a ``chars``-long document, reopen it in a new session, type
    one character, and capture the counters of that session's first
    save — a full ``docContents`` post."""
    text = (TEXT * (chars // len(TEXT) + 1))[:chars]
    writer = PrivateEditingSession("reopened", "pw", scheme=scheme,
                                   rng=DeterministicRandomSource(6))
    writer.open()
    writer.type_text(0, text)
    writer.save()
    reader = PrivateEditingSession("reopened", "pw", scheme=scheme,
                                   server=writer.server,
                                   rng=DeterministicRandomSource(7),
                                   verify_acks=True)
    assert reader.open() == text
    reader.type_text(2000, "x")
    with capture() as cap:
        outcome = reader.save()
    assert outcome.kind == "full" and outcome.ok
    assert not outcome.complaints and not outcome.conflict
    assert reader.server_view() == reader.extension.engine(
        "reopened").mirror.wire()
    return cap


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
def test_full_save_after_reopen_costs_the_edit_not_the_document(scheme):
    """The first save of a reopened session is a full post, but the
    extension splices it into the mirror it decrypted on open, so its
    cipher work is the edited cluster's at any document size (a fresh
    re-encryption would cost one AES call per block: ~500 vs ~5000)."""
    small = _one_keystroke_full_save_after_reopen(scheme, 4_000)
    large = _one_keystroke_full_save_after_reopen(scheme, 40_000)
    assert small["extension.full_saves_spliced"] == 1
    assert large["extension.full_saves_spliced"] == 1
    assert small["extension.full_saves_fresh"] == 0
    assert 0 < small["crypto.aes.calls"] == large["crypto.aes.calls"] \
        <= small["doc.blocks_reencrypted"] + 2, (
        f"{scheme}: one keystroke cost {small['crypto.aes.calls']} AES "
        f"calls at 4k chars and {large['crypto.aes.calls']} at 40k")
    # the reopened mirror keeps the fetched text as its wire, so only
    # the re-encrypted records are Base32-encoded (~500/~5000 if the
    # whole document were encoded again)
    for cap in (small, large):
        assert 0 < cap["wire.records_encoded"] \
            <= cap["doc.blocks_reencrypted"] + 2, (
            f"{scheme}: the full save encoded "
            f"{cap['wire.records_encoded']} records")


#: tracked objects a loaded document holds besides its leaves (about
#: 20 measured): the document, codec, cipher, key schedules, header,
#: scheme state, bookkeeping records, the leaf store, and its outer
#: index with its head node and RNG
_MIRROR_OVERHEAD = 32

#: tracked objects per leaf: the leaf, its text list, its prefix-sum
#: list and its outer index node (its block, lead and payload columns
#: are bytes, which the collector does not track)
_PER_LEAF = 4


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
@pytest.mark.parametrize("chars", [4_000, 40_000])
def test_loaded_mirror_tracks_a_few_objects_per_leaf(scheme, chars):
    """A reopened mirror holds a few objects per leaf of ``LEAF_BLOCKS``
    blocks that the cyclic garbage collector tracks, before and after a
    delta save: a full collection walks every one of them, so an
    open's heap is its GC cost, and a per-block structure would hold
    two per block (~16x more at B = 32)."""
    source = create_document("lorem ipsum dolor sit amet " * (chars // 27),
                             key_material=KEYS, scheme=scheme,
                             rng=DeterministicRandomSource(5))
    wire = source.wire()
    del source
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        doc = load_document(wire, key_material=KEYS)
        loaded = len(gc.get_objects()) - before
        doc.insert(doc.char_length // 2, "x")
        saved = len(gc.get_objects()) - before
    finally:
        gc.enable()
    leaves = -(-doc.block_count // LEAF_BLOCKS)
    bound = _PER_LEAF * leaves + _MIRROR_OVERHEAD
    assert doc.block_count >= 16 * leaves  # the bound is per leaf
    assert loaded <= bound, (
        f"{scheme}: {loaded} tracked objects for {doc.block_count} blocks "
        f"(bound {bound})")
    assert saved <= bound, (
        f"{scheme}: {saved} tracked objects after one delta save")


#: bookkeeping records around the data records, per scheme
_BOOKKEEPING = {"recb": 1, "rpc": 2}


@pytest.mark.parametrize("scheme", ["recb", "rpc"])
@pytest.mark.parametrize("chars", [4_000, 40_000])
def test_reopen_reads_record_columns(scheme, chars, monkeypatch):
    """A session reopen reads the record area as two columns: it builds
    no :class:`Record` at any document size, and still runs one AES
    call per stored record."""
    text = (TEXT * (chars // len(TEXT) + 1))[:chars]
    writer = PrivateEditingSession("columns", "pw", scheme=scheme,
                                   rng=DeterministicRandomSource(6))
    writer.open()
    writer.type_text(0, text)
    assert writer.save().ok
    reader = PrivateEditingSession("columns", "pw", scheme=scheme,
                                   server=writer.server,
                                   rng=DeterministicRandomSource(7))
    built = []
    validate = Record.__post_init__

    def counting(record):
        built.append(record)
        validate(record)

    monkeypatch.setattr(Record, "__post_init__", counting)
    with capture() as cap:
        assert reader.open() == text
    mirror = reader.extension.engine("columns").mirror
    assert built == []
    assert cap["crypto.aes.calls"] == \
        mirror.block_count + _BOOKKEEPING[scheme]
