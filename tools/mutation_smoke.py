#!/usr/bin/env python3
"""Prove the fuzz oracle has teeth: mutate the stack, expect a catch.

A differential harness that never fails is indistinguishable from one
that checks nothing.  This tool injects known-load-bearing bugs — each
a one-line textual mutation of a temporary copy of the source tree —
and runs the same ``repro fuzz`` invocation (or, for a bug no fuzz
oracle can see, the entry's one unit test) against the clean tree and
each mutant:

* clean tree  → exit 0 (no violations), or the harness is flaky;
* mutant tree → exit != 0 with the entry's violation kind reported (or
  its test failing), or the harness is blind to that bug class (a catch
  by some other oracle does not count: it would not prove the intended
  one fires).

The mutation table covers one oracle per stack layer:

``rpc-length-amendment``
    Deletes the Wang–Kao–Yeh *length amendment* from the RPC checksum
    record (the XOR of the packed document length into the payload
    aggregate, ``RpcCodec.suffix_plain``).  The engine profile's
    checksum-verifying reload must flag it (``roundtrip``).
``fresh-enc-shifts-block-slicing``
    ``EncryptedDocument._build_fresh`` — Enc, which stages a fresh
    document's chunks and encrypts them in one call with its
    bookkeeping images — slices the data blocks' cipher column one
    record too early before cutting it into leaves, so the first block
    takes the start record's ciphertext.  The engine profile's reload
    must flag it (``roundtrip``).
``leaf-width-stale``
    A splice that rewrites a mirror leaf in place
    (``Leaf.replace``, :mod:`repro.core.leaves`) stops recomputing the
    leaf's character prefix sums, so the sums — and the char total the
    outer index takes from them — keep the old chunks' widths.  The
    engine profile's per-step document checks must flag it
    (``length-mismatch``: the mirror's length is the outer index's
    char total).
``skiplist-splice-skips-upper-span``
    ``IndexedSkipList.splice`` — the block index's only write besides
    the bulk ``extend`` — stops widening the character span of the
    upper-level pointers that pass over a newly threaded node
    (``upper[3 * i + 2] += width``, where ``upper`` is the node list
    itself: a node is one flat list of its per-level pointer and two
    spans, then its value and width).  Text and ranks stay right, so
    only the engine profile's per-step representation check must flag
    it (``index-checkrep``).
``unmask-fast-path-skips-count-check``
    The one-pass payload decode that rECB and RPC Dec take for an
    all-ASCII document (``blocks.unpack_ascii``) stops comparing each
    payload's unpadded length with its record's header count, so a
    record whose header byte lies comes back as a wrong chunk instead
    of failing.  Honest documents always match their headers, so no
    fuzz oracle sees it; the entry runs the property test that
    rewrites one header byte and expects the per-record error.
``catalog-lookup-drops-posting``
    The catalog server silently withholds the newest posting blob from
    every trapdoor lookup.  The workspace profile's plaintext word
    oracle must flag it (``search-mismatch``).
``mirror-wire-not-spliced``
    The mirror stops applying each update's cdelta to its kept wire
    text (``EncryptedDocument._apply_clusters``, ``LeafText.apply_delta``),
    so ``wire()`` keeps returning the pre-edit ciphertext.  The server-side stores still
    match the records, so only the engine profile's from-records
    reference check must flag it (``wire-divergence``).
``full-save-skips-mirror-splice``
    ``EncryptionEngine.save_full`` stops applying the posted text's
    delta to the trusted mirror, so a full save after a reopen re-sends
    the mirror's old wire.  The mirror stays self-consistent and its
    wire still matches its records, so only the session profile's
    full-save differential (decrypt the posted wire, compare with the
    posted plaintext) must flag it (``full-save-divergence``).
``unquote-fast-path-ignores-plus``
    The form codec's ``unquote`` fast path stops checking for ``+``, so
    ``a+b`` comes back unchanged instead of as ``a b``.  Ciphertext has
    no ``+``, but every plaintext save body with a space has one: the
    default profile's decrypt-versus-client-text oracle must flag it
    (``convergence``).
``witness-ignores-anchor-link``
    ``FreshnessMonitor.witness`` stops comparing the entry at the
    anchor's revision with the anchor itself — exactly the check that
    makes a *forged* self-consistent chain detectable, since a chain
    fetched from the anchor on starts with that entry.  The workspace
    profile's rollback-attacking server must flag it (``audit-miss``).
``witness-ignores-anchor-link-unit``
    The same mutant, caught by the workspace unit test that forges a
    self-consistent chain over rolled-back content.
``save-failure-keeps-delta-mode``
    The client's one save-failure handler
    (``ResilientClient._save_failed``) stops resetting full-save mode,
    so the save after a lost or refused one sends a delta against a
    server state nobody knows.  The ci profile's faulted sessions must
    flag it (``save-failed``: the later saves keep failing).
``kdf-memo-ignores-salt``
    ``KeyMaterial.from_password`` keys its derivation memo by the
    password alone, so a new salt under a known password gets the old
    key.  Every party in one process reads the same memo and stays
    self-consistent, so no fuzz oracle can see it; the entry runs the
    unit test that derives under a new salt instead, which must fail.
``blob-memo-ignores-trapdoor``
    ``WorkspaceIndexer.decrypt_blob`` keys its memo of authenticated
    postings by the blob alone, so a genuine posting the catalog serves
    under another word's trapdoor comes back as a match.  An honest
    catalog never does that, so no fuzz oracle sees it; the entry runs
    the unit test that replays a blob under a second trapdoor.
``area-decode-skips-tail-bits``
    The record-area decoder (``wire.decode_area``) stops rejecting a
    record whose last character sets one of the four zero tail bits,
    so non-canonical text decodes and the fetched text is no longer
    what ``wire()`` would encode.  Honest stores hold canonical text;
    the entry runs the wire test that feeds each non-canonical form.
``settle-skips-unrevisioned-save``
    ``PrivateEditingSession.settle`` stops landing its one extra save
    after a clean one on a backend without revisions, so a stale
    whole-file save that a reorder fault held in flight can land last
    and overwrite the recovered document.  The entry runs the unit
    test that counts the save exchanges a Bespin settle sends.

``leaf-midstate-not-truncated``
    The stored-wire text (``LeafText.apply_delta``, which the one-leaf
    and the multi-leaf paths both end in) stops dropping the SHA-1
    midstates from the first leaf an apply rewrote, so the next digest
    resumes from a chaining value of text that is gone (or returns the
    old digest).  The entry runs the property test that checks the
    gdocs store's digest over random multi-leaf histories.
``mirror-digest-not-truncated``
    The same line, caught where the mirror keeps its wire in a
    ``LeafText``: ``wire_hash`` — the extension's Ack check — answers
    for the old wire.  The ci profile's engine traces must flag it
    (``ack-divergence``).
``history-skips-inverse-step``
    The server's revision log (``RevisionHistory._versions``) skips the
    first inverse delta of every backward walk, so ``history[k]``
    returns the version after the one asked for.  Clients never read
    history, so no fuzz oracle sees it; the entry runs the property
    test that compares the log with a flat list of every version.
``whole-file-save-passes-plaintext``
    The mediator's whole-file branch
    (``GDocsExtension._rewrite_whole_file``, the Bespin/Buzzword save
    path) returns the save request as the client wrote it, so the
    server stores plaintext.  The service fuzz cannot name this one: it
    stops at the plaintext read back as ``crash-CiphertextFormatError``
    before its ``plaintext-leak`` oracle runs.  The entry runs the unit
    test that checks a Bespin save stores only ciphertext.

Mutations are applied textually so the tool exercises the real on-disk
pipeline end to end; the original tree is never touched.

Usage: ``python tools/mutation_smoke.py [--iters N] [--seed N]
[--only NAME]`` (also wired in as ``make mutation-smoke``, part of
``make fuzz``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


@dataclass(frozen=True)
class Mutation:
    """One injected bug and the check that must catch it: a ``repro
    fuzz`` run reporting violation ``kind``, or — when ``test`` names
    a pytest node — that test failing."""

    name: str
    file: str                    #: path under src/
    target: str                  #: exact line to replace (indent included)
    mutant: str                  #: the broken replacement
    fuzz_args: tuple             #: extra ``repro fuzz`` arguments
    iters: int                   #: iterations (clean and mutant runs)
    blind_to: str                #: what a survival would mean
    kind: str                    #: the violation kind that must fire
    test: str = ""               #: pytest node id run instead of fuzz


MUTATIONS = (
    # the ``want_payload`` re-derivation in ``load`` must NOT be
    # touched, so the verifier still expects the amendment the mutant
    # no longer writes
    Mutation(
        name="rpc-length-amendment",
        file="repro/core/rpc.py",
        target=("        payload = xor_bytes(state.payload_xor, "
                "_pack_length(state.length))"),
        mutant=("        payload = state.payload_xor"
                "  # MUTANT: length amendment dropped"),
        fuzz_args=("--profile", "engine", "--scheme", "rpc"),
        iters=25,
        blind_to="a broken RPC length amendment",
        kind="roundtrip",
    ),
    Mutation(
        name="fresh-enc-shifts-block-slicing",
        file="repro/core/document.py",
        target=("        self._leaves.extend(chunks, blob[data_start:data_end], "
                "leads, payloads)"),
        mutant=("        self._leaves.extend(chunks, blob[data_start - 16:"
                "data_end - 16], leads, payloads)"
                "  # MUTANT: blocks sliced one record early"),
        fuzz_args=("--profile", "engine"),
        iters=10,
        blind_to="an Enc that slices its blocks out of step",
        kind="roundtrip",
    ),
    Mutation(
        name="leaf-width-stale",
        file="repro/core/leaves.py",
        target="        self._refresh_ends(i)",
        mutant="        pass  # MUTANT: leaf prefix sums left stale",
        fuzz_args=("--profile", "engine"),
        iters=10,
        blind_to="a leaf splice that leaves its prefix sums stale",
        kind="length-mismatch",
    ),
    Mutation(
        name="mirror-wire-not-spliced",
        file="repro/core/document.py",
        target="            self._wire.apply_delta(cdelta)",
        mutant="            pass  # MUTANT: kept wire text not spliced",
        fuzz_args=("--profile", "engine"),
        iters=10,
        blind_to="a mirror wire that no longer tracks its records",
        kind="wire-divergence",
    ),
    Mutation(
        name="full-save-skips-mirror-splice",
        file="repro/core/transform.py",
        target="        mirror.apply_delta(delta)",
        mutant="        pass  # MUTANT: full save skips the mirror splice",
        fuzz_args=("--mode", "session", "--service", "gdocs"),
        iters=10,
        blind_to="a full save that re-sends the mirror unspliced",
        kind="full-save-divergence",
    ),
    Mutation(
        name="skiplist-splice-skips-upper-span",
        file="repro/datastructures/indexed_skiplist.py",
        target="                upper[3 * i + 2] += width",
        mutant="                pass  # MUTANT: upper-level span not widened",
        fuzz_args=("--profile", "engine"),
        iters=10,
        blind_to="a splice that leaves upper-level char spans stale",
        kind="index-checkrep",
    ),
    Mutation(
        name="unmask-fast-path-skips-count-check",
        file="repro/core/blocks.py",
        target=("    if payloads.max() >= 0x80 or not np.array_equal("
                "unpadded, claimed):"),
        mutant=("    if payloads.max() >= 0x80:"
                "  # MUTANT: header counts unchecked"),
        fuzz_args=(),
        iters=1,
        blind_to="a one-pass decode that trusts lying header counts",
        kind="",
        test=("tests/property/test_prop_unmask.py::TestRecb::"
              "test_lying_header_fails_alike"),
    ),
    Mutation(
        name="catalog-lookup-drops-posting",
        file="repro/services/catalog.py",
        target="            return list(self._postings.get(trapdoor, ()))",
        mutant=("            return list(self._postings.get("
                "trapdoor, ()))[:-1]  # MUTANT: posting withheld"),
        fuzz_args=("--profile", "workspace"),
        iters=6,
        blind_to="a catalog that withholds search postings",
        kind="search-mismatch",
    ),
    Mutation(
        name="unquote-fast-path-ignores-plus",
        file="repro/encoding/formenc.py",
        target='    plus = plus_spaces and "+" in text',
        mutant='    plus = False  # MUTANT: fast path ignores "+"',
        fuzz_args=(),
        iters=10,
        blind_to="a form decoder that leaves '+' undecoded",
        kind="convergence",
    ),
    Mutation(
        name="witness-ignores-anchor-link",
        file="repro/extension/freshness.py",
        target="            elif entries[at] != anchor:",
        mutant="            elif False:  # MUTANT: anchor ignored",
        fuzz_args=("--profile", "workspace"),
        iters=6,
        blind_to="a forged (self-consistent) audit chain",
        kind="audit-miss",
    ),
    Mutation(
        name="witness-ignores-anchor-link-unit",
        file="repro/extension/freshness.py",
        target="            elif entries[at] != anchor:",
        mutant="            elif False:  # MUTANT: anchor ignored",
        fuzz_args=(),
        iters=1,
        blind_to="a forged (self-consistent) audit chain",
        kind="",
        test=("tests/unit/test_workspace.py::TestAuditTrail::"
              "test_forged_self_consistent_chain_is_detected"),
    ),
    Mutation(
        name="save-failure-keeps-delta-mode",
        file="repro/client/resilient.py",
        target=("        self._did_full_save = False"
                "  # a failed save: full-save next time"),
        mutant="        pass  # MUTANT: failed save keeps delta mode",
        fuzz_args=("--profile", "ci"),
        iters=2000,
        blind_to="a failed save that leaves the client in delta mode",
        kind="save-failed",
    ),
    Mutation(
        name="kdf-memo-ignores-salt",
        file="repro/core/keys.py",
        target="    memo_key = (password, salt, iterations)",
        mutant="    memo_key = password  # MUTANT: salt and iterations ignored",
        fuzz_args=(),
        iters=1,
        blind_to="a key-derivation memo that ignores the salt",
        kind="",
        test=("tests/unit/test_keys.py::TestDerivationMemo::"
              "test_new_salt_with_the_same_password_derives_once"),
    ),
    Mutation(
        name="blob-memo-ignores-trapdoor",
        file="repro/extension/catalog.py",
        target="        key = (trapdoor, blob)",
        mutant="        key = blob  # MUTANT: memo ignores the trapdoor",
        fuzz_args=(),
        iters=1,
        blind_to="a search memo that answers a blob under any trapdoor",
        kind="",
        test=("tests/unit/test_workspace.py::TestSearchMemo::"
              "test_blob_served_under_another_trapdoor_is_dropped"),
    ),
    Mutation(
        name="area-decode-skips-tail-bits",
        file="repro/encoding/wire.py",
        target="    if (tail & ((1 << _PAD_BITS) - 1)).any():",
        mutant="    if False:  # MUTANT: tail bits unchecked",
        fuzz_args=(),
        iters=1,
        blind_to="a record-area decoder that accepts set tail bits",
        kind="",
        test=("tests/unit/test_wire.py::TestRecordArea::"
              "test_only_canonical_text_decodes"),
    ),
    Mutation(
        name="settle-skips-unrevisioned-save",
        file="repro/extension/session.py",
        target=("        if outcome.clean and not "
                "backend.capabilities.revisioned:"),
        mutant="        if False:  # MUTANT: no extra whole-file save",
        fuzz_args=(),
        iters=1,
        blind_to="a settle that lets a stale whole-file save land last",
        kind="",
        test=("tests/unit/test_session_settle.py::"
              "test_settle_on_bespin_lands_one_extra_full_save"),
    ),
    Mutation(
        name="leaf-midstate-not-truncated",
        file="repro/core/leaves.py",
        target="        del self._states[first:]",
        mutant="        pass  # MUTANT: stale midstates kept after a splice",
        fuzz_args=(),
        iters=1,
        blind_to="a store whose Ack hash resumes from stale midstates",
        kind="",
        test=("tests/property/test_prop_ack_hash.py::"
              "test_store_digest_is_content_hash[64]"),
    ),
    Mutation(
        name="mirror-digest-not-truncated",
        file="repro/core/leaves.py",
        target="        del self._states[first:]",
        mutant="        pass  # MUTANT: stale wire midstates kept",
        fuzz_args=("--profile", "ci"),
        iters=40,
        blind_to="a mirror whose Ack check resumes from stale midstates",
        kind="ack-divergence",
    ),
    Mutation(
        name="history-skips-inverse-step",
        file="repro/services/gdocs/storage.py",
        target="                text = Delta.parse(backs[i]).apply(text)",
        mutant=("                text = text if i == start - 1 else "
                "Delta.parse(backs[i]).apply(text)  # MUTANT: step skipped"),
        fuzz_args=(),
        iters=1,
        blind_to="a revision log that skips one inverse step",
        kind="",
        test=("tests/property/test_prop_revision_log.py::"
              "test_history_matches_a_flat_list[None]"),
    ),
    Mutation(
        name="whole-file-save-passes-plaintext",
        file="repro/extension/gdocs_ext.py",
        target="        return request.with_body(body)",
        mutant="        return request  # MUTANT: whole-file save unencrypted",
        fuzz_args=(),
        iters=1,
        blind_to="a whole-file save that reaches the server in plaintext",
        kind="",
        test=("tests/unit/test_bespin_buzzword.py::"
              "TestBespinPrivateEditing::test_server_sees_only_ciphertext"),
    ),
)


def run_check(pythonpath: Path, mutation: Mutation, iters: int,
             seed: int) -> tuple[int, str]:
    """One ``repro fuzz`` (or, for a ``test`` entry, pytest) subprocess
    against the given source tree."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    if mutation.test:
        command = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                   mutation.test]
    else:
        command = ["-m", "repro", "fuzz", *mutation.fuzz_args,
                   "--iters", str(iters), "--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, *command],
        env=env, capture_output=True, text=True, cwd=str(REPO),
    )
    return proc.returncode, proc.stdout + proc.stderr


def check_mutation(mutation: Mutation, iters: int, seed: int) -> int:
    """Run clean vs mutant for one table entry; 0 iff the bug is caught."""
    path = SRC / mutation.file
    source = path.read_text(encoding="utf-8")
    if source.count(mutation.target) != 1:
        print(f"error: [{mutation.name}] expected exactly one target "
              f"line in {mutation.file}; found "
              f"{source.count(mutation.target)} (did the code change?)",
              file=sys.stderr)
        return 2

    code, output = run_check(SRC, mutation, iters, seed)
    if code != 0:
        print(f"error: [{mutation.name}] harness failed on the CLEAN "
              f"tree — fix that before trusting a mutation result:",
              file=sys.stderr)
        print(output, file=sys.stderr)
        return 2
    print(f"[{mutation.name}] clean tree:  exit 0 over {iters} "
          f"iterations (good)")

    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as tmp:
        mutant_src = Path(tmp) / "src"
        shutil.copytree(SRC, mutant_src)
        mutant_file = mutant_src / mutation.file
        mutant_file.write_text(
            source.replace(mutation.target, mutation.mutant),
            encoding="utf-8")
        code, output = run_check(mutant_src, mutation, iters, seed)

    if code == 0:
        print(f"MUTATION SURVIVED: [{mutation.name}] ran the mutant "
              f"tree without a single violation — the oracle is blind "
              f"to {mutation.blind_to}.", file=sys.stderr)
        return 1
    marker = (f"FAILED {mutation.test}" if mutation.test
              else f"[{mutation.kind}]")
    caught = [line for line in output.splitlines() if marker in line]
    if not caught:
        print(f"MUTATION CAUGHT BY THE WRONG ORACLE: [{mutation.name}] "
              f"the mutant failed, but never with {marker}:",
              file=sys.stderr)
        print(output, file=sys.stderr)
        return 1
    print(f"[{mutation.name}] mutant tree: exit {code} — harness "
          f"caught {mutation.blind_to}")
    print(f"  e.g. {caught[0].strip()[:100]}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=0,
                        help="override fuzz iterations for every "
                             "mutation (default: each entry's own "
                             "count; a handful suffices — every trace "
                             "ends in the relevant oracle)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", metavar="NAME",
                        choices=[m.name for m in MUTATIONS],
                        help="run a single mutation from the table")
    args = parser.parse_args(argv)

    worst = 0
    for mutation in MUTATIONS:
        if args.only and mutation.name != args.only:
            continue
        iters = args.iters or mutation.iters
        worst = max(worst, check_mutation(mutation, iters, args.seed))
    if worst == 0:
        print("mutation smoke: PASS (the oracle has teeth)")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
