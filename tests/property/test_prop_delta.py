"""Property tests over the delta language and diff derivation."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delta import Delete, Delta, Insert, Retain, common_affixes
from repro.workloads.diff import myers_delta, simple_delta

TEXT_ALPHABET = string.ascii_lowercase + " .é中"

documents = st.text(alphabet=TEXT_ALPHABET, max_size=60)


@st.composite
def delta_for(draw, document):
    """A random delta valid against ``document``."""
    ops = []
    cursor = 0          # cursor over the evolving document
    length = len(document)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["retain", "insert", "delete"]))
        if kind == "retain" and cursor < length:
            n = draw(st.integers(1, length - cursor))
            ops.append(Retain(n))
            cursor += n
        elif kind == "insert":
            text = draw(st.text(alphabet=TEXT_ALPHABET, min_size=1,
                                max_size=10))
            ops.append(Insert(text))
            cursor += len(text)
            length += len(text)
        elif kind == "delete" and cursor < length:
            n = draw(st.integers(1, length - cursor))
            ops.append(Delete(n))
            length -= n
    return Delta(ops)


@st.composite
def doc_and_delta(draw):
    document = draw(documents)
    return document, draw(delta_for(document))


class TestDeltaProperties:
    @settings(max_examples=200)
    @given(doc_and_delta())
    def test_parse_serialize_round_trip(self, pair):
        _, delta = pair
        assert Delta.parse(delta.serialize()) == delta

    @settings(max_examples=200)
    @given(doc_and_delta())
    def test_canonical_preserves_effect(self, pair):
        document, delta = pair
        assert delta.canonical().apply(document) == delta.apply(document)

    @settings(max_examples=200)
    @given(doc_and_delta())
    def test_canonical_idempotent(self, pair):
        _, delta = pair
        once = delta.canonical()
        assert once.canonical() == once

    @settings(max_examples=200)
    @given(doc_and_delta())
    def test_length_change_consistent(self, pair):
        document, delta = pair
        assert len(delta.apply(document)) == (
            len(document) + delta.length_change
        )

    @settings(max_examples=200)
    @given(doc_and_delta())
    def test_source_edits_replay(self, pair):
        """Replaying the source-coordinate edits reproduces apply()."""
        document, delta = pair
        out = document
        shift = 0
        from repro.core.delta import SourceInsert
        for edit in delta.source_edits():
            pos = edit.pos + shift
            if isinstance(edit, SourceInsert):
                out = out[:pos] + edit.text + out[pos:]
                shift += len(edit.text)
            else:
                out = out[:pos] + out[pos + edit.count:]
                shift -= edit.count
        assert out == delta.apply(document)

    @settings(max_examples=200)
    @given(doc_and_delta())
    def test_span_bounds_edits(self, pair):
        document, delta = pair
        span = delta.source_span()
        if span is None:
            assert delta.is_identity or not delta.ops
            return
        lo, hi = span
        assert 0 <= lo <= hi <= len(document) + delta.chars_inserted
        for edit in delta.source_edits():
            assert lo <= edit.pos <= hi


class TestDiffProperties:
    @settings(max_examples=200)
    @given(documents, documents)
    def test_simple_delta_transforms(self, old, new):
        assert simple_delta(old, new).apply(old) == new

    @settings(max_examples=200)
    @given(documents, documents)
    def test_myers_delta_transforms(self, old, new):
        assert myers_delta(old, new).apply(old) == new

    @settings(max_examples=100)
    @given(documents, documents)
    def test_myers_never_worse_than_simple(self, old, new):
        m = myers_delta(old, new)
        s = simple_delta(old, new)
        assert (m.chars_inserted + m.chars_deleted
                <= s.chars_inserted + s.chars_deleted)

    @settings(max_examples=100)
    @given(documents)
    def test_diff_of_identical_is_identity(self, text):
        assert myers_delta(text, text).is_identity
        assert simple_delta(text, text).is_identity


def brute_affixes(old, new):
    limit = min(len(old), len(new))
    prefix = 0
    while prefix < limit and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and old[-1 - suffix] == new[-1 - suffix]:
        suffix += 1
    return prefix, suffix


#: repeated documents: long enough to cross the 64-char first slice,
#: and full of runs that tempt prefix and suffix to overlap
long_documents = st.builds(lambda text, times: text * times,
                           documents, st.integers(1, 40))


@st.composite
def related_pair(draw):
    document = draw(long_documents)
    return document, draw(delta_for(document)).apply(document)


class TestCommonAffixesProperties:
    @settings(max_examples=300)
    @given(related_pair())
    def test_related_texts_match_brute_force(self, pair):
        old, new = pair
        assert common_affixes(old, new) == brute_affixes(old, new)
        assert Delta.between(old, new).apply(old) == new

    @settings(max_examples=200)
    @given(long_documents, long_documents)
    def test_unrelated_texts_match_brute_force(self, old, new):
        prefix, suffix = common_affixes(old, new)
        assert (prefix, suffix) == brute_affixes(old, new)
        assert prefix + suffix <= min(len(old), len(new))
        between = Delta.between(old, new)
        assert between.apply(old) == new
        assert (old == new) == (between == Delta(()))
