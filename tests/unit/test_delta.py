"""The delta language: parsing, application, canonical form,
coordinate transforms."""

import pytest

from repro.core.delta import (
    Delete,
    Delta,
    Insert,
    Retain,
    SourceDelete,
    SourceInsert,
    common_affixes,
)
from repro.errors import DeltaApplicationError, DeltaSyntaxError


class TestPaperExamples:
    def test_example_one(self):
        assert Delta.parse("=2\t-5").apply("abcdefg") == "ab"

    def test_example_two(self):
        assert Delta.parse("=2\t-3\t+uv\t=2\t+w").apply("abcdefg") == "abuvfgw"


class TestParseSerialize:
    @pytest.mark.parametrize("text", [
        "", "=5", "-3", "+hello", "=1\t+a\t-2\t=3\t+bc",
    ])
    def test_round_trip(self, text):
        assert Delta.parse(text).serialize() == text

    def test_tab_in_insert_payload(self):
        delta = Delta([Insert("a\tb")])
        assert Delta.parse(delta.serialize()) == delta
        assert delta.apply("") == "a\tb"

    def test_percent_in_insert_payload(self):
        delta = Delta([Insert("100%\t+fun")])
        assert Delta.parse(delta.serialize()).apply("") == "100%\t+fun"

    @pytest.mark.parametrize("wire,text", [
        ("+%2509", "%09"), ("+%25%09", "%\t"), ("+%09%25", "\t%"),
        ("+a%2525b", "a%25b"), ("+%25%2509", "%%09"),
    ])
    def test_escapes_decode_left_to_right(self, wire, text):
        assert Delta.parse(wire) == Delta([Insert(text)])

    @pytest.mark.parametrize("bad", ["+%", "+%2", "+%%25", "+%0A", "+a%2%25"])
    def test_rejects_bad_escapes(self, bad):
        with pytest.raises(DeltaSyntaxError, match="bad escape"):
            Delta.parse(bad)

    @pytest.mark.parametrize("bad", [
        "=", "-", "+", "=x", "-1.5", "=0", "-0", "?3", "=1\t\t=2", "= 1",
    ])
    def test_rejects_garbage(self, bad):
        with pytest.raises(DeltaSyntaxError):
            Delta.parse(bad)

    def test_rejects_bad_ops_at_construction(self):
        with pytest.raises(DeltaSyntaxError):
            Delta([Retain(0)])
        with pytest.raises(DeltaSyntaxError):
            Delta([Delete(-1)])
        with pytest.raises(DeltaSyntaxError):
            Delta([Insert("")])


class TestApply:
    def test_identity(self):
        assert Delta(()).apply("abc") == "abc"

    def test_trailing_text_preserved(self):
        assert Delta([Insert("X")]).apply("abc") == "Xabc"

    def test_retain_past_end(self):
        with pytest.raises(DeltaApplicationError):
            Delta([Retain(4)]).apply("abc")

    def test_delete_past_end(self):
        with pytest.raises(DeltaApplicationError):
            Delta([Retain(2), Delete(2)]).apply("abc")

    def test_delete_after_insert_consumes_original(self):
        # "+x -1" on "ab": insert then delete the original 'a'
        assert Delta([Insert("x"), Delete(1)]).apply("ab") == "xb"


class TestProperties:
    def test_length_change(self):
        delta = Delta([Retain(1), Delete(2), Insert("wxyz")])
        assert delta.chars_deleted == 2
        assert delta.chars_inserted == 4
        assert delta.length_change == 2

    def test_is_identity(self):
        assert Delta(()).is_identity
        assert Delta([Retain(5)]).is_identity
        assert not Delta([Insert("x")]).is_identity

    def test_bool(self):
        assert not Delta(())
        assert Delta([Retain(1)])


class TestCanonical:
    def test_merges_runs(self):
        delta = Delta([Retain(1), Retain(2), Insert("a"), Insert("b")])
        assert delta.canonical() == Delta([Retain(3), Insert("ab")])

    def test_delete_before_insert(self):
        delta = Delta([Insert("x"), Delete(2)])
        assert delta.canonical() == Delta([Delete(2), Insert("x")])

    def test_drops_trailing_retain(self):
        delta = Delta([Insert("x"), Retain(5)])
        assert delta.canonical() == Delta([Insert("x")])

    def test_pure_retains_become_empty(self):
        assert Delta([Retain(3), Retain(4)]).canonical() == Delta(())

    def test_semantics_preserved(self):
        doc = "abcdefgh"
        delta = Delta([Insert("1"), Delete(1), Insert("2"), Retain(2),
                       Delete(1), Retain(1), Retain(1)])
        assert delta.canonical().apply(doc) == delta.apply(doc)

    def test_canonical_is_idempotent(self):
        delta = Delta([Insert("1"), Delete(1), Retain(2), Delete(1)])
        once = delta.canonical()
        assert once.canonical() == once

    def test_equivalent_deltas_canonicalize_identically(self):
        """The covert-channel property: same effect → same canonical form."""
        a = Delta([Insert("ab")])
        b = Delta([Insert("a"), Insert("b")])
        assert a.canonical() == b.canonical()


class TestSourceCoordinates:
    def test_source_edits(self):
        delta = Delta([Retain(2), Delete(3), Insert("uv"), Retain(2),
                       Insert("w")])
        assert delta.source_edits() == [
            SourceDelete(2, 3),
            SourceInsert(5, "uv"),
            SourceInsert(7, "w"),
        ]

    def test_source_span(self):
        delta = Delta([Retain(2), Delete(3), Insert("uv")])
        assert delta.source_span() == (2, 5)

    def test_pure_insert_span(self):
        assert Delta([Retain(4), Insert("x")]).source_span() == (4, 4)

    def test_identity_span(self):
        assert Delta([Retain(4)]).source_span() is None


class TestBuilders:
    def test_insertion(self):
        assert Delta.insertion(0, "x").apply("ab") == "xab"
        assert Delta.insertion(2, "x").apply("ab") == "abx"

    def test_deletion(self):
        assert Delta.deletion(1, 1).apply("abc") == "ac"

    def test_replacement(self):
        assert Delta.replacement(1, 1, "XY").apply("abc") == "aXYc"

    def test_replacement_degenerate_forms(self):
        assert Delta.replacement(0, 0, "X").apply("ab") == "Xab"
        assert Delta.replacement(0, 2, "").apply("ab") == ""


def brute_affixes(old, new):
    """Reference: per-character prefix, then suffix within the rest."""
    limit = min(len(old), len(new))
    prefix = 0
    while prefix < limit and old[prefix] == new[prefix]:
        prefix += 1
    suffix = 0
    while suffix < limit - prefix and old[-1 - suffix] == new[-1 - suffix]:
        suffix += 1
    return prefix, suffix


class TestCommonAffixes:
    @pytest.mark.parametrize("old,new", [
        ("", ""), ("", "abc"), ("abc", ""),
        ("abc", "abc"), ("abc", "abXc"), ("abXc", "abc"),
        ("aaa", "aa"), ("aa", "aaa"), ("abab", "ab"), ("ab", "abab"),
        ("aaaa", "bbbb"), ("héllo wörld", "héllo wörld!"),
        ("中文文本", "中文本"), ("😀😀", "😀"),
    ])
    def test_matches_brute_force(self, old, new):
        prefix, suffix = common_affixes(old, new)
        assert (prefix, suffix) == brute_affixes(old, new)
        assert prefix + suffix <= min(len(old), len(new))
        assert Delta.between(old, new).apply(old) == new

    @pytest.mark.parametrize("text", ["", "x", "abab", "中文" * 100])
    def test_identical_texts_give_the_empty_delta(self, text):
        assert Delta.between(text, text) == Delta(())

    def test_overlapping_runs_never_exceed_the_shorter_text(self):
        assert common_affixes("aaa", "aa") == (2, 0)
        assert common_affixes("abab", "ab") == (2, 0)
        assert Delta.between("aaa", "aa") == Delta([Retain(2), Delete(1)])
        assert Delta.between("abab", "ab") == Delta([Retain(2), Delete(2)])

    def test_empty_sides(self):
        assert Delta.between("", "new") == Delta([Insert("new")])
        assert Delta.between("old", "") == Delta([Delete(3)])

    @pytest.mark.parametrize("pos", [0, 1, 63, 64, 65, 127, 128, 191,
                                     192, 4095, 4096, 9998, 9999])
    def test_long_texts_around_the_gallop_boundaries(self, pos):
        """The search compares slices of doubling width (64, 128, ...)
        and bisects the first that differs: an edit at any offset, on
        either side of a width boundary, must land exactly."""
        old = "".join(chr(0x61 + (i * 7) % 26) for i in range(10_000))
        for new in (old[:pos] + "é" + old[pos:],
                    old[:pos] + old[pos + 1:],
                    old[:pos] + "Z" + old[pos + 1:]):
            assert common_affixes(old, new) == brute_affixes(old, new)
            assert Delta.between(old, new).apply(old) == new
