"""Property tests over the text codecs and wire format."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import base32, formenc
from repro.encoding.wire import (
    RECORD_CHARS,
    Record,
    decode_records,
    encode_records,
)
from repro.errors import ProtocolError
from repro.fuzz.generators import corpus_strings


class TestBase32:
    @settings(max_examples=300)
    @given(st.binary(max_size=100))
    def test_round_trip(self, data):
        assert base32.decode(base32.encode(data)) == data

    @settings(max_examples=300)
    @given(st.binary(max_size=100))
    def test_padded_round_trip(self, data):
        assert base32.decode(base32.encode(data, pad=True)) == data

    @settings(max_examples=200)
    @given(st.binary(max_size=100))
    def test_length_formula(self, data):
        assert len(base32.encode(data)) == base32.encoded_length(len(data))

    @settings(max_examples=200)
    @given(st.binary(max_size=60))
    def test_alphabet_only(self, data):
        assert set(base32.encode(data)) <= set(base32.ALPHABET)


class TestFormEncoding:
    @settings(max_examples=300)
    @given(st.text(max_size=80).filter(lambda s: "\x00" not in s or True))
    def test_quote_round_trip(self, text):
        assert formenc.unquote(formenc.quote(text)) == text

    @settings(max_examples=200)
    @given(st.dictionaries(st.text(min_size=1, max_size=10),
                           st.text(max_size=30), max_size=5))
    def test_form_round_trip(self, fields):
        assert formenc.parse_form(formenc.encode_form(fields)) == fields


# -- fast path == slow path == the retained per-character reference ----------

#: what each codec entry point returned: ("ok", text), ("protocol", None)
#: for a ProtocolError, or ("unicode", None) for a UnicodeEncodeError
def _outcome(fn, text: str, plus_spaces: bool) -> tuple[str, str | None]:
    try:
        return "ok", fn(text, plus_spaces)
    except ProtocolError:
        return "protocol", None
    except UnicodeEncodeError:
        return "unicode", None


_ASCII_HEX = set("0123456789abcdefABCDEF")


def _has_lone_surrogate(text: str) -> bool:
    return any("\ud800" <= ch <= "\udfff" for ch in text)


def _int_accepts(pair: str) -> bool:
    try:
        int(pair, 16)
    except ValueError:
        return False
    return True


def _lenient_escape(text: str) -> bool:
    """Does ``text`` hold an escape the reference decodes only because
    ``int(pair, 16)`` tolerates a sign, whitespace or a non-ASCII digit
    (``%+1``, ``% f``, ``%-0``)?"""
    return any(
        len(pair) == 2 and _int_accepts(pair) and not set(pair) <= _ASCII_HEX
        for pair in (text[m.end():m.end() + 2]
                     for m in re.finditer("%", text))
    )


#: the only inputs on which the codec may disagree with the reference,
#: and then only by raising ProtocolError where the reference did not
STRICTNESS_CASES = {
    "lenient int() escape (unquote only)": _lenient_escape,
    "lone surrogate (UnicodeEncodeError in the reference)":
        _has_lone_surrogate,
}


def _check_codec(public, slow, reference, text: str,
                 plus_spaces: bool) -> None:
    got = _outcome(public, text, plus_spaces)
    assert got == _outcome(slow, text, plus_spaces)
    assert got[0] != "unicode"
    want = _outcome(reference, text, plus_spaces)
    if got != want:
        assert got[0] == "protocol", (text, got, want)
        assert any(case(text) for case in STRICTNESS_CASES.values()), \
            (text, got, want)


def _check_quote(text: str, plus_spaces: bool) -> None:
    _check_codec(formenc.quote, formenc._quote_slow, formenc._quote_scalar,
                 text, plus_spaces)


def _check_unquote(text: str, plus_spaces: bool) -> None:
    _check_codec(formenc.unquote, formenc._unquote_slow,
                 formenc._unquote_scalar, text, plus_spaces)


#: characters that build well-formed and malformed escapes alike
_ESCAPE_ALPHABET = st.sampled_from(
    "%+ 09afAFgz-_.~*\t\u0661\u00e9\u6587\ud800\udfff")
_ANY_TEXT = st.one_of(
    st.text(max_size=60),
    st.text(_ESCAPE_ALPHABET, max_size=40),
    st.text(st.characters(blacklist_categories=()), max_size=20),
)
FUZZ_CORPUS = corpus_strings(4242, 64)


class TestFormCodecAgreesWithReference:
    @settings(max_examples=400)
    @given(_ANY_TEXT, st.booleans())
    def test_quote(self, text, plus_spaces):
        _check_quote(text, plus_spaces)

    @settings(max_examples=400)
    @given(_ANY_TEXT, st.booleans())
    def test_unquote(self, text, plus_spaces):
        _check_unquote(text, plus_spaces)

    @settings(max_examples=200)
    @given(st.text(max_size=60), st.booleans())
    def test_unquote_of_quoted(self, text, plus_spaces):
        _check_unquote(formenc.quote(text, plus_spaces), plus_spaces)

    @pytest.mark.parametrize("plus_spaces", [True, False])
    def test_fuzz_corpus(self, plus_spaces):
        for text in FUZZ_CORPUS:
            _check_quote(text, plus_spaces)
            _check_unquote(text, plus_spaces)
            _check_unquote(formenc.quote(text, plus_spaces), plus_spaces)

    @pytest.mark.parametrize("text", [
        "%+1", "% f", "%-0", "%f ", "%\t1", "%\u0661\u0662",
        "\ud800", "a%41\udfff", "%2B\ud800",
    ])
    @pytest.mark.parametrize("plus_spaces", [True, False])
    def test_listed_strictness_cases(self, text, plus_spaces):
        """Each listed case really is one the codec rejects and the
        reference does not (so the exemption above is not vacuous)."""
        assert any(case(text) for case in STRICTNESS_CASES.values())
        assert _outcome(formenc.unquote, text, plus_spaces)[0] == "protocol"
        assert _outcome(formenc._unquote_scalar, text,
                        plus_spaces)[0] != "protocol"


records_strategy = st.lists(
    st.builds(
        Record,
        char_count=st.integers(0, 255),
        block=st.binary(min_size=16, max_size=16),
    ),
    max_size=30,
)


class TestWire:
    @settings(max_examples=200)
    @given(records_strategy)
    def test_record_area_round_trip(self, records):
        area = encode_records(records)
        assert len(area) == len(records) * RECORD_CHARS
        assert decode_records(area) == records

    @settings(max_examples=100)
    @given(records_strategy, st.data())
    def test_splice_equals_list_splice(self, records, data):
        """Cutting records out of the text area equals cutting them out
        of the list — the exactness cdeltas depend on."""
        area = encode_records(records)
        i = data.draw(st.integers(0, len(records)))
        j = data.draw(st.integers(i, len(records)))
        spliced = area[: i * RECORD_CHARS] + area[j * RECORD_CHARS :]
        assert decode_records(spliced) == records[:i] + records[j:]

    @settings(max_examples=100)
    @given(records_strategy, records_strategy)
    def test_concatenation(self, a, b):
        assert decode_records(encode_records(a) + encode_records(b)) == a + b
