"""Form/percent encoding round trips and error handling."""

import pytest

from repro import obs
from repro.encoding.formenc import encode_form, parse_form, quote, unquote
from repro.errors import ProtocolError


class TestQuote:
    @pytest.mark.parametrize("text", [
        "", "plain", "with space", "tab\tand\nnewline",
        "=&%+?#", "unicode: é 中文 🎉", "a" * 500,
    ])
    def test_round_trip(self, text):
        assert unquote(quote(text)) == text

    def test_space_becomes_plus(self):
        assert quote("a b") == "a+b"

    def test_plus_is_escaped(self):
        assert "+" not in quote("a+b").replace("%2B", "")

    def test_unreserved_untouched(self):
        text = "AZaz09-_.~*"
        assert quote(text) == text

    def test_no_plus_mode(self):
        assert quote("a b", plus_spaces=False) == "a%20b"
        assert unquote("a%20b", plus_spaces=False) == "a b"


class TestUnquoteErrors:
    def test_truncated_escape(self):
        with pytest.raises(ProtocolError):
            unquote("abc%2")

    def test_invalid_hex(self):
        with pytest.raises(ProtocolError):
            unquote("%zz")

    def test_invalid_utf8(self):
        with pytest.raises(ProtocolError):
            unquote("%ff%fe")

    # int(pair, 16) tolerates a sign, surrounding whitespace and
    # non-ASCII decimal digits; an escape is exactly two ASCII hex digits
    @pytest.mark.parametrize("text", [
        "%+1", "% f", "%-0", "%f ", "%\t1", "%\u0661\u0662",
    ])
    @pytest.mark.parametrize("plus_spaces", [True, False])
    def test_escape_must_be_two_ascii_hex_digits(self, text, plus_spaces):
        with pytest.raises(ProtocolError):
            unquote(text, plus_spaces=plus_spaces)

    @pytest.mark.parametrize("text", ["\ud800", "a\udfffb", "%41\ud800"])
    def test_lone_surrogate_is_a_protocol_error(self, text):
        with pytest.raises(ProtocolError):
            unquote(text)
        with pytest.raises(ProtocolError):
            quote(text)

    def test_lone_surrogate_field_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            encode_form({"k": "x\ud800"})


class TestFastPaths:
    def test_unreserved_text_is_returned_as_is(self):
        text = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567" * 64
        assert quote(text) is text
        assert unquote(text) is text

    def test_plus_is_decoded_without_percent(self):
        assert unquote("a+b") == "a b"
        assert unquote("a+b", plus_spaces=False) == "a+b"

    def test_non_ascii_without_escapes_round_trips(self):
        assert unquote("é文") == "é文"


class TestForm:
    def test_round_trip(self):
        fields = {"docContents": "hello & goodbye", "rev": "3",
                  "delta": "=2\t+x y", "weird key": "=value="}
        assert parse_form(encode_form(fields)) == fields

    def test_preserves_order(self):
        body = encode_form({"b": "1", "a": "2"})
        assert body.startswith("b=1")

    def test_empty_body(self):
        assert parse_form("") == {}

    def test_empty_value(self):
        assert parse_form("k=") == {"k": ""}

    def test_missing_equals_rejected(self):
        with pytest.raises(ProtocolError):
            parse_form("justakey")

    def test_last_key_wins(self):
        assert parse_form("k=1&k=2") == {"k": "2"}

    def test_bytes_decoded_counts_each_body(self):
        body = encode_form({"a": "1 2", "b": "x"})
        with obs.capture() as cap:
            parse_form(body)
            parse_form(body)
        assert cap["formenc.bytes_decoded"] == 2 * len(body)
