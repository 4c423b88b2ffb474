"""Extension components in isolation: vault, countermeasures, and the
GDocs mediator's per-message behaviour."""

import random

import pytest

from repro.core.delta import Delete, Delta, Insert, Retain
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import looks_encrypted
from repro.errors import PasswordError
from repro.extension.countermeasures import PAD_FIELD, Countermeasures
from repro.extension.gdocs_ext import GDocsExtension
from repro.extension.passwords import PasswordVault
from repro.net.http import HttpRequest
from repro.services.gdocs import protocol


class TestPasswordVault:
    def test_register_get(self):
        vault = PasswordVault()
        vault.register("d", "pw")
        assert vault.knows("d")
        assert vault.get("d") == "pw"

    def test_prompt_fallback(self):
        vault = PasswordVault(prompt=lambda doc: f"pw-for-{doc}")
        assert vault.get("x") == "pw-for-x"
        assert vault.knows("x")  # cached

    def test_prompt_declined(self):
        vault = PasswordVault(prompt=lambda doc: None)
        with pytest.raises(PasswordError):
            vault.get("x")

    def test_no_prompt(self):
        with pytest.raises(PasswordError):
            PasswordVault().get("x")

    def test_empty_password_rejected(self):
        with pytest.raises(PasswordError):
            PasswordVault().register("d", "")

    def test_forget(self):
        vault = PasswordVault({"d": "pw"})
        vault.forget("d")
        assert not vault.knows("d")


class TestCountermeasures:
    def test_none_is_inert(self):
        cm = Countermeasures.none()
        delta = Delta([Insert("a"), Insert("b")])
        assert cm.shape_delta(delta) == delta
        assert cm.pad_fields({"k": "v"}) == {"k": "v"}
        assert cm.delay() == 0.0

    def test_canonicalization(self):
        cm = Countermeasures(canonicalize_deltas=True)
        shaped = cm.shape_delta(Delta([Insert("a"), Insert("b")]))
        assert shaped == Delta([Insert("ab")])

    def test_padding_adds_field(self):
        cm = Countermeasures(pad_requests=True, rng=random.Random(1))
        fields = cm.pad_fields({"k": "v"})
        assert fields["k"] == "v"
        assert PAD_FIELD in fields

    def test_padding_varies(self):
        cm = Countermeasures(pad_requests=True, rng=random.Random(2))
        lengths = {len(cm.pad_fields({})[PAD_FIELD]) for _ in range(20)}
        assert len(lengths) > 5

    def test_delay_bounded(self):
        cm = Countermeasures(random_delay=True, delay_max_seconds=0.25,
                             rng=random.Random(3))
        assert all(0 <= cm.delay() <= 0.25 for _ in range(50))

    def test_all_preset(self):
        cm = Countermeasures.all(seed=1)
        assert cm.canonicalize_deltas and cm.pad_requests and cm.random_delay


@pytest.fixture
def ext():
    vault = PasswordVault({"doc": "pw"})
    return GDocsExtension(vault, scheme="recb", block_chars=8,
                          rng=DeterministicRandomSource(4))


def _save_request(body_fields):
    from repro.encoding.formenc import encode_form
    return HttpRequest(
        "POST", "http://docs.google.com/Doc?docID=doc",
        body=encode_form(body_fields),
    )


class TestMediatorRequests:
    def test_full_save_encrypted(self, ext):
        request = _save_request({
            protocol.F_SID: "s1", protocol.F_REV: "0",
            protocol.F_DOC_CONTENTS: "top secret",
        })
        out = ext.on_request(request)
        assert out is not None
        assert looks_encrypted(out.form[protocol.F_DOC_CONTENTS])
        assert "secret" not in out.body
        assert out.form[protocol.F_SID] == "s1"  # control fields intact

    def test_delta_transformed(self, ext):
        ext.on_request(_save_request({
            protocol.F_SID: "s1", protocol.F_REV: "0",
            protocol.F_DOC_CONTENTS: "hello world",
        }))
        out = ext.on_request(_save_request({
            protocol.F_SID: "s1", protocol.F_REV: "1",
            protocol.F_DELTA: "=5\t+ there",
        }))
        cdelta = Delta.parse(out.form[protocol.F_DELTA])
        assert "there" not in out.body
        assert any(isinstance(op, Insert) for op in cdelta.ops)
        assert ext.engine("doc").mirror.text == "hello there world"

    def test_open_passes_through(self, ext):
        request = HttpRequest("POST", "http://h/Doc?docID=doc")
        assert ext.on_request(request) is request

    def test_get_passes_through(self, ext):
        request = HttpRequest("GET", "http://h/Doc?docID=doc")
        assert ext.on_request(request) is request

    @pytest.mark.parametrize("action", [
        "spellcheck", "translate", "export", "drawing",
    ])
    def test_feature_requests_dropped(self, ext, action):
        request = HttpRequest(
            "POST", f"http://h/Doc?docID=doc&action={action}"
        )
        assert ext.on_request(request) is None

    def test_unknown_path_dropped(self, ext):
        assert ext.on_request(
            HttpRequest("POST", "http://h/Evil?docID=doc", body="x=1")
        ) is None

    def test_unknown_post_shape_dropped(self, ext):
        assert ext.on_request(_save_request({"mystery": "field"})) is None

    def test_missing_doc_id_dropped(self, ext):
        assert ext.on_request(HttpRequest("POST", "http://h/Doc")) is None

    def test_unknown_method_dropped(self, ext):
        assert ext.on_request(
            HttpRequest("PATCH", "http://h/Doc?docID=doc")
        ) is None


class TestMediatorResponses:
    def test_ack_neutralized(self, ext):
        from repro.net.http import HttpResponse
        from repro.encoding.formenc import encode_form
        request = _save_request({
            protocol.F_SID: "s1", protocol.F_REV: "0",
            protocol.F_DOC_CONTENTS: "data",
        })
        mediated = ext.on_request(request)
        cipher = mediated.form[protocol.F_DOC_CONTENTS]
        ack = HttpResponse(200, encode_form({
            protocol.A_STATUS: "ok", protocol.A_REV: "1",
            protocol.A_CONTENT: cipher,
            protocol.A_CONTENT_HASH: protocol.content_hash(cipher),
            protocol.A_CONFLICT: "0",
        }))
        out = ext.on_response(mediated, ack)
        fields = out.form
        assert fields[protocol.A_CONTENT] == protocol.NEUTRAL_CONTENT
        assert fields[protocol.A_CONTENT_HASH] == protocol.NEUTRAL_HASH

    def test_fetch_decrypted(self, ext):
        from repro.net.http import HttpResponse
        wire = ext.engine("doc").encrypt("fetch me back")
        response = ext.on_response(
            HttpRequest("GET", "http://h/Doc?docID=doc"),
            HttpResponse(200, wire),
        )
        assert response.body == "fetch me back"

    def test_fetch_plaintext_untouched(self, ext):
        from repro.net.http import HttpResponse
        response = ext.on_response(
            HttpRequest("GET", "http://h/Doc?docID=doc"),
            HttpResponse(200, "legacy plaintext document"),
        )
        assert response.body == "legacy plaintext document"

    def test_wrong_password_leaves_ciphertext(self):
        rng = DeterministicRandomSource(5)
        good = GDocsExtension(PasswordVault({"doc": "right"}), rng=rng)
        wire = good.engine("doc").encrypt("hidden")
        bad = GDocsExtension(PasswordVault({"doc": "wrong"}), rng=rng)
        from repro.net.http import HttpResponse
        response = bad.on_response(
            HttpRequest("GET", "http://h/Doc?docID=doc"),
            HttpResponse(200, wire),
        )
        assert response.body == wire  # appears as ciphertext
        assert bad.warnings


def _full_save(ext, text, rev=0):
    return ext.on_request(_save_request({
        protocol.F_SID: "s1", protocol.F_REV: str(rev),
        protocol.F_DOC_CONTENTS: text,
    }))


def _data_blocks(wire):
    from repro.encoding.wire import parse_document
    return {record.block for record in parse_document(wire)[1]}


class TestFullSaveSplice:
    TEXT = "the quick brown fox jumps over the lazy dog " * 8

    def test_second_full_save_splices_the_mirror(self, ext):
        from repro.obs import capture
        first = _full_save(ext, self.TEXT).form[protocol.F_DOC_CONTENTS]
        edited = self.TEXT[:100] + "X" + self.TEXT[100:]
        with capture() as cap:
            second = _full_save(ext, edited, rev=1)
        wire = second.form[protocol.F_DOC_CONTENTS]
        assert cap["extension.full_saves_spliced"] == 1
        assert cap["extension.full_saves_fresh"] == 0
        assert ext.engine("doc").mirror.text == edited
        assert wire == ext.engine("doc").mirror.wire()
        # only the edited cluster was re-encrypted
        new_blocks = _data_blocks(wire) - _data_blocks(first)
        assert 0 < len(new_blocks) == cap["doc.blocks_reencrypted"] <= 3

    def test_unchanged_full_save_resends_the_mirror_bytes(self, ext):
        first = _full_save(ext, self.TEXT).form[protocol.F_DOC_CONTENTS]
        again = _full_save(ext, self.TEXT, rev=1)
        assert again.form[protocol.F_DOC_CONTENTS] == first

    def test_ack_divergence_forces_a_fresh_full_save(self):
        """A server whose acknowledged bytes differ from the mirror may
        not hold the state the mirror descends from: the next full save
        re-encrypts every block instead of showing which changed."""
        from repro.encoding.formenc import encode_form
        from repro.net.http import HttpResponse
        from repro.obs import capture
        ext = GDocsExtension(PasswordVault({"doc": "pw"}), scheme="rpc",
                             rng=DeterministicRandomSource(4),
                             verify_acks=True)
        request = _full_save(ext, self.TEXT)
        first = request.form[protocol.F_DOC_CONTENTS]
        ack = HttpResponse(200, encode_form({
            protocol.A_STATUS: "ok", protocol.A_REV: "1",
            protocol.A_CONTENT_HASH: protocol.content_hash(first + "A"),
            protocol.A_CONFLICT: "0",
        }))
        assert ext.on_response(request, ack).form[protocol.A_CONFLICT] == "1"
        version = ext.engine("doc").mirror.version
        edited = self.TEXT + "!"
        with capture() as cap:
            wire = _full_save(ext, edited, rev=1).form[
                protocol.F_DOC_CONTENTS]
        assert cap["extension.full_saves_fresh"] == 1
        assert cap["extension.full_saves_spliced"] == 0
        assert not _data_blocks(wire) & _data_blocks(first)
        mirror = ext.engine("doc").mirror
        assert mirror.text == edited and mirror.version == version + 1
        # the fresh mirror is trusted again: the next full save splices
        with capture() as cap:
            _full_save(ext, edited + "?", rev=2)
        assert cap["extension.full_saves_spliced"] == 1
