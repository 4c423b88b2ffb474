"""Bespin and Buzzword: servers, and private editing through the one
whole-file mediator with the plain resilient client."""

import pytest

from repro.client.resilient import ResilientClient
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import looks_encrypted, split_header
from repro.errors import BlockedRequestError
from repro.extension.passwords import PasswordVault
from repro.extension.session import PrivateEditingSession
from repro.extension.whole_file import WholeFileExtension
from repro.net.channel import Channel
from repro.net.http import HttpRequest
from repro.services import bespin, buzzword
from repro.services.backend import BESPIN, BUZZWORD, join_paragraphs
from repro.services.bespin import BespinServer
from repro.services.buzzword import BuzzwordServer


class TestBespinServer:
    def test_put_get_round_trip(self):
        server = BespinServer()
        ch = Channel(server)
        ch.send(bespin.put_request("proj/main.py", "print('hi')"))
        resp = ch.send(bespin.get_request("proj/main.py"))
        assert resp.body == "print('hi')"

    def test_missing_file(self):
        ch = Channel(BespinServer())
        assert ch.send(bespin.get_request("nope")).status == 404

    def test_listing(self):
        server = BespinServer()
        ch = Channel(server)
        ch.send(bespin.put_request("p/a.py", "1"))
        ch.send(bespin.put_request("p/b.py", "2"))
        resp = ch.send(HttpRequest("GET", f"http://{bespin.HOST}/file/list/p/"))
        assert resp.form["files"] == "p/a.py\np/b.py"

    def test_delete(self):
        server = BespinServer()
        ch = Channel(server)
        ch.send(bespin.put_request("p/a.py", "1"))
        ch.send(HttpRequest("DELETE", bespin.file_url("p/a.py")))
        assert ch.send(bespin.get_request("p/a.py")).status == 404


class TestBespinPrivateEditing:
    def _stack(self):
        server = BespinServer()
        ch = Channel(server)
        vault = PasswordVault({"proj/secret.py": "pw"})
        ext = WholeFileExtension(BESPIN, vault,
                                 rng=DeterministicRandomSource(1))
        ch.set_mediator(ext)
        return server, ch

    def test_server_sees_only_ciphertext(self):
        server, ch = self._stack()
        client = ResilientClient(ch, "proj/secret.py", BESPIN)
        client.open()
        client.editor.insert(0, "API_KEY = 'hunter2'")
        client.save()
        stored = server.files["proj/secret.py"]
        assert looks_encrypted(stored)
        assert "hunter2" not in stored

    def test_round_trip_through_extension(self):
        server, ch = self._stack()
        client = ResilientClient(ch, "proj/secret.py", BESPIN)
        client.open()
        client.editor.insert(0, "x = 1")
        client.save()
        # a second client (same vault/extension) reads it back decrypted
        client2 = ResilientClient(ch, "proj/secret.py", BESPIN)
        assert client2.open() == "x = 1"

    def test_unknown_requests_blocked(self):
        _, ch = self._stack()
        with pytest.raises(BlockedRequestError):
            ch.send(HttpRequest("POST", f"http://{bespin.HOST}/admin"))

    def test_delete_passes_unmodified(self):
        ext = WholeFileExtension(BESPIN, PasswordVault({"p/a.py": "pw"}),
                                 rng=DeterministicRandomSource(1))
        delete = HttpRequest("DELETE", bespin.file_url("p/a.py"))
        forwarded = ext.on_request(delete)
        assert forwarded == delete
        assert forwarded.body == "" and not looks_encrypted(forwarded.body)

    def test_listing_passes_and_names_stay_readable(self):
        server, ch = self._stack()
        client = ResilientClient(ch, "proj/secret.py", BESPIN)
        client.open()
        client.type_text(0, "x = 1")
        client.save()
        resp = ch.send(HttpRequest(
            "GET", f"http://{bespin.HOST}/file/list/proj/"))
        assert resp.form["files"] == "proj/secret.py"


class TestBuzzwordXml:
    def test_escape_round_trip(self):
        text = "a < b & c > d"
        assert buzzword.xml_unescape(buzzword.xml_escape(text)) == text

    def test_document_xml_and_text_runs(self):
        xml = buzzword.document_xml(["para one", "two & three"])
        assert buzzword.text_runs(xml) == ["para one", "two & three"]

    def test_map_text_runs_preserves_structure(self):
        xml = buzzword.document_xml(["a", "b"])
        mapped = buzzword.map_text_runs(xml, str.upper)
        assert buzzword.text_runs(mapped) == ["A", "B"]
        assert mapped.count("<p>") == 2


class TestBuzzwordServer:
    def test_post_get(self):
        ch = Channel(BuzzwordServer())
        xml = buzzword.document_xml(["hello"])
        ch.send(buzzword.post_request("d1", xml))
        assert ch.send(buzzword.get_request("d1")).body == xml

    def test_wordcount_feature(self):
        ch = Channel(BuzzwordServer())
        ch.send(buzzword.post_request(
            "d1", buzzword.document_xml(["three words here", "and more"])
        ))
        resp = ch.send(buzzword.get_request("d1/wordcount"))
        assert resp.form["words"] == "5"


class TestBuzzwordPrivateEditing:
    def _stack(self):
        server = BuzzwordServer()
        ch = Channel(server)
        vault = PasswordVault({"d1": "pw"})
        ext = WholeFileExtension(BUZZWORD, vault,
                                 rng=DeterministicRandomSource(2))
        ch.set_mediator(ext)
        return server, ch

    def test_text_runs_encrypted_structure_visible(self):
        server, ch = self._stack()
        client = ResilientClient(ch, "d1", BUZZWORD)
        client.editor.set_text(
            join_paragraphs(["top secret paragraph", "another one"]))
        client.save()
        stored = server.documents["d1"]
        assert "<doc>" in stored and stored.count("<textRun>") == 2
        assert "secret" not in stored
        for run in buzzword.text_runs(stored):
            assert looks_encrypted(run)

    def test_round_trip(self):
        server, ch = self._stack()
        client = ResilientClient(ch, "d1", BUZZWORD)
        client.editor.set_text(join_paragraphs(["alpha", "beta & <gamma>"]))
        client.save()
        client2 = ResilientClient(ch, "d1", BUZZWORD)
        assert client2.open() == "alpha\nbeta & <gamma>"

    def test_wordcount_blocked_under_extension(self):
        _, ch = self._stack()
        with pytest.raises(BlockedRequestError):
            ch.send(buzzword.get_request("d1/wordcount"))


class TestBuzzwordReopen:
    def test_reopen_edit_save_reopen_keeps_text_and_salt(self):
        server = BuzzwordServer()

        def session(seed):
            return PrivateEditingSession(
                "memo", "pw", server=server, service="buzzword",
                rng=DeterministicRandomSource(seed))

        def salts():
            return {split_header(run)[0].salt
                    for run in buzzword.text_runs(server.documents["memo"])}

        first = session(1)
        first.open()
        first.type_text(0, "first paragraph\nsecond & <third>")
        assert first.save().ok
        created = salts()
        assert len(created) == 1

        second = session(2)
        assert second.open() == "first paragraph\nsecond & <third>"
        second.type_text(0, "edited ")
        assert second.save().ok
        # the re-save keeps the stored document's salt (as Bespin does)
        assert salts() == created

        assert session(3).open() == \
            "edited first paragraph\nsecond & <third>"
