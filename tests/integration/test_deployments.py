"""The three interception strategies of SIII, compared.

1. browser extension (channel mediator) — the paper's choice;
2. standalone proxy — most general, but TLS-blind;
3. User-JavaScript-style rewritten client — no traffic hook needed,
   but re-implements client internals.

All three must leave the provider with ciphertext only; the proxy's TLS
limitation and the paper's reason for choosing the extension are
demonstrated explicitly.
"""

import dataclasses

import pytest

from repro.client.gdocs_client import GDocsClient
from repro.client.userjs_client import SelfEncryptingGDocsClient
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import looks_encrypted
from repro.errors import BlockedRequestError, ProtocolError
from repro.extension import GDocsExtension, PasswordVault
from repro.extension.proxy import MediatingProxy
from repro.net.channel import Channel
from repro.net.http import HttpResponse
from repro.services import BespinServer, bespin
from repro.services.gdocs import protocol
from repro.services.gdocs.server import GDocsServer

SECRET = "the secret ingredient is love (and 2.4 tons of butter)"


def extension_deployment(seed):
    server = GDocsServer()
    channel = Channel(server)
    channel.set_mediator(GDocsExtension(
        PasswordVault({"doc": "pw"}), scheme="rpc",
        rng=DeterministicRandomSource(seed),
    ))
    return server, GDocsClient(channel, "doc")


def proxy_deployment(seed, tls_policy="block"):
    gdocs = GDocsServer()
    code = BespinServer()
    proxy = MediatingProxy(
        upstreams={protocol.HOST: gdocs, bespin.HOST: code},
        mediators={
            protocol.HOST: GDocsExtension(
                PasswordVault({"doc": "pw"}), scheme="rpc",
                rng=DeterministicRandomSource(seed),
            ),
        },
        tls_policy=tls_policy,
    )
    channel = Channel(proxy)
    return gdocs, proxy, GDocsClient(channel, "doc")


def userjs_deployment(seed):
    server = GDocsServer()
    channel = Channel(server)  # NO mediator installed
    client = SelfEncryptingGDocsClient(
        channel, "doc", password="pw", scheme="rpc",
        rng=DeterministicRandomSource(seed),
    )
    return server, client


class TestAllDeploymentsHideContent:
    @pytest.mark.parametrize("make", [
        extension_deployment,
        lambda seed: proxy_deployment(seed)[::2],
        userjs_deployment,
    ], ids=["extension", "proxy", "userjs"])
    def test_provider_sees_ciphertext_only(self, make):
        server, client = make(seed=1)
        client.open()
        client.type_text(0, SECRET)
        client.save()
        client.type_text(0, "note: ")
        outcome = client.save()
        assert outcome.kind == "delta"
        stored = server.store.get("doc").content
        assert looks_encrypted(stored)
        assert "butter" not in stored
        assert client.editor.text == "note: " + SECRET

    @pytest.mark.parametrize("make", [
        extension_deployment,
        lambda seed: proxy_deployment(seed)[::2],
        userjs_deployment,
    ], ids=["extension", "proxy", "userjs"])
    def test_reopen_with_extension_deployment(self, make):
        """Documents written by ANY deployment open under the standard
        extension deployment — the wire format is the contract."""
        server, client = make(seed=2)
        client.open()
        client.type_text(0, SECRET)
        client.save()
        channel = Channel(server)
        channel.set_mediator(GDocsExtension(
            PasswordVault({"doc": "pw"}),
            rng=DeterministicRandomSource(9),
        ))
        reader = GDocsClient(channel, "doc")
        assert reader.open() == SECRET


class TestProxySpecifics:
    def test_proxy_serves_multiple_hosts(self):
        gdocs, proxy, client = proxy_deployment(seed=3)
        client.open()
        client.type_text(0, SECRET)
        client.save()
        assert looks_encrypted(gdocs.store.get("doc").content)
        # unmediated host with no mediator configured is refused
        channel = Channel(proxy)
        response = channel.send(bespin.put_request("p/a.py", "code"))
        assert response.status == 403

    def test_proxy_blocks_feature_requests(self):
        _, proxy, client = proxy_deployment(seed=4)
        client.open()
        client.type_text(0, "text")
        client.save()
        with pytest.raises(BlockedRequestError):
            client.spellcheck()

    def test_tls_block_policy_fails_closed(self):
        gdocs, proxy, _ = proxy_deployment(seed=5, tls_policy="block")
        channel = Channel(proxy)
        request = protocol.open_request("doc")
        https = dataclasses.replace(
            request, url=request.url.replace("http://", "https://")
        )
        response = channel.send(https)
        assert response.status == 403
        assert proxy.blocked

    def test_tls_tunnel_policy_leaks_plaintext(self):
        """The paper's stated proxy weakness, demonstrated: tunnelled
        TLS traffic reaches the provider unencrypted-by-us."""
        gdocs, proxy, _ = proxy_deployment(seed=6, tls_policy="tunnel")
        channel = Channel(proxy)

        def https(req):
            return dataclasses.replace(
                req, url=req.url.replace("http://", "https://")
            )

        response = channel.send(https(protocol.open_request("doc")))
        sid = response.form[protocol.F_SID]
        channel.send(https(protocol.full_save_request(
            "doc", sid, 0, SECRET
        )))
        assert gdocs.store.get("doc").content == SECRET  # leaked!
        assert proxy.tunnelled


class TestUserjsSpecifics:
    def test_conflict_resync_works(self):
        """The rewritten client decrypts Ack content itself, so its
        conflict handling is *better* than the extension's blanking —
        the upside of rewriting components."""
        server, alice = userjs_deployment(seed=7)
        alice.open()
        alice.type_text(0, "base. ")
        alice.save()
        _, bob = userjs_deployment(seed=8)
        bob._channel = alice._channel  # same provider
        bob.open()
        bob.type_text(0, "bob. ")
        bob.save()
        alice.type_text(0, "alice. ")
        outcome = alice.save()
        assert outcome.conflict
        assert alice.editor.text == "bob. base. "  # silent resync

    def test_mirror_hash_check(self):
        server, client = userjs_deployment(seed=9)
        client.open()
        client.type_text(0, "check me")
        outcome = client.save()
        assert outcome.complaints == []  # ciphertext hash matches mirror

    def test_refused_delta_save_recovers_with_a_full_save(self):
        """A delta save the server refuses has already advanced the
        engine's mirror; the next save must re-encrypt the whole text
        rather than send a delta against that mirror, which would hold
        the refused edit twice."""
        gdocs = GDocsServer()
        busy = [True]

        def server(request):
            if busy and request.body and protocol.F_DELTA in request.form:
                busy.pop()
                return HttpResponse(503, "busy")
            return gdocs(request)

        client = SelfEncryptingGDocsClient(
            Channel(server), "doc", password="pw", scheme="rpc",
            rng=DeterministicRandomSource(10),
        )
        client.open()
        client.type_text(0, "hello world")
        client.save()
        client.type_text(0, "A ")
        with pytest.raises(ProtocolError):
            client.save()
        client.type_text(0, "B ")
        outcome = client.save()
        assert outcome.kind == "full" and outcome.complaints == []
        channel = Channel(gdocs)
        channel.set_mediator(GDocsExtension(
            PasswordVault({"doc": "pw"}),
            rng=DeterministicRandomSource(11),
        ))
        assert GDocsClient(channel, "doc").open() == "B A hello world"
