#!/usr/bin/env python3
"""Generality: the same approach on all three target applications (SIII).

The paper built extensions for Google Documents (incremental deltas),
Mozilla Bespin (whole-file HTTP PUT), and Adobe Buzzword (whole-document
XML POST with <textRun> elements).  This example drives all three
simulated services and shows each server holding only ciphertext while
the oblivious clients work normally.  Bespin and Buzzword share one
mediator, :class:`WholeFileExtension`, and the plain
:class:`ResilientClient`; only their :class:`ServiceBackend` differs —
Bespin's content is the whole PUT body, Buzzword's is each <textRun>.

Run:  python examples/three_services.py
"""

from repro.client import ResilientClient
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import looks_encrypted
from repro.extension import (
    PasswordVault,
    PrivateEditingSession,
    WholeFileExtension,
)
from repro.net.channel import Channel
from repro.services import BespinServer, BuzzwordServer, buzzword
from repro.services.backend import (
    BESPIN,
    BUZZWORD,
    join_paragraphs,
    split_paragraphs,
)

SECRET_CODE = "API_KEY = 'sk-live-4242424242'"
SECRET_PROSE = "The merger closes Friday. Tell no one."


def gdocs_demo() -> None:
    print("=== Google Documents (incremental deltas) ===")
    session = PrivateEditingSession(
        "doc", "pw", scheme="rpc", rng=DeterministicRandomSource(1),
    )
    session.open()
    session.type_text(0, SECRET_PROSE)
    session.save()
    session.type_text(0, "[draft] ")
    outcome = session.save()
    stored = session.server_view()
    print(f" save kinds: full then {outcome.kind}")
    print(f" server stores: {stored[:48]}... ({len(stored)} chars)")
    assert looks_encrypted(stored) and "merger" not in stored
    print(f" user reads:   {session.text!r}\n")


def bespin_demo() -> None:
    print("=== Mozilla Bespin (whole-file PUT) ===")
    server = BespinServer()
    channel = Channel(server)
    channel.set_mediator(WholeFileExtension(
        BESPIN, PasswordVault({"proj/config.py": "pw"}),
        rng=DeterministicRandomSource(2),
    ))
    client = ResilientClient(channel, "proj/config.py", BESPIN)
    client.open()
    client.editor.insert(0, SECRET_CODE)
    client.save()
    stored = server.files["proj/config.py"]
    print(f" server stores: {stored[:48]}...")
    assert looks_encrypted(stored) and "sk-live" not in stored
    reader = ResilientClient(channel, "proj/config.py", BESPIN)
    print(f" client reads:  {reader.open()!r}\n")


def buzzword_demo() -> None:
    print("=== Adobe Buzzword (XML <textRun> POST) ===")
    server = BuzzwordServer()
    channel = Channel(server)
    channel.set_mediator(WholeFileExtension(
        BUZZWORD, PasswordVault({"memo": "pw"}),
        rng=DeterministicRandomSource(3),
    ))
    client = ResilientClient(channel, "memo", BUZZWORD)
    client.editor.set_text(join_paragraphs(["Minutes, 3 June.",
                                            SECRET_PROSE]))
    client.save()
    stored = server.documents["memo"]
    runs = buzzword.text_runs(stored)
    print(f" server stores XML with {stored.count('<textRun>')} text runs;"
          f" structure visible, content not:")
    print(f"   first run: {runs[0][:40]}...")
    assert all(looks_encrypted(run) for run in runs)
    assert "merger" not in stored
    reader = ResilientClient(channel, "memo", BUZZWORD)
    print(f" client reads:  {split_paragraphs(reader.open())!r}\n")


def main() -> None:
    gdocs_demo()
    bespin_demo()
    buzzword_demo()
    print("three-services demo OK")


if __name__ == "__main__":
    main()
