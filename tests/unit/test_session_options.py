"""Session options a service cannot honour raise instead of vanishing.

Stego, freshness and ``decrypt_acks`` act on deltas and Ack content,
and the covert-channel ``countermeasures`` shape deltas and pad save
forms, so all four need ``capabilities.incremental_updates``; the
workspace ``indexer`` (and the audit trail its saves opt into) rides
save acks, so it needs ``capabilities.catalog_acks``.  The whole-file
services (Bespin, Buzzword) have neither.  ``verify_acks`` stays accepted
everywhere: whole-file acks abstain from the hash check by protocol.  A
``server`` next to a ``transport`` (which replaces the local server)
raises on every service.  The checks live in the mediator's
constructor, so they hold wherever a mediator is built, session or not.
"""

from __future__ import annotations

import pytest

from repro.extension.catalog import WorkspaceIndexer
from repro.extension.countermeasures import Countermeasures
from repro.extension.freshness import FreshnessMonitor
from repro.extension.gdocs_ext import GDocsExtension
from repro.extension.passwords import PasswordVault
from repro.extension.session import PrivateEditingSession
from repro.net.transport import InProcessTransport
from repro.services import registry
from repro.services.backend import BESPIN, BUZZWORD

WHOLE_FILE = ("bespin", "buzzword")

REJECTED = {
    "stego": lambda: True,
    "freshness": FreshnessMonitor,
    "decrypt_acks": lambda: True,
    "indexer": lambda: WorkspaceIndexer("secret"),
}


@pytest.mark.parametrize("service", WHOLE_FILE)
@pytest.mark.parametrize("option", sorted(REJECTED))
def test_whole_file_service_rejects_option(service, option):
    with pytest.raises(ValueError, match=option):
        PrivateEditingSession("d", "pw", service=service,
                              **{option: REJECTED[option]()})


MEDIATOR_REJECTED = {
    **REJECTED,
    "countermeasures": Countermeasures.all,
}


@pytest.mark.parametrize("backend", (BESPIN, BUZZWORD),
                         ids=lambda backend: backend.name)
@pytest.mark.parametrize("option", sorted(MEDIATOR_REJECTED))
def test_whole_file_mediator_rejects_option(backend, option):
    with pytest.raises(ValueError, match=option):
        GDocsExtension(PasswordVault({"d": "pw"}), backend=backend,
                       **{option: MEDIATOR_REJECTED[option]()})


@pytest.mark.parametrize("service", WHOLE_FILE)
def test_whole_file_service_keeps_protocol_neutral_options(service):
    session = PrivateEditingSession("d", "pw", service=service,
                                    verify_acks=True)
    session.open()
    session.type_text(0, "still private")
    assert session.save().ok


@pytest.mark.parametrize("service", registry.SERVICE_NAMES)
def test_server_and_transport_together_raise(service):
    server = registry.make_server(service)
    with pytest.raises(ValueError, match="not both"):
        PrivateEditingSession("d", "pw", service=service, server=server,
                              transport=InProcessTransport(server))
    # either one alone still builds a working session
    for kwargs in ({"server": server},
                   {"transport": InProcessTransport(server)}):
        session = PrivateEditingSession("d", "pw", service=service,
                                        **kwargs)
        session.open()
        session.type_text(0, "one of them")
        assert session.save().ok
