"""Session options a service cannot honour raise instead of vanishing.

Stego, freshness, countermeasures and ``decrypt_acks`` act on deltas
and Ack content, so they need ``capabilities.incremental_updates``; the
workspace ``indexer`` and ``audit`` ride save acks, so they need
``capabilities.catalog_acks``.  The whole-file services (Bespin,
Buzzword) have neither.  ``verify_acks`` and ``index_factory`` stay
accepted everywhere: whole-file acks abstain from the hash check by
protocol, and the whole-file engine honours the index choice.
"""

from __future__ import annotations

import pytest

from repro.client.workspace import Workspace
from repro.datastructures import IndexedAVL
from repro.extension.catalog import WorkspaceIndexer
from repro.extension.countermeasures import Countermeasures
from repro.extension.freshness import FreshnessMonitor
from repro.extension.session import PrivateEditingSession
from repro.services import registry

WHOLE_FILE = ("bespin", "buzzword")

REJECTED = {
    "stego": lambda: True,
    "freshness": FreshnessMonitor,
    "countermeasures": Countermeasures.none,
    "decrypt_acks": lambda: True,
    "indexer": lambda: WorkspaceIndexer("secret"),
    "audit": lambda: True,
}


@pytest.mark.parametrize("service", WHOLE_FILE)
@pytest.mark.parametrize("option", sorted(REJECTED))
def test_whole_file_service_rejects_option(service, option):
    with pytest.raises(ValueError, match=option):
        PrivateEditingSession("d", "pw", service=service,
                              **{option: REJECTED[option]()})


@pytest.mark.parametrize("service", WHOLE_FILE)
def test_whole_file_service_keeps_protocol_neutral_options(service):
    built = []

    def index_factory():
        built.append(IndexedAVL())
        return built[-1]

    session = PrivateEditingSession("d", "pw", service=service,
                                    verify_acks=True,
                                    index_factory=index_factory)
    session.open()
    session.type_text(0, "still private")
    assert session.save().ok
    assert built  # the whole-file engine built its index from the factory


@pytest.mark.parametrize("service", WHOLE_FILE)
def test_workspace_on_whole_file_service_raises_on_open(service):
    ws = Workspace("tenant-secret", service=service,
                   server=registry.make_server(service, catalog=True))
    with pytest.raises(ValueError, match="catalog_acks"):
        ws.open("notes")
