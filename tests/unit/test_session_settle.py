"""The settle rule and the convergence oracle, stated once on the session.

``PrivateEditingSession.settle`` is the recovery phase every fault
harness runs after a chaos run: quiesce the session's own fault plan,
save, and keep saving while the outcome is not clean (at most
``SETTLE_RETRIES`` more times).  A backend without revisions gets one
more save after a clean one, so that no stale request held in flight
lands last.  ``stored_text`` decrypts what the provider stores under
the session's own password.
"""

from __future__ import annotations

import pytest

from repro.extension.session import SETTLE_RETRIES, PrivateEditingSession
from repro.net.faults import FaultPlan, FaultSpec, updates_only
from repro.net.http import HttpResponse
from repro.net.policy import RetryPolicy
from repro.services import registry
from repro.services.backend import KIND_SAVE_FULL

SECRET = "settle sentinel walrus"


def _saves_during(session: PrivateEditingSession, action) -> list[str]:
    """The save kinds that crossed the channel while ``action`` ran."""
    before = len(session.channel.exchange_log)
    action()
    backend = session.client.backend
    return [backend.classify(exchange.request)
            for exchange in list(session.channel.exchange_log)[before:]]


def test_settle_on_bespin_lands_one_extra_full_save():
    session = PrivateEditingSession("notes", "pw", service="bespin")
    session.open()
    session.type_text(0, SECRET)
    outcomes = []
    saves = _saves_during(session,
                          lambda: outcomes.append(session.settle()))
    # the first save comes back clean; one more lands after it
    assert saves == [KIND_SAVE_FULL, KIND_SAVE_FULL]
    assert outcomes[0].clean
    assert session.stored_text() == SECRET


def test_settle_on_gdocs_lands_no_extra_save():
    session = PrivateEditingSession("notes", "pw", service="gdocs")
    session.open()
    session.type_text(0, SECRET)
    outcomes = []
    saves = _saves_during(session,
                          lambda: outcomes.append(session.settle()))
    assert saves == [KIND_SAVE_FULL]
    assert outcomes[0].clean
    assert session.stored_text() == SECRET


def test_settle_quiesces_the_sessions_own_fault_plan():
    plan = FaultPlan([FaultSpec(kind="http_5xx", rate=1.0,
                                match=updates_only)], seed=3)
    session = PrivateEditingSession(
        "notes", "pw", faults=plan,
        retry_policy=RetryPolicy(seed=3, max_attempts=2))
    session.open()
    session.type_text(0, SECRET)
    assert not session.save().ok  # every update refused
    assert session.settle().clean
    assert session.stored_text() == SECRET


@pytest.mark.parametrize("service", ("gdocs", "bespin"))
def test_settle_returns_the_unclean_outcome_when_the_budget_runs_out(
        service):
    """A provider that refuses every save: settle tries the first save
    and SETTLE_RETRIES more, lands no extra save on an un-revisioned
    backend, and returns the typed failure instead of raising."""
    real = registry.make_server(service)
    backend = registry.backend_for(service)
    refused = []

    def refusing(request):
        if backend.classify(request) == KIND_SAVE_FULL:
            refused.append(request)
            return HttpResponse(503, "unavailable")
        return real(request)

    session = PrivateEditingSession(
        "notes", "pw", server=refusing, service=service,
        retry_policy=RetryPolicy(seed=5, max_attempts=1))
    session.open()
    session.type_text(0, SECRET)
    outcome = session.settle()
    assert not outcome.ok and not outcome.clean
    assert "503" in outcome.error
    assert len(refused) == 1 + SETTLE_RETRIES


@pytest.mark.parametrize("service", registry.SERVICE_NAMES)
def test_stored_text_decrypts_the_providers_bytes(service):
    session = PrivateEditingSession("notes", "pw", scheme="rpc",
                                    service=service)
    session.open()
    assert session.stored_text() == ""  # nothing stored yet
    session.type_text(0, SECRET)
    assert session.save().ok
    assert SECRET not in session.server_view()
    assert session.stored_text() == SECRET
