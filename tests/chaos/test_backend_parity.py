"""Backend parity: one resilience contract, four cloud services.

Since the resilience machinery moved into the shared
:class:`repro.client.resilient.ResilientClient` core, every backend —
gdocs, Bespin, Buzzword, and the replicated facade — makes the same
two promises under the same hostile network, and this matrix holds all
of them to it, cell by cell (scheme × service × fault kind):

* **convergence** — after the fault plan quiesces and the recovery
  saves land, the bytes the provider stores decrypt to exactly the
  text the user sees (``PrivateEditingSession.stored_text`` states the
  oracle uniformly, whatever shape the provider stores);
* **zero plaintext** — nothing that crossed the wire (completed
  exchanges *and* requests whose exchange died in flight) contains the
  secret token, fault or no fault;
* **typed outcomes** — mid-fault saves may fail, but as a
  ``SaveOutcome(ok=False)``, never a raise (the Bespin/Buzzword bug
  this matrix regression-guards: their old clients threw a bare
  ``ProtocolError`` through the whole session on any failed save).

The gdocs-only cells with richer obligations (conflict resync,
scheduled strikes, replay determinism) live in ``test_fault_matrix.py``
— this file is the cross-provider half of the chaos story referenced
by ``docs/faults.md``.
"""

from __future__ import annotations

import pytest

from repro.crypto.random import DeterministicRandomSource
from repro.extension.session import PrivateEditingSession
from repro.fuzz.model import leak_blobs
from repro.net.faults import FAULT_KINDS, FaultPlan, FaultSpec, updates_only
from repro.net.policy import RetryPolicy
from repro.services import registry

#: lowercase letters cannot appear in Base32 ciphertext, so a sighting
#: of this token on the wire is unambiguously a plaintext leak
SECRET = "zebrafish manifesto"

SCHEMES = ("recb", "rpc")
SERVICES = registry.SERVICE_NAMES

#: high enough that nearly every cell injects at least once, and far
#: above the 5% floor the parity claim is meaningless below
RATE = 0.45


def _seed(scheme: str, service: str, kind: str) -> int:
    """A stable, human-reproducible seed per cell (shown on failure)."""
    return (1000 + SCHEMES.index(scheme) * 400
            + SERVICES.index(service) * 100
            + FAULT_KINDS.index(kind))


def _run_cell(scheme: str, service: str, kind: str, seed: int, *,
              transport=None, doc: str | None = None):
    plan = FaultPlan([FaultSpec(kind=kind, rate=RATE, match=updates_only)],
                     seed=seed)
    session = PrivateEditingSession(
        doc or f"parity-{kind}", "parity-password", scheme=scheme,
        faults=plan, retry_policy=RetryPolicy(seed=seed),
        verify_acks=True, rng=DeterministicRandomSource(seed),
        service=service, transport=transport,
    )
    session.open()
    session.type_text(0, SECRET + " first draft. ")
    outcomes = [session.save()]
    session.type_text(0, "Second pass: ")
    outcomes.append(session.save())
    session.delete_text(0, len("Second pass: "))
    outcomes.append(session.save())

    # the weather clears; the recovery saves must reconcile everything
    outcomes.append(session.settle())
    return plan, session, outcomes


def _leaks(session: PrivateEditingSession) -> list[str]:
    """Every wire surface an adversary saw that holds the secret."""
    return [blob for blob in leak_blobs(session) if SECRET in blob]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_parity_cell_converges_without_leaking(scheme, service, kind,
                                               request):
    seed = _seed(scheme, service, kind)
    request.node.user_properties.append(("fault_seed", seed))
    _, session, outcomes = _run_cell(scheme, service, kind, seed)

    # every save outcome is typed: a failure is ok=False, never a raise
    assert outcomes[-1].ok, (
        f"recovery save failed after quiesce on {service} (seed {seed}): "
        f"{outcomes[-1].error}"
    )
    assert session.stored_text() == session.text, (
        f"{service} store and client diverged under {kind}/{scheme} "
        f"(seed {seed})"
    )
    assert _leaks(session) == [], (
        f"plaintext leaked on {service} (seed {seed})"
    )


@pytest.mark.parametrize("service", SERVICES)
def test_parity_cells_injected(service):
    """The matrix is not vacuous per service: across all kinds, the
    rate-driven plans strike many times (checked in aggregate)."""
    injected = 0
    for kind in FAULT_KINDS:
        plan, _, _ = _run_cell("recb", service, kind,
                               _seed("recb", service, kind))
        injected += len(plan.injections)
    assert injected >= len(FAULT_KINDS)


# -- the socket-transport column (PR 7) ----------------------------------
#
# The same parity contract must hold when the fault plan wraps the real
# wire: faults strike *outside* the pooled TCP transport, retries and
# resyncs ride pipelined connections, and the stored bytes come back
# through the server's `view` op instead of a direct store read.


@pytest.fixture(scope="module")
def socket_server():
    from repro.net.server import ServerThread

    with ServerThread(shards=4) as address:
        yield address


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_parity_cell_over_the_socket_transport(scheme, kind,
                                               socket_server, request):
    from repro.net.transport import AsyncioSocketTransport

    host, port = socket_server
    seed = 5000 + _seed(scheme, "gdocs", kind)
    request.node.user_properties.append(("fault_seed", seed))
    transport = AsyncioSocketTransport(host, port, service="gdocs",
                                       tenant="parity")
    try:
        # unique doc per cell: unlike the in-process cells, the served
        # backend outlives each session
        _, session, outcomes = _run_cell(
            scheme, "gdocs", kind, seed, transport=transport,
            doc=f"parity-{kind}-{scheme}-socket",
        )
        assert outcomes[-1].ok, (
            f"recovery save failed over the socket (seed {seed}): "
            f"{outcomes[-1].error}"
        )
        assert session.stored_text() == session.text, (
            f"served store and client diverged under {kind}/{scheme} "
            f"(seed {seed})"
        )
        assert _leaks(session) == [], (
            f"plaintext leaked over the socket (seed {seed})"
        )
    finally:
        transport.close()


# -- the N-writer merging collaboration cell (PR 8) ----------------------
#
# The parity cells above are one writer vs a hostile network; this cell
# is the many-writer version of the same two promises: 32 faulted
# sessions hammer ONE gdocs document with the server-side OT merge
# path on, and afterwards every writer sees the same text, the stored
# bytes decrypt to it, and nothing on the wire ever held the sentinel.


def test_many_writer_merge_cell_converges_under_faults():
    from repro.bench.collab import run_collab

    cell = run_collab(writers=32, rounds=2, service="gdocs", merge=True,
                      fault_rate=0.05)
    assert cell.converged, "32 faulted writers did not converge"
    assert cell.leak_clean, "sentinel sighted on the wire"
    assert cell.merges > 0, "the merge path never fired"
    # the drain budget is linear in the writer count; blowing it means
    # merging regressed to the one-landing-per-round conflict crawl
    assert cell.drain_rounds <= 4 + 2 * 32


@pytest.mark.parametrize("service", ("bespin", "buzzword"))
def test_whole_file_save_failure_is_typed(service):
    """Regression (the satellite bugfix): a Bespin/Buzzword save that
    the provider refuses comes back as ``SaveOutcome(ok=False)`` with
    the failure counted — the old clients raised a bare
    ``ProtocolError`` through the caller instead."""
    # every update 500s: the save can never land until the plan stops
    plan = FaultPlan(
        [FaultSpec(kind="http_5xx", rate=1.0, match=updates_only)],
        seed=9,
    )
    session = PrivateEditingSession(
        "typed-failure", "parity-password", faults=plan,
        retry_policy=RetryPolicy(seed=9, max_attempts=2),
        service=service,
    )
    session.open()
    session.type_text(0, SECRET)
    outcome = session.save()  # must not raise
    assert not outcome.ok
    assert outcome.error, "a failed save must say why"
    plan.quiesce()
    assert session.save().ok
    assert session.stored_text() == session.text
