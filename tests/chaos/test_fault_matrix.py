"""The chaos matrix: scheme × fault kind × timing, all seeded.

Every cell drives a resilient :class:`PrivateEditingSession` through a
seeded :class:`FaultPlan` and asserts the two invariants that
``docs/faults.md`` promises:

* **convergence** — after the fault plan quiesces and one clean save
  lands, the ciphertext the server stores decrypts to exactly the text
  the user sees (no lost saves, no double-applied deltas, no diverged
  mirror);
* **zero plaintext** — nothing an eavesdropper observed (completed
  exchanges *and* requests whose exchange died in flight) contains the
  secret token, fault or no fault.

A failing cell prints its seed in the test id; re-running that one id
replays the identical fault schedule (all randomness flows from the
seed, all time from the simulated clock).

The matrix is the authoritative list referenced by the fault-class →
test table in ``docs/faults.md``.
"""

from __future__ import annotations

import pytest

from repro.core.transform import EncryptionEngine
from repro.crypto.random import DeterministicRandomSource
from repro.extension.session import PrivateEditingSession
from repro.fuzz.model import leak_blobs
from repro.net.faults import FAULT_KINDS, FaultPlan, FaultSpec, updates_only
from repro.net.policy import RetryPolicy
from repro.services.gdocs.server import GDocsServer

#: lowercase letters cannot appear in Base32 ciphertext, so a sighting
#: of this token on the wire is unambiguously a plaintext leak
SECRET = "zebrafish manifesto"

SCHEMES = ("recb", "rpc")
TIMINGS = ("rate", "scheduled")


def _seed(scheme: str, kind: str, timing: str) -> int:
    """A stable, human-reproducible seed per cell (shown in test ids)."""
    return (SCHEMES.index(scheme) * 100
            + FAULT_KINDS.index(kind) * 10
            + TIMINGS.index(timing) + 1)


def _plan(kind: str, timing: str, seed: int) -> FaultPlan:
    if timing == "rate":
        # faults strike content updates probabilistically; 0.45 is high
        # enough that nearly every cell injects at least once
        spec = FaultSpec(kind=kind, rate=0.45, match=updates_only)
    else:
        # deterministically kill the session's first save (exchange 0
        # is the open, exchange 1 the full save)
        spec = FaultSpec(kind=kind, at=(1,), limit=1)
    return FaultPlan([spec], seed=seed)


def _leaks(*sessions: PrivateEditingSession) -> list[str]:
    """Every wire surface an adversary saw that holds the secret."""
    return [blob for blob in leak_blobs(*sessions) if SECRET in blob]


def _run_cell(scheme: str, kind: str, timing: str, seed: int):
    plan = _plan(kind, timing, seed)
    session = PrivateEditingSession(
        f"doc-{kind}", "matrix-password", scheme=scheme,
        faults=plan, retry_policy=RetryPolicy(seed=seed),
        verify_acks=True, rng=DeterministicRandomSource(seed),
    )
    session.open()
    session.type_text(0, SECRET + " first draft. ")
    outcomes = [session.save()]
    session.type_text(0, "Second pass: ")
    outcomes.append(session.save())
    session.delete_text(0, len("Second pass: "))
    outcomes.append(session.save())
    # the weather clears; one clean save must reconcile everything
    plan.quiesce()
    outcomes.append(session.save())
    return plan, session, outcomes


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("kind", FAULT_KINDS)
@pytest.mark.parametrize("timing", TIMINGS)
def test_cell_converges_without_leaking(scheme, kind, timing, request):
    seed = _seed(scheme, kind, timing)
    # surface the seed in the recorded test id for replay instructions
    request.node.user_properties.append(("fault_seed", seed))
    _, session, outcomes = _run_cell(scheme, kind, timing, seed)

    # every save outcome is typed: a failure is ok=False, never a raise
    assert outcomes[-1].ok, (
        f"recovery save failed after quiesce (seed {seed}): "
        f"{outcomes[-1].error}"
    )
    # convergence: the stored ciphertext round-trips to the user's text
    stored = session.server_view()
    recovered = EncryptionEngine(
        password="matrix-password", scheme=scheme
    ).decrypt(stored)
    assert recovered == session.text, (
        f"server and client diverged under {kind}/{timing} "
        f"(seed {seed})"
    )
    # zero plaintext anywhere an adversary could look
    assert _leaks(session) == [], f"plaintext leaked (seed {seed})"


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("timing", TIMINGS)
def test_scheduled_cells_injected(scheme, timing):
    """The matrix is not vacuous: scheduled cells inject exactly once,
    rate cells almost always at least once (checked in aggregate)."""
    injected = 0
    for kind in FAULT_KINDS:
        seed = _seed(scheme, kind, timing)
        plan, _, _ = _run_cell(scheme, kind, timing, seed)
        if timing == "scheduled":
            assert [k for _, k in plan.injections] == [kind]
        injected += len(plan.injections)
    assert injected >= len(FAULT_KINDS)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_conflict_cell_resyncs_and_converges(scheme):
    """The tenth fault class: a *revision* conflict (another writer got
    there first).  The resilient client re-fetches, rebases its pending
    edit over the concurrent change, and converges — where the legacy
    client only complains (test_collaboration.py)."""
    server = GDocsServer()
    password = "matrix-password"

    alice = PrivateEditingSession(
        "shared", password, server=server, scheme=scheme,
        retry_policy=RetryPolicy(seed=1), verify_acks=True,
        rng=DeterministicRandomSource(1),
    )
    bob = PrivateEditingSession(
        "shared", password, server=server, scheme=scheme,
        retry_policy=RetryPolicy(seed=2), verify_acks=True,
        rng=DeterministicRandomSource(2),
    )
    # alice establishes the document and enters delta mode
    alice.open()
    alice.type_text(0, SECRET + " shared ground. ")
    assert alice.save().ok

    # bob joins and publishes his own full save — the revision moves on
    # while alice is not looking
    bob.open()
    assert bob.text == SECRET + " shared ground. "
    bob.type_text(len(bob.text), "omega.")
    assert bob.save().ok

    # alice's next save is a *delta against a stale revision*
    alice.type_text(0, "alpha ")
    outcome = alice.save()
    assert outcome.ok
    assert outcome.resynced, "alice's stale-revision save must resync"
    assert alice.text.startswith("alpha ")
    assert alice.text.endswith("omega.")
    # alice's rebased edit is pending; one more save publishes it
    assert alice.save().ok

    stored = server.store.get("shared").content
    recovered = EncryptionEngine(
        password=password, scheme=scheme
    ).decrypt(stored)
    assert recovered == alice.text
    assert _leaks(alice, bob) == []


def test_matrix_replays_identically():
    """Determinism contract: the same cell run twice injects the same
    faults at the same exchanges and lands identical ciphertext."""
    runs = []
    for _ in range(2):
        plan, session, _ = _run_cell("rpc", "corrupt", "rate", seed=77)
        runs.append((plan.injections, session.server_view(),
                     session.text))
    assert runs[0] == runs[1]


# The cross-provider half of the matrix — Bespin, Buzzword, and the
# replicated facade under the same fault kinds, through the shared
# resilient client — lives in test_backend_parity.py.
