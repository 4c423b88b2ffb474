"""repro.fuzz — differential fuzzing and invariant checking.

The paper's correctness story is algebraic — decrypt round-trips, the
Wang–Kao–Yeh length-bound checksum, index-by-position equivalence,
cdelta fidelity — and the enumerated test suite checks those laws only
at hand-picked points.  This package model-checks them: a seeded
generator (:mod:`repro.fuzz.generators`) produces random edit *traces*
(insert/delete/replace, unicode, degenerate sizes, fault schedules,
two-client interleavings); a runner (:mod:`repro.fuzz.runner`) drives
each trace through the full stack — ``EncryptedDocument`` over
{rECB, RPC} × {skiplist, AVL, reference} × server {leaf table, flat} —
while the oracle (:mod:`repro.fuzz.model`) re-applies every edit to a
plain Python string and checks the invariants step by step; a shrinker
(:mod:`repro.fuzz.shrink`) reduces any failing trace to a minimal one
and the runner serializes it as a replay file under ``tests/corpus/``
that re-runs as an ordinary pytest case.

Everything is dependency-free and deterministic: all randomness flows
from one seed, so an identical seed produces a byte-identical trace and
an identical run.  ``tools/mutation_smoke.py`` proves the oracle has
teeth by flipping a known-load-bearing crypto line under a temp copy of
the tree and asserting the harness catches it.
"""

from repro.fuzz.generators import PROFILES, Trace, generate_trace
from repro.fuzz.model import InvariantViolation, Violation
from repro.fuzz.runner import FuzzReport, FuzzRunner, run_trace
from repro.fuzz.shrink import shrink_trace

__all__ = [
    "PROFILES",
    "Trace",
    "generate_trace",
    "InvariantViolation",
    "Violation",
    "FuzzReport",
    "FuzzRunner",
    "run_trace",
    "shrink_trace",
]
