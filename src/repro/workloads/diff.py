"""Deriving a delta between two document versions.

The micro-benchmark (SVII-B) needs, "for every (D, D') pair, a delta
string ... such that it transforms D to D'".  Two derivations are
provided:

* :func:`simple_delta` — trim the common prefix and suffix, replace the
  middle.  O(n), and for the benchmark's *random* string pairs (which
  share almost nothing) it is also near-minimal.
* :func:`myers_delta` — Myers' O((N+M)·D) greedy diff, minimal in edit
  distance; used when the two versions are actually related (real
  editing).  A ``max_distance`` bound caps the quadratic blow-up on
  unrelated inputs by falling back to :func:`simple_delta`.

Both return deltas that satisfy ``delta.apply(old) == new`` (a
property-test invariant).
"""

from __future__ import annotations

from repro.core.delta import Delete, Delta, DeltaOp, Insert, Retain

__all__ = ["simple_delta", "myers_delta", "derive_delta"]


def simple_delta(old: str, new: str) -> Delta:
    """Common-prefix/suffix trim; replace the differing middle."""
    return Delta.between(old, new)


def myers_delta(old: str, new: str, max_distance: int | None = None) -> Delta:
    """Minimal-edit delta via Myers' greedy algorithm.

    ``max_distance`` bounds the edit distance explored; beyond it the
    function falls back to :func:`simple_delta` (still correct, just not
    minimal).
    """
    n, m = len(old), len(new)
    if old == new:
        return Delta(())
    bound = max_distance if max_distance is not None else n + m
    bound = min(bound, n + m)

    # Standard greedy forward Myers with a trace for backtracking.
    offset = bound
    v = [0] * (2 * bound + 2)
    trace: list[list[int]] = []
    found = False
    for d in range(bound + 1):
        trace.append(v.copy())
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[offset + k - 1] < v[offset + k + 1]):
                x = v[offset + k + 1]          # down: insertion from new
            else:
                x = v[offset + k - 1] + 1      # right: deletion from old
            y = x - k
            while x < n and y < m and old[x] == new[y]:
                x += 1
                y += 1
            v[offset + k] = x
            if x >= n and y >= m:
                found = True
                break
        if found:
            break
    if not found:
        return simple_delta(old, new)

    # Backtrack through the trace collecting reversed edit steps.
    steps: list[tuple[str, int]] = []  # ("=", n) / ("-", 1) / ("+", y_index)
    x, y = n, m
    for depth in range(d, 0, -1):
        prev = trace[depth]
        k = x - y
        if k == -depth or (
            k != depth and prev[offset + k - 1] < prev[offset + k + 1]
        ):
            prev_k = k + 1  # came from an insertion
        else:
            prev_k = k - 1  # came from a deletion
        prev_x = prev[offset + prev_k]
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            steps.append(("=", 1))
            x -= 1
            y -= 1
        if prev_k == k + 1:
            y -= 1
            steps.append(("+", y))
        else:
            x -= 1
            steps.append(("-", 1))
    while x > 0 and y > 0:
        steps.append(("=", 1))
        x -= 1
        y -= 1

    ops: list[DeltaOp] = []
    retain = 0
    delete = 0
    insert_chars: list[str] = []

    def flush() -> None:
        nonlocal retain, delete
        if retain:
            ops.append(Retain(retain))
            retain = 0
        if delete:
            ops.append(Delete(delete))
            delete = 0
        if insert_chars:
            ops.append(Insert("".join(insert_chars)))
            insert_chars.clear()

    for kind, value in reversed(steps):
        if kind == "=":
            if delete or insert_chars:
                flush()
            retain += 1
        elif kind == "-":
            if retain and (delete or insert_chars):
                flush()
            delete += 1
        else:
            if retain and (delete or insert_chars):
                flush()
            insert_chars.append(new[value])
    if delete or insert_chars:
        flush()
    return Delta(ops)


def derive_delta(old: str, new: str, minimal_threshold: int = 400) -> Delta:
    """Practical derivation: Myers when the edit looks small, trim
    otherwise (how a real client would behave)."""
    return myers_delta(old, new, max_distance=minimal_threshold)
