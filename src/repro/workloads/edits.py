"""Edit-script generators for the macro-benchmarks (SVII-C).

A macro test case is "a whole document save followed by either replacing
an existing sentence with a different one or inserting or deleting an
arbitrary sentence or group of sentences".  The generators here produce
those deltas against a given document, in the four categories of
Fig. 5 / Fig. 8: inserts only, deletes only, inserts & deletes
(including replacement), plus character-level typing edits used by the
session traces.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.delta import Delta
from repro.workloads.text import random_sentence, split_sentences

__all__ = [
    "sentence_insert",
    "sentence_delete",
    "sentence_replace",
    "typing_burst",
    "keystroke_deltas",
    "edit_stream",
    "CATEGORIES",
]

#: macro-benchmark workload categories, paper row order
CATEGORIES = ("inserts only", "deletes only", "inserts & deletes")


def sentence_insert(document: str, rng: random.Random,
                    max_sentences: int = 3) -> Delta:
    """Insert one or more fresh sentences at a sentence boundary."""
    spans = split_sentences(document)
    boundaries = [0] + [end for _, end in spans]
    pos = rng.choice(boundaries)
    text = " ".join(
        random_sentence(rng) for _ in range(rng.randint(1, max_sentences))
    )
    if pos:
        text = " " + text if document[pos - 1] != " " else text
    return Delta.insertion(pos, text)


def sentence_delete(document: str, rng: random.Random,
                    max_sentences: int = 3) -> Delta:
    """Delete an arbitrary sentence or group of sentences."""
    spans = split_sentences(document)
    if not spans:
        raise ValueError("document has no sentences to delete")
    first = rng.randrange(len(spans))
    last = min(len(spans) - 1, first + rng.randint(0, max_sentences - 1))
    start = spans[first][0]
    end = spans[last][1]
    return Delta.deletion(start, end - start)


def sentence_replace(document: str, rng: random.Random) -> Delta:
    """Replace an existing sentence with a different one."""
    spans = split_sentences(document)
    if not spans:
        raise ValueError("document has no sentences to replace")
    start, end = rng.choice(spans)
    replacement = random_sentence(rng)
    if document[end - 1 : end] == " ":
        replacement += " "
    return Delta.replacement(start, end - start, replacement)


def typing_burst(document: str, rng: random.Random,
                 max_chars: int = 20) -> Delta:
    """A character-level typing burst at a random position (used by
    session traces: a user types a few characters between autosaves)."""
    pos = rng.randint(0, len(document))
    text = "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz ")
        for _ in range(rng.randint(1, max_chars))
    )
    return Delta.insertion(pos, text)


def keystroke_deltas(rng: random.Random, length: int,
                     count: int) -> list[Delta]:
    """Keystroke-level edits the way typing produces them: runs of
    single-character inserts (with occasional backspaces) at a cursor
    that occasionally jumps to a new edit site, against a document of
    ``length`` characters.  This is the workload edit coalescing exists
    for: adjacent ops fold into one small delta."""
    deltas: list[Delta] = []
    cursor = rng.randrange(max(1, length))
    for _ in range(count):
        if rng.random() < 0.04:
            cursor = rng.randrange(max(1, length))
        if rng.random() < 0.12 and cursor > 0:  # backspace
            cursor -= 1
            length -= 1
            deltas.append(Delta.deletion(cursor, 1))
        else:
            deltas.append(Delta.insertion(cursor, rng.choice("abcdefgh ")))
            cursor += 1
            length += 1
    return deltas


def edit_stream(document: str, category: str, rng: random.Random,
                count: int) -> Iterator[Delta]:
    """Yield ``count`` deltas of the given category, each applying to
    the document as evolved by the previous ones."""
    current = document
    for _ in range(count):
        if category == "inserts only":
            delta = sentence_insert(current, rng)
        elif category == "deletes only":
            if not current:
                delta = sentence_insert(current, rng)  # refill when drained
            else:
                delta = sentence_delete(current, rng)
        elif category == "inserts & deletes":
            roll = rng.random()
            if not current or roll < 0.34:
                delta = sentence_insert(current, rng)
            elif roll < 0.67:
                delta = sentence_delete(current, rng)
            else:
                delta = sentence_replace(current, rng)
        else:
            raise ValueError(f"unknown category {category!r}")
        yield delta
        current = delta.apply(current)
