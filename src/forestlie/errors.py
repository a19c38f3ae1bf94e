"""What a failed cross-check raises, and how it finds its first witness."""

from __future__ import annotations

from typing import Callable, Mapping


class SelfCheckError(RuntimeError):
    """Two independent computations of the same quantity disagree.

    Raised by operations that cross-verify their result against an
    alternative construction; seeing it means a bug, not bad input.
    """


def first_difference(a: Mapping, b: Mapping) -> tuple | None:
    """First key (sorted) whose values differ, a missing key counting as 0,
    with both values; None when the two agree."""
    if a == b:
        return None
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, 0), b.get(key, 0)
        if x != y:
            return key, x, y
    return None


def compare(what: str, a: Mapping, b: Mapping, text: Callable = repr) -> None:
    """Raise SelfCheckError naming the construction that disagreed and, as
    text, the first key whose values differ, with both values."""
    witness = first_difference(a, b)
    if witness is not None:
        raise SelfCheckError(f"{what} mismatch at {text(witness[0])}: {witness[1]} vs {witness[2]}")
