"""Set partitions of [k] in normal ordering, the shrink operation, and the
bijection with paths in the composition graph.

Normal ordering: elements sorted inside each block, blocks sorted by their
largest element.  The compact text form writes blocks as digit strings
separated by '|' ("1|35|6|247"); for k > 9 elements are comma-separated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .compositions import validate_composition


@lru_cache(maxsize=None)
def bell(k: int) -> int:
    """Number of set partitions of [k], by the Bell triangle recurrence."""
    if k < 0:
        raise ValueError("k must be >= 0")
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class SetPartition:
    """An immutable set partition of [k], stored in normal ordering."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Sequence[Sequence[int]]):
        normalized = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[-1] if b else 0)
        seen: set[int] = set()
        for b in normalized:
            if not b:
                raise ValueError("blocks must be nonempty")
            for e in b:
                if not isinstance(e, int) or e < 1:
                    raise ValueError(f"element {e!r} is not a positive integer")
                if e in seen:
                    raise ValueError(f"element {e} appears in two blocks")
                seen.add(e)
        k = len(seen)
        if seen and seen != set(range(1, k + 1)):
            raise ValueError(f"blocks do not cover [{k}]: got {sorted(seen)}")
        object.__setattr__(self, "blocks", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def shrink(self) -> "SetPartition":
        """Decrement every element; drop the resulting 0 (and its block if
        it was a singleton).  Partitions [k-1]."""
        if self.size == 0:
            raise ValueError("cannot shrink the empty partition")
        new_blocks = []
        for b in self.blocks:
            shifted = tuple(e - 1 for e in b if e > 1)
            if shifted:
                new_blocks.append(shifted)
        return SetPartition(new_blocks)

    def text(self) -> str:
        if not self.blocks:
            return "∅"
        sep = "," if self.size > 9 else ""
        return "|".join(sep.join(str(e) for e in b) for b in self.blocks)

    @classmethod
    def parse(cls, s: str) -> "SetPartition":
        s = s.strip()
        if s in ("", "∅"):
            return cls(())
        blocks = []
        for chunk in s.split("|"):
            if "," in chunk:
                blocks.append([int(e) for e in chunk.split(",")])
            else:
                blocks.append([int(c) for c in chunk])
        return cls(blocks)

    def __eq__(self, other) -> bool:
        return isinstance(other, SetPartition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"SetPartition({self.text()!r})"


def enumerate_partitions(k: int) -> Iterator[SetPartition]:
    """Yield every set partition of [k] once, in a fixed insertion order."""
    if k < 0:
        raise ValueError("k must be >= 0")

    def rec(n: int) -> Iterator[list[list[int]]]:
        if n == 0:
            yield []
            return
        for smaller in rec(n - 1):
            for i in range(len(smaller)):
                smaller[i].append(n)
                yield smaller
                smaller[i].pop()
            smaller.append([n])
            yield smaller
            smaller.pop()

    for blocks in rec(k):
        yield SetPartition(blocks)


def _shapes(k: int) -> Iterator[tuple[int, ...]]:
    """The shape of every partition of [k], one per partition, by a walk
    over block lengths kept in normal order.

    Element n either opens a singleton block, which is last because n is
    the largest element so far, or joins a block, whose maximum becomes n,
    so that block moves to the end.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    stack = [()]  # shapes of partitions of [n] for n <= k, depth first
    while stack:
        shape = stack.pop()
        if sum(shape) == k:
            yield shape
        else:
            stack += [shape[:i] + shape[i + 1:] + (shape[i] + 1,) for i in range(len(shape))]
            stack.append(shape + (1,))


def shape_census(k: int) -> dict[tuple[int, ...], int]:
    """How many partitions of [k] have each shape, in one enumeration pass."""
    census: dict[tuple[int, ...], int] = {}
    for shape in _shapes(k):
        census[shape] = census.get(shape, 0) + 1
    return census


def count_by_shape(lam: Sequence[int]) -> int:
    """Number of partitions of [sum(lam)] with the given shape, by direct
    enumeration and filtering."""
    validate_composition(lam)
    target = tuple(lam)
    return sum(1 for shape in _shapes(sum(target)) if shape == target)


def partition_to_path(part: SetPartition) -> list[tuple[int, ...]]:
    """The path () -> ... -> shape(part) collecting shapes under repeated shrinking."""
    shapes = [part.shape()]
    cur = part
    while cur.size > 0:
        cur = cur.shrink()
        shapes.append(cur.shape())
    shapes.reverse()
    return shapes


def path_to_partition(path: Sequence[Sequence[int]]) -> SetPartition:
    """Rebuild the unique partition whose shrink chain produces the given shapes.

    Inverse of partition_to_path.  Raises ValueError naming the first step
    that is not a valid edge of the composition graph.
    """
    steps = [tuple(lam) for lam in path]
    if not steps or steps[0] != ():
        raise ValueError("not a valid path: must start with the empty composition")
    blocks: list[list[int]] = []
    for i in range(1, len(steps)):
        prev, cur = steps[i - 1], steps[i]
        shifted = [[e + 1 for e in b] for b in blocks]
        if cur == (1,) + prev:
            shifted.insert(0, [1])
        elif len(cur) == len(prev):
            diffs = [j for j in range(len(prev)) if cur[j] != prev[j]]
            if len(diffs) != 1 or cur[diffs[0]] != prev[diffs[0]] + 1:
                raise ValueError(f"not a valid path: step {i} ({prev} -> {cur})")
            shifted[diffs[0]].insert(0, 1)
        else:
            raise ValueError(f"not a valid path: step {i} ({prev} -> {cur})")
        blocks = shifted
    return SetPartition(blocks)
