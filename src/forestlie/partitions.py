"""Set partitions of [k] in normal ordering, the shrink operation, and the
bijection with paths in the composition graph.

Normal ordering: elements sorted inside each block, blocks sorted by their
largest element.  The compact text form writes blocks as digit strings
separated by '|' ("1|35|6|247"); for k > 9 elements are comma-separated.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
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

    @classmethod
    def _normal(cls, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """The partition with these blocks, which must already be in normal
        order and cover [k]; nothing is checked."""
        part = object.__new__(cls)
        object.__setattr__(part, "blocks", blocks)
        return part

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    def __reduce__(self):
        return SetPartition, (self.blocks,)  # pickle and copy rebuild through __init__

    @property
    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    def shape(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def shrink(self) -> "SetPartition":
        """Decrement every element; drop the resulting 0 (and its block if
        it was a singleton).  Partitions [k-1]."""
        if not self.blocks:
            raise ValueError("cannot shrink the empty partition")
        # the maxima keep their order, so the blocks stay in normal order
        shifted = (tuple(e - 1 for e in b if e > 1) for b in self.blocks)
        return SetPartition._normal(tuple(b for b in shifted if b))

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
        chunks = s.split("|")
        # text() separates elements by commas exactly when there are more
        # than 9, so a block without a comma, like "11", may still be one element
        if "," in s or sum(map(len, chunks)) > 9:
            return cls([[int(e) for e in chunk.split(",")] for chunk in chunks])
        return cls([[int(c) for c in chunk] for chunk in chunks])

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

    for blocks in rec(k):  # elements are appended in increasing order
        yield SetPartition._normal(tuple(sorted(map(tuple, blocks), key=itemgetter(-1))))


def _growth_strings(k: int) -> list[tuple[tuple[int, ...], int]]:
    """Every partition of [k] as (restricted growth string, block count), in
    the order of enumerate_partitions.

    Entry e-1 of the string is the block of e, blocks numbered 0, 1, ... by
    their smallest element; each element joins a block already open or opens
    the next one.
    """
    level = [((), 0)]
    for _ in range(k):
        level = [(a + (b,), m + (b == m)) for a, m in level for b in range(m + 1)]
    return level


@lru_cache(maxsize=None)
def _element_texts(k: int) -> tuple[str, ...]:
    return tuple(map(str, range(1, k + 1)))


def _growth_text(a: Sequence[int]) -> str:
    """SetPartition.text() of the partition with restricted growth string a."""
    sep = "," if len(a) > 9 else ""
    blocks: dict[int, str] = {}  # reinserted at each element, so ordered by maxima
    for e, b in zip(_element_texts(len(a)), a):
        text = blocks.pop(b, None)
        blocks[b] = e if text is None else text + sep + e
    return "|".join(blocks.values()) or "∅"


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
    """The path () -> ... -> shape(part) collecting shapes under repeated shrinking.

    The m-th shrink drops the element m from its block and an emptied block
    with it; the other blocks keep their order, so the walk runs on the block
    lengths alone.
    """
    lengths = list(part.shape())
    block_of = [0] * (part.size + 1)
    for j, b in enumerate(part.blocks):
        for e in b:
            block_of[e] = j
    shapes = [tuple(lengths)]
    for m in range(1, part.size + 1):
        lengths[block_of[m]] -= 1
        shapes.append(tuple(n for n in lengths if n))
    shapes.reverse()
    return shapes


def path_to_partition(path: Sequence[Sequence[int]]) -> SetPartition:
    """Rebuild the unique partition whose shrink chain produces the given shapes.

    Inverse of partition_to_path.  Raises ValueError naming the first step
    that is not a valid edge of the composition graph.

    Step i of a path to a partition of [k] adds the element k - i + 1, the
    smallest so far: as a new first block, or as the new least element of a
    block, whose maximum and place stay the same.  So the blocks are built
    in normal order, each in decreasing order until it is reversed.
    """
    steps = [tuple(lam) for lam in path]
    if not steps or steps[0] != ():
        raise ValueError("not a valid path: must start with the empty composition")
    k = len(steps) - 1
    blocks: list[list[int]] = []
    for i in range(1, len(steps)):
        prev, cur = steps[i - 1], steps[i]
        if cur == (1,) + prev:
            blocks.insert(0, [k - i + 1])
        elif len(cur) == len(prev):
            diffs = [j for j in range(len(prev)) if cur[j] != prev[j]]
            if len(diffs) != 1 or cur[diffs[0]] != prev[diffs[0]] + 1:
                raise ValueError(f"not a valid path: step {i} ({prev} -> {cur})")
            blocks[diffs[0]].append(k - i + 1)
        else:
            raise ValueError(f"not a valid path: step {i} ({prev} -> {cur})")
    return SetPartition._normal(tuple(tuple(reversed(b)) for b in blocks))
