"""Set partitions of [k] in normal ordering, the shrink operation, and the
bijection with paths in the composition graph.

Normal ordering: elements sorted inside each block, blocks sorted by their
largest element.  The compact text form writes blocks as digit strings
separated by '|' ("1|35|6|247"); for k > 9 elements are comma-separated.

Growth in normal order: a partition of [n] grows from one of [n-1] by adding
n, the largest element so far.  Either n joins block b, whose maximum becomes
n, so that block moves to the end one longer, or n opens a singleton block,
which is last.  The joins come first, for b in order, then the singleton; the
blocks stay in normal order without sorting.  shape_census,
enumerate_partitions and operators._partitions_closed all grow by this rule.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import ne
from typing import Iterator, Sequence

from .compositions import validate_composition

DEPTH = 4  # levels that shape_census grows below each top shape into one list


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
                if not isinstance(e, int) or isinstance(e, bool) or e < 1:
                    raise ValueError(f"element {e!r} is not a positive integer")
                if e in seen:
                    raise ValueError(f"element {e} appears in two blocks")
                seen.add(e)
        k = len(seen)
        if seen and seen != set(range(1, k + 1)):
            raise ValueError(f"blocks do not cover [{k}]: got {sorted(seen)}")
        _set_blocks(self, tuple(normalized))

    @classmethod
    def _normal(cls, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """The partition with these blocks, which must already be in normal
        order and cover [k]; nothing is checked."""
        part = object.__new__(cls)
        _set_blocks(part, blocks)
        return part

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    def __delattr__(self, name):
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


# the slot descriptor sets the field past SetPartition.__setattr__, which refuses
_set_blocks = SetPartition.blocks.__set__


def enumerate_partitions(k: int) -> Iterator[SetPartition]:
    """Yield every set partition of [k] once, in a fixed insertion order: each
    partition of [k-1], in this order, grown by k in normal order (see the
    module docstring).  Blocks are tuples shared between partitions."""
    if k < 0:
        raise ValueError("k must be >= 0")

    def rec(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if n == 0:
            yield ()
            return
        for blocks in rec(n - 1):
            for b in range(len(blocks)):
                yield blocks[:b] + blocks[b + 1:] + (blocks[b] + (n,),)
            yield blocks + ((n,),)

    yield from map(SetPartition._normal, rec(k))


def shape_census(k: int) -> dict[tuple[int, ...], int]:
    """How many partitions of [k] have each shape, in one enumeration pass.

    A shape is walked as a str whose characters are its block lengths, in
    normal order, and grows by the rule of the module docstring.  The
    children of each shape are built once per call.  The walk goes level by
    level down to k - DEPTH; each shape there grows its last DEPTH levels into
    one list with an entry per partition, which is counted before the next
    one grows.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    kids: dict[str, list[str]] = {}

    def grow(level: list[str]) -> list[str]:
        out = []
        for s in level:
            children = kids.get(s)
            if children is None:
                children = kids[s] = [*(s[:i] + s[i + 1:] + chr(ord(s[i]) + 1) for i in range(len(s))),
                                      s + "\x01"]
            out += children
        return out

    split = max(k - DEPTH, 0)
    top = [""]
    for _ in range(split):
        top = grow(top)
    census: Counter[str] = Counter()
    for s in top:
        level = [s]
        for _ in range(k - split):
            level = grow(level)
        census.update(level)
    return {tuple(map(ord, s)): n for s, n in census.items()}


def count_by_shape(lam: Sequence[int]) -> int:
    """Number of partitions of [sum(lam)] with the given shape, by direct
    enumeration of every partition of [sum(lam)]."""
    validate_composition(lam)
    return shape_census(sum(lam)).get(tuple(lam), 0)


def partition_to_path(part: SetPartition) -> list[tuple[int, ...]]:
    """The path () -> ... -> shape(part) collecting shapes under repeated shrinking.

    The m-th shrink drops the element m from its block and an emptied block
    with it; the other blocks keep their order, so the walk runs on the block
    lengths alone, each shape being the lengths that are not yet 0.
    """
    lengths = list(map(len, part.blocks))
    block_of = [0] * (sum(lengths) + 1)
    for j, b in enumerate(part.blocks):
        for e in b:
            block_of[e] = j
    shapes = [tuple(lengths)]
    for j in block_of[1:]:  # the block of each element m = 1, 2, ... in turn
        lengths[j] -= 1
        shapes.append(tuple(filter(None, lengths)))
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
        if len(cur) == len(prev):
            changed = list(map(ne, cur, prev))
            j = changed.index(True) if changed.count(True) == 1 else None
            if j is None or cur[j] != prev[j] + 1:
                raise ValueError(f"not a valid path: step {i} ({prev} -> {cur})")
            blocks[j].append(k - i + 1)
        elif cur == (1,) + prev:
            blocks.insert(0, [k - i + 1])
        else:
            raise ValueError(f"not a valid path: step {i} ({prev} -> {cur})")
    return SetPartition._normal(tuple(map(tuple, map(reversed, blocks))))
