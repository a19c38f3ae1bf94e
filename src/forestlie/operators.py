"""Formal expansion of products of Lie derivatives into signed sums indexed
by set partitions and by decreasing forests, together with an independent
left-multiplication oracle and the Leibniz-splitting combinatorics.

Each builder carries its terms as keys mapped to signed multiplicities: a
partition of [k+1] as its compact text, built while the partitions are
enumerated, and a forest as its tuple of father indices.  Its two
constructions are compared key by key, and the returned OperatorSum holds
each term as its canonical string (the compact partition form, or the
nested forest form, rendered once per returned forest), so multiset
equality of two expansions reduces to dict equality.

In a partition of [k+1] the block holding k+1 stands for the trailing
bare-derivative factor and every other block for one bracket factor, ordered
by block maxima; in a forest on [k] plus the empty root, the root tree is
the trailing factor and the remaining trees are the bracket factors, ordered
by root label.
"""

from __future__ import annotations

import itertools
import math
import sys
from operator import add
from typing import Callable, Iterator, Mapping, NamedTuple

from . import dyck
from .errors import compare


def __getattr__(name: str):
    # operators.enumerate_partitions is partitions.enumerate_partitions, imported on
    # first use, so that estimate, which expands nothing, loads no partitions module
    if name == "enumerate_partitions":
        from .partitions import enumerate_partitions

        globals()[name] = enumerate_partitions  # later lookups skip this function
        return enumerate_partitions
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class OperatorSum:
    """A formal signed sum of operator words keyed by canonical term strings.

    The forest builders carry their terms keyed by father tuples and render
    each returned term to its string once, when they build the sum; the
    partition builders key their terms by text from the start.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[str, int] | None = None):
        # a mapping's keys are distinct, so only its zero terms need dropping
        self.terms: dict[str, int] = {key: mult for key, mult in (terms or {}).items() if mult}

    def items(self) -> list[tuple[str, int]]:
        return sorted(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorSum) and self.terms == other.terms

    def to_json(self) -> list[dict]:
        return [{"key": key, "sign": mult} for key, mult in self.items()]

    def __repr__(self) -> str:
        return f"OperatorSum({len(self.terms)} terms)"


def _rendered(terms: Mapping[tuple, int], text: Callable[[tuple], str]) -> OperatorSum:
    return OperatorSum({text(key): mult for key, mult in terms.items()})


def _partitions_closed(k: int) -> dict[str, int]:
    """Every partition of [k+1], keyed by its text and signed by its block
    count, in the order of enumerate_partitions(k + 1): the block texts grow
    by elements 1..k+1 in normal order (see the partitions module docstring)."""
    sep = "," if k + 1 > 9 else ""
    level: list[tuple[str, ...]] = [()]
    for es in map(str, range(1, k + 2)):
        nxt = []
        for blocks in level:
            nxt += [blocks[:b] + blocks[b + 1:] + (text + sep + es,) for b, text in enumerate(blocks)]
            nxt.append(blocks + (es,))
        level = nxt
    return {"|".join(blocks): 1 if len(blocks) % 2 else -1 for blocks in level}


def _partitions_recurrence(k: int) -> dict[str, int]:
    """Left-extension recurrence: starting from {{k+1}}, each new smaller
    element either joins an existing block (same sign) or opens a leading
    singleton block (sign flip).

    A term holds the texts of its blocks in normal order: a new element is
    the smallest so far, so it goes in front of the block it joins, and a
    singleton of it is the first block.  The terms that element 1 completes
    are joined into their keys as they are made.
    """
    sep = "," if k + 1 > 9 else ""
    state: list[tuple[tuple[str, ...], int]] = [((str(k + 1),), 1)]  # (block texts, sign)
    for es in map(str, range(k, 1, -1)):
        nxt = []
        for texts, sign in state:
            nxt += [(texts[:i] + (es + sep + text,) + texts[i + 1:], sign) for i, text in enumerate(texts)]
            nxt.append(((es, *texts), -sign))
        state = nxt
    first = "1" + sep
    out: dict[str, int] = {}
    for texts, sign in state:
        for i, text in enumerate(texts):
            key = "|".join(texts[:i] + (first + text,) + texts[i + 1:])
            out[key] = out.get(key, 0) + sign
        key = "|".join(("1", *texts))
        out[key] = out.get(key, 0) - sign
    return out


def expand_lie_partitions(k: int) -> OperatorSum:
    """The partition-indexed expansion of a length-k product of Lie derivatives.

    Computed both as the closed form (every partition of [k+1] with sign by
    block count) and by the left-extension recurrence; the two must agree.
    Both key their terms by text, built while the partitions are enumerated.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    closed = _partitions_closed(k)
    compare("partition expansion", closed, _partitions_recurrence(k), str)
    return OperatorSum(closed)


def _forests_closed(k: int) -> dict[tuple[int, ...], int]:
    """Every forest on [k] plus the empty root, keyed by its father indices
    and signed by its tree count (one more than its zeros)."""
    from . import forests

    return {fa: -1 if fa.count(0) % 2 else 1 for fa in forests._father_arrays(k)}


def _forests_from_partitions(k: int) -> dict[tuple[int, ...], int]:
    """Refine each partition of [k+1] from enumerate_partitions into forests:
    every non-trailing block becomes one decreasing tree on its elements, the
    trailing block (k+1, its maximum, standing for the empty root) the tree
    hanging from the empty root.  Inside a block each element but the maximum
    picks a larger element of the block as its father.  The partitions come
    from operators.enumerate_partitions, read at call time."""
    out: dict[tuple[int, ...], int] = {}
    for part in sys.modules[__name__].enumerate_partitions(k + 1):
        sign = 1 if len(part.blocks) % 2 else -1
        choices: list = [None] * (k + 1)
        for block in part.blocks:
            for i, e in enumerate(block):
                choices[e - 1] = block[i + 1:] or (0,)
        for fa in itertools.product(*choices[:k]):
            out[fa] = out.get(fa, 0) + sign
    return out


def _lie_forests(k: int) -> dict[tuple[int, ...], int]:
    """The forest expansion keyed by father indices: the closed form, checked
    against the partition refinement."""
    from . import forests

    closed = _forests_closed(k)
    compare("forest expansion", closed, _forests_from_partitions(k), forests._text)
    return closed


def expand_lie_forests(k: int) -> OperatorSum:
    """The forest-indexed expansion of a length-k product of Lie derivatives.

    Computed both as the closed form (every forest on [k] plus the empty
    root, signed by tree count) and by refining the partition expansion
    block-by-block into trees; the two must agree.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    from . import forests

    return _rendered(_lie_forests(k), forests._text)


def _lie_chain(k: int) -> dict[tuple[int, ...], int]:
    """The oracle's left multiplications; a term is the tuple of father
    indices of the labels placed so far, j..k in order (0 for a root, k+1
    for the empty root)."""
    state: dict[tuple[int, ...], int] = {(): 1}
    for j in range(k, 0, -1):
        nxt: dict[tuple[int, ...], int] = {}
        for fa, mult in state.items():
            for node in range(j + 1, k + 2):
                key = (node, *fa)
                nxt[key] = nxt.get(key, 0) + mult
            key = (0, *fa)
            nxt[key] = nxt.get(key, 0) - mult
        state = nxt
    return state


def lie_chain_oracle(k: int) -> OperatorSum:
    """Expand the product by repeated left multiplication, as an independent oracle.

    Starting from the bare empty root, multiply by one Lie derivative at a
    time for j = k down to 1: the derivative part grafts j below every node
    of every tree of every term (Leibniz across factors, chain rule inside
    each), the bracket part prepends the singleton tree {j} with a sign
    flip.  The result must coincide with expand_lie_forests(k), term by term
    on father indices.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    from . import forests

    state = _lie_chain(k)
    compare("oracle", state, _lie_forests(k), forests._text)
    return _rendered(state, forests._text)


def leibniz_split(h: int, l: int) -> list[tuple[int, ...]]:
    """All l^h maps [h] -> [l], as value tuples in lexicographic order."""
    if h < 0 or l < 1:
        raise ValueError("need h >= 0 and l >= 1")
    return list(itertools.product(range(1, l + 1), repeat=h))


def leibniz_fiber_counts(h: int, l: int) -> dict[tuple[int, ...], int]:
    """Group the maps [h] -> [l] by fiber-size vector; each weak composition
    H of h into l parts occurs, with the multinomial count h!/prod(h_j!)."""
    counts: dict[tuple[int, ...], int] = {}
    for mu in leibniz_split(h, l):
        sizes = tuple(mu.count(v) for v in range(1, l + 1))
        counts[sizes] = counts.get(sizes, 0) + 1
    compare("fiber count", counts, {sizes: math.factorial(h) // math.prod(map(math.factorial, sizes))
                                    for sizes in weak_compositions(h, l)})
    return counts


def weak_compositions(h: int, l: int) -> Iterator[tuple[int, ...]]:
    """All l-tuples of nonnegative integers summing to h, lexicographically."""
    if l == 0:
        if h == 0:
            yield ()
        return
    if l == 1:
        yield (h,)
        return
    for first in range(h + 1):
        for rest in weak_compositions(h - first, l - 1):
            yield (first,) + rest


class EstimateRow(NamedTuple):
    """One row of the derivative-order bound: a Dyck vector, a splitting of
    the h outer derivatives, the coefficient, and the resulting orders."""

    p: tuple[int, ...]
    h: tuple[int, ...]
    coeff: int
    a_order: int
    xi_orders: tuple[int, ...]


def estimate_certificate(k: int, h: int) -> list[EstimateRow]:
    """The complete term table of the derivative-order bound.

    One row per (Dyck vector of length k, weak composition of h into k+1
    parts): the last splitting part raises the order on the tensor slot,
    part j raises the order on the j-th field slot.
    """
    if k < 1 or h < 0:
        raise ValueError("need k >= 1 and h >= 0")
    splits = list(weak_compositions(h, k + 1))
    # map(add, hs, p) stops with p, so it leaves out the tensor part hs[k]
    return [EstimateRow(p, hs, coeff, hs[k] + final_deficit, tuple(map(add, hs, p)))
            for p, final_deficit, coeff in dyck.walk(k) for hs in splits]
