"""Formal expansion of products of Lie derivatives into signed sums indexed
by set partitions and by decreasing forests, together with an independent
left-multiplication oracle and the Leibniz-splitting combinatorics.

Terms are carried as canonical strings (the compact partition form, or the
nested forest form) mapped to signed integer multiplicities, so multiset
equality of two expansions reduces to dict equality.  In a partition of
[k+1] the block holding k+1 stands for the trailing bare-derivative factor
and every other block for one bracket factor, ordered by block maxima; in a
forest on [k] plus the empty root, the root tree is the trailing factor and
the remaining trees are the bracket factors, ordered by root label.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Mapping, NamedTuple

from . import dyck, forests
from .errors import SelfCheckError
from .forests import ROOT, Forest
from .partitions import SetPartition, enumerate_partitions


class OperatorSum:
    """A formal signed sum of operator words keyed by canonical term strings."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[str, int] | None = None):
        self.terms: dict[str, int] = {}
        if terms:
            for key, mult in terms.items():
                self.add(key, mult)

    def add(self, key: str, mult: int = 1) -> None:
        new = self.terms.get(key, 0) + mult
        if new:
            self.terms[key] = new
        elif key in self.terms:
            del self.terms[key]

    def items(self) -> list[tuple[str, int]]:
        return sorted(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def difference_witness(self, other: "OperatorSum") -> tuple[str, int, int] | None:
        """First key (sorted) whose multiplicities differ, with both values."""
        for key in sorted(set(self.terms) | set(other.terms)):
            a, b = self.terms.get(key, 0), other.terms.get(key, 0)
            if a != b:
                return key, a, b
        return None

    def to_json(self) -> list[dict]:
        return [{"key": key, "sign": mult} for key, mult in self.items()]

    def __repr__(self) -> str:
        return f"OperatorSum({len(self.terms)} terms)"


def partition_sign(part: SetPartition) -> int:
    return -1 if (len(part.blocks) - 1) % 2 else 1


def forest_sign(forest: Forest) -> int:
    return -1 if (forest.tree_count - 1) % 2 else 1


def _partitions_closed(k: int) -> OperatorSum:
    out = OperatorSum()
    for part in enumerate_partitions(k + 1):
        out.add(part.text(), partition_sign(part))
    return out


def _partitions_recurrence(k: int) -> OperatorSum:
    """Left-extension recurrence: starting from {{k+1}}, each new smaller
    element either joins an existing block (same sign) or opens a leading
    singleton block (sign flip)."""
    state: list[tuple[tuple[frozenset, ...], int]] = [((frozenset({k + 1}),), 1)]
    for j in range(k, 0, -1):
        nxt = []
        for blocks, sign in state:
            for i, block in enumerate(blocks):
                nxt.append((blocks[:i] + (block | {j},) + blocks[i + 1:], sign))
            nxt.append(((frozenset({j}),) + blocks, -sign))
        state = nxt
    out = OperatorSum()
    for blocks, sign in state:
        out.add(SetPartition([sorted(b) for b in blocks]).text(), sign)
    return out


def expand_lie_partitions(k: int) -> OperatorSum:
    """The partition-indexed expansion of a length-k product of Lie derivatives.

    Computed both as the closed form (every partition of [k+1] with sign by
    block count) and by the left-extension recurrence; the two must agree.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    closed = _partitions_closed(k)
    recur = _partitions_recurrence(k)
    witness = closed.difference_witness(recur)
    if witness is not None:
        raise SelfCheckError(f"partition expansion mismatch at {witness[0]}: {witness[1]} vs {witness[2]}")
    return closed


def _forests_closed(k: int) -> OperatorSum:
    out = OperatorSum()
    for f in forests.enumerate_forests(forests.standard_labels(k)):
        out.add(f.text(), forest_sign(f))
    return out


def _forests_from_partitions(k: int) -> OperatorSum:
    """Refine each partition term into forests: every non-trailing block
    becomes one decreasing tree on its elements, the trailing block (max
    element dropped) becomes the tree hanging from the empty root."""
    out = OperatorSum()
    for part in enumerate_partitions(k + 1):
        sign = partition_sign(part)
        blocks = part.blocks
        trailing = blocks[-1]  # the block holding k+1, last in normal ordering
        tree_choices = [list(forests.trees_on(b)) for b in blocks[:-1]]
        tree_choices.append(list(forests.trees_on(tuple(e for e in trailing if e != k + 1) + (ROOT,))))
        for combo in itertools.product(*tree_choices):
            labels: list = []
            father: dict = {}
            for tree in combo:
                labels.extend(tree.labels)
                father.update(tree.father)
            out.add(Forest(labels, father).text(), sign)
    return out


def expand_lie_forests(k: int) -> OperatorSum:
    """The forest-indexed expansion of a length-k product of Lie derivatives.

    Computed both as the closed form (every forest on [k] plus the empty
    root, signed by tree count) and by refining the partition expansion
    block-by-block into trees; the two must agree.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    closed = _forests_closed(k)
    refined = _forests_from_partitions(k)
    witness = closed.difference_witness(refined)
    if witness is not None:
        raise SelfCheckError(f"forest expansion mismatch at {witness[0]}: {witness[1]} vs {witness[2]}")
    return closed


def lie_chain_oracle(k: int) -> OperatorSum:
    """Expand the product by repeated left multiplication, as an independent oracle.

    Starting from the bare empty root, multiply by one Lie derivative at a
    time for j = k down to 1: the derivative part grafts j below every node
    of every tree of every term (Leibniz across factors, chain rule inside
    each), the bracket part prepends the singleton tree {j} with a sign
    flip.  The result must coincide with expand_lie_forests(k).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # a term is the tuple of father indices of the labels placed so far,
    # j..k in order (0 for a root, k+1 for the empty root)
    state: dict[tuple[int, ...], int] = {(): 1}
    for j in range(k, 0, -1):
        nxt: dict[tuple[int, ...], int] = {}

        def put(fa: tuple[int, ...], m: int) -> None:
            new = nxt.get(fa, 0) + m
            if new:
                nxt[fa] = new
            elif fa in nxt:
                del nxt[fa]

        for fa, mult in state.items():
            for node in range(j + 1, k + 2):
                put((node, *fa), mult)
            put((0, *fa), -mult)
        state = nxt
    labels = forests.standard_labels(k)
    out = OperatorSum()
    for fa, mult in state.items():
        out.add(forests._forest(labels, fa).text(), mult)
    expected = expand_lie_forests(k)
    witness = out.difference_witness(expected)
    if witness is not None:
        raise SelfCheckError(f"oracle mismatch at {witness[0]}: {witness[1]} vs {witness[2]}")
    return out


def leibniz_split(h: int, l: int) -> list[tuple[int, ...]]:
    """All l^h maps [h] -> [l], as value tuples in lexicographic order."""
    if h < 0 or l < 1:
        raise ValueError("need h >= 0 and l >= 1")
    return list(itertools.product(range(1, l + 1), repeat=h))


def leibniz_fiber_counts(h: int, l: int) -> dict[tuple[int, ...], int]:
    """Group the maps [h] -> [l] by fiber-size vector; the count of each
    vector H is the multinomial h!/prod(h_j!)."""
    counts: dict[tuple[int, ...], int] = {}
    for mu in leibniz_split(h, l):
        sizes = tuple(mu.count(v) for v in range(1, l + 1))
        counts[sizes] = counts.get(sizes, 0) + 1
    for sizes, count in counts.items():
        expected = math.factorial(h)
        for s in sizes:
            expected //= math.factorial(s)
        if count != expected:
            raise SelfCheckError(f"fiber count of {sizes} is {count}, expected multinomial {expected}")
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
    rows = []
    splits = list(weak_compositions(h, k + 1))
    for p, final_deficit, coeff in dyck.walk(k):
        for hs in splits:
            rows.append(
                EstimateRow(
                    p=p,
                    h=hs,
                    coeff=coeff,
                    a_order=hs[k] + final_deficit,
                    xi_orders=tuple(hs[j] + p[j] for j in range(k)),
                )
            )
    return rows
