"""Formal expansion of products of Lie derivatives into signed sums indexed
by set partitions and by decreasing forests, together with an independent
left-multiplication oracle and the Leibniz-splitting combinatorics.

Each builder carries its terms as integer tuples mapped to signed
multiplicities: a partition of [k+1] as its restricted growth string, a
forest as its tuple of father indices.  Its two constructions are compared
key by key on those tuples, and the returned OperatorSum renders each term
once to its canonical string (the compact partition form, or the nested
forest form), so multiset equality of two expansions reduces to dict
equality.

In a partition of [k+1] the block holding k+1 stands for the trailing
bare-derivative factor and every other block for one bracket factor, ordered
by block maxima; in a forest on [k] plus the empty root, the root tree is
the trailing factor and the remaining trees are the bracket factors, ordered
by root label.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Mapping, NamedTuple

from . import dyck, forests, partitions
from .errors import compare
# operators.enumerate_partitions stays importable: bench/tracing.py wraps it
from .partitions import enumerate_partitions  # noqa: F401


class OperatorSum:
    """A formal signed sum of operator words keyed by canonical term strings.

    The builders carry their terms keyed by integer tuples and render each
    returned term to its string once, when they build the sum.
    """

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

    def to_json(self) -> list[dict]:
        return [{"key": key, "sign": mult} for key, mult in self.items()]

    def __repr__(self) -> str:
        return f"OperatorSum({len(self.terms)} terms)"


def _rendered(terms: Mapping[tuple, int], text: Callable[[tuple], str]) -> OperatorSum:
    return OperatorSum({text(key): mult for key, mult in terms.items()})


def _partitions_closed(k: int) -> dict[tuple[int, ...], int]:
    """Every partition of [k+1], keyed by its restricted growth string and
    signed by its block count."""
    return {a: 1 if m % 2 else -1 for a, m in partitions._growth_strings(k + 1)}


def _partitions_recurrence(k: int) -> dict[tuple[int, ...], int]:
    """Left-extension recurrence: starting from {{k+1}}, each new smaller
    element either joins an existing block (same sign) or opens a leading
    singleton block (sign flip).

    A term holds the block of each element j..k+1, blocks numbered in the
    order they open; renumbering by first appearance from element 1 gives
    its restricted growth string.
    """
    state: list[tuple[tuple[int, ...], int, int]] = [((0,), 1, 1)]  # (blocks, block count, sign)
    for _ in range(k):
        nxt = []
        for a, m, sign in state:
            nxt += [((b, *a), m, sign) for b in range(m)]
            nxt.append(((m, *a), m + 1, -sign))
        state = nxt
    out: dict[tuple[int, ...], int] = {}
    for a, _, sign in state:
        first: dict[int, int] = {}
        key = tuple([first.setdefault(b, len(first)) for b in a])
        out[key] = out.get(key, 0) + sign
    return out


def expand_lie_partitions(k: int) -> OperatorSum:
    """The partition-indexed expansion of a length-k product of Lie derivatives.

    Computed both as the closed form (every partition of [k+1] with sign by
    block count) and by the left-extension recurrence; the two must agree.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    closed = _partitions_closed(k)
    compare("partition expansion", closed, _partitions_recurrence(k), partitions._growth_text)
    return _rendered(closed, partitions._growth_text)


def _forests_closed(k: int) -> dict[tuple[int, ...], int]:
    """Every forest on [k] plus the empty root, keyed by its father indices
    and signed by its tree count (one more than its zeros)."""
    return {fa: -1 if fa.count(0) % 2 else 1 for fa in forests._father_arrays(k)}


def _forests_from_partitions(k: int) -> dict[tuple[int, ...], int]:
    """Refine each partition term into forests: every non-trailing block
    becomes one decreasing tree on its elements, the trailing block (k+1,
    its maximum, standing for the empty root) the tree hanging from the
    empty root.  Inside a block each element but the maximum picks a larger
    element of the block as its father."""
    out: dict[tuple[int, ...], int] = {}
    for a, m in partitions._growth_strings(k + 1):
        sign = 1 if m % 2 else -1
        blocks: list[list[int]] = [[] for _ in range(m)]
        for e, b in enumerate(a, 1):
            blocks[b].append(e)
        choices: list = [None] * (k + 1)
        for block in blocks:
            for i, e in enumerate(block):
                choices[e - 1] = block[i + 1:] or (0,)
        for fa in itertools.product(*choices[:k]):
            out[fa] = out.get(fa, 0) + sign
    return out


def _lie_forests(k: int) -> dict[tuple[int, ...], int]:
    """The forest expansion keyed by father indices: the closed form, checked
    against the partition refinement."""
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
