"""Strictly decreasing rooted labeled forests on totally ordered label sets.

A forest is a partial father map with father(v) > v, so the maximal label
is always a root.  label_key accepts two kinds of label: ints, ordered by
value, and the distinguished empty root ``ROOT``, which is maximal in any
label set; any other value raises ValueError.  A Forest stores its sorted
labels and the tuple fa of father indices that every kernel here runs on:
fa[i-1] is 0 if the i-th label is a root, else the 1-based index of its
father; the maximal label has no entry.  Children are always reported in
increasing label order; every walk is the stack walk _preorder on fa.  One
rule checks fa: enumerate_forests and expand_covariant check each label's
choices once per call; fiber, prune and graft check each forest by _forest.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache, partial
from typing import Iterable, Iterator, Mapping, Sequence

from .dyck import validate_dyck
from .errors import SelfCheckError, compare


class _EmptyRoot:
    __slots__ = ()

    def __reduce__(self):
        return "ROOT"  # pickle and copy hand back the one ROOT, so `v is ROOT` holds

    def __repr__(self) -> str:
        return "∘"


ROOT = _EmptyRoot()


def label_key(v) -> tuple[int, int]:
    """Sort key realizing ints < ROOT, the ints by value."""
    if isinstance(v, int) and not isinstance(v, bool):  # True == 1 would print as True
        return (0, v)
    if v is ROOT:
        return (1, 0)
    raise ValueError(f"not a forest label: {v!r}")


class Forest:
    """Immutable strictly decreasing forest, stored as sorted labels and father indices fa."""

    __slots__ = ("labels", "fa")

    def __init__(self, labels: Iterable, father: Mapping):
        labels = tuple(labels)
        keys = {v: label_key(v) for v in labels}  # one label_key call per label
        if len(keys) != len(labels):
            raise ValueError("duplicate labels")
        labels = tuple(sorted(keys, key=keys.__getitem__))
        index = dict(zip(labels, range(1, len(labels) + 1)))
        fa = [0] * max(len(labels) - 1, 0)
        for v, f in dict(father).items():
            if v not in index:
                raise ValueError(f"father map defined on {v!r} which is not a label")
            if f not in index:
                raise ValueError(f"father of {v!r} is {f!r}, not a label")
            if index[f] <= index[v]:  # labels are sorted, so indices order as the labels do
                raise ValueError(f"father must be strictly larger: father({v!r}) = {f!r}")
            fa[index[v] - 1] = index[f]
        _set_labels(self, labels)
        _set_fa(self, tuple(fa))

    def __setattr__(self, name, value):
        raise AttributeError("Forest is immutable")

    def __delattr__(self, name):
        raise AttributeError("Forest is immutable")

    def __reduce__(self):
        return Forest, (self.labels, self.father)  # pickle and copy rebuild through __init__

    @property
    def father(self) -> dict:
        """A fresh father map in label order; changing it leaves the forest as it is."""
        labels = self.labels
        return {labels[i]: labels[f - 1] for i, f in enumerate(self.fa) if f}

    @property
    def roots(self) -> tuple:
        return tuple(v for v, f in zip(self.labels, self.fa) if not f) + self.labels[-1:]

    @property
    def tree_count(self) -> int:
        return len(self.labels) - len(self.fa) + self.fa.count(0)

    def children(self, v) -> tuple:
        """The labels whose father is v, in label order, found afresh on each call."""
        j = self.labels.index(v) + 1 if v in self.labels else None  # a non-label has no children
        return tuple(u for u, f in zip(self.labels, self.fa) if f == j)

    def preorder(self) -> list:
        """Roots in increasing order, each followed by its subtree depth-first."""
        return [self.labels[i - 1] for i in _preorder(self.fa, len(self.labels))]

    def text(self) -> str:
        """Canonical nested form, one group per tree ordered by root label."""
        return _render(["", *(f"({v!s}" for v in self.labels)], self.fa)  # ROOT prints as its repr

    def __eq__(self, other) -> bool:
        return isinstance(other, Forest) and self.labels == other.labels and self.fa == other.fa

    def __hash__(self) -> int:
        return hash((self.labels, self.fa))

    def __repr__(self) -> str:
        return f"Forest[{self.text()}]"


# the slot descriptors set a Forest's two fields past its __setattr__, which refuses
_set_labels, _set_fa = Forest.labels.__set__, Forest.fa.__set__


@lru_cache(maxsize=None)
def standard_labels(k: int) -> tuple:
    """The label set [k] plus the empty root."""
    return tuple(range(1, k + 1)) + (ROOT,)


def _choices(n: int) -> list[tuple[int, ...]]:
    """The father indices of the i-th of n labels, i < n: root (0) first, then i+1..n."""
    return [(0, *range(i + 1, n + 1)) for i in range(1, n)]


def _preorder(fa: Sequence[int], n: int) -> Iterator[int]:
    """Indices 1..n of the forest with father indices fa in preorder, roots and
    children in increasing order, by a stack walk that reaches any depth."""
    kids: list[list[int]] = [[] for _ in range(n + 1)]  # kids[0] holds the roots
    for i, f in zip(range(1, n + 1), (*fa, 0)):
        kids[f].append(i)
    stack = kids[0][::-1]
    while stack:
        yield (i := stack.pop())
        stack += kids[i][::-1]


def _check_indices(labels: tuple, pairs: Iterable[tuple[int, int]]) -> None:
    """Each pair (i, f) is a father index f of the i-th label (1-based), 0 for
    a root; a father must satisfy i < f <= n.  The program makes every index,
    so one outside is a bug (SelfCheckError)."""
    n = len(labels)
    for i, f in pairs:
        if f and not i < f <= n:
            raise SelfCheckError(f"father index {f} of label {labels[i - 1]!r} is not in {i + 1}..{n}")


def _father_arrays(k: int) -> Iterator[tuple[int, ...]]:
    """Every forest on [k] plus the empty root as a tuple of father indices.

    Entry i-1 is 0 when i is a root and otherwise its father, one of
    i+1..k+1, where k+1 stands for the empty root.  The first entry varies
    slowest and each runs through 0, i+1, ..., k+1; (k+1)! tuples in all.
    """
    return itertools.product(*_choices(k + 1))


def _new(labels: tuple, fa: tuple) -> Forest:
    forest = Forest.__new__(Forest)
    _set_labels(forest, labels)
    _set_fa(forest, fa)
    return forest


def _forest(labels: tuple, fa: Sequence[int]) -> Forest:
    """The forest on the sorted, distinct labels whose father indices
    (1-based into labels, 0 for a root) are fa; the maximal label has no entry.

    Built without the label comparisons of Forest(): _check_indices checks
    that the father of the i-th label is a later one, i < f <= n.
    """
    n = len(labels)
    if len(fa) != max(n - 1, 0):
        raise SelfCheckError(f"{len(fa)} father indices for {n} labels")
    _check_indices(labels, enumerate(fa, 1))
    return _new(labels, tuple(fa))


@lru_cache(maxsize=None)
def _node_openings(k: int) -> tuple[str, ...]:
    return tuple(f"({v}" for v in range(k + 1)) + ("(∘",)


def _render(node: list, fa: Sequence[int]) -> str:
    """The nested text of a forest whose i-th label opens as node[i] (node[0]
    is unused) and whose father indices are fa; node is consumed."""
    roots = []
    for i, f in zip(range(1, len(node)), (*fa, 0)):  # i's children are smaller, so already closed
        closed = node[i] + ")"
        if f:
            node[f] += " " + closed
        else:
            roots.append(closed)
    return " ".join(roots)


def _text(fa: Sequence[int]) -> str:
    """Forest.text() of the forest on [k] plus the empty root with father indices fa."""
    return _render(list(_node_openings(len(fa))), fa)


def enumerate_forests(labels: Iterable) -> Iterator[Forest]:
    """Yield every strictly decreasing forest on the label set, |S|! in all.

    Each node independently picks a strictly larger father or stays a root;
    choices run root-first, fathers in increasing order, as in _father_arrays.
    Every label's choices are index-checked once per call, so each forest is
    built from checked indices with the fields that _forest gives it.
    """
    ordered = tuple(sorted(labels, key=label_key))
    if len(set(ordered)) != len(ordered):
        raise ValueError("duplicate labels")
    choices = _choices(len(ordered))
    _check_indices(ordered, ((i, f) for i, fs in enumerate(choices, 1) for f in fs))
    yield from map(partial(_new, ordered), itertools.product(*choices))


def graft(tree: Forest, j) -> list[Forest]:
    """All trees obtained by attaching j below one node of the tree.

    j must be strictly smaller than every node; the results follow the
    preorder of the host tree, one per node.
    """
    if tree.tree_count != 1:
        raise ValueError("graft expects a tree (exactly one root)")
    if any(label_key(j) >= label_key(v) for v in tree.labels):
        raise ValueError(f"graft label {j!r} must be smaller than every node")
    shifted = [f + 1 for f in tree.fa]  # j comes first, so every index moves up one
    return [_forest((j, *tree.labels), (i + 1, *shifted)) for i in _preorder(tree.fa, len(tree.labels))]


def expand_covariant(labels: Iterable) -> list[Forest]:
    """Iterate grafting over the labels in decreasing order from the bare root.

    The result is checked to be exactly the trees on the label set, each
    produced once.  The chain runs as graft does, on father indices into the
    sorted labels (n+1 for the empty root).
    """
    ordered = sorted(labels, key=label_key)
    for v, w in zip(ordered, ordered[1:] + [ROOT]):
        if label_key(v) >= label_key(w):
            raise ValueError(f"graft label {v!r} must be smaller than every node")
    n = len(ordered)
    nodes = (*ordered, ROOT)
    # every tree on the labels plus the empty root, once: label i picks a father among i+1..n+1
    choices = [fs[1:] for fs in _choices(n + 1)]
    _check_indices(nodes, ((i, f) for i, fs in enumerate(choices, 1) for f in fs))
    got = [()]  # father indices of labels j..n
    for j in range(n, 0, -1):
        got = [(j + i, *fa) for fa in got for i in _preorder([f - j for f in fa], n + 1 - j)]
    compare("grafting expansion", Counter(got), dict.fromkeys(itertools.product(*choices), 1),
            text=lambda fa: _forest(nodes, fa).text())
    return [_new(nodes, fa) for fa in got]


def monomial(forest: Forest) -> tuple[tuple[int, ...], int, int]:
    """(exponent vector over [k], number of trees, child count of the empty root).

    Requires the labels to be [k] plus the empty root; the exponent vector
    is always a Dyck vector.
    """
    k = len(forest.labels) - 1
    if forest.labels != standard_labels(k):
        raise ValueError("monomial requires labels [k] plus the empty root")
    expo = [0] * (k + 2)  # by index; the empty root, k+1, has no entry, so its count is its children
    for i, f in enumerate(forest.fa, 1):
        expo[f or i] += 1  # one at the father, or at i itself when i is a root
    return tuple(expo[1:-1]), forest.tree_count, expo[-1]


def prune(forest: Forest) -> Forest:
    """Move the empty root's children under the maximal label k, then rename
    k as the empty root.  Maps forests on [k] + root to forests on [k-1] + root."""
    k = len(forest.labels) - 1
    if forest.labels != standard_labels(k):
        raise ValueError("prune requires labels [k] plus the empty root")
    if k == 0:
        raise ValueError("cannot prune the bare root")
    # on [k-1] plus the empty root, which is index k, a father k or k+1 becomes k: min(f, k)
    return _forest(standard_labels(k - 1), [f if f < k else k for f in forest.fa[:-1]])


def _fiber_arrays(p: Sequence[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """(father indices, tree count) of every forest whose exponent vector is p,
    in enumeration order, choosing fathers label by label from 1 up.

    When label i is reached its children, all smaller, are placed: i is a
    root iff p_i exceeds its child count by one, and otherwise takes a father
    f > i, which can be a label only while f has fewer than p_f children.
    A label f still needs at least p_f - 1 children, which only the labels
    i..f-1 can give, so a branch is cut as soon as the labels i+1..f together
    lack more children than there are labels in i..f-1.
    """
    validate_dyck(p)
    k = len(p)
    need = (0, *p)
    kids = [0] * (k + 2)
    fa = [0] * k
    # only labels with p_f >= 2 can lack children a root may go without
    wanting = [[f for f in range(i + 1, k + 1) if need[f] > 1] for i in range(k + 1)]

    def place(i: int, roots: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if i > k:
            yield tuple(fa), roots + 1
            return
        lacking = 0
        for f in wanting[i]:
            short = need[f] - kids[f] - 1
            if short > 0:
                lacking += short
                if lacking > f - i:
                    return
        spare = need[i] - kids[i]
        if spare == 1:
            fa[i - 1] = 0
            yield from place(i + 1, roots + 1)
        elif spare == 0:
            for f in range(i + 1, k + 2):
                if f > k or kids[f] < need[f]:
                    kids[f] += 1
                    fa[i - 1] = f
                    yield from place(i + 1, roots)
                    kids[f] -= 1

    yield from place(1, 0)


def fiber(p: Sequence[int]) -> list[Forest]:
    """All forests on [k] + root whose exponent vector equals p, in enumeration order."""
    labels = standard_labels(len(p))
    return [_forest(labels, fa) for fa, _ in _fiber_arrays(p)]


def cprime(p: Sequence[int]) -> int:
    """Sum of 2^(trees - 1) over the fiber of p; equals the product coefficient."""
    return sum(1 << (tree_count - 1) for _, tree_count in _fiber_arrays(p))

