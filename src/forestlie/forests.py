"""Strictly decreasing rooted labeled forests on totally ordered label sets.

A forest is a partial father map with father(v) > v, so the maximal label
is always a root.  Labels are positive ints, primed positive ints (a second
alphabet ordered below the unprimed one), and the distinguished empty root
``ROOT`` which is maximal in any label set.  Children are recovered from
the father map and always reported in increasing label order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .dyck import validate_dyck
from .errors import compare


class _EmptyRoot:
    __slots__ = ()

    def __reduce__(self):
        return "ROOT"  # pickle and copy hand back the one ROOT, so `v is ROOT` holds

    def __repr__(self) -> str:
        return "∘"


ROOT = _EmptyRoot()


class Primed:
    """A label from the second alphabet 1', 2', ...; orders below all ints.

    An immutable value: two are equal, with equal hashes, iff their numbers are.
    """

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Primed")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Primed")

    def __eq__(self, other):
        return self.n == other.n if other.__class__ is Primed else NotImplemented

    def __hash__(self) -> int:
        return hash((self.n,))  # the hash of the frozen dataclass it replaces, so set orders stay

    def __reduce__(self):
        return Primed, (self.n,)  # pickle and deepcopy rebuild through __init__

    def __repr__(self) -> str:
        return f"{self.n}'"


def label_key(v) -> tuple[int, int]:
    """Sort key realizing primed < unprimed < ROOT, each alphabet by value."""
    if isinstance(v, Primed):
        return (0, v.n)
    if isinstance(v, int):
        return (1, v)
    if v is ROOT:
        return (2, 0)
    raise ValueError(f"not a forest label: {v!r}")


def label_str(v) -> str:
    if v is ROOT:
        return "∘"
    return repr(v) if isinstance(v, Primed) else str(v)


class Forest:
    """Immutable strictly decreasing forest given by labels and a father map."""

    __slots__ = ("labels", "father", "_children")

    def __init__(self, labels: Iterable, father: Mapping):
        labels = tuple(labels)
        keys = {v: label_key(v) for v in labels}  # one label_key call per label
        if len(keys) != len(labels):
            raise ValueError("duplicate labels")
        labels = tuple(sorted(keys, key=keys.__getitem__))
        father = dict(father)
        for v, f in father.items():
            if v not in keys:
                raise ValueError(f"father map defined on {v!r} which is not a label")
            if f not in keys:
                raise ValueError(f"father of {v!r} is {f!r}, not a label")
            if keys[f] <= keys[v]:
                raise ValueError(f"father must be strictly larger: father({v!r}) = {f!r}")
        children: dict = {v: [] for v in labels}
        for v in labels:  # in label order, so each child list comes out sorted
            if v in father:
                children[father[v]].append(v)
        self._set(labels, father, {v: tuple(c) for v, c in children.items()})

    def _set(self, labels: tuple, father: dict, children: dict) -> None:
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "father", father)
        object.__setattr__(self, "_children", children)

    def __setattr__(self, name, value):
        raise AttributeError("Forest is immutable")

    def __reduce__(self):
        return Forest, (self.labels, self.father)  # pickle and copy rebuild through __init__

    @property
    def roots(self) -> tuple:
        return tuple(v for v in self.labels if v not in self.father)

    @property
    def tree_count(self) -> int:
        return len(self.labels) - len(self.father)

    def children(self, v) -> tuple:
        return self._children[v]

    def nchild(self, v) -> int:
        return len(self._children[v])

    def preorder(self) -> list:
        """Roots in increasing order, each followed by its subtree depth-first."""
        out = []

        def visit(v):
            out.append(v)
            for c in self._children[v]:
                visit(c)

        for r in self.roots:
            visit(r)
        return out

    def text(self) -> str:
        """Canonical nested form, one group per tree ordered by root label."""

        def node(v) -> str:
            inner = "".join(" " + node(c) for c in self._children[v])
            return f"({label_str(v)}{inner})"

        return " ".join(node(r) for r in self.roots)

    def __eq__(self, other) -> bool:
        return isinstance(other, Forest) and self.labels == other.labels and self.father == other.father

    def __hash__(self) -> int:
        return hash((self.labels, frozenset(self.father.items())))

    def __repr__(self) -> str:
        return f"Forest[{self.text()}]"


@lru_cache(maxsize=None)
def standard_labels(k: int) -> tuple:
    """The label set [k] plus the empty root."""
    return tuple(range(1, k + 1)) + (ROOT,)


def _father_arrays(k: int) -> Iterator[tuple[int, ...]]:
    """Every forest on [k] plus the empty root as a tuple of father indices.

    Entry i-1 is 0 when i is a root and otherwise its father, one of
    i+1..k+1, where k+1 stands for the empty root.  The first entry varies
    slowest and each runs through 0, i+1, ..., k+1; (k+1)! tuples in all.
    """
    return itertools.product(*[(0, *range(i + 1, k + 2)) for i in range(1, k + 1)])


def _forest(labels: tuple, fa: Sequence[int]) -> Forest:
    """The forest on the sorted, distinct labels whose father indices
    (1-based into labels, 0 for a root) are fa; the maximal label has no entry.

    Built without the label comparisons of Forest(): the father of the i-th
    label must be a later one, i < f <= n, which is checked on the indices.
    Children come out sorted because they are appended by increasing index.
    """
    n = len(labels)
    if len(fa) != max(n - 1, 0):
        raise ValueError(f"{len(fa)} father indices for {n} labels")
    father = {}
    kids = [()] * (n + 1)
    for i, f in enumerate(fa, 1):
        if f:
            if not i < f <= n:
                raise ValueError(f"father index {f} of label {labels[i - 1]!r} is not in {i + 1}..{n}")
            v = labels[i - 1]
            father[v] = labels[f - 1]
            kids[f] += (v,)
    forest = Forest.__new__(Forest)
    forest._set(labels, father, dict(zip(labels, kids[1:])))
    return forest


@lru_cache(maxsize=None)
def _node_openings(k: int) -> tuple[str, ...]:
    return tuple(f"({v}" for v in range(k + 1)) + ("(∘",)


def _text(fa: Sequence[int]) -> str:
    """Forest.text() of the forest on [k] plus the empty root with father indices fa."""
    k = len(fa)
    node = list(_node_openings(k))
    roots = []
    for i, f in enumerate(fa, 1):  # i's children are smaller, so already appended
        closed = node[i] + ")"
        if f:
            node[f] += " " + closed
        else:
            roots.append(closed)
    roots.append(node[k + 1] + ")")
    return " ".join(roots)


def _monomial(fa: Sequence[int]) -> tuple[tuple[int, ...], int, int]:
    """monomial() of the forest on [k] plus the empty root with father indices fa."""
    k = len(fa)
    counts = [0] * (k + 2)
    for i, f in enumerate(fa, 1):
        counts[f] += 1
        if not f:
            counts[i] += 1
    return tuple(counts[1:k + 1]), counts[0] + 1, counts[k + 1]


def enumerate_forests(labels: Iterable) -> Iterator[Forest]:
    """Yield every strictly decreasing forest on the label set, |S|! in all.

    Each node independently picks a strictly larger father or stays a root;
    choices run root-first, fathers in increasing order.
    """
    ordered = tuple(sorted(labels, key=label_key))
    if len(set(ordered)) != len(ordered):
        raise ValueError("duplicate labels")
    for fa in _father_arrays(len(ordered) - 1):
        yield _forest(ordered, fa)


def graft(tree: Forest, j) -> list[Forest]:
    """All trees obtained by attaching j below one node of the tree.

    j must be strictly smaller than every node; the results follow the
    preorder of the host tree, one per node.
    """
    if tree.tree_count != 1:
        raise ValueError("graft expects a tree (exactly one root)")
    if any(label_key(j) >= label_key(v) for v in tree.labels):
        raise ValueError(f"graft label {j!r} must be smaller than every node")
    out = []
    for v in tree.preorder():
        out.append(Forest(tree.labels + (j,), {**tree.father, j: v}))
    return out


def expand_covariant(labels: Iterable) -> list[Forest]:
    """Iterate grafting over the labels in decreasing order from the bare root.

    The result is checked to be exactly the trees on the label set, each
    produced once.  The chain runs on father indices into the sorted labels
    (n+1 for the empty root), as graft would: grafting j below v makes j the
    first child of v, so j follows v in the preorder of the new tree.
    """
    ordered = sorted(labels, key=label_key)
    for v, w in zip(ordered, ordered[1:] + [ROOT]):
        if label_key(v) >= label_key(w):
            raise ValueError(f"graft label {v!r} must be smaller than every node")
    n = len(ordered)
    trees = [((), (n + 1,))]  # (father indices of labels j..n, preorder)
    for j in range(n, 0, -1):
        trees = [((v, *fa), pre[:i + 1] + (j,) + pre[i + 1:]) for fa, pre in trees for i, v in enumerate(pre)]
    got = [fa for fa, _ in trees]
    nodes = (*ordered, ROOT)
    # every tree on the labels plus the empty root, once: label i picks a father among i+1..n+1
    expected = itertools.product(*[range(i + 1, n + 2) for i in range(1, n + 1)])
    compare("grafting expansion", Counter(got), dict.fromkeys(expected, 1),
            text=lambda fa: _forest(nodes, fa).text())
    return [_forest(nodes, fa) for fa in got]


def exponent_map(forest: Forest) -> dict:
    """Exponent of each non-root label: child count, plus one at forest roots."""
    children, father = forest._children, forest.father
    return {v: len(children[v]) + (v not in father) for v in forest.labels if v is not ROOT}


def monomial(forest: Forest) -> tuple[tuple[int, ...], int, int]:
    """(exponent vector over [k], number of trees, child count of the empty root).

    Requires the labels to be [k] plus the empty root; the exponent vector
    is always a Dyck vector.
    """
    k = len(forest.labels) - 1
    if forest.labels != standard_labels(k):
        raise ValueError("monomial requires labels [k] plus the empty root")
    return tuple(exponent_map(forest).values()), forest.tree_count, forest.nchild(ROOT)


def prune(forest: Forest) -> Forest:
    """Move the empty root's children under the maximal label k, then rename
    k as the empty root.  Maps forests on [k] + root to forests on [k-1] + root."""
    k = len(forest.labels) - 1
    if forest.labels != standard_labels(k):
        raise ValueError("prune requires labels [k] plus the empty root")
    if k == 0:
        raise ValueError("cannot prune the bare root")
    fa = []  # father indices on [k-1] plus the empty root, which is index k
    for v in range(1, k):
        f = forest.father.get(v)
        fa.append(0 if f is None else k if (f is ROOT or f == k) else f)
    return _forest(standard_labels(k - 1), fa)


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


def decorate(mu: Mapping, forest: Forest) -> Forest:
    """Adjoin a new lower alphabet by the map mu: each new label gets its
    image as father.  Roots are unchanged and child counts add up."""
    label_set = set(forest.labels)
    new = sorted(mu, key=label_key)
    for v in new:
        if v in label_set:
            raise ValueError(f"decoration label {v!r} already present")
        if forest.labels and label_key(v) >= label_key(forest.labels[0]):
            raise ValueError(f"decoration label {v!r} must order below the forest labels")
        if mu[v] not in label_set:
            raise ValueError(f"decoration target {mu[v]!r} is not a node of the forest")
    return Forest(forest.labels + tuple(new), {**forest.father, **mu})
