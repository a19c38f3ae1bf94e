import copy
import itertools
import math
import pickle
import tracemalloc
from types import SimpleNamespace

import pytest

from forestlie import checks, dyck, forests
from forestlie.errors import SelfCheckError
from forestlie.forests import ROOT, Forest
from forestlie.partitions import SetPartition


def F(father, labels=None):
    if labels is None:
        labels = set(father) | set(father.values())
    return Forest(labels, father)


def test_label_order():
    ordering = sorted([ROOT, 3, 10, 1, -2, 0], key=forests.label_key)
    assert ordering == [-2, 0, 1, 3, 10, ROOT]


def test_non_labels_are_rejected():
    # a label is an int or ROOT; anything else fails on every path that orders labels
    tree = F({1: ROOT})
    for bad in ("1", 2.5, SimpleNamespace(n=1), True):  # the third stands in for a label with a number field
        calls = [lambda: forests.label_key(bad), lambda: Forest((1, bad), {}),
                 lambda: next(forests.enumerate_forests((3, bad, 1))),
                 lambda: forests.expand_covariant((bad, 2)), lambda: forests.graft(tree, bad)]
        for call in calls:
            with pytest.raises(ValueError, match="not a forest label"):
                call()
    # True == 1 and hashes as 1, but would print as True
    with pytest.raises(ValueError, match="True is not a positive integer"):
        SetPartition([[True, 2]])


def test_forests_and_partitions_are_immutable():
    f = F({1: 2, 2: ROOT}, labels={1, 2, ROOT})
    part = SetPartition.parse("13|2")
    for value, field in [(f, "labels"), (f, "father"), (part, "blocks")]:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, field, ())
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, field)
    assert f.text() == "(∘ (2 (1)))" and part.blocks == ((2,), (1, 3))


def test_father_map_is_a_copy():
    # the father map a forest hands out is fresh: changing it changes neither
    # the forest, its hash, its text nor its place in a set
    f = Forest((1, 2, ROOT), {1: 2})
    seen, before = {f}, (hash(f), f.text())
    father = f.father
    father[2] = 1
    father[1] = ROOT
    assert f.father == {1: 2} and f.fa == (2, 0)
    assert (hash(f), f.text()) == before == (hash(Forest((1, 2, ROOT), {1: 2})), "(2 (1)) (∘)")
    assert f in seen and f in {f}


def test_children_of_a_non_label_is_empty():
    f = Forest((1, 2, 3), {1: 3})
    assert f.children(99) == () and f.children(ROOT) == () and f.children("x") == ()
    assert f.children(3) == (1,) and f.children(2) == ()


def test_forest_validation():
    with pytest.raises(ValueError, match="strictly larger"):
        Forest((1, 2), {2: 1})
    with pytest.raises(ValueError, match="not a label"):
        Forest((1, 2), {1: 3})
    with pytest.raises(ValueError, match="duplicate"):
        Forest((1, 1), {})


def test_structure_queries():
    # [4-1] [5] [8-6] [o (3 (2)) (7)]
    f = F({1: 4, 6: 8, 3: ROOT, 7: ROOT, 2: 3}, labels={1, 2, 3, 4, 5, 6, 7, 8, ROOT})
    assert f.roots == (4, 5, 8, ROOT)
    assert f.tree_count == 4
    assert f.children(ROOT) == (3, 7)
    assert len(f.children(3)) == 1
    assert f.text() == "(4 (1)) (5) (8 (6)) (∘ (3 (2)) (7))"


def test_values_pickle_and_copy():
    # ROOT comes back as the one ROOT, so `v is ROOT` holds after a round trip
    assert pickle.loads(pickle.dumps(ROOT)) is ROOT
    assert copy.copy(ROOT) is copy.deepcopy(ROOT) is ROOT
    f = F({1: 4, 6: 8, 3: ROOT, 7: ROOT, 2: 3}, labels={1, 2, 3, 4, 5, 6, 7, 8, ROOT})
    g = Forest((*f.labels, -1, 0), {**f.father, 0: 4, -1: ROOT})  # f with two labels below its own
    part = SetPartition.parse("23|146|7|589")
    for value in (Forest((), {}), f, g, part, SetPartition(())):
        copies = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies + [copy.copy(value), copy.deepcopy(value)]:
            assert back == value and hash(back) == hash(value) and back.text() == value.text()
    back = copy.deepcopy(g)
    assert back.roots[-1] is ROOT and back.children(ROOT) == (-1, 3, 7)
    assert pickle.loads(pickle.dumps(part)).shrink() == part.shrink()


def test_enumerate_forest_counts():
    assert sum(1 for _ in forests.enumerate_forests((1,))) == 1
    assert sum(1 for _ in forests.enumerate_forests((1, 2, 3))) == 6
    assert sum(1 for _ in forests.enumerate_forests(forests.standard_labels(4))) == 120
    for k in range(6):
        n = sum(1 for _ in forests.enumerate_forests(forests.standard_labels(k)))
        assert n == math.factorial(k + 1)


def forests_by_label_choice(labels):
    """The reference enumeration over Forest objects: each label, smallest
    first, picks no father or a larger label, fathers in increasing order."""
    ordered = tuple(sorted(labels, key=forests.label_key))
    options = [(None,) + ordered[i + 1:] for i in range(len(ordered))]
    for choice in itertools.product(*options):
        yield Forest(ordered, {v: f for v, f in zip(ordered, choice) if f is not None})


def test_enumerate_forests_matches_label_choice():
    label_sets = [(), (1,), (3, 1, 2), (9, 2, 5), (2, 4, ROOT)]
    for labels in label_sets + [forests.standard_labels(k) for k in range(7)]:
        assert list(forests.enumerate_forests(labels)) == list(forests_by_label_choice(labels))


def children_by_appending(forest):
    """The reference children: each label, in label order, appended to its
    father's list, so every list comes out sorted."""
    children = {v: [] for v in forest.labels}
    for v in forest.labels:
        if v in forest.father:
            children[forest.father[v]].append(v)
    return [tuple(children[v]) for v in forest.labels]


def preorder_by_children(forest):
    """The reference preorder: each root, then the subtree of each child that
    children() reports, walked recursively."""

    def visit(v):
        return [v, *(w for c in forest.children(v) for w in visit(c))]

    return [w for r in forest.roots for w in visit(r)]


def test_preorder_matches_children_walk():
    for labels in [forests.standard_labels(k) for k in range(8)] + [(-4, 0, 7, ROOT)]:
        for f in forests.enumerate_forests(labels):
            assert f.preorder() == preorder_by_children(f)


def test_deep_chain_walks_without_recursion():
    # 1,500 labels below the empty root, each the only child of the next: deeper than the recursion limit
    labels = forests.standard_labels(1500)
    chain = Forest(labels, dict(zip(labels, labels[1:])))
    assert chain.preorder() == [ROOT, *range(1500, 0, -1)]
    grafted = forests.graft(chain, 0)
    assert len(grafted) == 1501 and grafted[0].father[0] is ROOT and grafted[-1].father[0] == 1
    assert chain.text() == " ".join(["(∘", *(f"({v}" for v in range(1500, 0, -1))]) + ")" * 1501


def test_enumerate_forests_fields_match_forest_builder():
    # Forest.__eq__ ignores dict order; every field must agree with _forest,
    # in the same insertion order, and children must agree with the reference
    label_sets = [(), (1,), (3, 1, 2), (9, 2, 5), (2, 4, ROOT), (7, 3, 10, 1, 2, ROOT)]
    for labels in label_sets + [forests.standard_labels(k) for k in range(8)]:
        ordered = tuple(sorted(labels, key=forests.label_key))
        expected = (forests._forest(ordered, fa) for fa in forests._father_arrays(len(ordered) - 1))
        for got, ref in itertools.zip_longest(forests.enumerate_forests(labels), expected):
            assert got.labels == ref.labels
            assert list(got.father.items()) == list(ref.father.items())
            assert [got.children(v) for v in got.labels] == children_by_appending(got)


def forest_by_setattr(labels, fa):
    """A Forest whose fields Forest._set wrote through object.__setattr__, the
    form the slot descriptors replaced, kept as their reference."""
    forest = Forest.__new__(Forest)
    object.__setattr__(forest, "labels", labels)
    object.__setattr__(forest, "fa", fa)
    return forest


def test_slot_descriptors_match_setattr_reference():
    # every forest the builders make on [k] plus the empty root, k <= 7, and one
    # through the validating constructor: the same fields, equality and hash
    for k in range(8):
        labels = forests.standard_labels(k)
        built = itertools.chain(forests.enumerate_forests(labels),
                                (forests._forest(labels, fa) for fa in forests._father_arrays(k)))
        for got in built:
            ref = forest_by_setattr(labels, tuple(got.fa))
            assert got.labels == labels and type(got.labels) is tuple and type(got.fa) is tuple
            assert got == ref and hash(got) == hash(ref)
    got = Forest([3, ROOT, 1, 2], {1: 3, 2: ROOT})
    assert got == forest_by_setattr((1, 2, 3, ROOT), (3, 4, 0))
    with pytest.raises(AttributeError, match="immutable"):
        got.father = {}


def test_enumerate_forests_streams():
    # a materialized list of the 40,320 forests on [7] plus the empty root would take tens of MB
    tracemalloc.start()
    try:
        assert checks._count(forests.enumerate_forests(forests.standard_labels(7))) == math.factorial(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_enumerate_forests_edges():
    assert list(forests.enumerate_forests(())) == [Forest((), {})]
    with pytest.raises(ValueError, match="duplicate"):
        next(forests.enumerate_forests((1, 2, 1)))


def test_forest_from_indices_matches_validated_constructor():
    # _forest skips Forest()'s label comparisons; every field must still agree
    for k in range(8):
        labels = forests.standard_labels(k)
        for fa in forests._father_arrays(k):
            fast = forests._forest(labels, fa)
            ref = Forest(labels, {labels[i]: labels[f - 1] for i, f in enumerate(fa) if f})
            assert (fast.labels, fast.father) == (ref.labels, ref.father)
            assert [fast.children(v) for v in fast.labels] == children_by_appending(fast)
    spread = (-4, 0, 7, ROOT)
    for fa in forests._father_arrays(len(spread) - 1):
        fast = forests._forest(spread, fa)
        ref = Forest(spread, {spread[i]: spread[f - 1] for i, f in enumerate(fa) if f})
        assert (fast.labels, fast.father) == (ref.labels, ref.father)
        assert [fast.children(v) for v in fast.labels] == children_by_appending(fast)


def test_forest_from_indices_rejects_bad_indices():
    labels = forests.standard_labels(3)
    for fa in [(2, 3), (2, 3, 4, 4), (1, 3, 4), (2, 2, 4), (2, 3, 5), (-1, 3, 4)]:
        with pytest.raises(SelfCheckError):
            forests._forest(labels, fa)
    with pytest.raises(SelfCheckError):
        forests._forest((), (1,))


def enumerate_trees(labels):
    """The reference trees on the labels plus the empty root: each label,
    smallest first, picks a larger node as its father."""
    ordered = tuple(sorted(labels, key=forests.label_key)) + (ROOT,)
    for choice in itertools.product(*[ordered[i + 1:] for i in range(len(ordered) - 1)]):
        yield Forest(ordered, dict(zip(ordered, choice)))


def test_enumerate_trees():
    assert list(enumerate_trees((1,))) == [F({1: ROOT})]
    two = list(enumerate_trees((1, 2)))
    assert len(two) == 2
    assert set(two) == {F({1: 2, 2: ROOT}), F({1: ROOT, 2: ROOT}, labels={1, 2, ROOT})}
    assert sum(1 for _ in enumerate_trees((1, 2, 3))) == 6
    for t in enumerate_trees((1, 2, 3, 4)):
        assert t.tree_count == 1 and t.roots == (ROOT,)


def test_nchild_sum_identity():
    # within any tree the child counts add up to the number of non-root nodes
    for n in range(5):
        for t in enumerate_trees(range(1, n + 1)):
            assert sum(len(t.children(v)) for v in t.labels) == n


def test_graft_display():
    host = F({3: ROOT, 6: ROOT, 2: 6})
    grafted = forests.graft(host, 1)
    assert grafted == [
        F({3: ROOT, 6: ROOT, 2: 6, 1: ROOT}),
        F({3: ROOT, 6: ROOT, 2: 6, 1: 3}),
        F({3: ROOT, 6: ROOT, 2: 6, 1: 6}),
        F({3: ROOT, 6: ROOT, 2: 6, 1: 2}),
    ]


def test_graft_edges():
    assert forests.graft(Forest((ROOT,), {}), 1) == [F({1: ROOT})]
    chain = F({2: 3, 3: ROOT})
    grafted = forests.graft(chain, 1)
    assert len(grafted) == len(set(grafted)) == 3
    with pytest.raises(ValueError, match="smaller"):
        forests.graft(chain, 4)
    with pytest.raises(ValueError, match="tree"):
        forests.graft(F({1: 2}, labels={1, 2, 3}), 0)


def graft_through_forest(tree, j):
    """The reference graft: j below each node of the recursive preorder, its
    father merged into the father map and built through Forest()."""
    return [Forest(tree.labels + (j,), {**tree.father, j: v}) for v in preorder_by_children(tree)]


def test_graft_matches_forest_reference():
    # every tree on up to 6 labels: on [k] plus the empty root, on 2..n+1, and on -4, 0, 7 plus the root
    hosts = [(t, 0) for k in range(6) for t in enumerate_trees(range(1, k + 1))]
    hosts += [(t, 1) for n in range(1, 7) for t in forests.enumerate_forests(range(2, n + 2)) if t.tree_count == 1]
    hosts += [(t, -5) for t in enumerate_trees((-4, 0, 7))]
    assert len(hosts) == 2 * sum(math.factorial(n) for n in range(6)) + 6
    for tree, j in hosts:
        assert forests.graft(tree, j) == graft_through_forest(tree, j)


def test_expand_covariant():
    assert forests.expand_covariant(()) == [Forest((ROOT,), {})]
    assert len(forests.expand_covariant({1})) == 1
    two = forests.expand_covariant({1, 2})
    assert set(two) == set(enumerate_trees((1, 2)))
    four = forests.expand_covariant({1, 2, 3, 4})
    assert len(four) == len(set(four)) == 24
    for bad in ([2, 2], [1, ROOT]):
        with pytest.raises(ValueError, match="smaller than every node"):
            forests.expand_covariant(bad)


def expand_covariant_over_objects(labels):
    """The reference grafting chain over Forest objects, by graft_through_forest."""
    trees = [Forest((ROOT,), {})]
    for j in sorted(labels, key=forests.label_key, reverse=True):
        trees = [g for t in trees for g in graft_through_forest(t, j)]
    return trees


def test_expand_covariant_matches_graft_reference():
    for labels in [range(1, n + 1) for n in range(8)] + [(7, 3, 10, 1)]:
        assert forests.expand_covariant(labels) == expand_covariant_over_objects(labels)


def test_text_matches_forest_objects():
    for k in range(7):
        labels = forests.standard_labels(k)
        for fa in forests._father_arrays(k):
            assert forests._text(fa) == forests._forest(labels, fa).text()


def exponents_by_label(forest):
    """The reference exponents: the child count, plus one at roots, of every
    label in label order."""
    labels = forest.labels
    expo = dict.fromkeys(labels, 0)
    for v, f in zip(labels, (*forest.fa, 0)):  # one at the father, or at v itself when v is a root
        expo[labels[f - 1] if f else v] += 1
    return expo


def test_monomial_nine_node_tree():
    tree = F({3: 9, 6: 9, 8: 9, 2: 3, 1: 8, 5: 8})
    assert exponents_by_label(tree) == {1: 0, 2: 0, 3: 1, 5: 0, 6: 0, 8: 2, 9: 4}


def test_monomial_matches_exponent_reference():
    for k in range(8):
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            *expo, root = exponents_by_label(f).values()  # the empty root comes last and is a root
            assert forests.monomial(f) == (tuple(expo), f.tree_count, root - 1)


def test_monomial_forest_examples():
    f1 = F({1: 5, 6: 9, 8: 9, 3: ROOT, 7: ROOT, 2: 3}, labels=forests.standard_labels(9))
    expo, tree_count, root_degree = forests.monomial(f1)
    assert expo == (0, 0, 1, 1, 2, 0, 0, 0, 3)
    assert tree_count == 4 and root_degree == 2
    f2 = F({6: 8, 7: 8, 3: ROOT, 9: ROOT, 2: 3, 1: 9, 5: 9}, labels=forests.standard_labels(9))
    assert forests.monomial(f2)[0] == (0, 0, 1, 1, 0, 0, 0, 3, 2)
    bare = Forest((ROOT,), {})
    assert forests.monomial(bare) == ((), 1, 0)


def test_prune_examples():
    f1 = F({1: 5, 6: 9, 8: 9, 3: ROOT, 7: ROOT, 2: 3}, labels=forests.standard_labels(9))
    assert forests.prune(f1) == F({1: 5, 6: ROOT, 8: ROOT, 3: ROOT, 7: ROOT, 2: 3},
                                  labels=forests.standard_labels(8))
    assert forests.monomial(forests.prune(f1))[0] == (0, 0, 1, 1, 2, 0, 0, 0)
    f2 = F({6: 8, 7: 8, 3: ROOT, 9: ROOT, 2: 3, 1: 9, 5: 9}, labels=forests.standard_labels(9))
    assert forests.prune(f2) == F({6: 8, 7: 8, 3: ROOT, 2: 3, 1: ROOT, 5: ROOT},
                                  labels=forests.standard_labels(8))
    assert forests.monomial(forests.prune(f2))[0] == (0, 0, 1, 1, 0, 0, 0, 3)
    assert forests.prune(F({1: ROOT})) == Forest((ROOT,), {})
    with pytest.raises(ValueError):
        forests.prune(Forest((ROOT,), {}))


def prune_over_objects(forest):
    """The reference prune through the validating constructor."""
    k = len(forest.labels) - 1
    father = {}
    for v in range(1, k):
        f = forest.father.get(v)
        if f is not None:
            father[v] = ROOT if (f is ROOT or f == k) else f
    return Forest(forests.standard_labels(k - 1), father)


def test_prune_matches_validated_reference():
    for k in range(1, 7):
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            fast, ref = forests.prune(f), prune_over_objects(f)
            assert (fast.labels, fast.father) == (ref.labels, ref.father)
            assert [fast.children(v) for v in fast.labels] == children_by_appending(fast)


def test_prune_deletes_last_exponent():
    for k in range(1, 6):
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            expo, _, _ = forests.monomial(f)
            assert forests.monomial(forests.prune(f))[0] == expo[:-1]


def test_root_degree_from_exponents():
    for k in range(8):
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            expo, _, root_degree = forests.monomial(f)
            assert root_degree == k - sum(expo)


def test_fiber_worked_example():
    fib = forests.fiber((0, 0, 2, 1, 1))
    hist: dict[int, int] = {}
    for f in fib:
        hist[f.tree_count] = hist.get(f.tree_count, 0) + 1
    assert len(fib) == 12
    assert hist == {1: 1, 2: 4, 3: 5, 4: 2}
    assert forests.cprime((0, 0, 2, 1, 1)) == 45


def test_fiber_edges():
    assert forests.fiber(()) == [Forest((ROOT,), {})]
    fib = forests.fiber((1,))
    assert fib == [Forest((1, ROOT), {})]
    assert forests.cprime((1,)) == 2 == dyck.coeff_cp((1,))


def test_cprime_matches_coefficient():
    assert forests.cprime(()) == 1
    for k in range(5):
        for p in dyck.enumerate_dyck(k):
            assert forests.cprime(p) == dyck.coeff_cp(p)


def test_fiber_and_cprime_match_filtered_objects():
    # fiber keeps the enumeration order, and cprime weighs the same forests
    for k in range(7):
        by_expo: dict[tuple[int, ...], list[Forest]] = {}
        for f in forests_by_label_choice(forests.standard_labels(k)):
            by_expo.setdefault(forests.monomial(f)[0], []).append(f)
        assert set(by_expo) == set(dyck.enumerate_dyck(k))
        for p, fib in by_expo.items():
            assert forests.fiber(p) == fib
            assert forests.cprime(p) == sum(2 ** (f.tree_count - 1) for f in fib)


def fiber_arrays_without_lookahead(p):
    """The reference backtracking, which finds a dead branch only when it
    reaches a label with too few children."""
    k = len(p)
    need = (0, *p)
    kids = [0] * (k + 2)
    fa = [0] * k

    def place(i, roots):
        if i > k:
            yield tuple(fa), roots + 1
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


def test_fiber_lookahead_matches_plain_backtracking():
    for k in range(8):
        for p in dyck.enumerate_dyck(k):
            assert list(forests._fiber_arrays(p)) == list(fiber_arrays_without_lookahead(p))


def test_fiber_with_one_forest():
    # 7 needs all of 1..6 as children, so it and 8, 9, 10 are roots
    (f,) = forests.fiber((0, 0, 0, 0, 0, 0, 7, 1, 1, 1))
    assert f.children(7) == (1, 2, 3, 4, 5, 6)
    assert f.roots == (7, 8, 9, 10, ROOT)


def test_fibers_partition_all_forests():
    for k in range(5):
        total = 0
        for p in dyck.enumerate_dyck(k):
            total += len(forests.fiber(p))
        assert total == math.factorial(k + 1)
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            assert dyck.is_dyck(forests.monomial(f)[0])


def test_root_nonroot_split_counts():
    # grouping each fiber by pruned image, the forests where k stays a root
    # number binom(D_{k-1}, p_k - 1) and the others binom(D_{k-1}, p_k)
    for k in range(1, 7):
        groups: dict[tuple[tuple[int, ...], Forest], list[bool]] = {}
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            expo = forests.monomial(f)[0]
            groups.setdefault((expo, forests.prune(f)), []).append(k in f.roots)
        for (p, _), flags in groups.items():
            d = dyck.deficit_profile(p)
            assert sum(flags) == dyck.binom(d[k - 1], p[k - 1] - 1)
            assert len(flags) - sum(flags) == dyck.binom(d[k - 1], p[k - 1])
