import itertools
import math

import pytest

from forestlie import dyck, forests, operators
from forestlie.forests import ROOT, Primed
from forestlie.operators import OperatorSum
from forestlie.partitions import SetPartition, bell, enumerate_partitions


def test_partition_expansion_k1():
    expansion = operators.expand_lie_partitions(1)
    assert expansion.terms == {"12": 1, "1|2": -1}


def test_partition_expansion_k2():
    expansion = operators.expand_lie_partitions(2)
    assert expansion.terms == {"123": 1, "12|3": -1, "1|23": -1, "2|13": -1, "1|2|3": 1}


def test_partition_sign_example():
    # four blocks, so three bracket factors and a negative sign
    part = SetPartition([[2, 3], [1, 4, 6], [7], [5, 8, 9]])
    assert part.text() == "23|146|7|589"
    assert operators.partition_sign(part) == -1
    expansion = operators.expand_lie_partitions(8)
    assert len(expansion) == bell(9)
    assert expansion.terms["23|146|7|589"] == -1


def test_partition_expansion_counts_and_signs():
    for k in range(1, 6):
        expansion = operators.expand_lie_partitions(k)  # recurrence checked inside
        assert len(expansion) == bell(k + 1)
        assert all(mult in (1, -1) for _, mult in expansion.items())
        total = sum(mult for _, mult in expansion.items())
        assert total == sum(operators.partition_sign(p) for p in enumerate_partitions(k + 1))


def test_forest_expansion_k1():
    expansion = operators.expand_lie_forests(1)
    assert expansion.terms == {"(∘ (1))": 1, "(1) (∘)": -1}


def test_forest_expansion_counts():
    for k in range(1, 5):
        expansion = operators.expand_lie_forests(k)  # partition refinement checked inside
        assert len(expansion) == math.factorial(k + 1)
        assert all(mult in (1, -1) for _, mult in expansion.items())


def test_forest_terms_group_by_partition():
    # tree node sets of each forest term cut out a partition of [k+1]; the
    # number of forests over a partition is the product of (block-1)! tree counts
    for k in (3, 4):
        census: dict[str, int] = {}
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            blocks = []
            for r in f.roots:
                nodes = [v for v in f.descendants(r) if v is not ROOT]
                if r is ROOT:
                    nodes.append(k + 1)
                blocks.append(nodes)
            key = SetPartition(blocks).text()
            census[key] = census.get(key, 0) + 1
        for part in enumerate_partitions(k + 1):
            expected = math.prod(math.factorial(len(b) - 1) for b in part.blocks)
            assert census[part.text()] == expected


def test_single_tree_terms_recover_covariant_expansion():
    for k in range(1, 5):
        expansion = operators.expand_lie_forests(k)
        single = {t.text() for t in forests.enumerate_trees(range(1, k + 1))}
        for key in single:
            assert expansion.terms[key] == 1
        positives_with_one_tree = {key for key, mult in expansion.items()
                                   if mult == 1 and key.startswith("(∘")}
        assert positives_with_one_tree == single


def test_oracle_k1_k2():
    assert operators.lie_chain_oracle(1).terms == {"(∘ (1))": 1, "(1) (∘)": -1}
    assert operators.lie_chain_oracle(2).terms == {
        "(∘ (2 (1)))": 1,
        "(∘ (1) (2))": 1,
        "(1) (∘ (2))": -1,
        "(2 (1)) (∘)": -1,
        "(2) (∘ (1))": -1,
        "(1) (2) (∘)": 1,
    }


def test_oracle_matches_closed_form():
    for k in range(1, 5):
        oracle = operators.lie_chain_oracle(k)  # compared against expand_lie_forests inside
        assert len(oracle) == math.factorial(k + 1)


def oracle_over_forest_objects(k):
    """The reference: the oracle's left multiplication over Forest objects."""
    state = {forests.Forest((ROOT,), {}): 1}
    for j in range(k, 0, -1):
        nxt: dict = {}
        for f, mult in state.items():
            labels = f.labels + (j,)
            for node in f.labels:
                g = forests.Forest(labels, {**f.father, j: node})
                nxt[g] = nxt.get(g, 0) + mult
            g = forests.Forest(labels, f.father)
            nxt[g] = nxt.get(g, 0) - mult
        state = nxt
    return OperatorSum({f.text(): mult for f, mult in state.items()})


def test_oracle_matches_forest_object_reference():
    for k in range(1, 7):
        assert operators.lie_chain_oracle(k) == oracle_over_forest_objects(k)


def test_operator_sum_witness():
    a = OperatorSum({"x": 1, "y": -1})
    b = OperatorSum({"x": 1, "y": 1})
    assert a.difference_witness(b) == ("y", -1, 1)
    assert a.difference_witness(OperatorSum({"y": -1, "x": 1})) is None
    assert a.to_json() == [{"key": "x", "sign": 1}, {"key": "y", "sign": -1}]


def test_leibniz_split():
    assert operators.leibniz_split(0, 3) == [()]
    assert operators.leibniz_split(2, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(operators.leibniz_split(3, 2)) == 8
    assert operators.leibniz_fiber_counts(2, 2) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert operators.leibniz_fiber_counts(3, 2) == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    for h in range(5):
        for l in range(1, 5):
            counts = operators.leibniz_fiber_counts(h, l)
            assert sum(counts.values()) == l ** h


def test_weak_compositions():
    assert list(operators.weak_compositions(1, 2)) == [(0, 1), (1, 0)]
    assert list(operators.weak_compositions(0, 3)) == [(0, 0, 0)]
    for h in range(5):
        for l in range(1, 5):
            combos = list(operators.weak_compositions(h, l))
            assert len(combos) == math.comb(h + l - 1, l - 1)
            assert combos == sorted(combos)
            assert all(sum(c) == h for c in combos)


def test_estimate_certificate_small():
    rows = operators.estimate_certificate(1, 0)
    assert [(r.p, r.h, r.coeff, r.a_order, r.xi_orders) for r in rows] == [
        ((0,), (0, 0), 1, 1, (0,)),
        ((1,), (0, 0), 2, 0, (1,)),
    ]
    assert [r.coeff for r in operators.estimate_certificate(2, 0)] == [1, 3, 2, 2, 4]
    rows11 = operators.estimate_certificate(1, 1)
    assert [(r.p, r.h, r.a_order, r.xi_orders) for r in rows11] == [
        ((0,), (0, 1), 2, (0,)),
        ((0,), (1, 0), 1, (1,)),
        ((1,), (0, 1), 1, (1,)),
        ((1,), (1, 0), 0, (2,)),
    ]


def test_estimate_certificate_counts_and_h0_table():
    for k in range(1, 5):
        for h in range(4):
            rows = operators.estimate_certificate(k, h)
            assert len(rows) == dyck.catalan(k + 1) * math.comb(h + k, k)
        h0 = {(r.p, r.coeff, r.a_order, r.xi_orders) for r in operators.estimate_certificate(k, 0)}
        expected = {(p, dyck.coeff_cp(p), dyck.deficit_profile(p)[k], p) for p in dyck.enumerate_dyck(k)}
        assert h0 == expected


def test_map_recombination_via_decorate():
    # splitting h marks over the trees of a forest and then over each tree's
    # nodes recombines to exactly the maps [h] -> nodes(F), each once
    for k in range(5):
        for h in range(4):
            if math.factorial(k + 1) * (k + 1) ** h > 40000:
                continue
            targets = forests.standard_labels(k)
            for f in forests.enumerate_forests(targets):
                trees = f.trees()
                seen: dict[tuple, int] = {}
                for mu in itertools.product(range(len(trees)), repeat=h):
                    fibers = [[p for p in range(h) if mu[p] == j] for j in range(len(trees))]
                    per_tree = [list(itertools.product(trees[j].labels, repeat=len(fibers[j])))
                                for j in range(len(trees))]
                    for betas in itertools.product(*per_tree):
                        alpha = [None] * h
                        for j, fiber in enumerate(fibers):
                            for idx, p in enumerate(fiber):
                                alpha[p] = betas[j][idx]
                        key = tuple(alpha)
                        seen[key] = seen.get(key, 0) + 1
                assert seen == {combo: 1 for combo in itertools.product(targets, repeat=h)}
                if h == 2:
                    for alpha in itertools.product(targets, repeat=h):
                        decorated = forests.decorate({Primed(p + 1): alpha[p] for p in range(h)}, f)
                        for v in targets:
                            assert decorated.nchild(v) == alpha.count(v) + f.nchild(v)


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        operators.expand_lie_partitions(0)
    with pytest.raises(ValueError):
        operators.lie_chain_oracle(0)
    with pytest.raises(ValueError):
        operators.estimate_certificate(0, 0)
    with pytest.raises(ValueError):
        operators.leibniz_split(-1, 2)
