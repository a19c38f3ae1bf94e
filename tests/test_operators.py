import itertools
import math
from collections import Counter

import pytest

from forestlie import cli, dyck, forests, operators
from forestlie.errors import SelfCheckError
from forestlie.forests import ROOT
from forestlie.operators import OperatorSum
from forestlie.partitions import SetPartition, bell, enumerate_partitions
from forestlie.polynomial import MultiPoly


def partition_sign(part):
    """The reference sign of a partition term: one bracket factor per block but one."""
    return -1 if (len(part.blocks) - 1) % 2 else 1


def forest_sign(forest):
    """The reference sign of a forest term: one bracket factor per tree but one."""
    return -1 if (forest.tree_count - 1) % 2 else 1


def trees_on(nodes):
    """The reference trees on a node set, rooted at its maximum: every other
    node, smallest first, picks a larger one as its father."""
    ordered = tuple(sorted(nodes, key=forests.label_key))
    for choice in itertools.product(*[ordered[i + 1:] for i in range(len(ordered) - 1)]):
        yield forests.Forest(ordered, dict(zip(ordered, choice)))


def tree_nodes(forest):
    """The node set of each tree of the forest, in root order."""
    def below(v):
        return [v] + [w for c in forest.children(v) for w in below(c)]
    return [below(r) for r in forest.roots]


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
    assert partition_sign(part) == -1
    expansion = operators.expand_lie_partitions(8)
    assert len(expansion) == bell(9)
    assert expansion.terms["23|146|7|589"] == -1


def test_partition_expansion_counts_and_signs():
    for k in range(1, 6):
        expansion = operators.expand_lie_partitions(k)  # recurrence checked inside
        assert len(expansion) == bell(k + 1)
        assert all(mult in (1, -1) for _, mult in expansion.items())
        total = sum(mult for _, mult in expansion.items())
        assert total == sum(partition_sign(p) for p in enumerate_partitions(k + 1))


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
            for nodes in tree_nodes(f):
                if nodes[0] is ROOT:
                    nodes[0] = k + 1
                blocks.append(nodes)
            key = SetPartition(blocks).text()
            census[key] = census.get(key, 0) + 1
        for part in enumerate_partitions(k + 1):
            expected = math.prod(math.factorial(len(b) - 1) for b in part.blocks)
            assert census[part.text()] == expected


def test_single_tree_terms_recover_covariant_expansion():
    for k in range(1, 5):
        expansion = operators.expand_lie_forests(k)
        single = {t.text() for t in trees_on((*range(1, k + 1), ROOT))}
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


def summed(terms):
    """The reference sum of (key, sign) pairs: keys in first-seen order, zero
    sums dropped by OperatorSum."""
    out: dict = {}
    for key, sign in terms:
        out[key] = out.get(key, 0) + sign
    return OperatorSum(out)


def partitions_closed_over_objects(k):
    """The reference closed form: every SetPartition of [k+1], signed by block count."""
    return summed((part.text(), partition_sign(part)) for part in enumerate_partitions(k + 1))


def partitions_recurrence_over_objects(k):
    """The reference recurrence over frozenset blocks: each smaller element
    joins a block or opens a leading singleton with a sign flip."""
    state = [((frozenset({k + 1}),), 1)]
    for j in range(k, 0, -1):
        nxt = []
        for blocks, sign in state:
            for i, block in enumerate(blocks):
                nxt.append((blocks[:i] + (block | {j},) + blocks[i + 1:], sign))
            nxt.append(((frozenset({j}),) + blocks, -sign))
        state = nxt
    return summed((SetPartition([sorted(b) for b in blocks]).text(), sign) for blocks, sign in state)


def forests_closed_over_objects(k):
    """The reference closed form: every Forest on [k] plus the empty root."""
    return summed((f.text(), forest_sign(f)) for f in forests.enumerate_forests(forests.standard_labels(k)))


def forests_from_partitions_over_objects(k):
    """The reference refinement: each block of each SetPartition of [k+1]
    becomes every decreasing tree on it, from trees_on."""
    terms = []
    for part in enumerate_partitions(k + 1):
        sign = partition_sign(part)
        blocks = part.blocks
        trailing = blocks[-1]
        tree_choices = [list(trees_on(b)) for b in blocks[:-1]]
        tree_choices.append(list(trees_on(tuple(e for e in trailing if e != k + 1) + (ROOT,))))
        for combo in itertools.product(*tree_choices):
            labels: list = []
            father: dict = {}
            for tree in combo:
                labels.extend(tree.labels)
                father.update(tree.father)
            terms.append((forests.Forest(labels, father).text(), sign))
    return summed(terms)


def test_partition_kernels_match_object_references():
    for k in range(1, 9):
        closed = partitions_closed_over_objects(k)
        assert OperatorSum(operators._partitions_closed(k)) == closed
        assert OperatorSum(operators._partitions_recurrence(k)) == partitions_recurrence_over_objects(k)
        assert list(operators.expand_lie_partitions(k).terms.items()) == list(closed.terms.items())


def growth_text(a):
    """SetPartition.text() of the partition with restricted growth string a."""
    sep = "," if len(a) > 9 else ""
    blocks = {}  # reinserted at each element, so ordered by maxima
    for e, b in enumerate(a, 1):
        text = blocks.pop(b, None)
        blocks[b] = str(e) if text is None else text + sep + str(e)
    return "|".join(blocks.values()) or "∅"


def _growth_strings(k):
    """Every partition of [k] as (restricted growth string, block count).

    Entry e-1 of the string is the block of e, blocks numbered 0, 1, ... by
    their smallest element; each element joins a block already open or opens
    the next one.
    """
    level = [((), 0)]
    for _ in range(k):
        level = [(a + (b,), m + (b == m)) for a, m in level for b in range(m + 1)]
    return level


def test_growth_strings_match_partition_objects():
    # the same partitions, with their block counts and texts, as multisets
    for n in range(10):
        strings = _growth_strings(n)
        parts = list(enumerate_partitions(n))
        assert len(strings) == len(parts) == bell(n)
        assert Counter((SetPartition([[e for e, b in enumerate(a, 1) if b == j] for j in range(m)]), m,
                        growth_text(a)) for a, m in strings) \
            == Counter((part, len(part.blocks), part.text()) for part in parts)


def partitions_closed_over_growth_strings(k):
    """The reference closed form: each restricted growth string of [k+1],
    rendered afterwards."""
    return [(growth_text(a), 1 if m % 2 else -1) for a, m in _growth_strings(k + 1)]


def partitions_recurrence_over_growth_strings(k):
    """The reference recurrence: blocks numbered as they open, renumbered by
    first appearance into a restricted growth string, rendered afterwards."""
    state = [((0,), 1, 1)]  # (blocks, block count, sign)
    for _ in range(k):
        nxt = []
        for a, m, sign in state:
            nxt += [((b, *a), m, sign) for b in range(m)]
            nxt.append(((m, *a), m + 1, -sign))
        state = nxt
    out = {}
    for a, _, sign in state:
        first = {}
        key = growth_text([first.setdefault(b, len(first)) for b in a])
        out[key] = out.get(key, 0) + sign
    return out


def test_partition_texts_match_growth_string_kernels():
    # the text-keyed kernels against the growth-string kernels they replace,
    # keys and signs as multisets; k = 9 runs the comma-separated texts
    for k in range(1, 10):
        assert Counter(operators._partitions_closed(k).items()) == Counter(partitions_closed_over_growth_strings(k))
    for k in range(1, 9):
        assert operators._partitions_recurrence(k) == partitions_recurrence_over_growth_strings(k)


def test_forest_kernels_match_object_references():
    for k in range(1, 7):
        closed = forests_closed_over_objects(k)
        assert operators._rendered(operators._forests_closed(k), forests._text) == closed
        assert operators._rendered(operators._forests_from_partitions(k), forests._text) \
            == forests_from_partitions_over_objects(k)
        assert list(operators.expand_lie_forests(k).terms.items()) == list(closed.terms.items())


def without(fn, key):
    """fn with the term key dropped from its result."""
    return lambda k: {fa: m for fa, m in fn(k).items() if fa != key}


def test_recurrence_sign_flip_is_named(monkeypatch):
    right = operators._partitions_recurrence

    def flipped(k):
        terms = right(k)
        terms["13|24"] *= -1
        return terms

    monkeypatch.setattr(operators, "_partitions_recurrence", flipped)
    with pytest.raises(SelfCheckError) as exc:
        operators.expand_lie_partitions(3)
    assert str(exc.value) == "partition expansion mismatch at 13|24: -1 vs 1"


def test_dropped_refined_forest_is_named(monkeypatch):
    # (4, 4, 0) is 1 and 2 below the empty root, 3 a root of its own
    monkeypatch.setattr(operators, "_forests_from_partitions",
                        without(operators._forests_from_partitions, (4, 4, 0)))
    message = "forest expansion mismatch at (3) (∘ (1) (2)): -1 vs 0"
    with pytest.raises(SelfCheckError) as exc:
        operators.expand_lie_forests(3)
    assert str(exc.value) == message
    with pytest.raises(SelfCheckError) as exc:
        operators.lie_chain_oracle(3)
    assert str(exc.value) == message


def test_dropped_partition_fails_the_refinement(capsys, monkeypatch):
    # the refinement reads operators.enumerate_partitions; 13|24 refines to
    # the one forest (3, 4, 0): 1 below 3, 2 below the empty root
    right = operators.enumerate_partitions
    monkeypatch.setattr(operators, "enumerate_partitions",
                        lambda n: (part for part in right(n) if part.text() != "13|24"))
    message = "forest expansion mismatch at (3 (1)) (∘ (2)): -1 vs 0"
    with pytest.raises(SelfCheckError) as exc:
        operators.expand_lie_forests(3)
    assert str(exc.value) == message
    assert cli.main(["verify", "--max-k", "3"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == [f"[FAIL] lie_oracle: expected consistency, got {message}"]


def test_dropped_oracle_graft_is_named(monkeypatch):
    monkeypatch.setattr(operators, "_lie_chain", without(operators._lie_chain, (2, 4, 4)))
    with pytest.raises(SelfCheckError) as exc:
        operators.lie_chain_oracle(3)
    assert str(exc.value) == "oracle mismatch at (∘ (2 (1)) (3)): 0 vs 1"
    assert len(operators.expand_lie_forests(3)) == 24


def test_operator_sum_witness():
    a = OperatorSum({"x": 1, "y": -1})
    assert a.to_json() == [{"key": "x", "sign": 1}, {"key": "y", "sign": -1}]
    # a zero term is dropped, and the others keep the mapping's order
    assert list(OperatorSum({"y": 2, "x": 0, "w": -1}).terms.items()) == [("y", 2), ("w", -1)]


def test_mutable_sums_are_unhashable():
    # neither sum serves as a key: MultiPoly.add_term changes a polynomial in place
    for value in (OperatorSum({"x": 1}), MultiPoly(1, {(0, (1,)): 1})):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


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


def estimate_certificate_by_rows(k, h):
    """The row loop that estimate_certificate replaced, with keyword rows and
    a generator per xi_orders, kept as its reference."""
    if k < 1 or h < 0:
        raise ValueError("need k >= 1 and h >= 0")
    rows = []
    splits = list(operators.weak_compositions(h, k + 1))
    for p, final_deficit, coeff in dyck.walk(k):
        for hs in splits:
            rows.append(
                operators.EstimateRow(
                    p=p,
                    h=hs,
                    coeff=coeff,
                    a_order=hs[k] + final_deficit,
                    xi_orders=tuple(hs[j] + p[j] for j in range(k)),
                )
            )
    return rows


def test_estimate_certificate_matches_row_loop():
    # every (k, h) with k <= 6 and h <= 3, which covers the estimate_counts check of verify
    for k in range(1, 7):
        for h in range(4):
            rows = operators.estimate_certificate(k, h)
            assert rows == estimate_certificate_by_rows(k, h), (k, h)
            assert all(type(r) is operators.EstimateRow for r in rows)


def test_map_recombination_via_decorate():
    # splitting h marks over the trees of a forest and then over each tree's
    # nodes recombines to exactly the maps [h] -> nodes(F), each once
    for k in range(5):
        for h in range(4):
            if math.factorial(k + 1) * (k + 1) ** h > 40000:
                continue
            targets = forests.standard_labels(k)
            for f in forests.enumerate_forests(targets):
                trees = tree_nodes(f)
                seen: dict[tuple, int] = {}
                for mu in itertools.product(range(len(trees)), repeat=h):
                    fibers = [[p for p in range(h) if mu[p] == j] for j in range(len(trees))]
                    per_tree = [list(itertools.product(trees[j], repeat=len(fibers[j])))
                                for j in range(len(trees))]
                    for betas in itertools.product(*per_tree):
                        alpha = [None] * h
                        for j, fiber in enumerate(fibers):
                            for idx, p in enumerate(fiber):
                                alpha[p] = betas[j][idx]
                        key = tuple(alpha)
                        seen[key] = seen.get(key, 0) + 1
                assert seen == {combo: 1 for combo in itertools.product(targets, repeat=h)}


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        operators.expand_lie_partitions(0)
    with pytest.raises(ValueError):
        operators.lie_chain_oracle(0)
    with pytest.raises(ValueError):
        operators.estimate_certificate(0, 0)
    with pytest.raises(ValueError):
        operators.leibniz_split(-1, 2)
