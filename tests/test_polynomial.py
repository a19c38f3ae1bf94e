import itertools
import math
from collections import Counter

import pytest

from forestlie import forests, polynomial
from forestlie.polynomial import MultiPoly, TermKey

SIGMA_1 = {(1, (0,)): 1, (0, (1,)): 2}
SIGMA_2 = {(2, (0, 0)): 1, (1, (1, 0)): 2, (1, (0, 1)): 3, (0, (1, 1)): 4, (0, (0, 2)): 2}
# the closed-formula table for k = 3; note coefficient 3 on (0,1,0) and 2 on (0,2,0)
SIGMA_3 = {
    (3, (0, 0, 0)): 1, (2, (0, 0, 1)): 4, (1, (0, 0, 2)): 5, (0, (0, 0, 3)): 2,
    (2, (0, 1, 0)): 3, (1, (0, 1, 1)): 9, (0, (0, 1, 2)): 6,
    (1, (0, 2, 0)): 2, (0, (0, 2, 1)): 4,
    (2, (1, 0, 0)): 2, (1, (1, 0, 1)): 6, (0, (1, 0, 2)): 4,
    (1, (1, 1, 0)): 4, (0, (1, 1, 1)): 8,
}


def test_sigma_formula_printed_values():
    assert polynomial.sigma_formula(0).terms == {(0, ()): 1}
    assert polynomial.sigma_formula(1).terms == SIGMA_1
    assert polynomial.sigma_formula(2).terms == SIGMA_2
    assert polynomial.sigma_formula(3).terms == SIGMA_3


def test_sigma_bruteforce_small():
    assert polynomial.sigma_bruteforce(1).terms == SIGMA_1
    assert polynomial.sigma_bruteforce(2).terms == SIGMA_2
    for fn in (polynomial.sigma_bruteforce, polynomial.sigma_formula):
        with pytest.raises(ValueError, match="k must be >= 0"):
            fn(-1)


def sigma_over_forest_objects(k):
    """The reference: the forest sum over Forest objects and their monomials."""
    out = MultiPoly(k)
    for f in forests.enumerate_forests(forests.standard_labels(k)):
        expo, tree_count, root_degree = forests.monomial(f)
        out.add_term(2 ** (tree_count - 1), root_degree, expo)
    return out


def test_sigma_bruteforce_matches_forest_objects():
    for k in range(8):
        assert polynomial.sigma_bruteforce(k) == sigma_over_forest_objects(k)


def monomial_of_fathers(fa):
    """monomial() of the forest on [k] plus the empty root with father indices fa."""
    k = len(fa)
    counts = [0] * (k + 2)
    for i, f in enumerate(fa, 1):
        counts[f] += 1
        if not f:
            counts[i] += 1
    return tuple(counts[1:k + 1]), counts[0] + 1, counts[k + 1]


def sigma_per_forest(k):
    """The reference: one monomial per tuple of father indices, added up term by term."""
    terms = {}
    for fa in forests._father_arrays(k):
        expo, tree_count, root_degree = monomial_of_fathers(fa)
        key = (root_degree, expo)
        terms[key] = terms.get(key, 0) + (1 << (tree_count - 1))
    return MultiPoly(k, terms)


def test_integer_monomial_matches_forest_objects():
    for k in range(7):
        fas = list(forests._father_arrays(k))
        objs = list(forests.enumerate_forests(forests.standard_labels(k)))
        assert len(fas) == len(objs) == math.factorial(k + 1)
        for fa, f in zip(fas, objs):
            assert monomial_of_fathers(fa) == forests.monomial(f)


def test_packed_codes_match_per_forest_loop():
    # the field width (k+1).bit_length() grows at k = 1, 3 and 7, so this
    # runs widths 1 to 4, each at its first k
    for k in range(9):
        assert polynomial.sigma_bruteforce(k).terms == sigma_per_forest(k).terms, k


DEPTH = 4  # labels in the tail table of sigma_packed_listing


def sigma_packed_listing(k: int) -> MultiPoly:
    """Sum over all (k+1)! forests of 2^(trees-1) * B^(root children) * X^(exponents).

    Each forest on [k] plus the empty root is counted as one int code with
    w bits per field: field 0 counts the trees other than the root tree,
    field i the exponent of label i, field k+1 the empty root's children.
    Label i adds one to the field of its father, or as a root one to field 0
    and one to field i, so a forest's code is the sum of its labels' codes.
    Fathers run as in forests._father_arrays; the codes of the last DEPTH
    labels form a tail table built once per call, and each prefix code is
    added to every tail code.  Every code is counted before any is decoded.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    w = (k + 1).bit_length()  # no field exceeds k
    choices = [((1 << w * i) + 1, *(1 << w * f for f in range(i + 1, k + 2))) for i in range(1, k + 1)]
    split = max(k - DEPTH, 0)
    tails = list(map(sum, itertools.product(*choices[split:])))
    counts: Counter[int] = Counter()
    for head in map(sum, itertools.product(*choices[:split])):
        counts.update(map(head.__add__, tails))
    mask = (1 << w) - 1
    terms: dict[TermKey, int] = {}
    for code, n in counts.items():
        key = (code >> w * (k + 1), tuple([code >> w * i & mask for i in range(1, k + 1)]))
        terms[key] = terms.get(key, 0) + (n << (code & mask))
    return MultiPoly(k, terms)


def test_collector_matches_packed_listing():
    # every k the listing was checked over through sigma --check (10! forests at k = 9)
    for k in range(10):
        assert polynomial.sigma_bruteforce(k).terms == sigma_packed_listing(k).terms, k


def test_sigma_equality():
    for k in range(11):
        eq, witness = polynomial.poly_equal(polynomial.sigma_formula(k), polynomial.sigma_bruteforce(k))
        assert eq and witness is None, (k, witness)


def test_poly_equal_witness():
    a = MultiPoly(1, SIGMA_1)
    b = MultiPoly(1, SIGMA_1)
    b.add_term(1, 0, (1,))
    eq, witness = polynomial.poly_equal(a, b)
    assert not eq
    assert witness == ((0, (1,)), 2, 3)
    assert polynomial.poly_equal(MultiPoly(2), MultiPoly(2)) == (True, None)


def test_poly_equal_is_exact():
    # a stored zero is a term the empty polynomial lacks: unequal, as under ==
    zero = MultiPoly._built(1, {(0, (1,)): 0})
    assert zero != MultiPoly(1)
    assert polynomial.poly_equal(zero, MultiPoly(1)) == (False, ((0, (1,)), 0, None))
    assert polynomial.poly_equal(MultiPoly(1), zero) == (False, ((0, (1,)), None, 0))
    assert polynomial.poly_equal(MultiPoly(1, SIGMA_1), MultiPoly(1, {(1, (0,)): 1})) == (
        False, ((0, (1,)), 2, None))
    assert polynomial.poly_equal(MultiPoly(1), MultiPoly(2)) == (False, ((0, ()), 1, 2))
    for a, b in itertools.product([zero, MultiPoly(1), MultiPoly(1, SIGMA_1), MultiPoly(2)], repeat=2):
        assert polynomial.poly_equal(a, b)[0] == (a == b)


def test_specialization_counts_weighted_forests():
    for k in range(6):
        weighted = sum(2 ** (f.tree_count - 1)
                       for f in forests.enumerate_forests(forests.standard_labels(k)))
        assert polynomial.sigma_formula(k).specialize_ones() == weighted


def test_degree_matches_b_power():
    for k in range(6):
        for (bdeg, expo), _ in polynomial.sigma_bruteforce(k).items():
            assert bdeg == k - sum(expo)


def test_term_order_and_str():
    poly = polynomial.sigma_formula(1)
    assert [key for key, _ in poly.items()] == [(0, (1,)), (1, (0,))]
    assert str(poly) == "2 X^(1) + B X^(0)"
    assert str(polynomial.sigma_formula(0)) == "1"
    assert str(MultiPoly(2)) == "0"


def test_json_terms_roundtrip():
    poly = polynomial.sigma_formula(2)
    rows = poly.to_json_terms()
    assert rows[0] == {"b": 0, "p": [0, 2], "c": 2}
    assert MultiPoly(2, {(row["b"], tuple(row["p"])): row["c"] for row in rows}) == poly


def test_rejects_bad_terms():
    with pytest.raises(ValueError, match="entries"):
        MultiPoly(2).add_term(1, 0, (1,))
    with pytest.raises(ValueError, match="negative"):
        MultiPoly(1).add_term(1, -1, (0,))


def test_builders_make_terms_the_validating_constructor_keeps():
    # sigma_formula and sigma_bruteforce hand their dicts over unchecked; each
    # key must pass add_term unchanged, with no zero coefficient to drop
    for k in range(10):
        for poly in (polynomial.sigma_formula(k), polynomial.sigma_bruteforce(k)):
            rebuilt = MultiPoly(k, poly.terms)
            assert rebuilt == poly and list(rebuilt.terms) == list(poly.terms), k
            assert all(type(expo) is tuple for _, expo in poly.terms)


def test_public_constructor_still_validates():
    for terms, message in [({(0, (1,)): 1}, "entries"), ({(-1, (0, 0)): 1}, "negative"),
                           ({(0, (0, -1)): 1}, "negative")]:
        with pytest.raises(ValueError, match=message):
            MultiPoly(2, terms)
        with pytest.raises(ValueError, match=message):
            MultiPoly(2).add_term(1, *next(iter(terms)))
    assert MultiPoly(2, {(0, (1, 0)): 0, (1, (0, 1)): 3}).terms == {(1, (0, 1)): 3}
