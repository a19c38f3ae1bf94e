import pytest

from forestlie import forests, polynomial
from forestlie.polynomial import MultiPoly

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
        expo, tree_count, root_children = forests.monomial(f)
        out.add_term(2 ** (tree_count - 1), root_children, expo)
    return out


def test_sigma_bruteforce_matches_forest_objects():
    for k in range(8):
        assert polynomial.sigma_bruteforce(k) == sigma_over_forest_objects(k)


def test_sigma_equality():
    for k in range(6):
        eq, witness = polynomial.poly_equal(polynomial.sigma_formula(k), polynomial.sigma_bruteforce(k))
        assert eq and witness is None


def test_poly_equal_witness():
    a = MultiPoly(1, SIGMA_1)
    b = MultiPoly(1, SIGMA_1)
    b.add_term(1, 0, (1,))
    eq, witness = polynomial.poly_equal(a, b)
    assert not eq
    assert witness == ((0, (1,)), 2, 3)
    assert polynomial.poly_equal(MultiPoly(2), MultiPoly(2)) == (True, None)


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
