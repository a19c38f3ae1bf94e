import math
from fractions import Fraction

import pytest

from forestlie import compositions, partitions

FIGURE_ROW_4 = {
    (1, 1, 1, 1): 1, (2, 1, 1): 1, (1, 2, 1): 2, (1, 1, 2): 3,
    (3, 1): 1, (2, 2): 3, (1, 3): 3, (4,): 1,
}
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def test_enumerate():
    assert list(compositions.enumerate_compositions(0)) == [()]
    assert list(compositions.enumerate_compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    row4 = list(compositions.enumerate_compositions(4))
    assert len(row4) == 8 and set(row4) == set(FIGURE_ROW_4)
    for k in range(1, 10):
        items = list(compositions.enumerate_compositions(k))
        assert items == sorted(items)
        assert len(items) == len(set(items)) == 2 ** (k - 1)
        assert all(sum(lam) == k for lam in items)


def test_coeff_examples():
    assert compositions.coeff_clambda((1, 2)) == 2
    assert compositions.coeff_clambda((1, 1, 2)) == 3
    assert compositions.coeff_clambda((2, 2)) == 3
    assert compositions.coeff_clambda((1,)) == 1
    assert compositions.coeff_clambda(()) == 1
    for k in range(1, 12):
        assert compositions.coeff_clambda((1,) * k) == 1


def clambda_by_factorials(lam):
    """The reference quotient |lambda|! / prod_j [(lambda_j - 1)! * S_j]."""
    den = 1
    partial = 0
    for part in lam:
        partial += part
        den *= math.factorial(part - 1) * partial
    q, r = divmod(math.factorial(partial), den)
    assert r == 0
    return q


def test_coeff_matches_factorial_quotient():
    for k in range(11):
        for lam in compositions.enumerate_compositions(k):
            assert compositions.coeff_clambda(lam) == clambda_by_factorials(lam)
    # one large part: the binomial product builds no |lambda|!
    assert compositions.coeff_clambda((100000,)) == 1
    assert compositions.coeff_clambda((1, 100000)) == 100000


def test_derive_step():
    assert compositions.derive_step({(): 1}) == {(1,): 1}
    assert compositions.derive_step({(1, 1): 1}) == {(1, 1, 1): 1, (2, 1): 1, (1, 2): 1}
    assert compositions.derive_step({(2,): 3}) == {(3,): 3, (1, 2): 3}


def test_pullback_figure_row():
    assert compositions.pullback_coefficients(4) == FIGURE_ROW_4
    assert compositions.pullback_coefficients(0) == {(): 1}
    assert sum(compositions.pullback_coefficients(6).values()) == 203


def test_pullback_threeway_agreement():
    for k in range(7):
        coeffs = compositions.pullback_coefficients(k)  # cross-checks internally
        census = partitions.shape_census(k)
        for lam, c in coeffs.items():
            assert c == compositions.coeff_clambda(lam) == census[lam]
        assert sum(coeffs.values()) == BELL[k]


def test_key_identity_examples():
    assert compositions.verify_key_identity((2, 1)) == (True, 3, Fraction(3))
    assert compositions.verify_key_identity((3,)) == (True, 3, Fraction(3))
    assert compositions.verify_key_identity((1, 1, 1)) == (True, 3, Fraction(3))
    assert compositions.verify_key_identity(()) == (True, 0, Fraction(0))


def test_key_identity_all_small():
    for k in range(8):
        for lam in compositions.enumerate_compositions(k):
            ok, lhs, rhs = compositions.verify_key_identity(lam)
            assert ok and lhs == k and rhs == k


def test_enumerate_paths_counts():
    # paths to lambda are counted by the pull-back coefficient
    for k in range(6):
        ends: dict[tuple, int] = {}
        for path in compositions.enumerate_paths(k):
            assert path[0] == () and len(path) == k + 1
            ends[path[-1]] = ends.get(path[-1], 0) + 1
        assert ends == compositions.pullback_coefficients(k, check=False)


def test_rejects_bad_composition():
    with pytest.raises(ValueError, match="positive"):
        compositions.coeff_clambda((1, 0, 2))
