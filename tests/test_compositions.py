import itertools
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


def nested_key_identity(lam):
    """The key identity with prod_{j>=s} S_j / (S_j - 1) rebuilt for every s,
    the evaluation verify_key_identity replaced, kept as its reference."""
    sums = [sum(lam[:j]) for j in range(1, len(lam) + 1)]
    lhs = sum(lam)
    rhs = Fraction(0)
    for s, part in enumerate(lam, start=1):
        if s == 1:
            term = Fraction(part)
        elif part == 1:
            continue
        else:
            term = Fraction(part - 1)
        for j in range(max(s, 2), len(lam) + 1):
            term *= Fraction(sums[j - 1], sums[j - 1] - 1)
        rhs += term
    return rhs == lhs, lhs, rhs


def test_key_identity_matches_nested_reference():
    # every composition the key_identity check covers, k <= 10
    for k in range(11):
        for lam in compositions.enumerate_compositions(k):
            assert compositions.verify_key_identity(lam) == nested_key_identity(lam), lam


def key_identity_over_fractions(parts):
    """verify_key_identity with its running sum and suffix product held as
    Fractions, the form the running integer denominator replaced, kept as its
    reference."""
    compositions.validate_composition(parts)
    lam = tuple(parts)
    lhs = partial = sum(lam)
    rhs, suffix = Fraction(0), Fraction(1)
    for part in reversed(lam[1:]):
        suffix *= Fraction(partial, partial - 1)
        rhs += (part - 1) * suffix
        partial -= part
    rhs += (lam[0] if lam else 0) * suffix
    return rhs == lhs, lhs, rhs


def test_key_identity_matches_fraction_reference():
    # every composition the key_identity check covers, k <= 10; rhs stays a Fraction
    for k in range(11):
        for lam in compositions.enumerate_compositions(k):
            got = compositions.verify_key_identity(lam)
            assert got == key_identity_over_fractions(lam), lam
            assert type(got[2]) is Fraction


def test_key_identity_off_compositions(monkeypatch):
    # with validation off, on every sequence over -1..3 up to length 4 (parts
    # of 0 and -1, denominators of 0 and below): the same verdict and rhs, or
    # both divide by zero; the sum telescopes, so where defined it holds
    monkeypatch.setattr(compositions, "validate_composition", lambda parts: None)
    outcomes = set()
    for lam in [lam for n in range(5) for lam in itertools.product((-1, 0, 1, 2, 3), repeat=n)]:
        results = []
        for kernel in (compositions.verify_key_identity, key_identity_over_fractions):
            try:
                results.append(kernel(lam))
            except ZeroDivisionError:
                results.append(ZeroDivisionError)
        assert results[0] == results[1], lam
        outcomes.add(results[0] if results[0] is ZeroDivisionError else results[0][0])
    assert outcomes == {True, ZeroDivisionError}


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
