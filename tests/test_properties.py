"""Property tests on random Dyck vectors far longer than any enumeration cap."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from forestlie import dyck  # noqa: E402


@st.composite
def dyck_vectors(draw, max_len=40):
    """A Dyck vector of length up to max_len: each entry is at most the
    deficit before it plus one, so no deficit goes negative."""
    p, deficit = [], 0
    for _ in range(draw(st.integers(0, max_len))):
        entry = draw(st.integers(0, deficit + 1))
        p.append(entry)
        deficit += 1 - entry
    return tuple(p)


@given(dyck_vectors())
def test_path_roundtrip(p):
    assert dyck.path_to_vector(dyck.vector_to_path(p)) == p


@given(dyck_vectors())
def test_deficit_recurrence(p):
    d = dyck.deficit_profile(p)
    assert len(d) == len(p) + 1 and d[0] == 0
    assert all(d[j] == d[j - 1] - p[j - 1] + 1 >= 0 for j in range(1, len(p) + 1))


@given(dyck_vectors())
def test_is_dyck(p):
    assert dyck.is_dyck(p)


@given(dyck_vectors(max_len=8))
def test_coeff_cp_matches_table(p):
    assert dyck.coeff_cp(p) == dyck.coefficient_table(len(p))[p]
