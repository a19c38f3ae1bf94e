"""Property tests on random Dyck vectors, forests and set partitions far
larger than any enumeration cap."""

import copy
import pickle

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from forestlie import dyck, forests, partitions  # noqa: E402
from forestlie.forests import ROOT, Forest  # noqa: E402
from forestlie.partitions import SetPartition  # noqa: E402


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


@st.composite
def father_arrays(draw, min_k=0, max_k=14):
    """Father indices of a forest on [k] plus the empty root: entry i-1 is 0
    for a root, else a father in i+1..k+1, where k+1 is the empty root."""
    k = draw(st.integers(min_k, max_k))
    return tuple(draw(st.sampled_from((0, *range(i + 1, k + 2)))) for i in range(1, k + 1))


def forest_of(fa):
    labels = forests.standard_labels(len(fa))
    return Forest(labels, {i: labels[f - 1] for i, f in enumerate(fa, start=1) if f})


@st.composite
def growth_strings(draw, max_k=14):
    """A restricted growth string: each element in turn joins a block
    already open or opens the next one."""
    a: list[int] = []
    for _ in range(draw(st.integers(0, max_k))):
        a.append(draw(st.integers(0, max(a, default=-1) + 1)))
    return tuple(a)


def partition_of(a):
    return SetPartition([[e for e, b in enumerate(a, 1) if b == block] for block in range(max(a, default=-1) + 1)])


def set_partitions(max_k=14):
    """A partition of [k], from a random restricted growth string."""
    return growth_strings(max_k).map(partition_of)


@given(father_arrays())
def test_integer_monomial(fa):
    assert forests._monomial(fa) == forests.monomial(forest_of(fa))


@given(father_arrays())
def test_forest_pickle_roundtrip(fa):
    f = forest_of(fa)
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
        assert g == f and g.text() == f.text() and g.labels[-1] is ROOT


@given(father_arrays(min_k=1))
def test_prune_drops_last_exponent(fa):
    f = forest_of(fa)
    assert forests.monomial(forests.prune(f))[0] == forests.monomial(f)[0][:-1]


@given(set_partitions())
def test_partition_path_roundtrip(part):
    assert partitions.path_to_partition(partitions.partition_to_path(part)) == part


@given(set_partitions())
def test_partition_text_roundtrip(part):
    assert SetPartition.parse(part.text()) == part


@given(growth_strings())
def test_growth_text(a):
    assert partitions._growth_text(a) == partition_of(a).text()


@given(father_arrays())
def test_forest_text(fa):
    assert forests._text(fa) == forest_of(fa).text()
