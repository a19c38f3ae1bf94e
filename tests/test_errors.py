from types import SimpleNamespace

import pytest

from forestlie import forests, operators
from forestlie.errors import SelfCheckError, compare


def test_compare_passes_equal_mappings():
    compare("x", {}, {})
    compare("x", {(1, 2): 3}, {(1, 2): 3})
    compare("x", {(1,): 0}, {})  # a missing key counts as 0


def test_compare_names_first_differing_key():
    with pytest.raises(SelfCheckError) as exc:
        compare("census", {(2,): 1, (1, 1): 5}, {(2,): 1, (1, 1): 4, (3,): 7})
    assert str(exc.value) == "census mismatch at (1, 1): 5 vs 4"
    with pytest.raises(SelfCheckError) as exc:
        compare("census", {}, {(3,): 7}, text=lambda key: "".join(map(str, key)))
    assert str(exc.value) == "census mismatch at 3: 0 vs 7"


def test_grafting_mismatch_names_the_tree(monkeypatch):
    real = forests.itertools.product
    # the enumeration loses its first tree, 1 below 2 below the empty root
    monkeypatch.setattr(forests, "itertools", SimpleNamespace(product=lambda *ranges: list(real(*ranges))[1:]))
    with pytest.raises(SelfCheckError) as exc:
        forests.expand_covariant({1, 2})
    assert str(exc.value) == "grafting expansion mismatch at (∘ (2 (1))): 1 vs 0"


def test_fiber_count_mismatch_names_the_vector(monkeypatch):
    real = operators.weak_compositions
    monkeypatch.setattr(operators, "weak_compositions",
                        lambda h, l: [sizes for sizes in real(h, l) if sizes != (1, 1)])
    with pytest.raises(SelfCheckError) as exc:
        operators.leibniz_fiber_counts(2, 2)
    assert str(exc.value) == "fiber count mismatch at (1, 1): 2 vs 0"
