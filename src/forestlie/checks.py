"""The verification registry: every check behind ``forestlie verify``.

Each check takes the global ceiling ``max_k``, caps it at the size where it
stays interactive, and returns rows ``{"name", "expected", "actual", "ok"}``
comparing a closed formula or known table with an independent construction.
The functions are module-level so that ``verify --jobs`` can run them in
worker processes, and the acceptance suite runs the same entries.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import count

from . import compositions, dyck, forests, operators, partitions, polynomial
from .errors import SelfCheckError

DYCK_TABLES = {
    1: {(0,): 1, (1,): 2},
    2: {(0, 0): 1, (0, 1): 3, (0, 2): 2, (1, 0): 2, (1, 1): 4},
    3: {
        (0, 0, 0): 1, (0, 0, 1): 4, (0, 0, 2): 5, (0, 0, 3): 2, (0, 1, 0): 3,
        (0, 1, 1): 9, (0, 1, 2): 6, (0, 2, 0): 2, (0, 2, 1): 4, (1, 0, 0): 2,
        (1, 0, 1): 6, (1, 0, 2): 4, (1, 1, 0): 4, (1, 1, 1): 8,
    },
}
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def _count(items) -> int:
    """How many items an iterator yields, counted without a Python step per item."""
    counter = count()
    deque(zip(items, counter), maxlen=0)  # zip stops before it advances the counter past the end
    return next(counter)


def _rows(name_fmt, pairs):
    return [{"name": name_fmt.format(*key), "expected": str(exp), "actual": str(act), "ok": exp == act}
            for key, exp, act in pairs]


def check_coeff_worked_example(max_k: int) -> list[dict]:
    p = (0, 1, 0, 1, 3, 0, 1)
    pairs = [
        (("deficits",), (0, 1, 1, 2, 2, 0, 1, 1), dyck.deficit_profile(p)),
        (("value",), 72, dyck.coeff_cp(p)),
    ]
    return _rows("coeff_worked_example[{}]", pairs)


def check_dyck_tables(max_k: int) -> list[dict]:
    pairs = [((k,), DYCK_TABLES[k], dyck.coefficient_table(k)) for k in range(1, min(max_k, 3) + 1)]
    return _rows("dyck_table[k={}]", pairs)


def check_dyck_counts(max_k: int) -> list[dict]:
    pairs = []
    for k in range(min(max_k, 12) + 1):
        cat = dyck.catalan(k + 1)
        pairs.append(((k, "enumerated"), cat, _count(dyck.enumerate_dyck(k))))
        pairs.append(((k, "counted"), cat, dyck.count_dyck(k)))
    return _rows("dyck_count[k={},{}]", pairs)


def check_dyck_two_formulas(max_k: int) -> list[dict]:
    # the walk raises if the two product forms ever disagree
    pairs = []
    for k in range(min(max_k, 10) + 1):
        evaluated = sum(1 for _, _, c in dyck.walk(k) if c >= 1)
        pairs.append(((k,), dyck.catalan(k + 1), evaluated))
    return _rows("dyck_two_formulas[k={}]", pairs)


def check_path_roundtrip(max_k: int) -> list[dict]:
    pairs = []
    for k in range(min(max_k, 8) + 1):
        good = sum(1 for p in dyck.enumerate_dyck(k)
                   if dyck.path_to_vector(dyck.vector_to_path(p)) == p)
        pairs.append(((k,), dyck.catalan(k + 1), good))
    return _rows("path_roundtrip[k={}]", pairs)


def check_pullback_threeway(max_k: int) -> list[dict]:
    pairs = []
    for k in range(min(max_k, 9) + 1):
        coeffs = compositions.pullback_coefficients(k, check=False)
        agree = all(iterated == closed == counted
                    for _, iterated, closed, counted in compositions.pullback_threeway(k, coeffs))
        pairs.append(((k, "threeway"), True, agree))
        pairs.append(((k, "bell_total"), partitions.bell(k), sum(coeffs.values())))
        if k < len(BELL):
            pairs.append(((k, "bell_table"), BELL[k], partitions.bell(k)))
    return _rows("pullback[k={},{}]", pairs)


def check_key_identity(max_k: int) -> list[dict]:
    # both sides must also equal k, the sum of the parts
    pairs = []
    for k in range(min(max_k, 10) + 1):
        bad = [lam for lam in compositions.enumerate_compositions(k)
               if compositions.verify_key_identity(lam) != (True, k, k)]
        pairs.append(((k,), [], bad))
    return _rows("key_identity[k={}]", pairs)


def check_partition_bijection(max_k: int) -> list[dict]:
    worked = partitions.SetPartition.parse("1|35|6|247")
    expected_chain = [(), (1,), (1, 1), (1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 1, 3), (1, 2, 1, 3)]
    pairs = [(("worked", "chain"), expected_chain, partitions.partition_to_path(worked))]
    for k in range(min(max_k, 8) + 1):
        good = sum(1 for part in partitions.enumerate_partitions(k)
                   if partitions.path_to_partition(partitions.partition_to_path(part)) == part)
        pairs.append(((k, "forward"), partitions.bell(k), good))
    for k in range(min(max_k, 7) + 1):
        good = sum(1 for path in compositions.enumerate_paths(k)
                   if partitions.partition_to_path(partitions.path_to_partition(path)) == path)
        pairs.append(((k, "reverse"), partitions.bell(k), good))
    return _rows("partition_bijection[{},{}]", pairs)


# The two forest checks run on the public Forest objects, not on father
# tuples.  forest_counts counts what enumerate_forests yields; it joins the
# father map of each prefix of father choices to a table of tail father maps,
# and forests._block rejects a father index outside i < f <= n in every prefix
# and every tail, so a wrong count or an invalid forest from the enumerator
# fails here.  A forest is only its father map: forest_identities runs the
# public monomial, which counts children and roots in one pass over that map,
# and prune, which neither the label-by-label forest sum of
# polynomial.sigma_bruteforce nor forests._text go through.
def check_forest_counts(max_k: int) -> list[dict]:
    pairs = []
    for k in range(min(max_k, 7) + 1):
        n = _count(forests.enumerate_forests(forests.standard_labels(k)))
        pairs.append(((k,), math.factorial(k + 1), n))
    return _rows("forest_count[k={}]", pairs)


def check_forest_identities(max_k: int) -> list[dict]:
    pairs = []
    for k in range(1, min(max_k, 6) + 1):
        prune_ok = deg_ok = True
        dyck_ok = True
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            expo, _, root_degree = forests.monomial(f)
            dyck_ok = dyck_ok and dyck.is_dyck(expo)
            deg_ok = deg_ok and root_degree == k - sum(expo)
            prune_ok = prune_ok and forests.monomial(forests.prune(f))[0] == expo[:-1]
        pairs.append(((k, "prune_monomial"), True, prune_ok))
        pairs.append(((k, "root_degree"), True, deg_ok))
        pairs.append(((k, "dyck_exponents"), True, dyck_ok))
    return _rows("forest_identity[k={},{}]", pairs)


def check_fiber_example(max_k: int) -> list[dict]:
    if max_k < 5:
        return []
    fib = forests.fiber((0, 0, 2, 1, 1))
    hist: dict[int, int] = {}
    for f in fib:
        hist[f.tree_count] = hist.get(f.tree_count, 0) + 1
    cprime = forests.cprime((0, 0, 2, 1, 1))
    pairs = [
        (("histogram",), {1: 1, 2: 4, 3: 5, 4: 2}, hist),
        (("cprime",), 45, cprime),
        (("coeff",), dyck.coeff_cp((0, 0, 2, 1, 1)), cprime),
    ]
    return _rows("fiber_example[{}]", pairs)


def check_sigma_equality(max_k: int) -> list[dict]:
    pairs = []
    for k in range(min(max_k, 7) + 1):
        eq, witness = polynomial.poly_equal(polynomial.sigma_formula(k), polynomial.sigma_bruteforce(k))
        pairs.append(((k,), (True, None), (eq, witness)))
    return _rows("sigma_equal[k={}]", pairs)


def check_covariant_chain(max_k: int) -> list[dict]:
    pairs = []
    for n in range(min(max_k, 6) + 1):
        trees = forests.expand_covariant(range(1, n + 1))  # raises on any mismatch
        pairs.append(((n,), math.factorial(n), len(trees)))
    return _rows("covariant_chain[n={}]", pairs)


def check_lie_partitions(max_k: int) -> list[dict]:
    pairs = []
    for k in range(1, min(max_k, 6) + 1):
        expansion = operators.expand_lie_partitions(k)  # closed form vs recurrence inside
        pairs.append(((k,), partitions.bell(k + 1), len(expansion)))
    return _rows("lie_partitions[k={}]", pairs)


def check_lie_oracle(max_k: int) -> list[dict]:
    pairs = []
    for k in range(1, min(max_k, 5) + 1):
        expansion = operators.lie_chain_oracle(k)  # compared with the forest form inside
        pairs.append(((k,), math.factorial(k + 1), len(expansion)))
    return _rows("lie_oracle[k={}]", pairs)


def check_estimate_counts(max_k: int) -> list[dict]:
    pairs = []
    for k in range(1, min(max_k, 6) + 1):
        rows = operators.estimate_certificate(k, 0)
        table = {(r.p, r.coeff, r.a_order) for r in rows}
        expected = {(p, dyck.coeff_cp(p), dyck.deficit_profile(p)[k]) for p in dyck.enumerate_dyck(k)}
        pairs.append(((k, "h0_table"), expected, table))
    for k in range(1, min(max_k, 4) + 1):
        for h in range(4):
            n = len(operators.estimate_certificate(k, h))
            pairs.append(((k, f"rows_h{h}"), dyck.catalan(k + 1) * math.comb(h + k, k), n))
    return _rows("estimate[k={},{}]", pairs)


def check_leibniz_grouping(max_k: int) -> list[dict]:
    pairs = []
    for h in range(4):
        for l in range(1, 4):
            counts = operators.leibniz_fiber_counts(h, l)  # multinomials verified inside
            pairs.append(((h, l), l ** h, sum(counts.values())))
    return _rows("leibniz[h={},l={}]", pairs)


CHECKS = [
    ("coeff_worked_example", check_coeff_worked_example),
    ("dyck_tables", check_dyck_tables),
    ("dyck_counts", check_dyck_counts),
    ("dyck_two_formulas", check_dyck_two_formulas),
    ("path_roundtrip", check_path_roundtrip),
    ("pullback_threeway", check_pullback_threeway),
    ("key_identity", check_key_identity),
    ("partition_bijection", check_partition_bijection),
    ("forest_counts", check_forest_counts),
    ("forest_identities", check_forest_identities),
    ("fiber_example", check_fiber_example),
    ("sigma_equality", check_sigma_equality),
    ("covariant_chain", check_covariant_chain),
    ("lie_partitions", check_lie_partitions),
    ("lie_oracle", check_lie_oracle),
    ("estimate_counts", check_estimate_counts),
    ("leibniz_grouping", check_leibniz_grouping),
]


def run(name: str, max_k: int) -> list[dict]:
    """The rows of the named check; an exception raised inside it becomes one
    failing row that carries its message, and its type unless a SelfCheckError."""
    try:
        return dict(CHECKS)[name](max_k)
    except SelfCheckError as exc:
        actual = str(exc)
    except Exception as exc:
        actual = f"{type(exc).__name__}: {exc}"
    return [{"name": name, "expected": "consistency", "actual": actual, "ok": False}]
