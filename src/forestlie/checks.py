"""The verification registry: every check behind ``forestlie verify``.

A check is one generator ``check_<name>(max_k)`` decorated with
``@_check("<row name format>")``.  It caps the global ceiling ``max_k`` at
the size where it stays interactive and yields ``(key, expected, actual)``
triples, comparing a closed formula or known table with an independent
construction.  The decorator binds, under the generator's own name, a
function that returns the rows ``{"name", "expected", "actual", "ok"}``,
each named by formatting the key into the row name format, and appends
``(<name>, function)`` to ``CHECKS`` in definition order.  The functions are
module-level so that ``verify --jobs`` can run them in worker processes, and
the acceptance suite runs the same entries.
"""

from __future__ import annotations

import functools
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
CHECKS: list = []  # (name, function returning rows), filled by _check


def _count(items) -> int:
    """How many items an iterator yields, counted without a Python step per item."""
    counter = count()
    deque(zip(items, counter), maxlen=0)  # zip stops before it advances the counter past the end
    return next(counter)


def _check(name_fmt: str):
    """Register a generator of (key, expected, actual) as the check named
    after it without its "check_" prefix; its name now returns the rows."""
    def register(gen):
        @functools.wraps(gen)
        def rows(max_k: int) -> list[dict]:
            return [{"name": name_fmt.format(*key), "expected": str(exp), "actual": str(act), "ok": exp == act}
                    for key, exp, act in gen(max_k)]

        CHECKS.append((gen.__name__.removeprefix("check_"), rows))
        return rows

    return register


@_check("coeff_worked_example[{}]")
def check_coeff_worked_example(max_k: int):
    p = (0, 1, 0, 1, 3, 0, 1)
    yield ("deficits",), (0, 1, 1, 2, 2, 0, 1, 1), dyck.deficit_profile(p)
    yield ("value",), 72, dyck.coeff_cp(p)


@_check("dyck_table[k={}]")
def check_dyck_tables(max_k: int):
    for k in range(1, min(max_k, 3) + 1):
        yield (k,), DYCK_TABLES[k], dyck.coefficient_table(k)


@_check("dyck_count[k={},{}]")
def check_dyck_counts(max_k: int):
    for k in range(min(max_k, 12) + 1):
        cat = dyck.catalan(k + 1)
        yield (k, "enumerated"), cat, _count(dyck.enumerate_dyck(k))
        yield (k, "counted"), cat, dyck.count_dyck(k)


@_check("dyck_two_formulas[k={}]")
def check_dyck_two_formulas(max_k: int):
    # the walk raises if the two product forms ever disagree
    for k in range(min(max_k, 10) + 1):
        evaluated = sum(1 for _, _, c in dyck.walk(k) if c >= 1)
        yield (k,), dyck.catalan(k + 1), evaluated


@_check("path_roundtrip[k={}]")
def check_path_roundtrip(max_k: int):
    for k in range(min(max_k, 8) + 1):
        good = sum(1 for p in dyck.enumerate_dyck(k)
                   if dyck.path_to_vector(dyck.vector_to_path(p)) == p)
        yield (k,), dyck.catalan(k + 1), good


@_check("pullback[k={},{}]")
def check_pullback_threeway(max_k: int):
    for k in range(min(max_k, 9) + 1):
        coeffs = compositions.pullback_coefficients(k, check=False)
        agree = all(iterated == closed == counted
                    for _, iterated, closed, counted in compositions.pullback_threeway(k, coeffs))
        yield (k, "threeway"), True, agree
        yield (k, "bell_total"), partitions.bell(k), sum(coeffs.values())
        if k < len(BELL):
            yield (k, "bell_table"), BELL[k], partitions.bell(k)


@_check("key_identity[k={}]")
def check_key_identity(max_k: int):
    # both sides must also equal k, the sum of the parts
    for k in range(min(max_k, 10) + 1):
        bad = [lam for lam in compositions.enumerate_compositions(k)
               if compositions.verify_key_identity(lam) != (True, k, k)]
        yield (k,), [], bad


@_check("partition_bijection[{},{}]")
def check_partition_bijection(max_k: int):
    worked = partitions.SetPartition.parse("1|35|6|247")
    expected_chain = [(), (1,), (1, 1), (1, 1, 1), (1, 1, 2), (2, 1, 2), (2, 1, 3), (1, 2, 1, 3)]
    yield ("worked", "chain"), expected_chain, partitions.partition_to_path(worked)
    for k in range(min(max_k, 8) + 1):
        good = sum(1 for part in partitions.enumerate_partitions(k)
                   if partitions.path_to_partition(partitions.partition_to_path(part)) == part)
        yield (k, "forward"), partitions.bell(k), good
    for k in range(min(max_k, 7) + 1):
        good = sum(1 for path in compositions.enumerate_paths(k)
                   if partitions.partition_to_path(partitions.path_to_partition(path)) == path)
        yield (k, "reverse"), partitions.bell(k), good


# The two forest checks run on the public Forest objects.  forest_counts
# counts what enumerate_forests yields, one forest per product of the labels'
# father choices, and forests._check_indices rejects a choice outside
# i < f <= n once per call, so a wrong count or an invalid forest from the
# enumerator fails here.  forest_identities runs the public monomial, which
# counts children and roots on a forest's father indices, and prune, which
# neither the label-by-label forest sum of polynomial.sigma_bruteforce nor
# forests._text go through.
@_check("forest_count[k={}]")
def check_forest_counts(max_k: int):
    for k in range(min(max_k, 7) + 1):
        n = _count(forests.enumerate_forests(forests.standard_labels(k)))
        yield (k,), math.factorial(k + 1), n


@_check("forest_identity[k={},{}]")
def check_forest_identities(max_k: int):
    for k in range(1, min(max_k, 6) + 1):
        prune_ok = deg_ok = True
        dyck_ok = True
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            expo, _, root_degree = forests.monomial(f)
            dyck_ok = dyck_ok and dyck.is_dyck(expo)
            deg_ok = deg_ok and root_degree == k - sum(expo)
            prune_ok = prune_ok and forests.monomial(forests.prune(f))[0] == expo[:-1]
        yield (k, "prune_monomial"), True, prune_ok
        yield (k, "root_degree"), True, deg_ok
        yield (k, "dyck_exponents"), True, dyck_ok


@_check("fiber_example[{}]")
def check_fiber_example(max_k: int):
    if max_k < 5:
        return
    fib = forests.fiber((0, 0, 2, 1, 1))
    hist: dict[int, int] = {}
    for f in fib:
        hist[f.tree_count] = hist.get(f.tree_count, 0) + 1
    cprime = forests.cprime((0, 0, 2, 1, 1))
    yield ("histogram",), {1: 1, 2: 4, 3: 5, 4: 2}, hist
    yield ("cprime",), 45, cprime
    yield ("coeff",), dyck.coeff_cp((0, 0, 2, 1, 1)), cprime


@_check("sigma_equal[k={}]")
def check_sigma_equality(max_k: int):
    for k in range(min(max_k, 7) + 1):
        eq, witness = polynomial.poly_equal(polynomial.sigma_formula(k), polynomial.sigma_bruteforce(k))
        yield (k,), (True, None), (eq, witness)


@_check("covariant_chain[n={}]")
def check_covariant_chain(max_k: int):
    for n in range(min(max_k, 6) + 1):
        trees = forests.expand_covariant(range(1, n + 1))  # raises on any mismatch
        yield (n,), math.factorial(n), len(trees)


@_check("lie_partitions[k={}]")
def check_lie_partitions(max_k: int):
    for k in range(1, min(max_k, 6) + 1):
        expansion = operators.expand_lie_partitions(k)  # closed form vs recurrence inside
        yield (k,), partitions.bell(k + 1), len(expansion)


@_check("lie_oracle[k={}]")
def check_lie_oracle(max_k: int):
    for k in range(1, min(max_k, 5) + 1):
        expansion = operators.lie_chain_oracle(k)  # compared with the forest form inside
        yield (k,), math.factorial(k + 1), len(expansion)


@_check("estimate[k={},{}]")
def check_estimate_counts(max_k: int):
    for k in range(1, min(max_k, 6) + 1):
        rows = operators.estimate_certificate(k, 0)
        table = {(r.p, r.coeff, r.a_order) for r in rows}
        expected = {(p, dyck.coeff_cp(p), dyck.deficit_profile(p)[k]) for p in dyck.enumerate_dyck(k)}
        yield (k, "h0_table"), expected, table
    for k in range(1, min(max_k, 4) + 1):
        for h in range(4):
            n = len(operators.estimate_certificate(k, h))
            yield (k, f"rows_h{h}"), dyck.catalan(k + 1) * math.comb(h + k, k), n


@_check("leibniz[h={},l={}]")
def check_leibniz_grouping(max_k: int):
    for h in range(4):
        for l in range(1, 4):
            counts = operators.leibniz_fiber_counts(h, l)  # multinomials verified inside
            yield (h, l), l ** h, sum(counts.values())


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
