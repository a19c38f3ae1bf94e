import tracemalloc
from fractions import Fraction
from itertools import product, zip_longest

import pytest

from forestlie import checks, cli, dyck, operators, polynomial
from forestlie.errors import SelfCheckError

# full coefficient lists for lengths 1..3
TABLE_1 = {(0,): 1, (1,): 2}
TABLE_2 = {(0, 0): 1, (0, 1): 3, (0, 2): 2, (1, 0): 2, (1, 1): 4}
TABLE_3 = {
    (0, 0, 0): 1, (0, 0, 1): 4, (0, 0, 2): 5, (0, 0, 3): 2, (0, 1, 0): 3,
    (0, 1, 1): 9, (0, 1, 2): 6, (0, 2, 0): 2, (0, 2, 1): 4, (1, 0, 0): 2,
    (1, 0, 1): 6, (1, 0, 2): 4, (1, 1, 0): 4, (1, 1, 1): 8,
}


def recursive_enumerate_dyck(k):
    """The recursive enumerator that enumerate_dyck replaced, kept as its reference."""
    prefix = []

    def rec(j, total):
        if j > k:
            yield tuple(prefix)
            return
        for entry in range(j - total + 1):
            prefix.append(entry)
            yield from rec(j + 1, total + entry)
            prefix.pop()

    yield from rec(1, 0)


def successor_prefixes(k):
    """(p, D_k, binomial product, rational numerator, denominator) for every
    Dyck vector p of length k, in lexicographic order: the successor loop
    that dyck._prefixes replaced, kept as its reference.

    Iterative (TAOCP 4A, 7.2.1.6): the successor of p raises the rightmost
    entry p_j whose deficit D_j is positive by one and resets the entries
    after it to zero, which share the products of p_1..p_j.
    """
    p = [0] * k
    d = list(range(k + 1))  # the deficits D_0..D_k of p
    coeff = [1] * (k + 1)  # index j: products over p_1..p_j
    num = [1] * (k + 1)
    den = [1] * (k + 1)
    while True:
        yield tuple(p), d[k], coeff[k], num[k], den[k]
        j = k
        while j and not d[j]:
            j -= 1
        if not j:
            return
        entry = p[j - 1] = p[j - 1] + 1
        d[j] -= 1
        fc, fn, fm = dyck._factors(d[j - 1], entry)
        c, n, m = coeff[j - 1] * fc, num[j - 1] * fn, den[j - 1] * fm
        coeff[j], num[j], den[j] = c, n, m
        for i in range(j, k):
            p[i] = 0
            d[i + 1] = d[i] + 1
            coeff[i + 1], num[i + 1], den[i + 1] = c, n, m


def test_enumerate_small():
    assert list(dyck.enumerate_dyck(0)) == [()]
    assert list(dyck.enumerate_dyck(1)) == [(0,), (1,)]
    assert list(dyck.enumerate_dyck(2)) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert list(dyck.enumerate_dyck(3)) == sorted(TABLE_3)


def test_enumerate_is_lexicographic_and_counted():
    for k in range(9):
        vectors = list(dyck.enumerate_dyck(k))
        assert vectors == sorted(vectors)
        assert len(vectors) == len(set(vectors)) == dyck.catalan(k + 1)
        assert dyck.count_dyck(k) == dyck.catalan(k + 1)


def test_deficit_profile_examples():
    assert dyck.deficit_profile((0, 1, 0, 1, 3, 0, 1)) == (0, 1, 1, 2, 2, 0, 1, 1)
    assert dyck.deficit_profile(()) == (0,)
    assert dyck.deficit_profile((1, 1, 1)) == (0, 0, 0, 0)


def test_deficit_recurrence():
    # D_j = D_{j-1} - p_j + 1
    for k in range(7):
        for p in dyck.enumerate_dyck(k):
            d = dyck.deficit_profile(p)
            assert all(d[j] == d[j - 1] - p[j - 1] + 1 for j in range(1, k + 1))


def test_rejects_non_dyck():
    with pytest.raises(ValueError, match="index 1"):
        dyck.deficit_profile((2,))
    with pytest.raises(ValueError, match="index 3"):
        dyck.coeff_cp((0, 1, 3))
    with pytest.raises(ValueError, match="not a Dyck vector"):
        dyck.coeff_cp((1, -1))
    assert not dyck.is_dyck((0, 3))
    assert dyck.is_dyck((1, 0, 2))


def test_coeff_examples():
    assert dyck.coeff_cp((0, 1, 0, 1, 3, 0, 1)) == 72
    assert dyck.coeff_cp((0, 0, 2, 1, 1)) == 45
    assert dyck.coeff_cp((1, 1, 1)) == 8
    assert dyck.coeff_cp(()) == 1


def test_coefficient_tables():
    assert dyck.coefficient_table(1) == TABLE_1
    assert dyck.coefficient_table(2) == TABLE_2
    assert dyck.coefficient_table(3) == TABLE_3


def test_two_product_forms_agree():
    # coeff_cp raises SelfCheckError if the restricted rational product differs
    for k in range(8):
        for p in dyck.enumerate_dyck(k):
            assert dyck.coeff_cp(p) >= 1


def test_paths_match_figures():
    # the two length-7 vectors drawn as 16-step paths
    assert dyck.vector_to_path((1, 0, 2, 0, 0, 1, 2)) == (0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1)
    assert dyck.vector_to_path((0, 1, 0, 1, 3, 0, 1)) == (0, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1)
    assert dyck.path_to_vector((0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1, 1)) == (1, 0, 2, 0, 0, 1, 2)


def test_path_empty_convention():
    assert dyck.vector_to_path(()) == ()
    assert dyck.path_to_vector(()) == ()


def test_path_roundtrip():
    for k in range(7):
        for p in dyck.enumerate_dyck(k):
            path = dyck.vector_to_path(p)
            if k > 0:
                assert len(path) == 2 * (k + 1)
                assert dyck.vector_to_path(dyck.path_to_vector(path)) == path
            assert dyck.path_to_vector(path) == p


def test_malformed_paths():
    with pytest.raises(ValueError, match="step 1"):
        dyck.path_to_vector((1, 0))  # starts with North
    with pytest.raises(ValueError, match="East steps vs"):
        dyck.path_to_vector((0, 0, 1))
    with pytest.raises(ValueError, match="not 0"):
        dyck.path_to_vector((0, 2))


def validate_path_by_counts(steps):
    """validate_path as it was before it returned the North counts, kept as its reference."""
    east = north = 0
    for i, s in enumerate(steps, start=1):
        if s == dyck.EAST:
            east += 1
        elif s == dyck.NORTH:
            north += 1
        else:
            raise ValueError(f"malformed path: step {i} = {s!r} is not 0 (East) or 1 (North)")
        if north > east:
            raise ValueError(f"malformed path: prefix violation at step {i} (North steps exceed East steps)")
    if east != north:
        raise ValueError(f"malformed path: {east} East steps vs {north} North steps")


def path_to_vector_by_runs(steps):
    """The run-counting loop that path_to_vector replaced, kept as its reference."""
    validate_path_by_counts(steps)
    if len(steps) == 0:
        return ()
    runs: list[int] = []
    for s in steps:
        if s == dyck.EAST:
            runs.append(0)
        else:
            runs[-1] += 1
    return tuple(runs[:-1])


def outcome(fn, *args):
    """("ok", what fn returns) or ("ValueError", the text it raises)."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


def test_path_decoding_matches_run_loop():
    # every path of the path_roundtrip check of verify, k <= 8
    for k in range(9):
        for p in dyck.enumerate_dyck(k):
            path = dyck.vector_to_path(p)
            assert dyck.path_to_vector(path) == path_to_vector_by_runs(path) == p
    # every step sequence over {0, 1, 2} up to length 8, and steps that are not
    # ints: the same vector or the same ValueError text, which validate_path raises
    odd = [(0, True), (0, 1.0), (0, "1"), (0, None, 1), (1.0,), ([0], 1)]
    for seq in [seq for n in range(9) for seq in product((0, 1, 2), repeat=n)] + odd:
        assert outcome(dyck.path_to_vector, seq) == outcome(path_to_vector_by_runs, seq), seq


def test_binom_is_total():
    assert dyck.binom(3, -1) == 0
    assert dyck.binom(3, 4) == 0
    assert dyck.binom(3, 2) == 3
    assert dyck.binom(0, 0) == 1


def test_iterative_enumerator_matches_recursive():
    # every k up to the dyck_counts cap of verify, streamed pairwise
    for k in range(13):
        for new, old in zip_longest(dyck.enumerate_dyck(k), recursive_enumerate_dyck(k)):
            assert new == old, k


def test_prefixes_match_successor_loop():
    # every prefix length m <= 10, over the table a call of length m + DEPTH builds
    for k in range(dyck.DEPTH + 11):
        depth = min(k, dyck.DEPTH)
        m = k - depth
        for new, old in zip_longest(dyck._prefixes(m, dyck._tails(depth, m)), successor_prefixes(m)):
            assert new == old, (k, m)


def test_enumeration_streams():
    # a materialized list of the 208,012 vectors of length 11 would take tens of MB
    for gen in (dyck.enumerate_dyck(11), dyck.walk(11)):
        tracemalloc.start()
        try:
            assert checks._count(gen) == dyck.catalan(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, peak


def test_walk_matches_coeff_cp():
    # every k up to the dyck_two_formulas cap of verify
    for k in range(11):
        expected = [(p, dyck.deficit_profile(p)[k], dyck.coeff_cp(p)) for p in recursive_enumerate_dyck(k)]
        assert list(dyck.walk(k)) == expected, k


def test_sigma_formula_matches_coeff_cp_rebuild():
    for k in range(9):
        rebuilt = polynomial.MultiPoly(k)
        for p in recursive_enumerate_dyck(k):
            rebuilt.add_term(dyck.coeff_cp(p), dyck.deficit_profile(p)[k], p)
        assert polynomial.sigma_formula(k) == rebuilt, k


def test_coeff_cp_cross_check_is_caught(monkeypatch, capsys):
    # wrong deficits (0, 1, 2) for (0, 1), whose own are (0, 1, 1): the
    # binomial product then reads 1 * 3 and the rational product (2 + 2/1) * 1
    right = dyck.deficit_profile
    monkeypatch.setattr(dyck, "deficit_profile", lambda p: (0, 1, 2) if tuple(p) == (0, 1) else right(p))
    message = "coefficient formulas disagree for (0, 1): 3 vs 4"
    with pytest.raises(SelfCheckError) as exc:
        dyck.coeff_cp((0, 1))
    assert str(exc.value) == message
    assert cli.main(["coeff", "--p", "0,1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


def coeff_cp_over_fractions(p):
    """coeff_cp with its restricted rational product over Fraction, the form
    the integer cross-multiplication replaced, kept as its reference."""
    d = dyck.deficit_profile(p)
    result = 1
    for j, entry in enumerate(p, start=1):
        result *= 2 * dyck.binom(d[j - 1], entry - 1) + dyck.binom(d[j - 1], entry)

    alt = Fraction(1)
    for j, entry in enumerate(p, start=1):
        if entry != 0:
            alt *= (2 + Fraction(d[j], entry)) * dyck.binom(d[j - 1], entry - 1)
    if alt != result:
        raise SelfCheckError(f"coefficient formulas disagree for {tuple(p)}: {result} vs {alt}")
    return result


def test_coeff_cp_matches_fraction_reference():
    # every Dyck vector up to k = 8
    for k in range(9):
        for p in dyck.enumerate_dyck(k):
            assert dyck.coeff_cp(p) == coeff_cp_over_fractions(p), p


def test_integer_cross_check_decides_as_fractions_do(monkeypatch):
    # each deficit D_j of every vector up to k = 6 moved by -1 and +1: both
    # cross-checks pass with the same value or fail with the same message
    right = dyck.deficit_profile
    seen = {"passed": 0, "failed": 0}
    for k in range(7):
        for p in dyck.enumerate_dyck(k):
            for j, delta in product(range(k + 1), (-1, 1)):
                d = list(right(p))
                d[j] += delta
                monkeypatch.setattr(dyck, "deficit_profile", lambda q, d=tuple(d): d)
                results = []
                for kernel in (dyck.coeff_cp, coeff_cp_over_fractions):
                    try:
                        results.append(kernel(p))
                    except SelfCheckError as exc:
                        results.append(str(exc))
                assert results[0] == results[1], (p, d)
                seen["failed" if isinstance(results[0], str) else "passed"] += 1
    assert seen["passed"] and seen["failed"], seen


def test_walk_edge_cases():
    assert list(dyck.walk(0)) == [((), 0, 1)]
    for gen in (dyck.enumerate_dyck(-1), dyck.walk(-1)):
        with pytest.raises(ValueError, match="k must be >= 0"):
            next(gen)


def test_rational_product_mismatch_is_caught(monkeypatch, capsys):
    # wrong rational factor for D_{j-1} = 3, p_j = 2 only: 19/2 instead of 9
    right = dyck._rational_factor
    monkeypatch.setattr(dyck, "_rational_factor",
                        lambda d_prev, entry: (19, 2) if (d_prev, entry) == (3, 2) else right(d_prev, entry))
    with pytest.raises(SelfCheckError, match=r"for \(0, 0, 0, 1, 2\): 45 vs 95/2"):
        dyck.coefficient_table(5)
    with pytest.raises(SelfCheckError, match=r"for \(0, 0, 0, 1, 2\)"):
        polynomial.sigma_formula(5)
    with pytest.raises(SelfCheckError, match=r"for \(0, 0, 0, 1, 2\)"):
        operators.estimate_certificate(5, 0)
    assert dyck.coeff_cp((0, 0, 0, 1, 2)) == 45  # the reference is independent of the walk

    assert cli.main(["verify", "--max-k", "5"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] dyck_two_formulas: expected consistency, got coefficient formulas disagree for (0, 0, 0, 2)" in out


def test_rational_mismatch_is_caught_after_warm_calls(monkeypatch):
    # the tail tables live for one call only, so calls made before the patch
    # leave no table that still holds the right factor
    right_rows = {k: list(dyck.walk(k)) for k in (5, 8)}
    list(dyck.walk(6))
    list(dyck.enumerate_dyck(8))
    right = dyck._rational_factor
    monkeypatch.setattr(dyck, "_rational_factor",
                        lambda d_prev, entry: (19, 2) if (d_prev, entry) == (3, 2) else right(d_prev, entry))
    # (k, the message naming the first vector with the bad factor, the rows
    # yielded before it); at k = 8 that factor sits in a tail, past the prefix
    cases = [(5, "for (0, 0, 0, 1, 2): 45 vs 95/2", 8),
             (8, "for (0, 0, 0, 0, 0, 0, 4, 2): 495 vs 1045/2", 32)]
    for k, message, before in cases:
        got = []
        with pytest.raises(SelfCheckError) as exc:
            for row in dyck.walk(k):
                got.append(row)
        assert str(exc.value) == "coefficient formulas disagree " + message
        assert got == right_rows[k][:before]
