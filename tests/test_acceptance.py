"""Acceptance suite: every criterion checked in exact integer arithmetic,
one pass/fail line printed per criterion (run pytest with -s to see them).

Criteria 1-12 run the entries of the check registry (forestlie.checks) at
their own caps, the same entries `forestlie verify` runs, and assert here
only what no check covers.
"""

import time

from forestlie import checks, cli, compositions, dyck, forests, operators, partitions, polynomial


def report(number: int, description: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}{stamp}")
    assert ok, f"criterion {number} failed: {description}"


def checks_pass(*names: str, required: list[str]) -> bool:
    """Run the named registry checks at their caps (max_k = 99).  True when
    every row is ok and the rows named in `required` are among them; those
    name the largest sizes, so a lowered cap fails the criterion as well."""
    rows = [row for name in names for row in checks.run(name, 99)]
    for row in rows:
        if not row["ok"]:
            print(f"  {row['name']}: expected {row['expected']}, got {row['actual']}")
    return all(row["ok"] for row in rows) and set(required) <= {row["name"] for row in rows}


def test_c01_worked_coefficient_example():
    ok = checks_pass("coeff_worked_example",
                     required=["coeff_worked_example[deficits]", "coeff_worked_example[value]"])
    report(1, "worked example: deficits (0,1,1,2,2,0,1,1) and coefficient 72", ok)


def test_c02_coefficient_tables():
    ok = checks_pass("dyck_tables", required=["dyck_table[k=1]", "dyck_table[k=2]", "dyck_table[k=3]"])
    ok = ok and [len(checks.DYCK_TABLES[k]) for k in (1, 2, 3)] == [2, 5, 14]
    report(2, "coefficient tables for k = 1, 2, 3 (2 + 5 + 14 entries)", ok)


def test_c03_catalan_counts():
    start = time.monotonic()
    # the check enumerates and counts through k = 12; the count alone goes on
    ok = checks_pass("dyck_counts", required=["dyck_count[k=12,enumerated]", "dyck_count[k=12,counted]"])
    ok = ok and all(dyck.count_dyck(k) == dyck.catalan(k + 1) for k in (13, 14))
    elapsed = time.monotonic() - start
    report(3, "|Dyck(k)| = catalan(k+1) for k = 0..14", ok and elapsed < 5, elapsed)


def test_c04_pullback_coefficients():
    start = time.monotonic()
    figure_row = {(1, 1, 1, 1): 1, (2, 1, 1): 1, (1, 2, 1): 2, (1, 1, 2): 3,
                  (3, 1): 1, (2, 2): 3, (1, 3): 3, (4,): 1}
    coeffs4 = compositions.pullback_coefficients(4, check=False)
    ok = coeffs4 == figure_row and sum(coeffs4.values()) == 15
    ok = ok and checks_pass("pullback_threeway", required=[
        "pullback[k=9,threeway]", "pullback[k=9,bell_total]", "pullback[k=9,bell_table]"])
    elapsed = time.monotonic() - start
    report(4, "pull-back coefficients agree three ways for k <= 9, Bell totals",
           ok and elapsed < 30, elapsed)


def test_c05_key_identity():
    start = time.monotonic()
    ok = checks_pass("key_identity", required=["key_identity[k=10]"])
    elapsed = time.monotonic() - start
    report(5, "key sum identity for every composition of every k <= 10", ok and elapsed < 10, elapsed)


def test_c06_partition_bijection():
    start = time.monotonic()
    ok = checks_pass("partition_bijection", required=[
        "partition_bijection[worked,chain]", "partition_bijection[8,forward]",
        "partition_bijection[7,reverse]"])
    # the check counts the elements that round-trip; with Bell(k) elements
    # enumerated, that means every one of them does
    ok = ok and all(sum(1 for _ in partitions.enumerate_partitions(k)) == partitions.bell(k)
                    for k in range(9))
    ok = ok and all(sum(1 for _ in compositions.enumerate_paths(k)) == partitions.bell(k)
                    for k in range(8))
    elapsed = time.monotonic() - start
    report(6, "shrink-chain bijection inverse on all partitions (k <= 8) and worked chain",
           ok and elapsed < 10, elapsed)


def test_c07_forest_counts_and_identities():
    start = time.monotonic()
    ok = checks_pass("forest_counts", "forest_identities", required=[
        "forest_count[k=7]", "forest_identity[k=6,prune_monomial]", "forest_identity[k=6,root_degree]"])
    elapsed = time.monotonic() - start
    report(7, "(k+1)! forests for k <= 7; pruning and root-degree identities for k <= 6",
           ok and elapsed < 10, elapsed)


def test_c08_fiber_example():
    start = time.monotonic()
    ok = checks_pass("fiber_example", required=[
        "fiber_example[histogram]", "fiber_example[cprime]", "fiber_example[coeff]"])
    elapsed = time.monotonic() - start
    # the criterion text says "13 forests" but its own histogram (1,4,5,2) and
    # the source example (1 + 4*2 + 5*4 + 2*8 = 45) both give 12
    report(8, "fiber of (0,0,2,1,1): 12 forests, histogram (1,4,5,2), weighted sum 45",
           ok and elapsed < 1, elapsed)


def test_c09_sigma_polynomial_identity():
    start = time.monotonic()
    ok = checks_pass("sigma_equality", required=["sigma_equal[k=7]"])
    ok = ok and polynomial.sigma_formula(1).terms == {(1, (0,)): 1, (0, (1,)): 2}
    ok = ok and polynomial.sigma_formula(2).terms == {
        (2, (0, 0)): 1, (1, (1, 0)): 2, (1, (0, 1)): 3, (0, (1, 1)): 4, (0, (0, 2)): 2}
    # k = 3 follows the closed formula and the k = 3 coefficient list; in
    # particular coefficient 3 with B^2 sits on (0,1,0) and coefficient 2
    # with B^1 on (0,2,0), not the other way around
    sigma3 = polynomial.sigma_formula(3)
    ok = ok and all(sigma3.terms[(3 - sum(p), p)] == c for p, c in checks.DYCK_TABLES[3].items())
    ok = ok and sigma3.terms[(2, (0, 1, 0))] == 3 and sigma3.terms[(1, (0, 2, 0))] == 2
    elapsed = time.monotonic() - start
    report(9, "formula vs forest sum for k <= 7; printed tables for k = 1, 2; "
              "k = 3 per formula with the (0,1,0)/(0,2,0) pair as the coefficient list has it",
           ok and elapsed < 60, elapsed)


def test_c10_operator_expansions():
    start = time.monotonic()
    ok = checks_pass("lie_partitions", "lie_oracle", required=["lie_partitions[k=6]", "lie_oracle[k=5]"])
    ok = ok and len(operators.expand_lie_partitions(6)) == 877
    elapsed = time.monotonic() - start
    report(10, "partition expansion two ways for k <= 6 (877 terms); chain oracle = "
               "forest expansion for k <= 5 (720 terms)", ok and elapsed < 60, elapsed)


def test_c11_covariant_chain_rule():
    start = time.monotonic()
    ok = checks_pass("covariant_chain", required=["covariant_chain[n=6]"])
    host = forests.Forest((2, 3, 6, forests.ROOT), {3: forests.ROOT, 6: forests.ROOT, 2: 6})
    grafted = forests.graft(host, 1)
    R = forests.ROOT
    ok = ok and grafted == [
        forests.Forest((1, 2, 3, 6, R), {3: R, 6: R, 2: 6, 1: R}),
        forests.Forest((1, 2, 3, 6, R), {3: R, 6: R, 2: 6, 1: 3}),
        forests.Forest((1, 2, 3, 6, R), {3: R, 6: R, 2: 6, 1: 6}),
        forests.Forest((1, 2, 3, 6, R), {3: R, 6: R, 2: 6, 1: 2}),
    ]
    elapsed = time.monotonic() - start
    report(11, "grafting chain rule yields Trees(S) once each for |S| <= 6; "
               "four-term grafting display reproduced", ok and elapsed < 10, elapsed)


def test_c12_estimate_certificate():
    start = time.monotonic()
    ok = checks_pass("estimate_counts", required=["estimate[k=6,h0_table]", "estimate[k=4,rows_h3]"])
    elapsed = time.monotonic() - start
    report(12, "certificate at h = 0 equals the (P, C_P, D_k) table for k <= 6; "
               "row counts for k <= 4, h <= 3", ok and elapsed < 10, elapsed)


def test_c13_cli_verify_end_to_end(capsys):
    start = time.monotonic()
    code = cli.main(["verify", "--all", "--max-k", "5"])
    elapsed = time.monotonic() - start
    captured = capsys.readouterr()
    ok = code == 0 and "pass:" in captured.out
    report(13, "forestlie verify --all --max-k 5 exits 0", ok and elapsed < 60, elapsed)
