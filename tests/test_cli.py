import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from forestlie import checks, cli, compositions, dyck, forests, operators, partitions, polynomial
from forestlie.errors import SelfCheckError

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).parent.parent / "src"

# Exact stdout of each command in each format; verify's elapsed time is
# masked to 0.
GOLDEN_CASES = {
    "dyck": ["dyck", "--k", "2", "--coeffs"],
    "coeff": ["coeff", "--p", "0,0,2,1,1"],
    "clambda": ["clambda", "--lambda", "1,2"],
    "pullback": ["pullback", "--k", "3"],
    "sigma": ["sigma", "--k", "2", "--check"],
    "lie": ["lie", "--k", "1"],
    "lie-ascii": ["lie", "--k", "1", "--ascii"],
    "estimate": ["estimate", "--k", "1", "--h", "1"],
    "verify": ["verify", "--max-k", "1"],
    "verify-full": ["verify"],
}


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_golden_output(capsys, case, fmt):
    code, out, _ = run(capsys, *GOLDEN_CASES[case], "--format", fmt)
    assert code == 0
    out = re.sub(r'("elapsed_ms": |checks in )\d+', r"\g<1>0", out)
    assert out == (GOLDEN_DIR / f"{case}.{fmt}").read_text(encoding="utf-8")


def test_coeff_worked_example(capsys):
    code, out, _ = run(capsys, "coeff", "--p", "0,1,0,1,3,0,1")
    assert code == 0
    assert "0 1 1 2 2 0 1 1" in out
    assert "C_P = 72" in out


def test_coeff_validates_p_once_per_public_entry(capsys, monkeypatch):
    # once as the flag, through deficit_profile, and once inside coeff_cp
    calls = []
    validate = dyck.validate_dyck
    monkeypatch.setattr(dyck, "validate_dyck", lambda p: calls.append(p) or validate(p))
    code, out, _ = run(capsys, "coeff", "--p", "0,1,0,1,3,0,1")
    assert code == 0 and "C_P = 72" in out
    assert len(calls) == 2


def test_coeff_json(capsys):
    code, out, _ = run(capsys, "coeff", "--p", "0,0,2,1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"p": [0, 0, 2, 1, 1], "deficits": [0, 1, 2, 1, 1, 1], "c": 45}


def test_dyck_coeff_listing(capsys):
    code, out, _ = run(capsys, "dyck", "--k", "2", "--coeffs")
    assert code == 0
    assert out.split() == "(00) 1 (01) 3 (02) 2 (10) 2 (11) 4".split()


def test_dyck_csv(capsys):
    code, out, _ = run(capsys, "dyck", "--k", "1", "--coeffs", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["p,c", "0,1", "1,2"]


def test_clambda(capsys):
    code, out, _ = run(capsys, "clambda", "--lambda", "1,2")
    assert code == 0 and out.strip() == "2"


def test_pullback(capsys):
    code, out, _ = run(capsys, "pullback", "--k", "4")
    assert code == 0
    assert "total = 15, bell(4) = 15, ok" in out
    code, out, _ = run(capsys, "pullback", "--k", "3", "--format", "json")
    data = json.loads(out)
    assert data["ok"] is True and data["total"] == 5


def test_sigma_check(capsys):
    code, out, _ = run(capsys, "sigma", "--k", "0", "--check")
    assert code == 0
    assert out.splitlines()[0] == "1"
    code, out, _ = run(capsys, "sigma", "--k", "2", "--check", "--format", "json")
    data = json.loads(out)
    assert data["check"]["equal"] is True
    assert {"b": 0, "p": [0, 2], "c": 2} in data["terms"]


def test_sigma_failure_reports_witness(capsys, monkeypatch):
    wrong = polynomial.sigma_formula(2)
    wrong.add_term(1, 0, (1, 1))
    monkeypatch.setattr(polynomial, "sigma_formula", lambda k: wrong)
    code, out, err = run(capsys, "sigma", "--k", "2", "--check")
    assert code == 1
    assert "first differing term" in err


def test_sigma_dropped_tail_code_is_named(capsys, monkeypatch):
    collect = polynomial.sigma_bruteforce
    # one forest goes missing from the forest sum: 1 below 5 and 2..5 all roots
    missing = forests.Forest(forests.standard_labels(5), {1: 5})

    def without_one_forest(k):
        poly = collect(k)
        expo, tree_count, root_degree = forests.monomial(missing)
        poly.add_term(-(2 ** (tree_count - 1)), root_degree, expo)
        return poly

    monkeypatch.setattr(polynomial, "sigma_bruteforce", without_one_forest)
    code, out, err = run(capsys, "sigma", "--k", "5", "--check")
    assert code == 1
    assert out.splitlines()[-1] == "check vs forest sum over 720 forests: MISMATCH"
    # it lacks a forest of four trees besides the root tree: 2^4 = 54 - 38
    assert err == "verification failed: first differing term: ((0, (0, 1, 1, 1, 2)), 54, 38)\n"


def test_sigma_guardrail(capsys):
    code, _, err = run(capsys, "sigma", "--k", "10", "--check")
    assert code == 2
    assert "--force" in err


def test_lie_check(capsys):
    code, out, _ = run(capsys, "lie", "--k", "2", "--check")
    assert code == 0
    assert "6 terms" in out and "oracle agrees" in out


def test_lie_json_terms(capsys):
    code, out, _ = run(capsys, "lie", "--k", "1", "--format", "json")
    data = json.loads(out)
    assert data["terms"] == [{"key": "(1) (∘)", "sign": -1}, {"key": "(∘ (1))", "sign": 1}]


def test_ascii_rendering(capsys):
    code, out, _ = run(capsys, "lie", "--k", "1", "--ascii")
    assert code == 0
    assert "∘" not in out and "(o (1))" in out


def test_refusals_name_the_request(capsys):
    for argv, at in [(["estimate", "--k", "1", "--h", "100000000"], "at k=1, h=100000000;"),
                     (["dyck", "--k", "20"], "at k=20;"),
                     (["clambda", "--lambda", "1000000,1000000"], "at len(lambda)=2;")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and at in err, argv


def test_estimate(capsys):
    code, out, _ = run(capsys, "estimate", "--k", "1", "--h", "1")
    assert code == 0
    assert len(out.splitlines()) == 5  # header + 4 rows
    code, out, _ = run(capsys, "estimate", "--k", "2", "--h", "0", "--format", "csv")
    rows = out.splitlines()
    assert rows[0] == "p,h,coeff,a_order,xi_orders"
    assert [r.split(",")[2] for r in rows[1:]] == ["1", "3", "2", "2", "4"]


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--max-k", "3")
    assert code == 0
    assert out.splitlines()[-1].startswith("pass:")


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--max-k", "2", "--format", "json")
    data = json.loads(out)
    assert data["command"] == "verify" and data["status"] == "pass"
    assert all(c["ok"] for c in data["checks"])
    assert isinstance(data["elapsed_ms"], int)


def test_verify_parallel_matches_serial(capsys):
    code1, out1, _ = run(capsys, "verify", "--all", "--max-k", "2", "--format", "csv")
    code2, out2, _ = run(capsys, "verify", "--all", "--max-k", "2", "--format", "csv", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_jobs_asks_for_at_most_one_worker_per_suite(capsys, monkeypatch):
    # the pool starts all its workers at the first submit, so --jobs 1000
    # must not ask for 1000; the fake maps serially and starts none
    import concurrent.futures

    asked = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    code, out, _ = run(capsys, "verify", "--max-k", "2", "--format", "csv", "--jobs", "1000")
    assert asked == [len(checks.CHECKS)] == [17]
    assert (code, out) == run(capsys, "verify", "--max-k", "2", "--format", "csv", "--jobs", "1")[:2]


def test_check_registry():
    assert cli.CHECKS is checks.CHECKS
    assert [name for name, _ in checks.CHECKS] == [
        "coeff_worked_example", "dyck_tables", "dyck_counts", "dyck_two_formulas", "path_roundtrip",
        "pullback_threeway", "key_identity", "partition_bijection", "forest_counts", "forest_identities",
        "fiber_example", "sigma_equality", "covariant_chain", "lie_partitions", "lie_oracle",
        "estimate_counts", "leibniz_grouping"]
    assert all(isinstance(name, str) and callable(fn) for name, fn in checks.CHECKS)  # (name, fn) pairs


def test_every_check_function_is_registered_once_under_its_own_name():
    # a check_* function that lost its @_check decorator is missing from CHECKS
    defined = sorted(name for name, fn in vars(checks).items()
                     if name.startswith("check_") and callable(fn) and fn.__module__ == checks.__name__)
    assert sorted("check_" + name for name, _ in checks.CHECKS) == defined
    for name, fn in checks.CHECKS:
        assert getattr(checks, "check_" + name) is fn
        assert fn.__name__ == fn.__qualname__ == "check_" + name
    for max_k in (0, 3, 99):
        for name in dict(checks.CHECKS):
            assert dict(checks.CHECKS)[name](max_k) == checks.run(name, max_k), (name, max_k)


def test_verify_failure_exit_code(capsys, monkeypatch):
    def wrong(max_k):
        return [{"name": "dyck_tables", "expected": "1", "actual": "2", "ok": False}]

    monkeypatch.setattr(checks, "CHECKS", [(name, wrong if name == "dyck_tables" else fn)
                                           for name, fn in checks.CHECKS])
    code, out, err = run(capsys, "verify", "--all", "--max-k", "1")
    assert code == 1
    assert "first witness" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_reports_a_broken_block_as_a_failing_row(capsys, monkeypatch, jobs):
    # an invalid father index from inside the program is a bug, not bad input:
    # the three checks that build forests on 4 labels fail, every other row stays
    _, good, _ = run(capsys, "verify", "--max-k", "3")
    right = forests._block
    monkeypatch.setattr(forests, "_block",
                        lambda labels, start, fa: right(labels, start, (1,) if len(labels) == 4 else fa))
    code, out, err = run(capsys, "verify", "--max-k", "3", "--jobs", jobs)
    assert code == 1
    message = "expected consistency, got father index 1 of label 1 is not in 2..4"
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        f"[FAIL] {name}: {message}" for name in ("forest_counts", "forest_identities", "covariant_chain")]
    broken = ("[ok  ] forest_count[", "[ok  ] forest_identity[", "[ok  ] covariant_chain[")
    assert [line for line in out.splitlines() if line.startswith("[ok  ]")] == [
        line for line in good.splitlines() if line.startswith("[ok  ]") and not line.startswith(broken)]
    assert out.splitlines()[-1].startswith("fail: ")
    assert "Traceback" not in err and "error:" not in err


def test_check_that_raises_becomes_one_failing_row(monkeypatch):
    def broken(max_k):
        raise KeyError("x")

    monkeypatch.setattr(checks, "CHECKS", [("dyck_tables", broken)])
    assert checks.run("dyck_tables", 3) == [
        {"name": "dyck_tables", "expected": "consistency", "actual": "KeyError: 'x'", "ok": False}]


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dyck"])  # missing --k
    assert exc.value.code == 2
    code, _, err = run(capsys, "coeff", "--p", "2,0")
    assert code == 2
    assert "not a Dyck vector" in err
    for argv, flag in [(["dyck", "--k", "-1", "--coeffs"], "--k"),
                       (["coeff", "--p", "0,1,x"], "--p"),
                       (["clambda", "--lambda", "1,x"], "--lambda"),
                       (["coeff", "--p", "2,0"], "--p"),
                       (["clambda", "--lambda", "1,0"], "--lambda"),
                       (["dyck", "--k", "2", "--jobs", "2"], "--jobs"),
                       (["verify", "--max-k", "-1"], "--max-k"),
                       (["verify", "--jobs", "abc"], "--jobs"),
                       (["pullback", "--k", "13"], "--force"),
                       (["dyck", "--k", "20"], "--force"),
                       (["dyck", "--k", "12", "--coeffs"], "--force"),
                       (["estimate", "--k", "8", "--h", "3"], "--force")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert flag in err and "Traceback" not in err, argv
    code, out, _ = run(capsys, "verify", "--max-k", "0")
    assert code == 0
    assert "[ok  ] dyck_count[k=0,counted]" in out.splitlines()


@pytest.mark.parametrize("argv", [["forestlie"], *[["forestlie", command] for command in
                                  ["dyck", "coeff", "clambda", "pullback", "sigma", "lie", "estimate", "verify"]]],
                         ids=" ".join)
def test_help(capsys, argv):
    code, out, _ = run(capsys, *argv[1:], "--help")
    assert code == 0
    assert out.startswith(f"usage: {' '.join(argv)} ")
    if argv[1:] == ["verify"]:
        assert "--jobs" in out and "FORESTLIE_JOBS" not in out


def test_row_budget(capsys, monkeypatch):
    # the budget admits dyck --k 9 and estimate --k 6 --h 3, the largest runs in the examples
    assert dyck.catalan(10) <= cli.ROW_BUDGET
    assert dyck.catalan(7) * math.comb(9, 6) <= cli.ROW_BUDGET
    monkeypatch.setattr(cli, "ROW_BUDGET", 4)
    code, out, err = run(capsys, "dyck", "--k", "3")
    assert (code, out) == (2, "") and "Catalan(k+1) rows" in err and "--force" in err
    code, out, _ = run(capsys, "dyck", "--k", "3", "--force")
    assert code == 0 and len(out.splitlines()) == 14
    code, out, err = run(capsys, "estimate", "--k", "1", "--h", "2")
    assert (code, out) == (2, "") and "Catalan(k+1)*C(h+k,k) rows" in err
    assert run(capsys, "estimate", "--k", "1", "--h", "2", "--force")[0] == 0
    code, out, err = run(capsys, "dyck", "--k", "-1")
    assert (code, out) == (2, "") and "--k" in err


# Each guarded command: the count of what it lists or enumerates at size j,
# the budget bounding that count, and the largest k allowed without --force.
BUDGET_TABLE = [
    (["dyck"], lambda j: dyck.catalan(j + 1), "ROW_BUDGET", 11),
    (["sigma"], lambda j: dyck.catalan(j + 1), "ROW_BUDGET", 11),
    (["sigma", "--check"], lambda j: math.factorial(j + 1), "ENUM_BUDGET", 9),
    (["pullback"], partitions.bell, "ENUM_BUDGET", 12),
    (["lie"], lambda j: math.factorial(j + 1), "ROW_BUDGET", 7),
    (["estimate", "--h", "3"], lambda j: dyck.catalan(j + 1) * math.comb(3 + j, j), "ROW_BUDGET", 7),
    (["estimate", "--h", "2"], lambda j: dyck.catalan(j + 1) * math.comb(2 + j, j), "ROW_BUDGET", 8),
]


@pytest.mark.parametrize("argv, count, budget, largest", BUDGET_TABLE,
                         ids=[" ".join(row[0]) for row in BUDGET_TABLE])
def test_budget_boundaries(capsys, argv, count, budget, largest):
    args = argparse.Namespace(command=argv[0], force=False)
    for k, refused in [(largest, False), (largest + 1, True)]:
        args.k = k
        assert cli.over_budget(args, count, "counts", getattr(cli, budget)) is refused, k
    args.force = True
    assert cli.over_budget(args, count, "counts", 0) is False
    code, out, err = run(capsys, *argv, "--k", str(largest + 1))  # refused before any work
    assert (code, out) == (2, "") and "--force" in err


@pytest.mark.parametrize("argv", [
    ["dyck", "--k", "1000000000"],
    ["sigma", "--k", "1000000000"],
    ["sigma", "--k", "1000000000", "--check"],
    ["lie", "--k", "1000000000"],
    ["pullback", "--k", "1000000000"],
    ["estimate", "--k", "1000000000", "--h", "1"],
    ["estimate", "--k", "1", "--h", "1000000000"],
    ["clambda", "--lambda", "1000000,1000000"],
], ids=" ".join)
def test_oversized_requests_never_hang(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert "--force" in err and "Traceback" not in err


def test_clambda_digit_budget(capsys, monkeypatch):
    # C_(5,5) = C(9,4) = 126 and C_(2,3) = C(4,2) = 6: three digits and one
    monkeypatch.setattr(cli, "DIGIT_BUDGET", 2)
    code, out, err = run(capsys, "clambda", "--lambda", "5,5")
    assert (code, out) == (2, "") and "digits" in err and "--force" in err
    assert run(capsys, "clambda", "--lambda", "5,5", "--force")[:2] == (0, "126\n")
    assert run(capsys, "clambda", "--lambda", "2,3")[:2] == (0, "6\n")
    code, out, err = run(capsys, "clambda", "--lambda", "1,0")
    assert (code, out) == (2, "") and "not a composition" in err
    monkeypatch.undo()
    assert run(capsys, "clambda", "--lambda", "2000000")[:2] == (0, "1\n")  # one factor C(n, n) = 1


def test_clambda_digit_estimate():
    rng = random.Random(7)
    for _ in range(500):
        lam = tuple(rng.randint(1, rng.choice([3, 30, 300])) for _ in range(rng.randint(0, 6)))
        digits = cli.clambda_digits(lam)
        assert len(digits) == len(lam) + 1 and digits == sorted(digits)
        assert abs(digits[-1] - len(str(compositions.coeff_clambda(lam)))) < 1, lam
    # past 2**53, where lgamma rounds a factor away, the estimate is still a digit count
    assert cli.clambda_digits((1, 10 ** 20))[-1] == 21
    assert cli.clambda_digits((1, 10 ** 400))[-1] == 401
    assert abs(cli.clambda_digits((10 ** 20, 5))[-1] - len(str(math.comb(10 ** 20 + 4, 4)))) < 1
    assert cli.clambda_digits((10 ** 30, 10 ** 30))[-1] == math.inf


def test_coeff_prints_exact_values_of_any_size(capsys):
    # C_P of fifteen thousand ones is 2^15000, 4,516 digits: over the
    # interpreter's default limit on int-to-str conversion
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        p = ",".join(["1"] * 15000)
        text = run(capsys, "coeff", "--p", p)
        js = run(capsys, "coeff", "--p", p, "--format", "json")
        if limit is not None:
            sys.set_int_max_str_digits(0)  # main has put 4300 back; this test's own checks convert the value
        assert text[0] == 0 and text[1].splitlines()[-1] == f"C_P = {2 ** 15000}"
        assert js[0] == 0 and json.loads(js[1])["c"] == 2 ** 15000
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit before 3.10.7")
def test_main_restores_the_int_digit_limit(capsys, monkeypatch):
    # main lifts the limit so that exact values print, and puts it back on every way out
    def wrong(max_k):
        return [{"name": "wrong", "expected": "1", "actual": "2", "ok": False}]

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, "coeff", "--p", "0,1")[0] == 0
        assert sys.get_int_max_str_digits() == 5000
        assert run(capsys, "dyck")[0] == 2  # argparse exits: --k is missing
        assert sys.get_int_max_str_digits() == 5000
        monkeypatch.setattr(checks, "CHECKS", [("wrong", wrong)])
        assert run(capsys, "verify")[0] == 1
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_pullback_mismatch_reports_witness(capsys, monkeypatch):
    right = compositions.coeff_clambda
    monkeypatch.setattr(compositions, "coeff_clambda", lambda lam: right(lam) + (tuple(lam) == (1, 2)))
    code, _, err = run(capsys, "pullback", "--k", "3")
    assert code == 1
    assert "first witness" in err
    with pytest.raises(SelfCheckError) as exc:
        compositions.pullback_coefficients(3, check=True)
    assert str(exc.value) == "pullback formula mismatch at (1, 2): 2 vs 3"
    code, _, err = run(capsys, "verify", "--max-k", "3")
    assert code == 1
    assert "first witness: pullback[" in err


def drop_first_term(terms):
    first = next(iter(terms))
    return {key: m for key, m in terms.items() if key != first}


@pytest.mark.parametrize("construction, row, message", [
    ("_partitions_recurrence", "lie_partitions", "partition expansion mismatch at 12: 1 vs 0"),
    ("_forests_from_partitions", "lie_oracle", "forest expansion mismatch at (∘ (1)): 1 vs 0"),
    ("_lie_chain", "lie_oracle", "oracle mismatch at (∘ (1)): 0 vs 1"),
])
def test_expansion_fault_fails_verify(capsys, monkeypatch, construction, row, message):
    right = getattr(operators, construction)
    monkeypatch.setattr(operators, construction, lambda k: drop_first_term(right(k)))
    code, out, err = run(capsys, "verify", "--max-k", "3")
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failing == [f"[FAIL] {row}: expected consistency, got {message}"]
    assert f"first witness: {row} (expected consistency, got {message})" in err


def test_jobs_env_default(capsys, monkeypatch):
    # --jobs defaults to 1 and reads no environment variable
    def masked_verify():
        code, out, _ = run(capsys, "verify", "--max-k", "1")
        return code, re.sub(r"checks in \d+", "checks in 0", out)

    plain = masked_verify()
    monkeypatch.setenv("FORESTLIE_JOBS", "abc")
    assert masked_verify() == plain and plain[0] == 0


def run_with_stdout(argv, stdout=None, close_stdout=False):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "forestlie.cli", *argv]
    if close_stdout:  # the shell closes fd 1, then execs the CLI
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
    return subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120, text=True)


def assert_one_output_error(proc, reason):
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write output: {reason}\n"  # no traceback, no "Exception ignored"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["coeff", "--p", "0,1"], ["dyck", "--k", "9"]])
def test_full_stdout_exits_2_without_traceback(argv):
    # coeff fails at the final flush, dyck --k 9 (16,796 lines) inside print
    with open("/dev/full", "w") as full:
        proc = run_with_stdout(argv, stdout=full)
    assert_one_output_error(proc, "[Errno 28] No space left on device")


def test_closed_stdout_exits_2_without_traceback():
    proc = run_with_stdout(["verify", "--max-k", "1"], close_stdout=True)
    assert_one_output_error(proc, "stdout is closed")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["dyck", "--help"]])
def test_help_into_full_stdout_exits_2(argv):
    # argparse drops a failed write of the help and would exit 0
    with open("/dev/full", "w") as full:
        proc = run_with_stdout(argv, stdout=full)
    assert_one_output_error(proc, "[Errno 28] No space left on device")


@pytest.mark.parametrize("argv", [["--help"], ["dyck", "--help"]])
def test_help_into_closed_stdout_exits_2(argv):
    # argparse would print the help to stderr instead and exit 0
    proc = run_with_stdout(argv, close_stdout=True)
    assert_one_output_error(proc, "stdout is closed")


def test_closed_pipe_exits_141_without_traceback():
    # dyck --k 10 prints 58,786 lines, more than a pipe holds, so the write
    # fails once the reader has closed its end
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen([sys.executable, "-m", "forestlie.cli", "dyck", "--k", "10"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"(0,0,0,0,0,0,0,0,0,0)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""
