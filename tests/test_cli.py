import json
import re
from pathlib import Path

import pytest

from forestlie import checks, cli, compositions, operators, polynomial
from forestlie.errors import SelfCheckError

GOLDEN_DIR = Path(__file__).parent / "golden"

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


def test_check_registry():
    assert cli.CHECKS is checks.CHECKS
    assert [name for name, _ in checks.CHECKS] == [
        "coeff_worked_example", "dyck_tables", "dyck_counts", "dyck_two_formulas", "path_roundtrip",
        "pullback_threeway", "key_identity", "partition_bijection", "forest_counts", "forest_identities",
        "fiber_example", "sigma_equality", "covariant_chain", "lie_partitions", "lie_oracle",
        "estimate_counts", "leibniz_grouping"]
    assert all(isinstance(name, str) and callable(fn) for name, fn in checks.CHECKS)  # (name, fn) pairs


def test_verify_failure_exit_code(capsys, monkeypatch):
    def wrong(max_k):
        return [{"name": "dyck_tables", "expected": "1", "actual": "2", "ok": False}]

    monkeypatch.setattr(checks, "CHECKS", [(name, wrong if name == "dyck_tables" else fn)
                                           for name, fn in checks.CHECKS])
    code, out, err = run(capsys, "verify", "--all", "--max-k", "1")
    assert code == 1
    assert "first witness" in err


def test_usage_errors(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli.main(["dyck"])  # missing --k
    assert exc.value.code == 2
    code, _, err = run(capsys, "coeff", "--p", "2,0")
    assert code == 2
    assert "not a Dyck vector" in err
    assert run(capsys, "dyck", "--k", "-1", "--coeffs") == (2, "", "error: k must be >= 0\n")
    for argv, flag in [(["coeff", "--p", "0,1,x"], "--p"),
                       (["clambda", "--lambda", "1,x"], "--lambda"),
                       (["dyck", "--k", "2", "--jobs", "2"], "--jobs"),
                       (["verify", "--max-k", "-1"], "--max-k"),
                       (["pullback", "--k", "13"], "--force")]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert flag in err and "Traceback" not in err, argv
    monkeypatch.setenv("FORESTLIE_JOBS", "abc")
    code, out, err = run(capsys, "verify", "--max-k", "1")
    assert (code, out) == (2, "")
    assert "--jobs" in err and "Traceback" not in err
    code, _, _ = run(capsys, "dyck", "--k", "2")
    assert code == 0
    monkeypatch.delenv("FORESTLIE_JOBS")
    code, out, _ = run(capsys, "verify", "--max-k", "0")
    assert code == 0
    assert "[ok  ] dyck_count[k=0,counted]" in out.splitlines()


def test_pullback_mismatch_reports_witness(capsys, monkeypatch):
    monkeypatch.delenv("FORESTLIE_JOBS", raising=False)  # verify must run in this process
    right = compositions.coeff_clambda
    monkeypatch.setattr(compositions, "coeff_clambda", lambda lam: right(lam) + (tuple(lam) == (1, 2)))
    code, _, err = run(capsys, "pullback", "--k", "3")
    assert code == 1
    assert "first witness" in err
    with pytest.raises(SelfCheckError):
        compositions.pullback_coefficients(3, check=True)
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
    monkeypatch.delenv("FORESTLIE_JOBS", raising=False)  # verify must run in this process
    right = getattr(operators, construction)
    monkeypatch.setattr(operators, construction, lambda k: drop_first_term(right(k)))
    code, out, err = run(capsys, "verify", "--max-k", "3")
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failing == [f"[FAIL] {row}: expected consistency, got {message}"]
    assert f"first witness: {row} (expected consistency, got {message})" in err


def test_jobs_env_default(capsys, monkeypatch):
    monkeypatch.setenv("FORESTLIE_JOBS", "2")
    code, out, _ = run(capsys, "verify", "--max-k", "1")
    assert code == 0
