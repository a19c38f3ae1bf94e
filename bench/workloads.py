"""Known answers and task lists of the forestlie benchmark.

A task is one timed unit of work: one ``forestlie`` command run as a
subprocess, or one call of a public library function in this process.  Every
task checks its output against answers the benchmark knows independently of
the code under test (Catalan and Bell numbers, factorials, the closed
coefficient formulas re-derived here) before its time counts.

The workload seed picks the seeded Dyck vectors and compositions and the
order of the ``interactive`` calls (``inputs.py``); the program only ever
sees the generated arguments.  What a command prints is also summed up by
``stdout_digest``: the run record keeps one digest per command line, and
``compare.py`` fails a change whose digests differ from its parent's.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import selectors
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from inputs import bruteforce_inputs, interactive_specs

from forestlie import SelfCheckError, cli, compositions, dyck, forests, operators, partitions, polynomial

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
CHECK_NAMES = [
    "coeff_worked_example", "dyck_tables", "dyck_counts", "dyck_two_formulas", "path_roundtrip",
    "pullback_threeway", "key_identity", "partition_bijection", "forest_counts", "forest_identities",
    "fiber_example", "sigma_equality", "covariant_chain", "lie_partitions", "lie_oracle",
    "estimate_counts", "leibniz_grouping",
]
VERIFY_ROWS = 199
# The variable is read while the parser is built, outside main's error
# handling, so the call below dies with a traceback and exit code 1 instead
# of a usage error.  It stays in the mix and counts against ok_ratio.
KNOWN_DEFECT_ENV = {"FORESTLIE_JOBS": "abc"}


# ---------------------------------------------------------------------------
# known answers, derived here without the code under test


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def binom(m: int, n: int) -> int:
    return math.comb(m, n) if 0 <= n <= m else 0


def deficits(p) -> list[int]:
    out, total = [0], 0
    for j, e in enumerate(p, start=1):
        total += e
        out.append(j - total)
    return out


def coeff_cp(p) -> int:
    d, c = deficits(p), 1
    for j, e in enumerate(p, start=1):
        c *= 2 * binom(d[j - 1], e - 1) + binom(d[j - 1], e)
    return c


def coeff_clambda(lam) -> int:
    den, partial = 1, 0
    for part in lam:
        partial += part
        den *= math.factorial(part - 1) * partial
    return math.factorial(partial) // den


@lru_cache(maxsize=None)
def all_dyck(k: int) -> tuple[tuple[int, ...], ...]:
    """Dyck vectors of length k in lexicographic order."""
    out = [()]
    for j in range(1, k + 1):
        out = [p + (e,) for p in out for e in range(j - sum(p) + 1)]
    return tuple(out)


def all_compositions(k: int) -> list[tuple[int, ...]]:
    """Compositions of k in lexicographic order."""
    if k == 0:
        return [()]
    return [(first,) + rest for first in range(1, k + 1) for rest in all_compositions(k - first)]


def weak_compositions(h: int, parts: int) -> list[tuple[int, ...]]:
    return [c for c in itertools.product(range(h + 1), repeat=parts) if sum(c) == h]


def parse_text_vec(s: str) -> tuple[int, ...]:
    inner = s.strip()[1:-1]
    return tuple(int(x) for x in (inner.split(",") if "," in inner else inner))


def parse_csv_vec(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split())


def csv_rows(out: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != header:
        raise ValueError(f"csv header {rows[0]} != {header}")
    return rows[1:]


# ---------------------------------------------------------------------------
# running a command


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    rss_kb: int = 0


def stdout_digest(out: str) -> str:
    """sha256 of a command's stdout, with verify's elapsed time masked."""
    return hashlib.sha256(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out).encode()).hexdigest()


def cli_env(root: str, extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FORESTLIE_JOBS"}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONIOENCODING"] = "utf-8"
    env.update(extra or {})
    return env


def spawn(argv: list[str], env: dict, cwd: str) -> CliResult:
    """Run argv to completion and return its exit code, output and peak RSS.

    The child is reaped with wait4, whose resource usage covers the child and
    every descendant it waited for (the --jobs workers of verify).
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
                     b"".join(chunks[proc.stderr]).decode("utf-8", "replace"), usage.ru_maxrss)


def run_in_process(argv, env: dict, main: Callable = cli.main) -> CliResult:
    """Run one command through cli.main in this process, as the console script would."""
    out, err = io.StringIO(), io.StringIO()
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # what the interpreter would print before exiting with 1
                traceback.print_exc()
                code = 1
    finally:
        for key in env:
            os.environ.pop(key, None)
    return CliResult(code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# tasks


@dataclass
class Task:
    """One timed unit: run() does the work, check(result) returns a problem or None."""

    name: str
    run: Callable
    check: Callable
    known_defect: bool = False


@dataclass
class Call:
    """One forestlie command line with its expected behaviour."""

    argv: tuple[str, ...]
    expect: Callable  # stdout -> problem or None; None means a usage error is expected
    env: dict = field(default_factory=dict)
    known_defect: bool = False

    def check(self, res: CliResult) -> str | None:
        if "Traceback" in res.err:
            return f"traceback (exit {res.code}): {res.err.strip().splitlines()[-1]}"
        if self.expect is None:
            if res.code != 2 or res.out:
                return f"expected a usage error (exit 2, no output), got exit {res.code}"
            return None
        if res.code != 0 or res.err:
            return f"exit {res.code}: {res.err.strip()[:200]}"
        try:
            return self.expect(res.out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {exc!r}"


def mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {str(got)[:120]}, want {str(want)[:120]}"


def coeff_call(p, fmt) -> Call:
    want = {"p": list(p), "deficits": deficits(p), "c": coeff_cp(p)}

    def expect(out):
        if fmt == "json":
            return mismatch("coeff", json.loads(out), want)
        if fmt == "csv":
            row, = csv_rows(out, ["p", "deficits", "c"])
            return mismatch("coeff", [parse_csv_vec(row[0]), parse_csv_vec(row[1]), int(row[2])],
                            [tuple(p), tuple(want["deficits"]), want["c"]])
        lines = out.splitlines()
        got = [int(x) for x in lines[2].split("|")[1].split()], lines[-1]
        return mismatch("coeff", got, (want["deficits"], f"C_P = {want['c']}"))

    return Call(("coeff", "--p", ",".join(map(str, p)), "--format", fmt), expect)


def clambda_call(lam, fmt) -> Call:
    c = coeff_clambda(lam)

    def expect(out):
        if fmt == "json":
            return mismatch("clambda", json.loads(out), {"lambda": list(lam), "c": c})
        if fmt == "csv":
            row, = csv_rows(out, ["lambda", "c"])
            return mismatch("clambda", (parse_csv_vec(row[0]), int(row[1])), (tuple(lam), c))
        return mismatch("clambda", out.strip(), str(c))

    return Call(("clambda", "--lambda", ",".join(map(str, lam)), "--format", fmt), expect)


def dyck_call(k, coeffs, fmt) -> Call:
    def expect(out):
        want = [(p, coeff_cp(p) if coeffs else None) for p in all_dyck(k)]
        if fmt == "json":
            got = [(tuple(r["p"]), r.get("c")) for r in json.loads(out)]
        elif fmt == "csv":
            got = [(parse_csv_vec(r[0]), int(r[1]) if coeffs else None)
                   for r in csv_rows(out, ["p", "c"] if coeffs else ["p"])]
        else:
            got = [(parse_text_vec(v), int(c) if coeffs else None)
                   for v, _, c in (line.partition(" ") for line in out.splitlines())]
        if len(got) != catalan(k + 1):
            return f"{len(got)} Dyck vectors, want Catalan({k + 1})"
        if coeffs and sum(c for _, c in got) != math.factorial(k + 2) // 2:
            return "coefficient sum is not (k+2)!/2"
        return mismatch(f"dyck k={k}", got, want)

    argv = ("dyck", "--k", str(k)) + (("--coeffs",) if coeffs else ()) + ("--format", fmt)
    return Call(argv, expect)


def pullback_call(k, fmt) -> Call:
    def expect(out):
        want = [(lam, coeff_clambda(lam)) for lam in all_compositions(k)]
        if fmt == "json":
            d = json.loads(out)
            got = [(tuple(r["lambda"]), r["iterated"]) for r in d["rows"]
                   if r["iterated"] == r["formula"] == r["partitions"] and r["ok"]]
            return mismatch("pullback", (got, d["total"], d["bell"], d["ok"]), (want, BELL[k], BELL[k], True))
        if fmt == "csv":
            got = [(parse_csv_vec(r[0]), int(r[1])) for r in csv_rows(out, ["lambda", "iterated", "formula", "partitions", "ok"])
                   if r[1] == r[2] == r[3] and r[4] == "True"]
            return mismatch("pullback", got, want)
        got = [(parse_text_vec(v), int(a)) for v, a, b, c in
               re.findall(r"^(\(\S*\)) +iterated=(\d+) +formula=(\d+) +partitions=(\d+) +ok$", out, re.M)
               if a == b == c]
        return mismatch("pullback", (got, f"total = {BELL[k]}, bell({k}) = {BELL[k]}, ok" in out), (want, True))

    return Call(("pullback", "--k", str(k), "--format", fmt), expect)


def sigma_call(k, fmt) -> Call:
    def expect(out):
        want = sorted((deficits(p)[-1], p, coeff_cp(p)) for p in all_dyck(k))
        if fmt == "json":
            d = json.loads(out)
            got = [(t["b"], tuple(t["p"]), t["c"]) for t in d["terms"]]
            return mismatch("sigma", (got, d["check"]["equal"]), (want, True))
        if fmt == "csv":
            got = [(int(b), parse_csv_vec(p), int(c)) for b, p, c in csv_rows(out, ["b", "p", "c"])]
            return mismatch("sigma", got, want)
        poly, check = out.splitlines()
        got = [int(t.split()[0]) if t.split()[0].isdigit() else 1 for t in poly.split(" + ")]
        return mismatch("sigma", (got, check),
                        ([c for _, _, c in want],
                         f"check vs forest sum over {math.factorial(k + 1)} forests: equal"))

    return Call(("sigma", "--k", str(k), "--check", "--format", fmt), expect)


def lie_call(k, check, fmt) -> Call:
    n = math.factorial(k + 1)

    def expect(out):
        # every label picks a father independently, so the signs cancel in pairs
        if fmt == "json":
            d = json.loads(out)
            terms = [(t["key"], t["sign"]) for t in d["terms"]]
        elif fmt == "csv":
            terms = [(key, int(sign)) for key, sign in csv_rows(out, ["key", "sign"])]
        else:
            *lines, last = out.splitlines()
            terms = [(line[2:], 1 if line[0] == "+" else -1) for line in lines]
            suffix = ", oracle agrees with the closed form" if check else ""
            if last != f"{n} terms{suffix}":
                return f"last line {last!r}"
        got = (len(terms), len({key for key, _ in terms}), sum(1 for _, s in terms if s == 1),
               sum(1 for _, s in terms if s == -1))
        return mismatch("lie", got, (n, n, n // 2, n // 2))

    argv = ("lie", "--k", str(k)) + (("--check",) if check else ()) + ("--format", fmt)
    return Call(argv, expect)


def estimate_call(k, h, fmt) -> Call:
    def expect(out):
        want = [(p, hs, coeff_cp(p), hs[k] + deficits(p)[-1], tuple(hs[j] + p[j] for j in range(k)))
                for p in all_dyck(k) for hs in weak_compositions(h, k + 1)]
        if fmt == "json":
            got = [(tuple(r["p"]), tuple(r["h"]), r["coeff"], r["a_order"], tuple(r["xi_orders"]))
                   for r in json.loads(out)]
        elif fmt == "csv":
            got = [(parse_csv_vec(p), parse_csv_vec(hs), int(c), int(a), parse_csv_vec(xi))
                   for p, hs, c, a, xi in csv_rows(out, ["p", "h", "coeff", "a_order", "xi_orders"])]
        else:
            got = [(parse_text_vec(p), parse_text_vec(hs), int(c), int(a), parse_text_vec(xi))
                   for p, hs, c, a, xi in (line.split() for line in out.splitlines()[1:])]
        return mismatch("estimate", got, want)

    return Call(("estimate", "--k", str(k), "--h", str(h), "--format", fmt), expect)


CALLS = {"coeff": coeff_call, "clambda": clambda_call, "dyck": dyck_call, "pullback": pullback_call,
         "sigma": sigma_call, "lie": lie_call, "estimate": estimate_call}


def interactive_calls(seed: int) -> list[Call]:
    """The seeded interactive mix (inputs.interactive_specs) as checked calls."""
    calls = []
    for kind, *args in interactive_specs(seed):
        if kind == "usage":
            calls.append(Call(args[0], None))
        elif kind == "defect":
            calls.append(Call(args[0], None, dict(KNOWN_DEFECT_ENV), known_defect=True))
        else:
            calls.append(CALLS[kind](*args))
    return calls


def cli_tasks(root: str, calls: list[Call], in_process: Callable | None = None) -> list[Task]:
    """Tasks for the calls: subprocesses of the interpreter running this
    script, or, given in_process, direct calls of that main function."""
    tasks = []
    for call in calls:
        if in_process is None:
            env = cli_env(root, call.env)
            cmd = [sys.executable, "-m", "forestlie.cli", *call.argv]
            run = (lambda cmd=cmd, env=env: spawn(cmd, env, root))
        else:
            run = (lambda call=call: run_in_process(call.argv, call.env, in_process))
        name = " ".join([f"{key}={value}" for key, value in call.env.items()] + list(call.argv))
        tasks.append(Task(name, run, call.check, call.known_defect))
    return tasks


# ---------------------------------------------------------------------------
# verify


def check_verify_report(res: CliResult) -> str | None:
    if res.code != 0 or res.err:
        return f"exit {res.code}: {res.err.strip()[:200]}"
    try:
        report = json.loads(res.out)
        rows = report["checks"]
        bad = [r["name"] for r in rows if not r["ok"]]
        return mismatch("verify", (report["status"], len(rows), bad), ("pass", VERIFY_ROWS, []))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable verify report: {exc!r}"


def verify_task(root: str, jobs: int) -> Task:
    argv = [sys.executable, "-m", "forestlie.cli", "verify", "--all", "--format", "json", "--jobs", str(jobs)]
    env = cli_env(root)
    return Task(f"verify --jobs {jobs}", lambda: spawn(argv, env, root), check_verify_report)


def run_checks_in_process(call: Callable = lambda name, fn: fn(99)) -> list[dict]:
    """The verify suite without the command around it: every cli.CHECKS entry
    at max_k=99, one after another; call(name, fn) runs one entry."""
    names = [name for name, _ in cli.CHECKS]
    if names != CHECK_NAMES:
        raise SelfCheckError(f"cli.CHECKS lists {names}, expected {CHECK_NAMES}")
    rows = []
    for name, fn in cli.CHECKS:
        try:
            rows += call(name, fn)
        except SelfCheckError as exc:
            rows.append({"name": name, "ok": False, "actual": str(exc)})
    return rows


def check_verify_rows(rows: list[dict]) -> str | None:
    return mismatch("verify", (len(rows), [r["name"] for r in rows if not r["ok"]]), (VERIFY_ROWS, []))


# ---------------------------------------------------------------------------
# bruteforce


def check_sigma7(poly) -> str | None:
    want = {(deficits(p)[-1], p): coeff_cp(p) for p in all_dyck(7)}
    return mismatch("sigma_bruteforce(7)", (len(poly.terms), poly.specialize_ones(), poly.terms == want),
                    (1430, math.factorial(9) // 2, True))


def check_lie(n: int) -> Callable:
    def check(expansion) -> str | None:
        signs = list(expansion.terms.values())
        return mismatch("lie expansion", (len(signs), sum(signs)), (n, 0))

    return check


def check_census(census) -> str | None:
    want = {lam: coeff_clambda(lam) for lam in all_compositions(10)}
    return mismatch("shape_census(10)", (census == want, sum(census.values())), (True, BELL[10]))


def check_pullback9(coeffs) -> str | None:
    want = {lam: coeff_clambda(lam) for lam in all_compositions(9)}
    return mismatch("pullback_coefficients(9)", (coeffs == want, sum(coeffs.values())), (True, BELL[9]))


def bruteforce_tasks(seed: int) -> list[Task]:
    """The in-process brute-force constructions, each past its verify cap.

    Functions are looked up on their modules at call time, so that the
    traced run sees the wrapped versions."""
    p, lam = bruteforce_inputs(seed)
    return [
        Task("sigma_bruteforce(7)", lambda: polynomial.sigma_bruteforce(7), check_sigma7),
        Task("lie_chain_oracle(6)", lambda: operators.lie_chain_oracle(6), check_lie(5040)),
        Task("expand_lie_partitions(8)", lambda: operators.expand_lie_partitions(8),
             lambda e: mismatch("expand_lie_partitions(8)", len(e), BELL[9])),
        Task("shape_census(10)", lambda: partitions.shape_census(10), check_census),
        Task("expand_covariant(1..7)", lambda: forests.expand_covariant(range(1, 8)),
             lambda trees: mismatch("expand_covariant", (len(trees), {t.tree_count for t in trees}),
                                    (5040, {1}))),
        Task("pullback_coefficients(9)", lambda: compositions.pullback_coefficients(9, check=True),
             check_pullback9),
        Task(f"cprime{p}", lambda: forests.cprime(p),
             lambda v: mismatch(f"cprime{p}", (v, v), (dyck.coeff_cp(p), coeff_cp(p)))),
        Task(f"count_by_shape{lam}", lambda: partitions.count_by_shape(lam),
             lambda v: mismatch(f"count_by_shape{lam}", (v, v),
                                (compositions.coeff_clambda(lam), coeff_clambda(lam)))),
    ]

