"""Command-line front end: enumeration, coefficient lookup, verification
suites, and table emission.

Exit codes: 0 on success, 1 when a verification fails (the first witness is
reported), 2 on usage errors, on sizes over a budget without ``--force`` and
when stdout cannot be written, 141 when the reader closes stdout early.
Data output is deterministic for fixed flags; the ``--format`` switch changes
serialization only, never values.  Each command imports the kernel modules it
runs, so a call loads only those.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from .errors import SelfCheckError

# rows or terms a command lists without --force: about 6 and 13 us a row for
# dyck and estimate, so dyck --k 11 (208,012 rows) takes 1.2 s and 105 MB, and
# dyck --k 12 would take 3.6-4.1 s and 348 MB (2 vCPUs, Python 3.11)
ROW_BUDGET = 250_000
# objects a command enumerates or sums over only to check itself: admits
# sigma --check k <= 9 (the sum over 10! forests, 0.19-0.31 s) and pullback
# k <= 12 (Bell(12) = 4,213,597 partitions, 0.5-0.8 s) (2 vCPUs, Python 3.11)
ENUM_BUDGET = 5_000_000
# digits of C_lambda that clambda prints without --force: printing an int takes
# time quadratic in its digits, so clambda --lambda 99000,99000 (59,601 digits)
# takes 0.7-0.9 s and --lambda 200000,200000 (120,410 digits) 2.1 s (2 vCPUs, Python 3.11)
DIGIT_BUDGET = 60_000


class OutputError(Exception):
    """stdout is closed, or writing to it failed other than by a closed pipe."""


def write_stdout(s: str | None) -> None:
    """Print s to stdout, or only flush it if s is None.  OutputError if
    stdout is closed or the write fails; a closed pipe stays BrokenPipeError."""
    if sys.stdout is None:
        raise OutputError("stdout is closed")
    try:
        if s is None:
            sys.stdout.flush()
        else:
            print(s)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise OutputError(exc) from exc


def __getattr__(name: str):
    # cli.CHECKS is checks.CHECKS, read at access time without importing checks up front
    if name == "CHECKS":
        from . import checks

        return checks.CHECKS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def vec_text(p) -> str:
    if len(p) <= 9 and all(e <= 9 for e in p):
        return "(" + "".join(str(e) for e in p) + ")"
    return "(" + ",".join(str(e) for e in p) + ")"


def int_vector(s: str) -> tuple[int, ...]:
    """argparse type: comma-separated integers; "" and "()" are the empty vector."""
    s = s.strip()
    if s in ("", "()"):
        return ()
    return tuple(int(x) for x in s.split(","))


def nonnegative_int(s: str) -> int:
    """argparse type: an integer >= 0."""
    n = int(s)
    if n < 0:
        raise ValueError(s)
    return n


def positive_int(s: str) -> int:
    """argparse type: an integer >= 1."""
    n = int(s)
    if n < 1:
        raise ValueError(s)
    return n


def validate_flag(flag: str, validate, value):
    """Return validate(value), naming the flag in any ValueError it raises."""
    try:
        return validate(value)
    except ValueError as exc:
        raise ValueError(f"argument {flag}: {exc}") from None


def over_budget(args, count, what: str, budget: int, n: int | None = None, at: str | None = None) -> bool:
    """True, after saying so on stderr, if count(n) exceeds budget and --force
    is not given; n is args.k unless given, and at names the request in the
    message, "k=<n>" unless given.
    count must increase with its argument: it is evaluated at 0, 1, ..., n up
    to the first value over budget, so no huge integer is built."""
    n = args.k if n is None else n
    if args.force or all(count(j) <= budget for j in range(n + 1)):
        return False
    print(f"{args.command} {what}: more than {budget} at {at or f'k={n}'}; refusing without --force",
          file=sys.stderr)
    return True


def log10_binomial(n: int, r: int) -> float:
    """log10 C(n, r) from lgamma, for a cost estimate: within about 100 of it
    wherever it is below 10**7, and inf once min(r, n - r) reaches 2**53."""
    r = min(r, n - r)
    if r >= 2**53:
        return math.inf
    if n < 2**53:
        return (math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)) / math.log(10)
    # here lgamma(n + 1) would round the factor away.  n(n-1)...(n-r+1) lies in
    # [n**r * exp(-r*r/n), n**r]: below r = sqrt(n) n**r is off by under half a
    # digit, and above it C(n, r) >= 2**r has more than 10**7 digits anyway
    return r * math.log10(n) - math.lgamma(r + 1) / math.log(10)


def clambda_digits(parts) -> list[float]:
    """About how many digits C_lambda of the first j parts has, j = 0, 1, ...,
    len(parts): 1 + log10 of prod_j C(S_j - 1, lambda_j - 1) over the partial
    sums S_j.  Each factor is at least 1, so the list increases."""
    digits, partial = [1.0], 0
    for part in parts:
        partial += part
        digits.append(digits[-1] + log10_binomial(partial - 1, part - 1))
    return digits


def emit(args, payload, table, text) -> None:
    """Print a command's result in the format chosen by --format.

    The three arguments are zero-argument callables, so each format builds
    only what it prints: payload() returns the JSON value, table() the CSV
    rows as dicts (the header is the first row's keys; list and tuple cells
    are space-joined), text() the text lines.  With --ascii the empty root
    '∘' prints as 'o' in text and csv; JSON output escapes it anyway.
    """
    if args.format == "json":
        s = json.dumps(payload(), indent=2)
    elif args.format == "csv":
        rows = table()
        vectors = [j for j, v in enumerate(rows[0].values()) if isinstance(v, (list, tuple))]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(rows[0]))
        for row in rows:
            cells = list(row.values())
            for j in vectors:
                cells[j] = " ".join(map(str, cells[j]))
            writer.writerow(cells)
        s = buf.getvalue().rstrip("\n")
    else:
        s = "\n".join(text())
    write_stdout(s.replace("∘", "o") if args.ascii else s)


# ---------------------------------------------------------------------------
# subcommands


def cmd_dyck(args) -> int:
    from . import dyck

    if over_budget(args, lambda j: dyck.catalan(j + 1), "lists Catalan(k+1) rows", ROW_BUDGET):
        return 2
    if args.coeffs:
        rows = [{"p": p, "c": c} for p, _, c in dyck.walk(args.k)]
    else:
        rows = [{"p": p} for p in dyck.enumerate_dyck(args.k)]
    emit(args, lambda: rows, lambda: rows,
         lambda: [vec_text(r["p"]) + (f" {r['c']}" if args.coeffs else "") for r in rows])
    return 0


def cmd_coeff(args) -> int:
    from . import dyck

    p = args.p
    deficits = validate_flag("--p", dyck.deficit_profile, p)
    value = dyck.coeff_cp(p)

    def text():
        width = max(len(str(e)) for e in deficits + p) if p else 1
        js = " ".join(f"{j:>{width}}" for j in range(len(p) + 1))
        ps = " " * (width + 1) + " ".join(f"{e:>{width}}" for e in p)
        ds = " ".join(f"{e:>{width}}" for e in deficits)
        return [f"j     | {js}", f"p_j   |{ps if p else ''}", f"D_P,j | {ds}", f"C_P = {value}"]

    data = {"p": p, "deficits": deficits, "c": value}
    emit(args, lambda: data, lambda: [data], text)
    return 0


def cmd_clambda(args) -> int:
    from . import compositions

    validate_flag("--lambda", compositions.validate_composition, args.parts)
    digits = clambda_digits(args.parts)
    if over_budget(args, digits.__getitem__, "prints about 1+log10(C_lambda) digits", DIGIT_BUDGET,
                   n=len(args.parts), at=f"len(lambda)={len(args.parts)}"):
        return 2
    value = compositions.coeff_clambda(args.parts)
    data = {"lambda": args.parts, "c": value}
    emit(args, lambda: data, lambda: [data], lambda: [str(value)])
    return 0


def cmd_pullback(args) -> int:
    from . import compositions, partitions

    k = args.k
    if over_budget(args, partitions.bell, "enumerates Bell(k) set partitions", ENUM_BUDGET):
        return 2
    coeffs = compositions.pullback_coefficients(k, check=False)
    rows = [{"lambda": list(lam), "iterated": iterated, "formula": closed, "partitions": counted,
             "ok": iterated == closed == counted}
            for lam, iterated, closed, counted in compositions.pullback_threeway(k, coeffs)]
    total = sum(coeffs.values())
    bell = partitions.bell(k)
    ok = total == bell and all(r["ok"] for r in rows)

    def text():
        for r in rows:
            yield (f"{vec_text(r['lambda']):<16} iterated={r['iterated']:<8} formula={r['formula']:<8} "
                   f"partitions={r['partitions']:<8} {'ok' if r['ok'] else 'MISMATCH'}")
        yield f"total = {total}, bell({k}) = {bell}, {'ok' if total == bell else 'MISMATCH'}"

    emit(args, lambda: {"k": k, "rows": rows, "total": total, "bell": bell, "ok": ok}, lambda: rows, text)
    if not ok:
        first = next((r for r in rows if not r["ok"]), {"lambda": "total"})
        raise SelfCheckError(f"first witness: {first}")
    return 0


def cmd_sigma(args) -> int:
    from . import dyck, polynomial

    k = args.k
    if (over_budget(args, lambda j: dyck.catalan(j + 1), "lists Catalan(k+1) terms", ROW_BUDGET)
            or args.check and over_budget(args, lambda j: math.factorial(j + 1),
                                          "--check sums over (k+1)! forests", ENUM_BUDGET)):
        return 2
    poly = polynomial.sigma_formula(k)
    equal = witness = None
    check = {}
    if args.check:
        equal, witness = polynomial.poly_equal(poly, polynomial.sigma_bruteforce(k))
        check["check"] = {"equal": equal,
                          "witness": None if witness is None else
                          {"b": witness[0][0], "p": list(witness[0][1]),
                           "formula": witness[1], "bruteforce": witness[2]}}

    def text():
        yield str(poly)
        if args.check:
            yield f"check vs forest sum over {math.factorial(k + 1)} forests: {'equal' if equal else 'MISMATCH'}"

    emit(args, lambda: {"k": k, "terms": poly.to_json_terms(), **check}, poly.to_json_terms, text)
    if args.check and not equal:
        raise SelfCheckError(f"first differing term: {witness}")
    return 0


def cmd_lie(args) -> int:
    from . import operators

    k = args.k
    if over_budget(args, lambda j: math.factorial(j + 1), "lists (k+1)! terms", ROW_BUDGET):
        return 2
    expansion = operators.lie_chain_oracle(k) if args.check else operators.expand_lie_forests(k)

    def text():
        for key, sign in expansion.items():
            yield f"{'+' if sign > 0 else '-'} {key}"
        yield f"{len(expansion)} terms" + (", oracle agrees with the closed form" if args.check else "")

    emit(args, lambda: {"k": k, "terms": expansion.to_json()}, expansion.to_json, text)
    return 0


def cmd_estimate(args) -> int:
    from . import dyck, operators

    k, h = args.k, args.h
    if over_budget(args, lambda j: dyck.catalan(j + 1) * math.comb(h + j, j),
                   "lists Catalan(k+1)*C(h+k,k) rows", ROW_BUDGET, at=f"k={k}, h={h}"):
        return 2
    rows = operators.estimate_certificate(k, h)

    def text():
        yield f"{'P':<14} {'H':<14} {'coeff':<8} {'a_order':<8} xi_orders"
        for r in rows:
            yield f"{vec_text(r.p):<14} {vec_text(r.h):<14} {r.coeff:<8} {r.a_order:<8} {vec_text(r.xi_orders)}"

    def table():
        return [r._asdict() for r in rows]  # the row fields, in column order

    emit(args, table, table, text)
    return 0


def cmd_verify(args) -> int:
    from . import checks

    start = time.monotonic()
    names = [name for name, _ in checks.CHECKS]  # read at call time, as run does
    ceilings = [args.max_k] * len(names)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(names))) as pool:
            results = list(pool.map(checks.run, names, ceilings))
    else:
        results = list(map(checks.run, names, ceilings))
    rows = [c for result in results for c in result]
    elapsed_ms = int((time.monotonic() - start) * 1000)
    first = next((c for c in rows if not c["ok"]), None)
    status = "pass" if first is None else "fail"

    def text():
        for c in rows:
            if c["ok"]:
                yield f"[ok  ] {c['name']}"
            else:
                yield f"[FAIL] {c['name']}: expected {c['expected']}, got {c['actual']}"
        yield f"{status}: {len(rows)} checks in {elapsed_ms} ms"

    emit(args, lambda: {"command": "verify", "status": status, "checks": rows, "elapsed_ms": elapsed_ms},
         lambda: rows, text)
    if first is not None:
        raise SelfCheckError(f"first witness: {first['name']} "
                             f"(expected {first['expected']}, got {first['actual']})")
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse prints --help itself: it drops a failed write, and writes to
    stderr when stdout is closed.  This parser writes the help through
    write_stdout and flushes it, so --help into an unwritable stdout exits 2
    like any other output."""

    def print_help(self, file=None):
        if file is not None:
            return super().print_help(file)
        write_stdout(self.format_help().removesuffix("\n"))  # print adds the newline back
        write_stdout(None)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json", "csv"], default="text",
                        help="output serialization (values are format-independent)")
    common.add_argument("--ascii", action="store_true", help="render the empty root as 'o'")

    parser = _Parser(prog="forestlie",
                     description="Exact combinatorics of Dyck vectors, decreasing "
                                 "forests, and operator expansions, with built-in "
                                 "brute-force cross-verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dyck", parents=[common], help="list Dyck vectors of length k")
    p.add_argument("--k", type=nonnegative_int, required=True)
    p.add_argument("--coeffs", action="store_true", help="include the coefficient of each vector")
    p.add_argument("--force", action="store_true", help="allow more than the row budget")
    p.set_defaults(fn=cmd_dyck)

    p = sub.add_parser("coeff", parents=[common], help="coefficient and deficit table of one vector")
    p.add_argument("--p", type=int_vector, required=True, help="comma-separated entries, e.g. 0,1,0,1,3,0,1")
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("clambda", parents=[common], help="pull-back coefficient of one composition")
    p.add_argument("--lambda", dest="parts", type=int_vector, required=True,
                   help="comma-separated parts, e.g. 1,2")
    p.add_argument("--force", action="store_true", help="allow more than the digit budget")
    p.set_defaults(fn=cmd_clambda)

    p = sub.add_parser("pullback", parents=[common],
                       help="coefficient table of sum k, three independent ways")
    p.add_argument("--k", type=nonnegative_int, required=True)
    p.add_argument("--force", action="store_true", help="allow more than the enumeration budget")
    p.set_defaults(fn=cmd_pullback)

    p = sub.add_parser("sigma", parents=[common], help="the Dyck polynomial of the forest sum")
    p.add_argument("--k", type=nonnegative_int, required=True)
    p.add_argument("--check", action="store_true", help="verify against the forest sum over all (k+1)! forests")
    p.add_argument("--force", action="store_true", help="allow more than the row and enumeration budgets")
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("lie", parents=[common], help="forest expansion of the Lie-derivative product")
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--check", action="store_true",
                   help="rebuild by iterated left multiplication and compare")
    p.add_argument("--force", action="store_true", help="allow more than the row budget")
    p.set_defaults(fn=cmd_lie)

    p = sub.add_parser("estimate", parents=[common], help="derivative-order certificate table")
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--h", type=nonnegative_int, required=True)
    p.add_argument("--force", action="store_true", help="allow more than the row budget")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("verify", parents=[common], help="run the full cross-verification suite")
    p.add_argument("--all", action="store_true", help="run every suite (the default)")
    p.add_argument("--max-k", type=nonnegative_int, default=99,
                   help="global size ceiling; each suite also has its own cap")
    p.add_argument("--jobs", type=positive_int, default=1,
                   help="parallel worker processes, at most one per suite (default 1)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    # exact values of any size print (3.10.7+, 3.11+); the caller's limit is back on every way out
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        write_stdout(None)
    except (BrokenPipeError, OutputError) as exc:
        # stdout is gone; fd 1 goes to /dev/null so the exit flush stays quiet
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader closed stdout
            return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
