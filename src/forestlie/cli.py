"""Command-line front end: enumeration, coefficient lookup, verification
suites, and table emission.

Exit codes: 0 on success, 1 when a verification fails (the first witness is
reported), 2 on usage errors.  Data output is deterministic for fixed flags;
the ``--format`` switch changes serialization only, never values.
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
from concurrent.futures import ProcessPoolExecutor

from . import compositions, dyck, forests, operators, partitions, polynomial
from .errors import SelfCheckError

FOREST_ENUM_LIMIT = 9  # full forest enumeration beyond this needs --force


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


def positive_int(s: str) -> int:
    """argparse type: an integer >= 1."""
    n = int(s)
    if n < 1:
        raise ValueError(s)
    return n


def emit(args, payload, table, text) -> None:
    """Print a command's result in the format chosen by --format.

    The three arguments are zero-argument callables, so each format builds
    only what it prints: payload() returns the JSON value, table() the CSV
    rows as dicts (the header is the first row's keys; list and tuple cells
    are space-joined), text() the text lines.  With --ascii the empty root
    '∘' prints as 'o'.
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
    print(s.replace("∘", "o") if args.ascii else s)


# ---------------------------------------------------------------------------
# verification checks (module-level so --jobs can run them in worker processes)

DYCK_TABLE_1 = {(0,): 1, (1,): 2}
DYCK_TABLE_2 = {(0, 0): 1, (0, 1): 3, (0, 2): 2, (1, 0): 2, (1, 1): 4}
DYCK_TABLE_3 = {
    (0, 0, 0): 1, (0, 0, 1): 4, (0, 0, 2): 5, (0, 0, 3): 2, (0, 1, 0): 3,
    (0, 1, 1): 9, (0, 1, 2): 6, (0, 2, 0): 2, (0, 2, 1): 4, (1, 0, 0): 2,
    (1, 0, 1): 6, (1, 0, 2): 4, (1, 1, 0): 4, (1, 1, 1): 8,
}
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


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
    tables = {1: DYCK_TABLE_1, 2: DYCK_TABLE_2, 3: DYCK_TABLE_3}
    pairs = [((k,), tables[k], dyck.coefficient_table(k)) for k in range(1, min(max_k, 3) + 1)]
    return _rows("dyck_table[k={}]", pairs)


def check_dyck_counts(max_k: int) -> list[dict]:
    pairs = []
    for k in range(min(max_k, 12) + 1):
        cat = dyck.catalan(k + 1)
        pairs.append(((k, "enumerated"), cat, sum(1 for _ in dyck.enumerate_dyck(k))))
        pairs.append(((k, "counted"), cat, dyck.count_dyck(k)))
    return _rows("dyck_count[k={},{}]", pairs)


def check_dyck_two_formulas(max_k: int) -> list[dict]:
    # coeff_cp raises if the two product forms ever disagree
    pairs = []
    for k in range(min(max_k, 10) + 1):
        evaluated = sum(1 for p in dyck.enumerate_dyck(k) if dyck.coeff_cp(p) >= 1)
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
    pairs = []
    for k in range(min(max_k, 10) + 1):
        bad = [lam for lam in compositions.enumerate_compositions(k)
               if not compositions.verify_key_identity(lam)[0]]
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


def check_forest_counts(max_k: int) -> list[dict]:
    pairs = []
    for k in range(min(max_k, 7) + 1):
        n = sum(1 for _ in forests.enumerate_forests(forests.standard_labels(k)))
        pairs.append(((k,), math.factorial(k + 1), n))
    return _rows("forest_count[k={}]", pairs)


def check_forest_identities(max_k: int) -> list[dict]:
    pairs = []
    for k in range(1, min(max_k, 6) + 1):
        prune_ok = deg_ok = True
        dyck_ok = True
        for f in forests.enumerate_forests(forests.standard_labels(k)):
            expo, _, root_children = forests.monomial(f)
            dyck_ok = dyck_ok and dyck.is_dyck(expo)
            deg_ok = deg_ok and root_children == k - sum(expo)
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
    pairs = [
        (("histogram",), {1: 1, 2: 4, 3: 5, 4: 2}, hist),
        (("cprime",), 45, forests.cprime((0, 0, 2, 1, 1))),
        (("coeff",), dyck.coeff_cp((0, 0, 2, 1, 1)), forests.cprime((0, 0, 2, 1, 1))),
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

_CHECKS_BY_NAME = dict(CHECKS)


def _run_check(name: str, max_k: int) -> list[dict]:
    try:
        return _CHECKS_BY_NAME[name](max_k)
    except SelfCheckError as exc:
        return [{"name": name, "expected": "consistency", "actual": str(exc), "ok": False}]


# ---------------------------------------------------------------------------
# subcommands


def cmd_dyck(args) -> int:
    rows = [{"p": p, "c": dyck.coeff_cp(p)} if args.coeffs else {"p": p} for p in dyck.enumerate_dyck(args.k)]
    emit(args, lambda: rows, lambda: rows,
         lambda: [vec_text(r["p"]) + (f" {r['c']}" if args.coeffs else "") for r in rows])
    return 0


def cmd_coeff(args) -> int:
    p = args.p
    deficits = dyck.deficit_profile(p)
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
    value = compositions.coeff_clambda(args.parts)
    data = {"lambda": args.parts, "c": value}
    emit(args, lambda: data, lambda: [data], lambda: [str(value)])
    return 0


def cmd_pullback(args) -> int:
    k = args.k
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
        print(f"verification failed, first witness: {first}", file=sys.stderr)
        return 1
    return 0


def cmd_sigma(args) -> int:
    k = args.k
    if args.check and k > FOREST_ENUM_LIMIT and not args.force:
        print(f"sigma --check enumerates (k+1)! forests; refusing k={k} > {FOREST_ENUM_LIMIT} "
              "without --force", file=sys.stderr)
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
        print(f"verification failed, first differing term: {witness}", file=sys.stderr)
        return 1
    return 0


def cmd_lie(args) -> int:
    k = args.k
    if k > FOREST_ENUM_LIMIT and not args.force:
        print(f"lie enumerates (k+1)! forest terms; refusing k={k} > {FOREST_ENUM_LIMIT} "
              "without --force", file=sys.stderr)
        return 2
    expansion = operators.lie_chain_oracle(k) if args.check else operators.expand_lie_forests(k)

    def text():
        for key, sign in expansion.items():
            yield f"{'+' if sign > 0 else '-'} {key}"
        yield f"{len(expansion)} terms" + (", oracle agrees with the closed form" if args.check else "")

    emit(args, lambda: {"k": k, "terms": expansion.to_json()}, expansion.to_json, text)
    return 0


def cmd_estimate(args) -> int:
    rows = operators.estimate_certificate(args.k, args.h)

    def text():
        yield f"{'P':<14} {'H':<14} {'coeff':<8} {'a_order':<8} xi_orders"
        for r in rows:
            yield f"{vec_text(r.p):<14} {vec_text(r.h):<14} {r.coeff:<8} {r.a_order:<8} {vec_text(r.xi_orders)}"

    def table():
        return [vars(r) for r in rows]  # the dataclass fields, in column order

    emit(args, table, table, text)
    return 0


def cmd_verify(args) -> int:
    start = time.monotonic()
    names = [name for name, _ in CHECKS]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_check, names, [args.max_k] * len(names)))
    else:
        results = [_run_check(name, args.max_k) for name in names]
    checks = [c for rows in results for c in rows]
    elapsed_ms = int((time.monotonic() - start) * 1000)
    first = next((c for c in checks if not c["ok"]), None)
    status = "pass" if first is None else "fail"

    def text():
        for c in checks:
            if c["ok"]:
                yield f"[ok  ] {c['name']}"
            else:
                yield f"[FAIL] {c['name']}: expected {c['expected']}, got {c['actual']}"
        yield f"{status}: {len(checks)} checks in {elapsed_ms} ms"

    emit(args, lambda: {"command": "verify", "status": status, "checks": checks, "elapsed_ms": elapsed_ms},
         lambda: checks, text)
    if first is not None:
        print(f"verification failed, first witness: {first['name']} "
              f"(expected {first['expected']}, got {first['actual']})", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "json", "csv"], default="text",
                        help="output serialization (values are format-independent)")
    common.add_argument("--ascii", action="store_true", help="render the empty root as 'o'")

    parser = argparse.ArgumentParser(prog="forestlie",
                                     description="Exact combinatorics of Dyck vectors, decreasing "
                                                 "forests, and operator expansions, with built-in "
                                                 "brute-force cross-verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dyck", parents=[common], help="list Dyck vectors of length k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--coeffs", action="store_true", help="include the coefficient of each vector")
    p.set_defaults(fn=cmd_dyck)

    p = sub.add_parser("coeff", parents=[common], help="coefficient and deficit table of one vector")
    p.add_argument("--p", type=int_vector, required=True, help="comma-separated entries, e.g. 0,1,0,1,3,0,1")
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("clambda", parents=[common], help="pull-back coefficient of one composition")
    p.add_argument("--lambda", dest="parts", type=int_vector, required=True,
                   help="comma-separated parts, e.g. 1,2")
    p.set_defaults(fn=cmd_clambda)

    p = sub.add_parser("pullback", parents=[common],
                       help="coefficient table of sum k, three independent ways")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_pullback)

    p = sub.add_parser("sigma", parents=[common], help="the Dyck polynomial of the forest sum")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--check", action="store_true", help="verify against the full forest enumeration")
    p.add_argument("--force", action="store_true", help="allow large k despite factorial cost")
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("lie", parents=[common], help="forest expansion of the Lie-derivative product")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="rebuild by iterated left multiplication and compare")
    p.add_argument("--force", action="store_true", help="allow large k despite factorial cost")
    p.set_defaults(fn=cmd_lie)

    p = sub.add_parser("estimate", parents=[common], help="derivative-order certificate table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("verify", parents=[common], help="run the full cross-verification suite")
    p.add_argument("--all", action="store_true", help="run every suite (the default)")
    p.add_argument("--max-k", type=int, default=99,
                   help="global size ceiling; each suite also has its own cap")
    p.add_argument("--jobs", type=positive_int, default=os.environ.get("FORESTLIE_JOBS", "1"),
                   help="parallel worker processes (default from FORESTLIE_JOBS, else 1)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SelfCheckError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
