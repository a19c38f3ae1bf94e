"""forestlie benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload interactive --seed 1 --trace 1
    python3 bench/run.py --benchmark-json > BENCHMARK.json

Run from the root of a forestlie source tree; the program is imported from
its src/ directory and the CLI is run as ``python -m forestlie.cli``.  Load
comes from one client running one task after another (a closed loop).  The
last line of standard output is the JSON result; the lines before it name
each metric, with its per-workload name, unit and sample count.  A fuller
record (raw samples, failures, machine, seed) is written under .bench-out/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = {
    "verify": "forestlie verify --all --jobs 1 as a subprocess: the main user action, every layer, dyck-heavy",
    "verify-jobs2": "forestlie verify --all --jobs 2: the longest check sets the floor, so it moves apart from verify",
    "bruteforce": "in-process brute-force constructions past the verify caps: forests, operators, partitions, polynomial",
    "interactive": "122 seeded CLI calls (112 short) in a shuffled closed loop: start-up and rendering dominate",
}
# name, unit, better, bound (share of the parent's median a change may lose)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_ratio", "ratio", "higher", 0.005),
    ("pass_s", "s", "lower", 0.24),
    ("task_p50_ms", "ms", "lower", 0.24),
    ("task_p90_ms", "ms", "lower", 0.24),
]
# What each workload calls these metrics.
ALIASES = {
    "verify": {"pass_s": "verify_s"},
    "verify-jobs2": {"pass_s": "verify_jobs2_s"},
    "bruteforce": {"pass_s": "bruteforce_s"},
    "interactive": {"pass_s": "interactive_s", "task_p50_ms": "cmd_p50_ms", "task_p90_ms": "cmd_p90_ms"},
}
RUN_SECONDS = 30
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
# Untraced and traced passes of the in-process union, alternating, after one
# untraced warm-up pass that is not counted.
OVERHEAD_PAIRS = 2
# Seeds from this one up are held out: a later gain is confirmed on them, so
# they are never used while the change is being written.
HELDOUT_SEED = 1_000_000
SETUP_CODE = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import forestlie, forestlie.cli, inputs
inputs.build_inputs(sys.argv[3], int(sys.argv[4]))
"""
IMPORT_CODE = """\
import time
t = time.perf_counter()
import forestlie.cli
print((time.perf_counter() - t) * 1000)
"""


def per_layer_names() -> list[tuple[str, str, str]]:
    from tracing import KERNEL_METRICS, LAYERS
    from workloads import CHECK_NAMES

    checks = [f"checks.{name}.{what}" for name in CHECK_NAMES for what in ("ms", "rows")]
    names = (["cli.import_ms"] + [f"{layer}.self_ms" for layer in LAYERS] + checks + ["checks.longest_ms"]
             + KERNEL_METRICS + ["trace.unattributed_ms", "trace.overhead_ms"])
    out = []
    for name in names:
        if name.endswith("_ratio"):
            out.append((name, "ratio", "higher"))
        elif name.endswith(".rows"):
            out.append((name, "count", "higher"))
        elif name.endswith((".items", ".calls")):
            out.append((name, "count", "lower"))
        else:
            out.append((name, "ms", "lower"))
    return out


def benchmark_json(seconds: int) -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_names()],
    }


# ---------------------------------------------------------------------------
# machine and source description


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(root),
    }


# ---------------------------------------------------------------------------
# measuring


def fresh_interpreter_times(root: Path, code: str, args: list[str], repeats: int,
                            env: dict) -> list[tuple[float, str]]:
    """Wall seconds of `repeats` fresh interpreters running code, and what each printed."""
    from workloads import spawn

    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = spawn([sys.executable, "-c", code, *args], env, str(root))
        elapsed = time.perf_counter() - t0
        if res.code != 0:
            raise RuntimeError(f"fresh interpreter failed (exit {res.code}): {res.err.strip()}")
        out.append((elapsed, res.out.strip()))
    return out


def p90(values: list[float]) -> float:
    """The 90th percentile, inclusive method, of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def make_tasks(root: Path, workload: str, seed: int):
    import workloads

    if workload == "verify":
        return [workloads.verify_task(str(root), 1)], False
    if workload == "verify-jobs2":
        return [workloads.verify_task(str(root), 2)], False
    if workload == "bruteforce":
        return workloads.bruteforce_tasks(seed), True
    return workloads.cli_tasks(str(root), workloads.interactive_calls(seed)), False


def measure(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """Closed loop, one client: whole passes over the workload's tasks until
    another pass would not fit in `seconds`.  Each command's stdout digest
    must repeat in every pass; the digests go into the run record."""
    import workloads

    env = workloads.cli_env(str(root))
    setup = [t for t, _ in fresh_interpreter_times(
        root, SETUP_CODE, [str(root / "src"), str(BENCH_DIR), workload, str(seed)], SETUP_REPEATS, env)]
    tasks, in_process = make_tasks(root, workload, seed)
    passes, task_ms, problems, digests = [], [], [], {}
    attempted = failed = ok = rss_kb = 0
    start = time.perf_counter()
    while True:
        busy = 0.0
        for task in tasks:
            t0 = time.perf_counter()
            result = task.run()
            dt = time.perf_counter() - t0
            busy += dt
            attempted += 1
            problem = task.check(result)
            if problem is None and isinstance(result, workloads.CliResult):
                digest = workloads.stdout_digest(result.out)
                if digests.setdefault(task.name, digest) != digest:
                    problem = "stdout differs from an earlier pass"
            if problem is None:
                ok += 1
                task_ms.append(dt * 1000)
            else:
                failed += not task.known_defect
                problems.append({"task": task.name, "known_defect": task.known_defect, "problem": problem})
            rss_kb = max(rss_kb, getattr(result, "rss_kb", 0))
        passes.append(busy)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    if in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024,
        "ok_ratio": ok / attempted,
        "pass_s": statistics.median(passes),
        "task_p50_ms": statistics.median(task_ms) if task_ms else float("nan"),
        "task_p90_ms": p90(task_ms) if task_ms else float("nan"),
    }
    samples = {"setup_s": setup, "pass_s": passes, "task_ms": task_ms}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "samples": samples,
            "problems": problems, "stdout_sha256": digests}


def in_process_union(root: Path, seed: int, tracer=None) -> tuple[int, list[dict]]:
    """One pass over the in-process form of all three workloads: the verify
    checks at max_k=99 with one job, the brute-force tasks, and the
    interactive calls through cli.main.  Returns (attempted, problems)."""
    import workloads
    from forestlie import cli

    wrap = tracer.wrap if tracer else (lambda name, fn: fn)
    results = []
    rows = workloads.run_checks_in_process(lambda name, fn: wrap("checks." + name, fn)(99))
    results.append(("verify (in-process)", False, workloads.check_verify_rows(rows)))
    for task in workloads.bruteforce_tasks(seed):
        results.append((task.name, False, task.check(task.run())))
    calls = workloads.interactive_calls(seed)
    for task in workloads.cli_tasks(str(root), calls, in_process=wrap("cli.main", cli.main)):
        results.append((task.name, task.known_defect, task.check(task.run())))
    problems = [{"task": name, "known_defect": known, "problem": problem}
                for name, known, problem in results if problem is not None]
    return len(results), problems


def trace_run(root: Path, seed: int, out_dir: Path, stem: str) -> dict:
    """Per-layer metrics from the last traced pass of the in-process union.
    After an untraced warm-up, untraced and traced passes alternate; the
    difference of their median wall times is the tracing overhead."""
    import workloads
    from tracing import Tracer

    imports = fresh_interpreter_times(root, IMPORT_CODE, [], IMPORT_REPEATS, workloads.cli_env(str(root)))
    in_process_union(root, seed)
    walls: dict = {"untraced": [], "traced": []}
    attempted, problems = 0, []
    for _ in range(OVERHEAD_PAIRS):
        for side in walls:  # untraced first, so the last pass, whose tracer is kept, is traced
            tracer = Tracer() if side == "traced" else None
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter_ns()
                n, found = in_process_union(root, seed, tracer)
                walls[side].append(time.perf_counter_ns() - t0)
            attempted += n
            problems += found
    metrics = tracer.layer_metrics(walls["traced"][-1])
    metrics["cli.import_ms"] = statistics.median(float(printed) for _, printed in imports)
    metrics["trace.overhead_ms"] = (statistics.median(walls["traced"]) - statistics.median(walls["untraced"])) / 1e6
    spans_path = out_dir / f"{stem}.spans.json"
    with open(spans_path, "w") as f:
        json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns", "items"], "origin_ns": t0,
                   "spans": tracer.spans, "counts": dict(tracer.counts)}, f, separators=(",", ":"))
    failed = sum(1 for p in problems if not p["known_defect"])
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "problems": problems,
            "samples": {"untraced_ms": [ns / 1e6 for ns in walls["untraced"]],
                        "traced_ms": [ns / 1e6 for ns in walls["traced"]], "spans_file": spans_path.name}}


# ---------------------------------------------------------------------------


def report(args, outcome: dict, wanted: list[tuple[str, str]]) -> dict:
    aliases = ALIASES[args.workload] if not args.trace else {}
    counts = {"setup_s": len(outcome["samples"].get("setup_s", [])),
              "pass_s": len(outcome["samples"].get("pass_s", [])),
              "task_p50_ms": len(outcome["samples"].get("task_ms", [])),
              "task_p90_ms": len(outcome["samples"].get("task_ms", []))}
    metrics = {}
    for name, unit in wanted:
        value = outcome["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        label = aliases.get(name, name)
        note = f"  ({name}, n={counts[name]})" if name in counts else ""
        print(f"{label:<40} {value:>14.6g} {unit}{note}")
    if not args.trace:
        print(f"{'failed_ratio':<40} {1 - outcome['metrics']['ok_ratio']:>14.6g} ratio  (1 - ok_ratio)")
    for problem in outcome["problems"]:
        tag = "known defect" if problem["known_defect"] else "FAILED"
        print(f"{tag}: {problem['task']}: {problem['problem']}", file=sys.stderr)
    return {"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--root", type=Path, default=BENCH_DIR.parent,
                        help="forestlie source tree to measure (default: the one holding bench/)")
    parser.add_argument("--out", type=Path, help="directory for the run record (default: ROOT/.bench-out)")
    parser.add_argument("--benchmark-json", action="store_true", help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.benchmark_json:
        parser.error("--workload is required")
    root = args.root.resolve()
    if not (root / "src" / "forestlie" / "cli.py").is_file():
        print(f"error: no forestlie source at {root / 'src' / 'forestlie'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.benchmark_json:
        print(json.dumps(benchmark_json(RUN_SECONDS), indent=2))
        return 0
    os.environ.pop("FORESTLIE_JOBS", None)
    out_dir = args.out or root / ".bench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}.{time.strftime('%Y%m%dT%H%M%S')}"

    record = {"workload": args.workload, "seed": args.seed, "heldout": args.seed >= HELDOUT_SEED,
              "seconds": args.seconds, "trace": args.trace, "machine": machine(root),
              "loadavg_start": os.getloadavg()}
    if args.trace:
        outcome = trace_run(root, args.seed, out_dir, stem)
        wanted = [(name, unit) for name, unit, _ in per_layer_names()]
    else:
        outcome = measure(root, args.workload, args.seed, args.seconds)
        wanted = [(name, unit) for name, unit, _, _ in END_TO_END]
    record["loadavg_end"] = os.getloadavg()
    m = record["machine"]
    print(f"workload {args.workload}  seed {args.seed}{' (held out)' if record['heldout'] else ''}  "
          f"python {m['python']}  nproc {m['nproc']}  cpu {m['cpu']}  commit {m['commit']}  "
          f"load {record['loadavg_start'][0]:.2f} -> {record['loadavg_end'][0]:.2f}")
    result = report(args, outcome, wanted)
    record.update(result=result, samples=outcome["samples"], problems=outcome["problems"],
                  stdout_sha256=outcome.get("stdout_sha256", {}))
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
