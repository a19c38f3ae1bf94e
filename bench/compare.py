"""Compare a change with its parent on the end-to-end metrics of the benchmark.

    python3 bench/compare.py run --parent PARENT_TREE --change CHANGE_TREE \\
        --workload bruteforce --out DIR [--seed 1000000]
    python3 bench/compare.py judge DIR

`run` measures both source trees with this checkout's benchmark code, in 10
pairs of runs of run.RUN_SECONDS each.  The two runs of a pair share a seed
and the side that runs first alternates.  Pair i uses seed + i; a gain found
while writing a change is confirmed on the held-out seeds, `--seed 1000000`
(run.HELDOUT_SEED).  The run records go to DIR/parent and DIR/change, and
are then judged.  `judge` reads such records (any number of workloads) and
prints, for every workload, one verdict per end-to-end metric:

- better: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: otherwise, when either side's spread (IQR over median) is
  wider than the bound, unless every change run beats every parent run;
- unchanged: otherwise.

A workload on which the change fails more tasks than the parent (a lower
ok_ratio, or more failed) or prints different stdout for a command of the
same seed (the digests in the run records) is marked incorrect: its gains
read void, and judge exits with 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, RUN_SECONDS

BENCH_DIR = Path(__file__).resolve().parent
SIDES = ("parent", "change")
PAIRS = 10


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def classify(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict for one metric from paired runs (parent[i] pairs with change[i])."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    gain = sign * (pm - cm)
    if wins >= 0.9 * len(parent) and gain > iqr(parent):
        return "better"
    if -gain > bound * abs(pm):
        return "worse"
    spread = max(iqr(parent) / abs(pm) if pm else 0.0, iqr(change) / abs(cm) if cm else 0.0)
    if spread > bound and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "unchanged"


def load(directory: Path) -> dict:
    """{workload: {seed: record}} of the untraced run records in directory."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if record["trace"] == 0:
            out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def incorrect(parent: dict, change: dict) -> list[str]:
    """Why the change's runs of one workload (seed -> record) are not as
    correct as the parent's: more failures, or other stdout for a command."""
    def ok(runs):
        return sum(run["result"]["metrics"]["ok_ratio"]["value"] for run in runs.values())

    def failed(runs):
        return sum(run["result"]["failed"] for run in runs.values())

    reasons = []
    if ok(change) < ok(parent) or failed(change) > failed(parent):
        reasons.append("the change fails more tasks than the parent")
    for seed in sorted(set(parent) & set(change)):
        p, c = parent[seed].get("stdout_sha256", {}), change[seed].get("stdout_sha256", {})
        differs = sorted(cmd for cmd in set(p) & set(c) if p[cmd] != c[cmd])
        if differs:
            reasons.append(f"seed {seed}: stdout differs for {len(differs)} command(s), e.g. {differs[0]!r}")
    return reasons


def judge(directory: Path) -> int:
    parent, change = (load(directory / side) for side in SIDES)
    names = [name for name, *_ in END_TO_END]
    print(f"{'workload':<14} {'pairs':>5}  " + "  ".join(f"{n:>12}" for n in names))
    details, status = [], 0
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        pruns = {s: parent[workload][s] for s in seeds}
        cruns = {s: change[workload][s] for s in seeds}
        reasons = incorrect(pruns, cruns)
        verdicts = []
        for name, _unit, better, bound in END_TO_END:
            p = [pruns[s]["result"]["metrics"][name]["value"] for s in seeds]
            c = [cruns[s]["result"]["metrics"][name]["value"] for s in seeds]
            verdict = classify(p, c, better, bound)
            verdicts.append("void" if reasons and verdict == "better" else verdict)
            details.append(f"  {workload} {name}: parent median {statistics.median(p):.6g} "
                           f"(IQR {iqr(p):.3g}), change median {statistics.median(c):.6g} "
                           f"(IQR {iqr(c):.3g}), bound {bound}")
        print(f"{workload:<14} {len(seeds):>5}  " + "  ".join(f"{v:>12}" for v in verdicts)
              + ("  INCORRECT" if reasons else ""))
        details += [f"  {workload} incorrect: {reason}" for reason in reasons]
        status = status or (1 if reasons else 0)
    print("\n".join(details))
    return status


def run_pairs(args) -> int:
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
                   "--seed", str(args.seed + i), "--seconds", str(RUN_SECONDS), "--trace", "0",
                   "--root", str(trees[side]), "--out", str(args.out / side)]
            print(f"pair {i + 1}/{PAIRS}: {side}", file=sys.stderr)
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return judge(args.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="measure alternating pairs, then judge them")
    p.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="source tree of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the first pair; pair i uses seed + i (held-out seeds: 1000000)")
    p.add_argument("--out", type=Path, required=True)
    p = sub.add_parser("judge", help="judge the records under DIR/parent and DIR/change")
    p.add_argument("directory", type=Path)
    args = parser.parse_args(argv)
    return run_pairs(args) if args.command == "run" else judge(args.directory)


if __name__ == "__main__":
    sys.exit(main())
