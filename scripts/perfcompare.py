#!/usr/bin/env python3
"""Compare the benchmark of two revisions in interleaved pairs.

    python3 scripts/perfcompare.py BASE [CHANGE] WORKLOAD... [--seconds S]
        [--claim METRIC:WORKLOAD]...

CHANGE defaults to HEAD; each WORKLOAD names a workload of
BENCHMARK.json. Each revision is checked out into its own temporary
`git worktree`, so the caller's checkout stays untouched. For every
workload the script runs that revision's own `perfbench/run.py
--workload W --seconds S` in PAIRS pairs, alternating which side goes
first, and prints per end-to-end metric the two medians, the pairs the
change won and the base's IQR (the spread between its quartiles).

Beside them it prints the median and the IQR of the per-pair ratios
change/base (`ratio` and `ratio IQR`). The two runs of a pair share a
measurement window, so host drift that widens the base IQR (slower or
faster minutes) cancels in the ratio: a change that wins every pair
reads a tight ratio below 1 even when the base IQR is wide. The ratio
columns are for reading; the exit status does not use them.

It exits 1 if any run reports `correct: false`, or if the change's
median of a metric is worse than the base's by more than that metric's
`bound` in BENCHMARK.json and by more than the base's IQR; 2 if a run
or a checkout fails. A metric worse than its bound but inside the
base's IQR is reported as unresolved: the runs cannot tell it from
host noise.

Each `--claim METRIC:WORKLOAD` (for example `--claim
peak_rss_mb:paper_cold`) names a gain the change claims; WORKLOAD must
be one of the workloads compared. The claim is met when the change won
at least 9 of the 10 pairs on METRIC and its median is better than the
base's by more than the base's IQR. The script reports each claim as
met or not, and exits 1 if any is not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
# Pairs of PAIRS a claimed gain must win.
CLAIM_WINS = 9
ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_perfbench(side, tree, workload, seconds):
    """One `perfbench/run.py` run in `tree`; returns its JSON report."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(seconds)],
                          cwd=tree, env=env, text=True, stdout=subprocess.PIPE)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} on the {side} revision exited {done.returncode}")
    return json.loads(lines[-1])


def compare(metric, base, change):
    """One report line for `metric`, and the regression if there is one."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    b, c = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    won = sum((y < x) if better == "lower" else (y > x) for x, y in zip(base, change))
    worse_by = c - b if better == "lower" else b - c
    verdict = ""
    if worse_by > bound * b:
        verdict = "REGRESSED" if worse_by > q3 - q1 else "unresolved (inside the base IQR)"
    delta = (c - b) / b
    ratios = [y / x for x, y in zip(base, change)]
    r1, _, r3 = statistics.quantiles(ratios, n=4)
    line = (f"  {name:12s} {metric['unit']:5s} {b:12.6g} {c:12.6g} {delta:+8.1%} "
            f"{won:>3d}/{len(base):<3d} {q3 - q1:12.6g} {bound:6.0%} "
            f"{statistics.median(ratios):8.3f} {r3 - r1:9.3f}  {verdict}")
    failure = f"{name} {delta:+.1%}, beyond its bound {bound:.0%} and the base IQR"
    return line.rstrip(), failure if verdict == "REGRESSED" else None


def check_claim(metric, base, change):
    """Whether `change` meets the claim on `metric`, and its report line."""
    better = metric["better"]
    b, c = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4)
    won = sum((y < x) if better == "lower" else (y > x) for x, y in zip(base, change))
    gain = b - c if better == "lower" else c - b
    met = won >= CLAIM_WINS and gain > q3 - q1
    line = (f"  claim {metric['name']}: change won {won}/{len(base)} (needs {CLAIM_WINS}), "
            f"medians {b:.6g} -> {c:.6g} ({(c - b) / b:+.1%}), gain {gain:.6g} vs base IQR "
            f"{q3 - q1:.6g}: {'met' if met else 'NOT met'}")
    return met, line


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="revision to compare against")
    p.add_argument("rest", nargs="+", metavar="[CHANGE] WORKLOAD",
                   help=f"optional change revision (default HEAD), then workloads: {workloads}")
    p.add_argument("--seconds", type=float, default=10,
                   help="--seconds of every perfbench run (default 10)")
    p.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD",
                   help="a claimed gain; exit 1 unless the change wins "
                        f"{CLAIM_WINS}/{PAIRS} pairs by more than the base IQR")
    args = p.parse_args()
    change, chosen = (("HEAD", args.rest) if args.rest[0] in workloads
                      else (args.rest[0], args.rest[1:]))
    unknown = [w for w in chosen if w not in workloads]
    if not chosen or unknown:
        p.error(f"workloads must be among {workloads}, got {chosen}")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    claims = [tuple(c.partition(":")[::2]) for c in args.claim]
    for name, w in claims:
        if name not in metrics or w not in chosen:
            p.error(f"--claim must be METRIC:WORKLOAD with METRIC among {list(metrics)} "
                    f"and WORKLOAD among the compared {chosen}, got {name}:{w}")

    try:
        revs = {side: git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
                for side, rev in (("base", args.base), ("change", change))}
    except subprocess.CalledProcessError as e:
        print(f"perfcompare: not a revision: {e.cmd[-1].removesuffix('^{commit}')}",
              file=sys.stderr)
        return 2
    failures = []
    with tempfile.TemporaryDirectory(prefix="perfcompare-") as tmp:
        # Paths of equal length, so both sides run with environments and
        # working directories of the same size.
        trees = {side: Path(tmp) / f"tree{i}" for i, side in enumerate(revs)}
        try:
            for side, sha in revs.items():
                git("worktree", "add", "--detach", "--quiet", str(trees[side]), sha)
            for w in chosen:
                runs = {"base": [], "change": []}
                for i in range(PAIRS):
                    for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                        report = run_perfbench(side, trees[side], w, args.seconds)
                        runs[side].append(report)
                        shown = " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in report["metrics"].items())
                        print(f"{w} pair {i + 1}/{PAIRS} {side}: correct={report['correct']} "
                              f"{shown}", file=sys.stderr, flush=True)
                print(f"== {w}: {PAIRS} interleaved pairs, base {revs['base'][:10]} "
                      f"vs change {revs['change'][:10]}, --seconds {args.seconds:g}")
                print(f"  {'metric':12s} {'unit':5s} {'base':>12s} {'change':>12s} "
                      f"{'delta':>8s} {'won':>7s} {'base IQR':>12s} {'bound':>6s} "
                      f"{'ratio':>8s} {'ratio IQR':>9s}")
                for metric in bench["end_to_end"]:
                    values = {side: [r["metrics"][metric["name"]]["value"] for r in rs]
                              for side, rs in runs.items()}
                    line, regression = compare(metric, values["base"], values["change"])
                    print(line)
                    if regression:
                        failures.append(f"{w} {regression}")
                    if (metric["name"], w) in claims:
                        met, line = check_claim(metric, values["base"], values["change"])
                        print(line)
                        if not met:
                            failures.append(f"{w} claim on {metric['name']} not met")
                for side, rs in runs.items():
                    bad = sum(not r["correct"] for r in rs)
                    if bad:
                        failures.append(f"{w} {side}: {bad}/{PAIRS} runs reported correct: false")
        except (RuntimeError, subprocess.CalledProcessError) as e:
            print(f"perfcompare: {e}", file=sys.stderr)
            return 2
        finally:
            for tree in trees.values():
                subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT,
                               stderr=subprocess.DEVNULL)
            git("worktree", "prune")
    for f in failures:
        print(f"perfcompare: FAIL: {f}")
    if not failures:
        print("perfcompare: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
