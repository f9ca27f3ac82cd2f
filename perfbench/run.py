#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the specmt paper-figure pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

The script builds the `perfbench` binary (a package of its own in this
directory), then starts one fresh `perfbench sample` process per sample
until `--seconds` have passed. Each sample loads the suite at `medium`
scale through the artifact store and builds the 15 paper figures, as
`specmt bench all` does. It prints a table per metric and, as its last
line, one JSON object: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. See README.md in this directory.

`--workload all` runs the three workloads one after the other and prints
all their metrics, keyed `<workload>.<metric>`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIGURES = 15
SAMPLE_TIMEOUT_S = 150
MIN_SAMPLES = 3
NAMESPACES = ["trace", "profile", "spawn-table", "analysis", "simresult"]
UPSTREAM = ["trace", "profile", "spawn-table", "analysis"]

# workload -> (store the sample runs against, observe every simulation)
WORKLOADS = {
    "paper_cold": ("empty", False),
    "paper_warm": ("template", False),
    "paper_observed": ("template copy", True),
}

# The paper's values (Marcuello & Gonzalez, HPCA 2002, section 4) beside
# this model's simulated Hmean speed-ups.
PAPER = {
    "fig3_hmean": 7.2,
    "fig8_profile_over_heuristics": 1.20,
    "fig12_profile_perfect_hmean": 2.75,
    "fig12_profile_stride_hmean": 2.05,
    "fig12_profile_stride_ovh8_hmean": 1.9,
}


class BenchFailure(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the sample binary; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchFailure(f"build failed: {e}") from e
    if done.returncode != 0:
        raise BenchFailure(f"build failed with exit code {done.returncode}")
    return target, target / "release" / "perfbench"


def run_child(argv):
    """Runs one process to completion; returns (its JSON report, rusage)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    timer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0:
        raise BenchFailure(f"{' '.join(map(str, argv[:2]))} exited {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchFailure(f"{argv[1]} printed nothing")
    return json.loads(lines[-1]), usage


def self_times(spans):
    """Seconds of self time per span name: each span's duration minus
    the part of it that its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    totals = {}
    for s in spans:
        covered, reach = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], reach), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        own = (s["end_ns"] - s["start_ns"] - covered) / 1e9
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def durations(spans, name):
    return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans if s["name"] == name]


def tail(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 20:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


class Workload:
    def __init__(self, name, binary, work, expected):
        self.name = name
        self.binary = binary
        self.work = work / name
        self.expected = expected
        self.store_kind, self.observe = WORKLOADS[name]
        self.problems = []
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "spans").mkdir(parents=True)
        self.template = self.work / "template"
        if self.store_kind != "empty":
            # An untimed cold pass fills the store the samples start from.
            report, _ = run_child([binary, "sample", "--store", str(self.template)])
            self.check_figures(report, "template")

    def check_figures(self, report, what):
        """Figures that failed: built with an error or a digest mismatch."""
        want = self.expected["figure_digests"]
        got = {f["id"]: f["digest"] for f in report["figures"]}
        bad = [fid for fid in want if got.get(fid) != want[fid]]
        for err in report["errors"]:
            self.problems.append(f"{what}: {err['id']} failed: {err['error']}")
        for fid in bad:
            self.problems.append(f"{what}: {fid} digest {got.get(fid)} != {want[fid]}")
        if report["digest"] != self.expected["digest"]:
            self.problems.append(f"{what}: figure digest {report['digest']} != {self.expected['digest']}")
        return len(bad)

    def sample(self, traced, index):
        store = self.work / "store"
        if self.store_kind == "template":
            store = self.template
        else:
            shutil.rmtree(store, ignore_errors=True)
            if self.store_kind == "template copy":
                shutil.copytree(self.template, store)
        argv = [self.binary, "sample", "--store", str(store)]
        if self.observe:
            argv.append("--observe")
        spans = self.work / "spans" / f"sample-{index}.json"
        if traced:
            argv += ["--spans", str(spans)]
        report, usage = run_child(argv)
        failed = self.check_figures(report, f"sample {index}")
        counts = report["store"]
        if counts != self.expected["store"][self.name]:
            self.problems.append(f"sample {index}: store counts {counts} differ from the reference")
        # A sample whose store precondition breaks was not the workload it
        # claims to be: every figure in it counts as failed.
        if self.name == "paper_warm" and any(
                counts[ns]["misses"] or counts[ns]["writes"] for ns in NAMESPACES):
            failed = FIGURES
        if self.name == "paper_observed" and any(counts[ns]["misses"] for ns in UPSTREAM):
            failed = FIGURES
        return {
            "wall_s": report["wall_s"],
            "setup_s": report["setup_s"],
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "failed": failed,
            "report": report,
            "spans": json.loads(spans.read_text()) if traced else None,
        }

    def measure(self, seconds, traced_too, traced_first):
        """Samples until `seconds` have passed: untraced only, or
        alternating untraced and traced."""
        plain, traced = [], []
        self.sample(False, "warmup")  # discarded: lets the host settle
        start = time.monotonic()
        index = 0
        while (time.monotonic() - start < seconds or len(plain) < MIN_SAMPLES
               or (traced_too and len(traced) < MIN_SAMPLES)):
            trace_this = traced_too and (index % 2 == 0) == traced_first
            (traced if trace_this else plain).append(self.sample(trace_this, index))
            index += 1
        return plain, traced

    def cleanup(self):
        for d in ("store", "template", "scratch"):
            shutil.rmtree(self.work / d, ignore_errors=True)


def end_to_end(samples):
    """(metric, unit, values) rows for the end-to-end metrics."""
    return [(m, u, [s[m] for s in samples]) for m, u in
            (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))]


def print_table(title, rows):
    print(title)
    print(f"  {'metric':34s} {'unit':9s} {'median':>14s} {'tail':>20s} {'n':>4s}")
    for name, unit, values in rows:
        t = tail(values)
        tail_s = f"p{t[0]}={t[1]:.6g}" if t else "-"
        print(f"  {name:34s} {unit:9s} {statistics.median(values):14.6g} {tail_s:>20s} {len(values):4d}")


def layer_metrics(w, traced, plain, replay, replay_spans):
    """The per-layer metrics of one workload, as name -> (value, unit)."""
    m = {}
    samples_self = [self_times(s["spans"]) for s in traced]
    med = lambda f: statistics.median(f(x) for x in samples_self)
    m["bench.setup_ms"] = (med(lambda x: x["bench.setup"]) * 1e3, "ms")
    first = traced[0]["report"]
    for fig in first["figures"]:
        fid = fig["id"]
        m[f"bench.{fid}_ms"] = (med(lambda x: x[f"bench.{fid}"]) * 1e3, "ms")
        m[f"bench.{fid}_hits"] = (fig["hits"], "count")
        m[f"bench.{fid}_misses"] = (fig["misses"], "count")
    for s in traced[1:]:
        if [(f["hits"], f["misses"]) for f in s["report"]["figures"]] != \
                [(f["hits"], f["misses"]) for f in first["figures"]]:
            w.problems.append("per-figure store hit/miss deltas differ between samples")

    store = first["store"]
    total = {k: sum(store[ns][k] for ns in NAMESPACES)
             for k in ("hits", "misses", "writes", "invalidations")}
    for k, v in total.items():
        m[f"store.{k}"] = (v, "count")
    m["store.hit_ratio"] = (total["hits"] / max(1, total["hits"] + total["misses"]), "share")
    for ns in NAMESPACES:
        for k in ("hits", "misses", "writes", "invalidations"):
            m[f"store.{ns}.{k}"] = (store[ns][k], "count")
    m["store.mb"] = (first["store_bytes"] / 1e6, "MB")
    m["trace_overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                             - statistics.median(s["wall_s"] for s in plain), "s")
    for k in PAPER:
        m[f"repro.{k}"] = (first["repro"][k], "x")

    st = self_times(replay_spans)
    c = replay["counts"]
    ms = lambda name: (st[name] * 1e3, "ms")
    for name in ("trace.generate", "trace.encode", "trace.decode", "analysis.blockstream",
                 "analysis.reach", "spawn.profile", "spawn.select", "sim.deps",
                 "sim.baseline", "sim.run", "store.key", "store.get", "store.put"):
        m[f"{name}_ms"] = ms(name)
    run_s = st["sim.run"]
    m["trace.mb"] = (c["trace.bytes"] / 1e6, "MB")
    m["spawn.pairs"] = (c["spawn.pairs"], "count")
    m["sim.insts"] = (c["sim.insts"], "count")
    m["sim.ns_per_inst"] = (run_s * 1e9 / c["sim.insts"], "ns/inst")
    m["predict.stride_ratio"] = (st["predict.stride"] / run_s, "x")
    m["predict.fcm_ratio"] = (st["predict.fcm"] / run_s, "x")
    m["obs.observe_ratio"] = (st["obs.observe"] / run_s, "x")
    m["obs.events"] = (c["obs.events"], "count")
    m["obs.ns_per_event"] = ((st["obs.event_log"] - run_s) * 1e9 / c["obs.events"], "ns/event")
    m["exec.cells"] = (c["exec.cells"], "count")
    m["exec.degraded"] = (c["exec.degraded"], "count")
    (batch2,) = durations(replay_spans, "exec.batch2")
    m["exec.idle_share"] = (1 - sum(durations(replay_spans, "exec.cell2")) / (2 * batch2), "share")
    # Two width-1 batches and two plain loops over the same cells; the
    # faster of each pair is the one less disturbed by other load.
    m["exec.overhead_ms"] = ((min(durations(replay_spans, "exec.batch1"))
                              - min(durations(replay_spans, "exec.plain"))) * 1e3, "ms")

    for key, want in w.expected["replay"][replay["input"]].items():
        if c[key] != want:
            w.problems.append(f"replay count {key} = {c[key]}, reference {want}")
    if replay["store_round_trip_errors"]:
        w.problems.append("scratch store returned different bytes than were written")
    return m


def run_workload(name, args, binary, work, expected):
    w = Workload(name, binary, work, expected)
    try:
        plain, traced = w.measure(args.seconds, args.trace == 1, args.seed % 2 == 1)
        samples = plain + traced
        print_table(f"== {name}: {len(plain)} untraced samples, figure digest "
                    f"{plain[0]['report']['digest']}", end_to_end(plain))
        attempted = FIGURES * len(samples)
        failed = sum(s["failed"] for s in samples)
        print(f"  {'fail_ratio':34s} {'share':9s} {failed / attempted:14.6g} "
              f"{'':>20s} {len(samples):4d}   ({failed}/{attempted} figures)")
        repro = plain[0]["report"]["repro"]
        print("  simulated Hmean speed-ups beside the paper's (model unvalidated against hardware):")
        for k, paper in PAPER.items():
            print(f"    {k:34s} {repro[k]:8.3f}   paper {paper}")
        if args.trace == 0:
            metrics = {m: (statistics.median(v), u) for m, u, v in end_to_end(plain)}
        else:
            spans_path = w.work / "spans" / "replay.json"
            replay, _ = run_child([binary, "replay", "--inputs", args.inputs,
                                   "--seed", str(args.seed),
                                   "--scratch", str(w.work / "scratch"),
                                   "--spans", str(spans_path)])
            metrics = layer_metrics(w, traced, plain, replay, json.loads(spans_path.read_text()))
            print(f"== {name}: per-layer metrics ({len(traced)} traced samples, "
                  f"layer replay on the {args.inputs} inputs)")
            for k, (v, u) in metrics.items():
                print(f"  {k:34s} {u:9s} {v:14.6g}")
        return metrics, attempted, failed, w.problems
    finally:
        w.cleanup()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1,
                   help="orders traced/untraced samples and the replay's cells; "
                        "the figure inputs are fixed by the figure registry")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--inputs", choices=["train", "ref"], default="train",
                   help="input set of the layer replay (ref is held out)")
    args = p.parse_args()
    try:
        expected = json.loads((HERE / "expected.json").read_text())
        target, binary = build()
        work = target / "perfbench-work"
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed, problems = {}, 0, 0, []
        for name in names:
            m, a, f, pr = run_workload(name, args, binary, work, expected)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted, failed = attempted + a, failed + f
            problems += [f"{name}: {x}" for x in pr]
    except (BenchFailure, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2
    for x in problems:
        log(f"perfbench: check failed: {x}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
