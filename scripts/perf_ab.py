#!/usr/bin/env python3
"""Paired A/B runs of two already-built `perf` binaries.

Runs PARENT_PERF and CHANGE_PERF alternately on one workload, N pairs,
each run as

    PERF --workload W --seed K --seconds S --trace 0 --out FILE

where K is the pair number (1..N) and odd pairs run the parent first,
even pairs the change first, so a drift in the host over the session
lands on both sides. Each side appends its run records to its own JSONL
file in a fresh temporary directory, printed at the end.

It then prints every run, and for each end-to-end metric that
BENCHMARK.json declares: both sides' median and quartiles, the median
of the per-pair ratios change/parent, and the change's wins, ties and
losses over the pairs (by the metric's `better` direction) with a
two-sided sign-test p-value. A metric is within bound when its median
paired ratio is within the manifest's bound of 1 in the worse
direction. Failed operations are counted per side.

Usage:
    scripts/perf_ab.py PARENT_PERF CHANGE_PERF --workload W --pairs N [--seconds S]

Run it from a checkout on a disk-backed filesystem: both binaries put
their scratch files under `.bench_scratch/` in the working directory.
Exits 1 when a run fails or records failed operations, or a metric's
median paired ratio is out of bound; 0 otherwise. Standard library
only.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def sign_test(wins, losses):
    """Two-sided exact binomial p-value of `wins` against `losses` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2**n
    return min(1.0, 2 * tail)


def run(perf, workload, seed, seconds, out):
    cmd = [
        perf,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
        "--out", str(out),
    ]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(f"{perf} seed {seed} exited {done.returncode}: {done.stderr.strip()}\n")
    return done.returncode == 0


def records(path):
    """Run records of one side, keyed by seed."""
    by_seed = {}
    if path.exists():
        for line in path.read_text().splitlines():
            line = line.strip()
            if line.startswith("{"):
                rec = json.loads(line)
                by_seed[rec["seed"]] = rec
    return by_seed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", metavar="PARENT_PERF")
    ap.add_argument("change", metavar="CHANGE_PERF")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    metrics = json.loads(MANIFEST.read_text())["end_to_end"]
    outdir = Path(tempfile.mkdtemp(prefix="perf_ab_"))
    sides = {"parent": (args.parent, outdir / "parent.jsonl"),
             "change": (args.change, outdir / "change.jsonl")}
    ok = True
    for k in range(1, args.pairs + 1):
        order = ["parent", "change"] if k % 2 == 1 else ["change", "parent"]
        for side in order:
            perf, out = sides[side]
            ok &= run(perf, args.workload, k, args.seconds, out)
        print(f"pair {k}/{args.pairs} done ({' then '.join(order)})", file=sys.stderr, flush=True)

    recs = {side: records(out) for side, (_, out) in sides.items()}
    seeds = [k for k in range(1, args.pairs + 1) if all(k in recs[s] for s in sides)]
    missing = args.pairs - len(seeds)
    if missing:
        ok = False
        print(f"{missing} pair(s) without a record on both sides are left out")
    if not seeds:
        return 1

    def value(side, seed, name):
        return recs[side][seed]["metrics"][name]["value"]

    names = [m["name"] for m in metrics]
    print(f"== {args.workload}: {len(seeds)} pairs, {args.seconds} s runs, trace 0")
    print("pair first   " + "  ".join(f"{n + ' P':>18} {n + ' C':>18}" for n in names) + "  failed P/C")
    for k in seeds:
        first = "parent" if k % 2 == 1 else "change"
        cells = "  ".join(f"{value('parent', k, n):>18.6g} {value('change', k, n):>18.6g}" for n in names)
        failed = f"{recs['parent'][k]['failed']}/{recs['change'][k]['failed']}"
        print(f"{k:>4} {first:<7} {cells}  {failed}")

    def cell(q):
        return f"{q[1]:.6g} [{q[0]:.6g}..{q[2]:.6g}]"

    print()
    print(f"{'metric':<18} {'parent median [q1..q3]':>34} {'change median [q1..q3]':>34} "
          f"{'ratio C/P':>10} {'W/T/L':>8} {'sign p':>7} {'bound':>6}  verdict")
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        p = [value("parent", k, name) for k in seeds]
        c = [value("change", k, name) for k in seeds]
        ratios = [cv / pv for pv, cv in zip(p, c) if pv != 0]
        ratio = statistics.median(ratios) if ratios else float("nan")
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        losses = sum((cv > pv) if lower else (cv < pv) for pv, cv in zip(p, c))
        ties = len(seeds) - wins - losses
        within = (ratio - 1 if lower else 1 - ratio) <= bound
        ok &= within
        print(f"{name:<18} {cell(quartiles(p)):>34} {cell(quartiles(c)):>34} {ratio:>10.4f} "
              f"{f'{wins}/{ties}/{losses}':>8} {sign_test(wins, losses):>7.3f} {bound:>6.2f}  "
              f"{'within bound' if within else 'OUT OF BOUND'}")

    failed = {s: sum(recs[s][k]["failed"] for k in seeds) for s in sides}
    attempted = {s: sum(recs[s][k]["attempted"] for k in seeds) for s in sides}
    print(f"failed ops: parent {failed['parent']} of {attempted['parent']}, "
          f"change {failed['change']} of {attempted['change']}")
    print(f"run records: {sides['parent'][1]} {sides['change'][1]}")
    ok &= failed["parent"] == 0 and failed["change"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
