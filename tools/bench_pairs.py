"""Benchmark two source trees in alternating pairs of runs and compare their end-to-end metrics.

Usage: python tools/bench_pairs.py OLD_TREE NEW_TREE --workload W [--workload W ...]
           --pairs N --seconds S [--out BENCH_<pr>.json]

For each workload, pair i (seed i, i = 1..N) runs ``perfbench/run.py --workload W
--seed i --seconds S`` once in each tree, each in a subprocess of its own started
in that tree; OLD runs first in odd pairs and NEW first in even ones.  Prints, per
workload and end-to-end metric, each side's median and quartiles, the per-pair
NEW/OLD ratios and in how many pairs NEW was lower, and each side's failed
operations.  ``--out`` writes the same with every run's metrics as JSON.  Writes
nothing in either tree.  Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree, workload, seed, seconds):
    """The result line (last stdout line, JSON) of one ``perfbench/run.py`` run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s: %s exited %d\n%s" % (tree, " ".join(argv[1:]), done.returncode,
                                                    done.stderr.strip()))
    return json.loads(lines[-1])


def spread(values):
    """(first quartile, median, third quartile); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(pairs):
    """Per metric: each side's quartiles, the NEW/OLD ratio per pair and NEW's lower count."""
    out = {}
    for name in pairs[0]["old"]["metrics"]:
        old = [p["old"]["metrics"][name]["value"] for p in pairs]
        new = [p["new"]["metrics"][name]["value"] for p in pairs]
        out[name] = {"unit": pairs[0]["old"]["metrics"][name]["unit"],
                     "old": dict(zip(("q1", "median", "q3"), spread(old))),
                     "new": dict(zip(("q1", "median", "q3"), spread(new))),
                     "ratios": [b / a if a else None for a, b in zip(old, new)],
                     "new_lower": sum(b < a for a, b in zip(old, new))}
    return out


def bench_workload(old_tree, new_tree, workload, n_pairs, seconds, log=print):
    """Run the pairs of one workload; each pair is {"seed", "first", "old", "new"}."""
    trees = {"old": old_tree, "new": new_tree}
    pairs = []
    for seed in range(1, n_pairs + 1):
        order = ("old", "new") if seed % 2 else ("new", "old")
        results = {side: run_once(trees[side], workload, seed, seconds) for side in order}
        pairs.append({"seed": seed, "first": order[0], **results})
        log("  pair %d (%s first): %s" % (seed, order[0], "  ".join(
            "%s %.4g/%.4g" % (name, results["old"]["metrics"][name]["value"],
                              results["new"]["metrics"][name]["value"])
            for name in results["old"]["metrics"])))
    return pairs


def report_lines(workload, pairs, summary):
    lines = ["%s: %d pairs; failed operations old %d, new %d" % (
        workload, len(pairs), sum(p["old"]["failed"] for p in pairs),
        sum(p["new"]["failed"] for p in pairs))]
    for name, s in summary.items():
        lines.append("  %-12s old %.4g [%.4g, %.4g]  new %.4g [%.4g, %.4g] %s"
                     "  new lower in %d of %d"
                     % (name,s["old"]["median"], s["old"]["q1"], s["old"]["q3"],
                        s["new"]["median"], s["new"]["q1"], s["new"]["q3"], s["unit"],
                        s["new_lower"], len(pairs)))
        lines.append("  %-12s new/old per pair: %s" % ("", " ".join(
            "%.3f" % r if r is not None else "-" for r in s["ratios"])))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    doc = {"old": str(args.old_tree), "new": str(args.new_tree), "seconds": args.seconds,
           "workloads": {}}
    for workload in args.workload:
        print("%s:" % workload, flush=True)
        pairs = bench_workload(args.old_tree, args.new_tree, workload, args.pairs,
                               args.seconds, log=lambda line: print(line, flush=True))
        summary = summarize(pairs)
        print("\n".join(report_lines(workload, pairs, summary)), flush=True)
        doc["workloads"][workload] = {"summary": summary, "pairs": pairs}
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
