#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its own bounds.

    python3 hcsbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                               [--seconds S] [--seed-base N] [--out FILE]

Runs every workload --runs times per set, each time with another seed,
alternating the order of the workloads from one run to the next. For each
end-to-end metric in BENCHMARK.json it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, and
checks that spread against the metric's bound; setup_s is exempt from the
spread check. With two sets it also checks that the second set's median is
not worse than the first's by more than the bound, and that the share of
failed operations is exactly the same in every run. Exits 1 when any check
fails. Run it from the root of the repository.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=2)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    results = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                seed = args.seed_base + 1000 * s + i
                r = run_once(w, seed, args.seconds)
                results[w][s].append(r)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      f"attempted {r['attempted']} failed {r['failed']}",
                      file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for s in range(args.sets):
            runs = results[w][s]
            shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
            correct = all(r["correct"] for r in runs)
            print(f"  set {s + 1}: attempted {[r['attempted'] for r in runs]}")
            print(f"         failed    {[r['failed'] for r in runs]} "
                  f"share {sorted(str(x) for x in shares)} correct {correct}")
            ok &= correct and len(shares) == 1
        if args.sets == 2:
            shares = [{Fraction(r["failed"], r["attempted"]) for r in runs}
                      for runs in results[w]]
            if shares[0] != shares[1]:
                print("  FAIL: failed share differs between the sets")
                ok = False
        print(f"  {'metric':<16}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3, spread = summarize(values)
                medians.append(med)
                verdict = "ok"
                if name != "setup_s" and spread > bound:
                    verdict, ok = "FAIL spread > bound", False
                elif name != "setup_s" and spread > bound / 3:
                    verdict = "spread > bound/3"
                print(f"  {name:<16}{s + 1:>4}{med:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{spread:>9.4f}{bound:>7.3f}  {verdict}")
            if args.sets == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if m["better"] == "lower" else -change
                verdict = "ok" if worse <= bound else "FAIL worse than bound"
                ok &= worse <= bound
                print(f"  {name:<16}  median change {change:+.4f} "
                      f"(bound {bound})  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
