"""Steadiness of the end-to-end metrics, against BENCHMARK.json's bounds.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads equi-gateway --runs 5 --sets 1

Runs each workload ``--runs`` times per set, every run a fresh process
with its own seed (the workloads take turns, so a change in the
machine's load falls on all of them alike).  For every end-to-end metric
it prints each set's median and quartiles and the spread, the distance
between the quartiles as a share of the median.  A metric is steady
when, in every set, its spread stays within its bound, when no set's
median is worse than the first set's by more than the bound, and when
every run failed the same share of its operations.  Exits 0 when every metric of every workload is steady.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    runs = {(w, s): [] for w in workloads for s in range(args.sets)}
    seed = 1
    for s in range(args.sets):
        for _ in range(args.runs):
            for workload in workloads:
                result = one_run(workload, seed, args.seconds)
                runs[workload, s].append(result)
                print(f"set {s} {workload} seed {seed}: " + " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                    for m in metrics), file=sys.stderr)
            seed += 1

    steady = True
    for workload in workloads:
        print(f"== {workload}")
        shares = {r["failed"] / r["attempted"]
                  for s in range(args.sets) for r in runs[workload, s]}
        correct = all(r["correct"] for s in range(args.sets)
                      for r in runs[workload, s])
        print(f"  failed shares {sorted(shares)}, all correct {correct}")
        steady &= len(shares) == 1 and correct
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            first = None
            cells = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"]
                          for r in runs[workload, s]]
                median, q1, q3, spread = summarise(values)
                first = median if first is None else first
                worse = ((median - first) / first if lower
                         else (first - median) / first)
                ok = worse <= bound and spread <= bound
                steady &= ok
                cells.append(f"med {median:.5g} [{q1:.5g}, {q3:.5g}] "
                             f"spread {spread:.3f} worse {worse:+.3f}"
                             f"{'' if ok else ' !'}")
            print(f"  {name:24s} bound {bound:.2f}  " + " | ".join(cells))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
