"""Failure rate of the band-parallel round on the shared-memory plane.

    python3 perfbench/shm_repro.py --runs 20 --tuples 8000

The benchmark runs its multiprocess workloads on the pipe plane because
the default shared-memory plane fails clean runs now and then (see
README.md).  This script runs ``--runs`` band-parallel rounds of
``--tuples`` band tuples (2 workers, no fault injected, one fresh process
and seed each) with the default ``transport="shm"`` and counts how each
ended:

- ``clean``: every result exact, no recovery;
- ``recovered``: a worker was restarted or quarantined, or a batch
  redelivered;
- ``failed``: an ingest or the drain raised, or results were missing
  or wrong.

It exits 0 when every round was clean.  Once the plane is fixed, this
is the check that lets it join the benchmark.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def one_round(seed: int, tuples: int) -> str:
    sys.path.insert(0, str(ROOT / "src"))
    import drivers
    import inputs

    shm = dataclasses.replace(drivers.BAND_PARALLEL, transport="shm")
    records = inputs.band_records(seed, tuples)
    expected = drivers.expected_pairs("band-parallel", records)
    try:
        result = drivers.replay_round("parallel", records, expected, False,
                                      parallel=shm)
    except drivers.SpontaneousRecovery as exc:
        return f"recovered {exc}"
    check = result["check"]
    if result["failed"] or any(check[k] for k in (
            "bad_predicate", "bad_window", "duplicates", "spurious")):
        return f"failed {result['failed']} of {result['attempted']} " \
               f"tuples, check {check}"
    return "clean"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--tuples", type=int, default=8000)
    parser.add_argument("--one", type=int, metavar="SEED",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one is not None:
        print(one_round(args.one, args.tuples))
        return 0
    outcomes = collections.Counter()
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "shm_repro.py"), "--one", str(seed),
             "--tuples", str(args.tuples)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT, timeout=180)
        lines = proc.stdout.strip().splitlines()
        outcome = lines[-1] if lines else f"exit code {proc.returncode}"
        # The first raise, cut to its head and the traceback's last line.
        errors = [line.split("\\n") for line in proc.stderr.splitlines()
                  if "raised" in line]
        detail = (f" ({errors[0][0][:40]}... {errors[0][-2]})"
                  if errors and len(errors[0]) > 2 else "")
        print(f"seed {seed}: {outcome}{detail}")
        outcomes[outcome.split()[0]] += 1
    print(", ".join(f"{kind} {count}/{args.runs}"
                    for kind, count in sorted(outcomes.items())))
    return 0 if outcomes["clean"] == args.runs else 1


if __name__ == "__main__":
    sys.exit(main())
