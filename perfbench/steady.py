"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--workloads a,b]

Run from the root of a checkout.  It makes two sets of runs of `run.py
--trace 0`, seeds 1..10 and 11..20, on every workload in BENCHMARK.json (or
on those named, which may include workloads BENCHMARK.json leaves out), one
run at a time.  For every end-to-end metric and workload it reports each
set's median and its spread (the distance between the first and third
quartile as a share of the median), and whether

  * every spread stays within the metric's bound, except that of setup_s
    (see README.md, "Steadiness and bounds"),
  * the two sets' medians differ, either way, by no more than the bound,
  * the share of failed operations is exactly the same in both sets,

with the bounds and run length taken from BENCHMARK.json.  It exits 1 if any
of these fails.  The bounds in BENCHMARK.json were set from its output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10  # seeds per set


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for first_seed in (1, 1 + RUNS):
            sets.append([one_run(spec, workload, seed)
                         for seed in range(first_seed, first_seed + RUNS)])
            print(f"{workload}: set {len(sets)} done", file=sys.stderr, flush=True)
        shares = {(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
                  for runs in sets}
        fail_shares = {f / a for f, a in shares}
        if len(fail_shares) > 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
        print(f"{workload}: failed/attempted per set {sorted(shares)}; all correct: "
              f"{all(r['correct'] for runs in sets for r in runs)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = (medians[1] - medians[0]) / medians[0]
            # Set-up is a fresh interpreter start, which follows the machine's
            # slow phases: only its medians are compared.
            good = abs(drift) <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok = ok and good
            print(
                f"  {name:12s} bound {bound:.2f}  medians "
                + " ".join(f"{m:.4g}" for m in medians)
                + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                + f"  set 2 vs set 1 {drift:+.3f}  {'ok' if good else 'FAIL'}"
                + ("  (spread under bound/3)" if max(spreads) < bound / 3 else "")
            )
            for k, v in enumerate(values, 1):
                print(f"    set {k}: " + " ".join(f"{x:.4g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
