"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload charts --seeds 1-10 --seconds 25

For every metric of the final JSON line it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median.  Runs are sequential; each is one
``run.py`` process.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=25)
    args = p.parse_args()
    values = {}
    shares = set()
    for seed in seeds_of(args.seeds):
        res = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(args.seconds),
                              "--trace", "0"],
                             capture_output=True, text=True, timeout=900)
        lines = res.stdout.strip().splitlines()
        if res.returncode or not lines:
            print("seed %d failed (exit %d): %s" % (seed, res.returncode, res.stderr[-500:]))
            return 1
        info, out = json.loads(lines[-2]), json.loads(lines[-1])
        shares.add(out["failed"] / out["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d passes=%d ref_kernel_ms=%.1f %s"
              % (seed, out["correct"], out["attempted"], out["failed"], info["passes"],
                 info["ref_kernel_ms"],
                 " ".join("%s=%.4g" % (k, v["value"]) for k, v in out["metrics"].items())),
              flush=True)
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("failed shares: %s" % sorted(shares))
    print("%-40s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "iqr/med"))
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print("%-40s %12.5g %12.5g %12.5g %8.4f" % (name, med, q1, q3, share))
    return 0


if __name__ == "__main__":
    sys.exit(main())
