"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload charts --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  With ``--trace 0`` the last line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of traced passes, which
alternate with untraced ones so the tracing overhead can be reported.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import os
import sys

# One process, one thread: pin BLAS before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc
import json
import resource
import statistics
import subprocess
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
# Set-up is timed in the run's own process and again in a fresh interpreter
# after each of these passes (every run makes them); setup_s is the median.
# Spread over the run, the samples meet the machine's speed phases as the
# passes do, not only the phase the run starts in.
SETUP_AFTER_PASSES = (1, 3)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up times as JSON and exit "
                        "(the run starts itself this way to time fresh set-ups)")
    return p.parse_args(argv)


def set_up(name, seed):
    """Import carnotkit, generate the inputs and warm up.

    Returns the workload, its inputs and the seconds of each part, or None
    for an unknown workload.
    """
    t0 = time.perf_counter()
    import carnotkit  # noqa: F401  (numpy is most of this import)
    t1 = time.perf_counter()
    import workloads
    if name not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)"
              % (name, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return None
    wl = workloads.WORKLOADS[name](seed)
    inputs = wl.generate()
    t2 = time.perf_counter()
    wl.warm(inputs)
    t3 = time.perf_counter()
    return wl, inputs, {"import_s": t1 - t0, "generate_s": t2 - t1,
                        "warm_s": t3 - t2, "setup_s": t3 - t0}


def fresh_set_up(args):
    """The set-up times of a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    res = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])


def reference_kernel_ms():
    """A fixed stdlib Fraction kernel, timed to expose machine drift."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 120):
            for j in range(1, 40):
                acc += Fraction(i, j + 1) * Fraction(j, i + 2)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def op_medians(passes):
    """Each operation's median time over the given passes, so a burst of
    machine speed that hits one pass does not move the figures."""
    return [statistics.median(col) for col in zip(*passes)]


def run_pass(ops, pass_index, fixed_keys, state):
    """Run one pass; returns the list of op times (seconds)."""
    times = []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - t0)
            state["failed"] += 1
            state["errors"].append("%s raised %s: %s" % (op.name, type(exc).__name__, exc))
            continue
        times.append(time.perf_counter() - t0)
        if op.fault is not None and op.fault(out):
            state["failed"] += 1
            continue
        if fixed_keys is not None and pass_index > 0:
            if op.key(out) != fixed_keys[i]:
                state["errors"].append("%s: output differs from the first pass" % op.name)
            continue
        message = op.check(out)
        if message:
            state["errors"].append("%s: %s" % (op.name, message))
        if fixed_keys is not None:
            fixed_keys[i] = op.key(out)
        if op.deferred is not None and pass_index == 0:
            state["deferred"].extend(op.deferred(out))
    return times


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "carnotkit" / "__init__.py").is_file():
        print("perfbench: no carnotkit sources under %s; run from a source checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    got = set_up(args.workload, args.seed)
    if got is None:
        return 2
    wl, inputs, own_parts = got
    if args.setup_only:
        print(json.dumps(own_parts))
        return 0
    ref_ms = reference_kernel_ms()
    setups = [own_parts]

    from tracer import Tracer
    tracer = Tracer() if args.trace else None
    state = {"failed": 0, "errors": [], "deferred": []}
    fixed_keys = None
    untraced, traced_passes, pass_walls = [], [], []
    start = time.perf_counter()
    p = 0
    while True:
        ops = wl.ops(inputs, p)
        if wl.fixed_inputs and fixed_keys is None:
            fixed_keys = [None] * len(ops)
        traced = tracer is not None and p % 2 == 1
        gc.collect()
        wall0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            times = run_pass(ops, p, fixed_keys, state)
        finally:
            if traced:
                tracer.uninstall()
        pass_walls.append(time.perf_counter() - wall0)
        (traced_passes if traced else untraced).append(times)
        p += 1
        if p in SETUP_AFTER_PASSES:
            t0 = time.perf_counter()
            setups.append(fresh_set_up(args))
            start += time.perf_counter() - t0  # the passes' budget excludes it
        elapsed = time.perf_counter() - start
        if p >= MIN_PASSES and elapsed + statistics.median(pass_walls) / 2 > args.seconds:
            break
    n_ops = len(ops)
    attempted = n_ops * p
    setup_s = statistics.median(part["setup_s"] for part in setups)
    import_s = statistics.median(part["import_s"] for part in setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    for label, thunk in state["deferred"]:
        if not thunk():
            state["errors"].append("%s: sympy check failed" % label)
    check_s = time.perf_counter() - t0

    for message in state["errors"][:20]:
        print("perfbench: " + message, file=sys.stderr)
    correct = not state["errors"]

    if tracer is None:
        typical = op_medians(untraced)
        metrics = {
            "ops_per_s": (n_ops / sum(typical), "op/s"),
            "op_p50_ms": (statistics.median(typical) * 1000.0, "ms"),
            "op_p90_ms": (percentile(typical, 90) * 1000.0, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics(p // 2)
        metrics["setup.import_s"] = (import_s, "s")
        # the summed per-operation medians of the traced passes against those
        # of the untraced passes; pass 0 pays one-time costs and is left out
        ratio = sum(op_medians(traced_passes)) / sum(op_medians(untraced[1:]))
        metrics["trace.overhead_pct"] = ((ratio - 1.0) * 100.0, "%")

    info = {"workload": args.workload, "seed": args.seed, "passes": p,
            "ops_per_pass": n_ops,
            "setup_samples_s": [round(part["setup_s"], 4) for part in setups],
            "import_s": round(import_s, 4),
            "generate_s": round(own_parts["generate_s"], 4),
            "warm_s": round(own_parts["warm_s"], 4),
            "check_s": round(check_s, 4), "ref_kernel_ms": round(ref_ms, 3),
            "nproc": os.cpu_count()}
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": state["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
