"""Show that every benchmark check rejects a planted wrong answer.

    python3 perfbench/selftest.py

Each case runs one real operation on small inputs, plants a wrong answer
in its output (an altered chart coefficient, a product missing 1/2 [x, y],
a flipped verdict, a nudged RK4 endpoint, ...) and requires the check to
reject it, while the untouched output passes.  Exits 1 if any check
accepts a planted wrong answer.
"""

import copy
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from carnotkit.coords import CoordinateChange  # noqa: E402
from carnotkit.poly import PolyMap, RationalPoly  # noqa: E402

import checks as C  # noqa: E402
import inputs as I  # noqa: E402
import workloads as W  # noqa: E402

FAILURES = []


def expect(label, accepted_good, rejected_bad):
    ok = accepted_good and rejected_bad
    print("%-58s %s" % (label, "ok" if ok else "NOT REJECTED" if accepted_good
                        else "GOOD OUTPUT REJECTED"))
    if not ok:
        FAILURES.append(label)


def run_ops(workload):
    inputs = workload.generate()
    workload.warm(inputs)
    ops = workload.ops(inputs, 0)
    outs = {}
    for op in ops:
        outs[op.name] = (op, op.fn())
    return inputs, outs


def check_case(label, op, good, bad):
    expect(label, op.check(good) is None, op.check(bad) is not None)


def altered_change(change, k, exp, delta):
    comps = [RationalPoly(p.n, dict(p.terms)) for p in change.poly.components]
    comps[k] = comps[k] + RationalPoly.monomial(comps[k].n, exp, delta)
    return CoordinateChange(change.matrix, change.offset, change.weights, PolyMap(comps))


def flipped(report):
    bad = copy.copy(report)
    bad.ok = not report.ok
    return bad


class SmallCharts(W.Charts):
    ITEMS = (("free2_3", "group", "full"), ("filiform_5", "perturbed", "full"))


def charts_cases():
    _, outs = run_ops(SmallCharts(1))
    op, eps = outs["free2_3/group/eps"]
    bad = copy.copy(eps)
    bad.change = altered_change(eps.change, 4, (2, 0, 0, 0, 0, 0), Fraction(1, 3))
    check_case("charts: epsilon chart with one altered coefficient", op, eps, bad)

    op, eps = outs["filiform_5/perturbed/eps"]
    good_checks = op.deferred(eps)
    bad = copy.copy(eps)
    matrix = [list(row) for row in eps.change.matrix]
    matrix[0][1] += 1
    bad.change = CoordinateChange(matrix, eps.change.offset, eps.change.weights,
                                  eps.change.poly)
    bad.constants = copy.copy(eps.constants)
    bad.constants.table = dict(eps.constants.table)
    key = next(iter(bad.constants.table))
    bad.constants.table[key] += 1
    bad_checks = op.deferred(bad)
    for (label, good_thunk), (_, bad_thunk) in zip(good_checks, bad_checks):
        expect("charts (sympy): " + label.split(" ", 1)[1] + " planted error",
               good_thunk(), not bad_thunk())

    op, report = outs["free2_3/group/carnot_second"]
    check_case("charts: second-kind chart reported Carnot", op, report, flipped(report))
    op, chart = outs["free2_3/group/first"]
    bad = copy.copy(chart)
    bad.change = altered_change(chart.change, 3, (0, 1, 1, 0, 0, 0), 1)
    check_case("charts: first-kind chart with one altered coefficient", op, chart, bad)
    op, (kind, change) = outs["free2_3/group/io"]
    check_case("charts: io round trip that changed a coefficient", op, (kind, change),
               (kind, altered_change(change, 5, (1, 0, 1, 0, 0, 0), 1)))


def verify_cases():
    workload = W.VerifyTruncated(1)
    workload.FRAMES = ("heisenberg_5",)
    workload.ROUNDS = 1
    _, outs = run_ops(workload)
    for name in ("carnot0/carnot", "privileged0/carnot", "adversarial0/privileged"):
        op, report = outs["heisenberg_5/" + name]
        check_case("verify_truncated: flipped verdict on " + name, op, report,
                   flipped(report))
    op, report = outs["heisenberg_5/carnot0/privileged"]
    bad = copy.copy(report)
    bad.details = dict(report.details, truncated=False)
    check_case("verify_truncated: verdict that skipped the truncated path", op, report, bad)


def group_law_cases():
    base = I.filiform(6)
    rng = random.Random(1)
    scales = I.random_scales(base.n, rng)
    sc = I.rescaled(base, scales)
    x, y, z = (I.rand_point(rng, base.n) for _ in range(3))
    s, t = I.rand_frac(rng), I.rand_frac(rng)
    ops = {op.name: op for op in W.GroupLaw.triple_ops("t", base, sc, scales, x, y, z, s, t)}
    outs = {name: op.fn() for name, op in ops.items()}
    half = C.vec_bracket(sc.table, x, y, base.n)
    xy = outs["t/xy"]
    bad = tuple(v - half[k] / 2 if w == 2 else v
                for k, (v, w) in enumerate(zip(xy, sc.weights.weights)))
    check_case("group_law: product missing 1/2 [x, y]", ops["t/xy"], xy, bad)
    for name in ("t/x_yz", "t/sx_tx", "t/rescale"):
        p = outs[name]
        check_case("group_law: altered product (%s check)" % name[2:], ops[name], p,
                   (p[0] + 1,) + p[1:])

    workload = W.GroupLaw(1)
    workload.ALGEBRAS = ("filiform_6",)
    _, outs = run_ops(workload)
    op, frame = outs["filiform_6/group_frame"]
    bad = copy.copy(frame)
    bad.fields = list(frame.fields)
    coeffs = list(frame.fields[1].coefficients)
    coeffs[5] = coeffs[5] + RationalPoly.monomial(6, (1, 0, 0, 0, 0, 0), 1)
    bad.fields[1] = type(frame.fields[1])(coeffs)
    check_case("group_law: group frame with an altered coefficient", op, frame, bad)


def numeric_cases():
    workload = W.NumericRK4(1)
    workload.FLOW_FRAMES = ("engel_4",)
    workload.FLOWS_PER_FRAME = 1
    inputs, outs = run_ops(workload)
    op, end = outs["engel_4/flow0"]
    check_case("numeric_rk4: RK4 endpoint off by 1e-8", op, end,
               (end[0] + 1e-8,) + end[1:])
    name, fields, comps, n = inputs["certificates"][0]
    bad = list(comps)
    bad[3] = bad[3] + RationalPoly.monomial(bad[3].n, (0,) * (bad[3].n - 1) + (2,), 1)
    expect("numeric_rk4 (sympy): flow that breaks the ODE identity",
           C.sympy_flow_certificate(fields, comps, n),
           not C.sympy_flow_certificate(fields, bad, n))
    op, report = outs["perturbed_heisenberg_3/numeric_first"]
    bad = copy.copy(report)
    bad.passed = False
    check_case("numeric_rk4: Carnot first-kind chart classified not Carnot", op,
               report, bad)
    op, chart = outs["heisenberg_3/numeric_chart"]
    bad = copy.copy(chart)
    bad.coeffs = chart.coeffs.copy()
    bad.coeffs[1, 0] += 1e-3
    check_case("numeric_rk4: fitted chart with one altered coefficient", op, chart, bad)


def main():
    for case in (charts_cases, verify_cases, group_law_cases, numeric_cases):
        case()
    if FAILURES:
        print("%d planted wrong answers were not rejected" % len(FAILURES))
        return 1
    print("every planted wrong answer was rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
