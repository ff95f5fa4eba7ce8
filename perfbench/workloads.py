"""The four workloads: seeded operation lists plus the checks of each result.

A workload turns a seed into inputs (``generate``), fills the memos that
generation left cold (``warm``, where there are any) and yields, for each
pass, the same list of operations (``ops``).  Every operation is one call chain into the public
carnotkit API; its ``check`` is made apart from the program (see
checks.py) or tests a property the method must have.
"""

from fractions import Fraction
import random

from carnotkit import io
from carnotkit.coords import (NumericChart, canonical_first_kind,
                              canonical_second_kind, combined_field, epsilon,
                              exact_flow, numeric_flow)
from carnotkit.groups import catalog, dynkin_product, group_frame
from carnotkit.verify import check_carnot, check_privileged, numeric_chart_report

import checks as C
import inputs as I


class Op:
    """One measured operation.

    ``fn()`` returns the output; ``check(out)`` returns None or a message.
    ``fault(out)`` is true when a known program fault shows: the operation
    then counts as failed and is not checked further.  ``deferred(out)``
    returns sympy checks, run once after the measured passes.  ``key(out)``
    fingerprints the output of workloads whose passes repeat the same
    inputs, so later passes are compared with the first.
    """

    __slots__ = ("name", "fn", "check", "fault", "deferred", "key")

    def __init__(self, name, fn, check, fault=None, deferred=None, key=None):
        self.name = name
        self.fn = fn
        self.check = check
        self.fault = fault
        self.deferred = deferred
        self.key = key


class Workload:
    """A seed, the inputs it generates and the operation list of each pass."""

    fixed_inputs = True

    def __init__(self, seed):
        self.seed = seed

    def warm(self, inputs):
        """Fill memos that ``generate`` left cold; most workloads need none."""


def _expect(cond, message):
    return None if cond else message


def _pass_rng(seed, *tags):
    return random.Random("%s/%s" % (seed, "/".join(str(t) for t in tags)))


# ---------------------------------------------------------------------------
# charts: epsilon, first- and second-kind charts, exact Carnot checks, io.
# ---------------------------------------------------------------------------


class Charts(Workload):
    name = "charts"
    # (algebra, frame kind, operations).  "full": epsilon, both canonical
    # charts, a Carnot check of each, io; "checked": epsilon, its Carnot
    # check, io; "eps": epsilon and io.  The larger algebras get the lighter
    # lists so a pass stays near five seconds and a run holds several passes.
    ITEMS = (("free2_3", "group", "full"), ("free2_3", "perturbed", "full"),
             ("free2_4", "group", "checked"), ("free2_4", "perturbed", "checked"),
             ("free2_5", "group", "eps"),
             ("filiform_5", "group", "full"), ("filiform_5", "perturbed", "full"),
             ("filiform_6", "group", "full"), ("filiform_6", "perturbed", "full"),
             ("filiform_7", "group", "full"), ("filiform_7", "perturbed", "full"))

    def generate(self):
        rng = random.Random("charts/%s" % self.seed)
        shape = random.Random("charts/shape")
        algebras = {}
        items = []
        for name, kind, plan in self.ITEMS:
            if name not in algebras:
                algebras[name] = I.algebra(name)
            sc = algebras[name]
            a = I.rand_point(rng, sc.n)
            frame = (group_frame(sc, a) if kind == "group"
                     else I.perturbed_frame(sc, a, shape, rng))
            samples = [I.rand_point(rng, sc.n) for _ in range(2)]
            items.append((name, kind, plan, sc, frame, samples))
        return items

    def ops(self, items, pass_index):
        out = []
        for name, kind, plan, sc, frame, samples in items:
            out.extend(self._item_ops(name + "/" + kind, kind, plan, sc, frame, samples))
        return out

    @staticmethod
    def _item_ops(label, kind, plan, sc, frame, samples):
        st = {}
        n = frame.n
        a = frame.base_point
        zero = (Fraction(0),) * n

        def run_eps():
            st["eps"] = epsilon(frame)
            return st["eps"]

        def check_eps(e):
            if C.chart_eval(e.change, a) != zero:
                return "epsilon(a) != 0"
            inv = e.change.inverse_polymap()
            for x in samples:
                if C.map_eval(inv.components, C.chart_eval(e.change, x)) != x:
                    return "inverse o chart != id"
                if kind == "group":
                    minus_a = tuple(-v for v in a)
                    want = (C.bch_closed_form(sc.table, minus_a, x, n) if sc.step <= 4
                            else dynkin_product(minus_a, x, sc))
                    if C.chart_eval(e.change, x) != tuple(want):
                        return "chart is not x -> (-a).x on a group frame"
            return None

        def deferred_eps(e):
            return [(label + " d(eps)(a)", lambda: C.sympy_chart_linear_part(frame, e.change)),
                    (label + " tangent constants",
                     lambda: C.sympy_tangent_constants(frame, e.constants.table))]

        def carnot_of(key, want):
            return Op(label + "/carnot_" + key,
                      lambda: check_carnot(frame, st[key].change, eps=st["eps"]),
                      lambda r: _expect(r.ok is want, "%s chart Carnot verdict %s"
                                        % (key, r.ok)),
                      key=C.report_key)

        def chart_op(key, build):
            def run():
                st[key] = build(frame)
                return st[key]

            def check(c):
                if C.chart_eval(c.change, a) != zero:
                    return key + " chart(a) != 0"
                for x in samples:  # chart o (forward map) = id on xi
                    xi = tuple(v / 4 for v in x)
                    if C.chart_eval(c.change, C.map_eval(c.forward.components, xi)) != xi:
                        return key + " chart o forward != id"
                return None
            return Op(label + "/" + key, run, check, key=lambda c: C.change_key(c.change))

        def run_io():
            text = io.dumps(io.change_document(st["eps"].change))
            return io.load_document(text)

        ops = [Op(label + "/eps", run_eps, check_eps, deferred=deferred_eps,
                  key=lambda e: C.change_key(e.change))]
        if plan != "eps":
            ops.append(carnot_of("eps", True))
        if plan == "full":
            ops += [chart_op("first", canonical_first_kind), carnot_of("first", True),
                    chart_op("second", canonical_second_kind), carnot_of("second", False)]
        ops.append(Op(label + "/io", run_io,
                      lambda kv: _expect(kv[0] == "change" and C.change_key(kv[1])
                                         == C.change_key(st["eps"].change),
                                         "io round trip changed the chart"),
                      key=lambda kv: C.change_key(kv[1])))
        return ops


# ---------------------------------------------------------------------------
# verify_truncated: verdicts on chart variants that are not exactly invertible.
# ---------------------------------------------------------------------------


class VerifyTruncated(Workload):
    name = "verify_truncated"
    FRAMES = ("heisenberg_5", "engel_4", "step3_filiform_5", "perturbed_engel_4",
              "free2_3")
    ROUNDS = 2

    def generate(self):
        rng = random.Random("verify_truncated/%s" % self.seed)
        shape = random.Random("verify_truncated/shape")
        items = []
        for name in self.FRAMES:
            if name.startswith("free2"):
                frame = group_frame(I.algebra(name))
            else:
                frame = catalog(name).frame
            frame = frame.at_base(I.rand_point(rng, frame.n), check=True)
            eps = epsilon(frame)
            for r in range(self.ROUNDS):
                for label, change, carnot, priv in I.chart_variants(eps.change, shape, rng):
                    items.append(("%s/%s%d" % (name, label, r), frame, eps, change,
                                  carnot, priv))
        return items

    def ops(self, items, pass_index):
        out = []
        for label, frame, eps, change, carnot, priv in items:
            out.append(Op(label + "/carnot",
                          lambda f=frame, c=change, e=eps: check_carnot(f, c, eps=e),
                          lambda r, want=carnot: _expect(
                              r.ok is want and r.details["truncated"],
                              "Carnot verdict %s, truncated %s"
                              % (r.ok, r.details["truncated"])),
                          key=C.report_key))
            out.append(Op(label + "/privileged",
                          lambda f=frame, c=change: check_privileged(f, c),
                          lambda r, want=priv: _expect(
                              r.ok is want and r.details["truncated"],
                              "privileged verdict %s, truncated %s"
                              % (r.ok, r.details["truncated"])),
                          key=C.report_key))
        return out


# ---------------------------------------------------------------------------
# group_law: exact products and group frames on fresh rescaled algebras.
# ---------------------------------------------------------------------------


class GroupLaw(Workload):
    name = "group_law"
    fixed_inputs = False
    # free2_4 (n = 10) rather than free2_5: a fresh free2_5 copy costs about
    # 4.5 s in validate_algebra and the symbolic law, which would leave room
    # for only three passes in a run and make the per-operation medians
    # follow machine bursts.  n = 15 runs in ``charts``.
    ALGEBRAS = ("free2_4", "filiform_5", "filiform_6", "filiform_7", "filiform_8")

    def __init__(self, seed):
        super().__init__(seed)
        self.used = set()

    def generate(self):
        """Per algebra: the point triple, s, t and a sample point.  Every
        pass reuses them; only the rescaling is drawn afresh per pass."""
        rng = random.Random("group_law/%s" % self.seed)
        out = {}
        for name in self.ALGEBRAS:
            base = I.algebra(name)
            n = base.n
            sample = I.rand_point(rng, n)
            points = [I.rand_point(rng, n) for _ in range(3)] + [I.rand_frac(rng),
                                                                 I.rand_frac(rng)]
            out[name] = (base, sample, points)
        return out

    def warm(self, inputs):
        for base, _, _ in inputs.values():
            dynkin_product((0,) * base.n, (0,) * base.n, base)

    def ops(self, inputs, pass_index):
        out = []
        for name in self.ALGEBRAS:
            base, sample, points = inputs[name]
            rng = _pass_rng(self.seed, "group_law", pass_index, name)
            while True:  # a rescaling this run has not used: a memo miss
                scales = tuple(c * rng.choice((-1, 1)) for c in I.random_scales(base.n, rng))
                sc = I.rescaled(base, scales)
                if sc.key() not in self.used:
                    self.used.add(sc.key())
                    break
            out.append(Op(name + "/group_frame", lambda sc=sc: group_frame(sc),
                          self.frame_check(sc, sample)))
            out.extend(self.triple_ops(name, base, sc, scales, *points))
        return out

    @staticmethod
    def frame_check(sc, sample):
        """Left-invariant frame: X_j(0) = e_j, the brackets reproduce the
        constants at a sample point, and the closed form up to step 4."""
        n = sc.n

        def check(frame):
            fields = frame.fields
            for j in range(n):
                ej = tuple(Fraction(1 if i == j else 0) for i in range(n))
                if C.field_at(fields[j], (Fraction(0),) * n) != ej:
                    return "X_%d(0) != e_%d" % (j + 1, j + 1)
                if sc.step <= 4 and C.field_at(fields[j], sample) != \
                        C.left_invariant_closed_form(sc.table, sample, j, n):
                    return "X_%d differs from the closed form" % (j + 1)
            values = [C.field_at(f, sample) for f in fields]
            for i in range(n):
                for j in range(i + 1, n):
                    want = [Fraction(0)] * n
                    for k in range(n):
                        c = sc.table.get((i, j, k))
                        if c:
                            want = [w + c * v for w, v in zip(want, values[k])]
                    if list(C.field_bracket_at(fields[i], fields[j], sample)) != want:
                        return "[X_%d, X_%d] != sum L X_k" % (i + 1, j + 1)
            return None
        return check

    @staticmethod
    def triple_ops(label, base, sc, scales, x, y, z, s, t):
        """Products of one point triple; each checks a group-law property."""
        n = sc.n
        ws = sc.weights.weights
        st = {}

        def prod(key, left, right, constants=sc):
            def run():
                st[key] = dynkin_product(left(), right(), constants)
                return st[key]
            return run

        def check_xy(p):
            if not C.weight2_rule(sc.table, ws, x, y, p):
                return "weight-2 part is not x + y + 1/2 [x, y]"
            if sc.step <= 4 and p != C.bch_closed_form(sc.table, x, y, n):
                return "product differs from closed-form BCH"
            return None

        def dilate(v):
            return tuple(c * v_ for c, v_ in zip(scales, v))

        return [
            Op(label + "/xy", prod("xy", lambda: x, lambda: y), check_xy),
            Op(label + "/xy_z", prod("xy_z", lambda: st["xy"], lambda: z),
               lambda p: None),
            Op(label + "/yz", prod("yz", lambda: y, lambda: z), lambda p: None),
            Op(label + "/x_yz", prod("x_yz", lambda: x, lambda: st["yz"]),
               lambda p: _expect(p == st["xy_z"], "product is not associative")),
            Op(label + "/sx_tx", prod("sx_tx", lambda: tuple(s * v for v in x),
                                      lambda: tuple(t * v for v in x)),
               lambda p: _expect(p == tuple((s + t) * v for v in x),
                                 "(sx).(tx) != (s+t)x")),
            Op(label + "/rescale", prod("hom", lambda: dilate(x), lambda: dilate(y), base),
               lambda p: _expect(p == dilate(st["xy"]),
                                 "rescaling is not a homomorphism")),
        ]


# ---------------------------------------------------------------------------
# numeric_rk4: RK4 flows against exact flows, numeric chart classification.
# ---------------------------------------------------------------------------


class NumericRK4(Workload):
    name = "numeric_rk4"
    FLOW_FRAMES = ("engel_4", "heisenberg_5", "step3_filiform_5", "perturbed_engel_4",
                   "perturbed_heisenberg_3")
    FLOWS_PER_FRAME = 6
    FLOW_TOL = 1e-9
    # First-kind charts on these frames are Carnot (the exact check proves
    # it), but the sampled residual sits at float round-off and the slope
    # fit fails; the inputs are fixed so the fault shows on every run.
    ROUNDOFF_FRAMES = ("heisenberg_3", "perturbed_engel_4")

    def generate(self):
        rng = random.Random("numeric_rk4/%s" % self.seed)
        flows = []
        certificates = []
        for name in self.FLOW_FRAMES:
            frame = catalog(name).frame
            n = frame.n
            flow = exact_flow(frame.fields, frame.weights)
            certificates.append((name, frame.fields, flow.components, n))
            for _ in range(self.FLOWS_PER_FRAME):
                y = I.rand_point(rng, n, 2, 4)
                xi = I.rand_point(rng, n, 2, 4)
                field = combined_field(frame.fields, xi)
                want = C.map_eval(flow.components, y + xi + (Fraction(1),))
                flows.append((name, field, y, tuple(float(v) for v in want)))
        # (frame, chart kind, directions, direction seed, Carnot, known fault)
        reports = [(name, "first", 1, 5, True, True) for name in self.ROUNDOFF_FRAMES]
        reports.append(("perturbed_heisenberg_3", "first", 1, rng.getrandbits(32),
                        True, False))
        for name in ("heisenberg_3", "engel_4", "step3_filiform_5"):
            reports.append((name, "second", 2, rng.getrandbits(32), False, False))
        frame = catalog("heisenberg_3").frame
        chart_frame = frame.at_base(I.rand_point(rng, 3, 1, 4))
        chart = canonical_first_kind(chart_frame)
        probes = [tuple(v / 8 for v in I.rand_point(rng, 3, 1, 2)) for _ in range(3)]
        return {"flows": flows, "certificates": certificates, "reports": reports,
                "chart": (chart_frame, chart.change, probes, rng.getrandbits(32))}

    def warm(self, inputs):
        name, field, y, _ = inputs["flows"][0]
        numeric_flow(field, y, 0.01)

    def ops(self, inputs, pass_index):
        out = []
        for i, (name, field, y, want) in enumerate(inputs["flows"]):
            out.append(Op("%s/flow%d" % (name, i),
                          lambda f=field, y=y: numeric_flow(f, y, 1.0),
                          lambda got, w=want: _expect(
                              max(abs(a - b) for a, b in zip(got, w)) <= self.FLOW_TOL,
                              "RK4 endpoint off by more than %g" % self.FLOW_TOL),
                          key=tuple))
        if pass_index == 0:
            out[0].deferred = lambda _: [
                ("%s flow certificate" % name,
                 lambda f=fields, c=comps, n=n: C.sympy_flow_certificate(f, c, n))
                for name, fields, comps, n in inputs["certificates"]]
        for name, kind, dirs, seed, carnot, known_fault in inputs["reports"]:
            # the known fault: a Carnot chart classified as not Carnot
            fault = (lambda r: not r.passed) if known_fault else None
            out.append(Op("%s/numeric_%s" % (name, kind),
                          lambda f=catalog(name).frame, k=kind, d=dirs, s=seed:
                          numeric_chart_report(f, k, n_directions=d,
                                               rng=random.Random(s)),
                          lambda r, want=carnot: _expect(
                              r.passed is want, "classified Carnot=%s" % r.passed),
                          fault=fault, key=lambda r: (r.passed, tuple(r.slopes()))))
        frame, change, probes, seed = inputs["chart"]

        def check_chart(chart):
            for p in probes:
                x = tuple(a + v for a, v in zip(frame.base_point, p))
                got = chart.evaluate(x)
                want = C.chart_eval(change, x)
                if max(abs(g - float(w)) for g, w in zip(got, want)) > 1e-6:
                    return "fitted chart differs from the exact chart"
            return None
        out.append(Op("heisenberg_3/numeric_chart",
                      lambda: NumericChart.build(frame, "first", samples=20, step=1e-2,
                                                 rng=random.Random(seed)),
                      check_chart, key=lambda ch: ch.coeffs.tobytes()))
        return out


WORKLOADS = {w.name: w for w in (Charts, VerifyTruncated, GroupLaw, NumericRK4)}
