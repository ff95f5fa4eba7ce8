"""Acceptance criteria, runnable from the CLI and from the test suite.

Each criterion is a function rng -> (ok, detail).  ``run_all`` seeds one
deterministic generator per criterion, so a given seed always replays the
same checks.
"""

from fractions import Fraction
import random

from .coords import (CoordinateChange, canonical_first_kind,
                     canonical_second_kind, combined_field, epsilon,
                     exact_flow, exp_map, linearize, log_map, numeric_flow,
                     psi_map, transform_frame)
from .graded import dilate, iter_weighted_exponents, weighted_degree
from .groups import (catalog, dynkin_product, group_frame, group_inverse,
                     left_invariant_fields)
from .poly import PolyMap, RationalPoly, TriangularMap
from .vfields import (Frame, PolyVectorField, function_order, model_field,
                      rescale)
from .verify import (check_carnot, check_privileged,
                     generate_adversarial_variants, generate_carnot_variants,
                     generate_privileged_variants, group_translation_identity,
                     numeric_chart_report, osculation_report)

_ALGEBRAS = ("abelian_4", "heisenberg_3", "heisenberg_5", "engel_4",
             "step3_filiform_5")
_FRAMES = ("abelian_3", "heisenberg_3", "heisenberg_5", "engel_4",
           "step3_filiform_5", "perturbed_heisenberg_3", "perturbed_engel_4")

_BASE_A = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(2), Fraction(-1))
_BASE_B = (Fraction(-1), Fraction(1, 4), Fraction(2, 3), Fraction(-1, 7), Fraction(1, 2))


def _rand_frac(rng, num=9, den=9):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _rand_point(rng, n):
    return tuple(_rand_frac(rng) for _ in range(n))


def _origin(n):
    return (Fraction(0),) * n


def _dilation_map(t, weights):
    n = len(weights)
    return PolyMap([RationalPoly.variable(n, k) * Fraction(t) ** weights[k]
                    for k in range(n)])


def crit01_group_axioms(rng):
    """Associativity, identity, and inverses of the polynomial group laws."""
    triples = 0
    for name in _ALGEBRAS:
        sc = catalog(name).constants
        zero = _origin(sc.n)
        for _ in range(100):
            x, y, z = (_rand_point(rng, sc.n) for _ in range(3))
            left = dynkin_product(dynkin_product(x, y, sc), z, sc)
            right = dynkin_product(x, dynkin_product(y, z, sc), sc)
            if left != right:
                return False, "associativity fails on %s at %s" % (name, (x, y, z))
            if dynkin_product(x, zero, sc) != x or dynkin_product(zero, x, sc) != x:
                return False, "identity fails on %s" % name
            if dynkin_product(x, group_inverse(x), sc) != zero:
                return False, "inverse fails on %s" % name
            triples += 1
    return True, "%d exact triples across %d algebras" % (triples, len(_ALGEBRAS))


def crit02_dilation_automorphism(rng):
    """delta_t(x . y) = delta_t x . delta_t y for rational t."""
    t_pool = [Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(3),
              Fraction(-2, 3), Fraction(5, 7)]
    checks = 0
    for name in _ALGEBRAS:
        sc = catalog(name).constants
        ws = sc.weights.weights
        for _ in range(20):
            x, y = _rand_point(rng, sc.n), _rand_point(rng, sc.n)
            t = rng.choice(t_pool)
            lhs = dilate(dynkin_product(x, y, sc), t, ws)
            rhs = dynkin_product(dilate(x, t, ws), dilate(y, t, ws), sc)
            if lhs != rhs:
                return False, "dilation by %s is not an automorphism of %s" % (t, name)
            checks += 1
    return True, "%d exact dilation checks" % checks


def crit03_exp_identity(rng):
    """The exponential of each group's canonical basis is the identity map."""
    for name in _ALGEBRAS:
        sc = catalog(name).constants
        exp = exp_map(left_invariant_fields(sc), sc.weights)
        if exp != TriangularMap.identity_map(sc.weights):
            return False, "exp of the canonical basis of %s is %r" % (name, exp)
    return True, "exp = id on %d group frames" % len(_ALGEBRAS)


def crit04_bracket_tables(rng):
    """Frame bracket tables reproduce the defining structure constants."""
    for name in _ALGEBRAS:
        sc = catalog(name).constants
        frame = group_frame(sc)
        points = [_origin(sc.n), _rand_point(rng, sc.n), _rand_point(rng, sc.n)]
        for p in points:
            table = frame.bracket_table(p)
            for i in range(sc.n):
                for j in range(i + 1, sc.n):
                    for k in range(sc.n):
                        if table.get((i, j, k), Fraction(0)) != sc.get(i, j, k):
                            return False, ("[X%d, X%d] component %d of %s differs "
                                           "at %s" % (i + 1, j + 1, k + 1, name, p))
    return True, "tables match at 3 points per algebra"


def crit05_function_orders(rng):
    """After linearize + psi, coordinate x_k has derivation order w_k."""
    count = 0
    for name in _FRAMES:
        frame = catalog(name).frame
        n = frame.n
        ws = frame.weights.weights
        for base in (_origin(n), _BASE_A[:n]):
            fr = frame.at_base(base)
            affine, adapted = linearize(fr)
            psi = psi_map(adapted)
            change = CoordinateChange(affine.matrix, affine.offset,
                                      fr.weights, psi)
            pushed = transform_frame(fr, change)
            for k in range(n):
                got = function_order(RationalPoly.variable(n, k), pushed,
                                     n_max=ws[k] + 1)
                if got != ws[k]:
                    return False, ("order of x%d on %s at base %s is %s, "
                                   "want %d" % (k + 1, name, base, got, ws[k]))
                count += 1
    return True, "%d coordinate orders verified" % count


def crit06_epsilon_carnot(rng):
    """epsilon passes the (dual-route) Carnot check on the whole catalog."""
    checks = 0
    for name in _FRAMES:
        frame = catalog(name).frame
        n = frame.n
        for base in (_origin(n), _BASE_A[:n], _BASE_B[:n]):
            fr = frame.at_base(base)
            eps = epsilon(fr)
            report = check_carnot(fr, eps.change, eps=eps)
            if not report.ok:
                return False, ("epsilon chart of %s at %s fails: %s"
                               % (name, base, report.witnesses[:2]))
            checks += 1
    return True, "%d epsilon charts verified at 3 base points each" % checks


def crit07_group_translation(rng):
    """On group frames the chart at a is exactly x -> (-a) . x."""
    pairs = 0
    for name in ("heisenberg_3", "engel_4"):
        sc = catalog(name).constants
        for _ in range(5):
            a = _rand_point(rng, sc.n)
            xs = [_rand_point(rng, sc.n) for _ in range(4)]
            bad = group_translation_identity(sc, a, xs)
            if bad:
                x, got, want = bad[0]
                return False, ("%s at a=%s, x=%s: chart gives %s, translation "
                               "gives %s" % (name, a, x, got, want))
            pairs += len(xs)
    sc = catalog("heisenberg_3").constants
    a = (Fraction(1), Fraction(2), Fraction(3))
    x = (Fraction(4), Fraction(6), Fraction(10))
    got = epsilon(group_frame(sc, a)).apply(x)
    if got != (Fraction(3), Fraction(4), Fraction(8)):
        return False, "frozen instance: chart at (1,2,3) sends (4,6,10) to %s" % (got,)
    return True, "%d translation identities plus the frozen instance" % pairs


def _random_step2_frame(rng):
    n1 = rng.randint(2, 3)
    n2 = rng.randint(1, 2)
    n = n1 + n2
    ws = (1,) * n1 + (2,) * n2
    zero = RationalPoly.zero(n)
    one = RationalPoly.const(n, 1)
    fields = []
    for j in range(n1):
        coeffs = [zero] * n
        coeffs = list(coeffs)
        coeffs[j] = one
        for k in range(n1, n):
            p = RationalPoly.zero(n)
            for i in range(n1):
                if rng.random() < 0.7:
                    p = p + RationalPoly.variable(n, i) * _rand_frac(rng, 4, 4)
            coeffs[k] = p
        fields.append(PolyVectorField(coeffs))
    for k in range(n1, n):
        coeffs = [zero] * n
        coeffs = list(coeffs)
        coeffs[k] = one
        fields.append(PolyVectorField(coeffs))
    return Frame(fields, ws, (0,) * n)


def crit08_log_quadratic(rng):
    """On step-2 frames the logarithm's quadratic terms are
    -(d_i b_jk(0) + d_j b_ik(0))/2 on x_i x_j (and -d_i b_ik(0)/2 on x_i^2)."""
    frames = 0
    for _ in range(20):
        frame = _random_step2_frame(rng)
        n = frame.n
        ws = frame.weights.weights
        n1 = sum(1 for w in ws if w == 1)
        models = [model_field(x, j, ws) for j, x in enumerate(frame.fields)]
        phi = log_map(exp_map(models, frame.weights))

        def d_b(i, j, k):
            e = tuple(1 if l == i else 0 for l in range(n))
            return frame.fields[j].coefficients[k].terms.get(e, Fraction(0))

        for k in range(n1, n):
            comp = phi.components[k]
            for i in range(n1):
                for j in range(i, n1):
                    if i == j:
                        e = tuple(2 if l == i else 0 for l in range(n))
                        want = -d_b(i, i, k) / 2
                    else:
                        e = tuple(1 if l in (i, j) else 0 for l in range(n))
                        want = -(d_b(i, j, k) + d_b(j, i, k)) / 2
                    if comp.terms.get(e, Fraction(0)) != want:
                        return False, ("quadratic term x%d x%d of phi_%d is %s, "
                                       "closed form gives %s"
                                       % (i + 1, j + 1, k + 1,
                                          comp.terms.get(e, Fraction(0)), want))
        frames += 1
    # frozen instance: X1 = d1 + x2 d3 has phi = (x1, x2, x3 - x1 x2 / 2)
    n = 3
    x2 = RationalPoly.variable(n, 1)
    one = RationalPoly.const(n, 1)
    zero = RationalPoly.zero(n)
    fields = [PolyVectorField([one, zero, x2]),
              PolyVectorField([zero, one, zero]),
              PolyVectorField([zero, zero, one])]
    phi = log_map(exp_map(fields, (1, 1, 2)))
    want = PolyMap([RationalPoly.variable(n, 0), RationalPoly.variable(n, 1),
                    RationalPoly.variable(n, 2)
                    - RationalPoly.monomial(n, (1, 1, 0), Fraction(1, 2))])
    if PolyMap(phi.components) != want:
        return False, "frozen logarithm instance differs: %r" % phi
    return True, "%d random step-2 frames plus the frozen instance" % frames


def crit09_rescaling_equivariance(rng):
    """Rescaling the frame rescales its chart:
    chart of (t^{w_j} rescale_t X_j) at delta_{1/t} a equals
    delta_{1/t} . chart_a . delta_t, exactly as polynomial maps."""
    cases = 0
    for name in ("perturbed_heisenberg_3", "perturbed_engel_4"):
        frame = catalog(name).frame
        n = frame.n
        ws = frame.weights.weights
        a = _BASE_A[:n]
        fr = frame.at_base(a)
        eps1 = epsilon(fr)
        for t in (Fraction(1, 2), Fraction(1, 3), Fraction(2)):
            hat_fields = [rescale(x, t, ws) * t ** ws[j]
                          for j, x in enumerate(frame.fields)]
            y = dilate(a, 1 / t, ws)
            fr2 = Frame(hat_fields, frame.weights, y, check=False)
            eps2 = epsilon(fr2)
            lhs = eps2.change.forward_polymap()
            rhs = _dilation_map(1 / t, ws).compose(
                eps1.change.forward_polymap()).compose(_dilation_map(t, ws))
            if lhs != rhs:
                return False, ("equivariance fails on %s at t=%s" % (name, t))
            cases += 1
    return True, "%d exact polymap identities" % cases


def crit10_first_kind(rng):
    """First-kind canonical coordinates are Carnot coordinates."""
    frame = catalog("perturbed_heisenberg_3").frame
    n = frame.n
    chart = canonical_first_kind(frame)
    xi1 = RationalPoly.variable(n, 0)
    want_forward = PolyMap([xi1, RationalPoly.variable(n, 1),
                            RationalPoly.variable(n, 2) + xi1 ** 3 * Fraction(1, 3)])
    if chart.forward != want_forward:
        return False, "frozen forward map differs: %r" % chart.forward
    for base in (_origin(n), (Fraction(1, 2), Fraction(1, 3), Fraction(-1))):
        fr = frame.at_base(base)
        report = check_carnot(fr, canonical_first_kind(fr).change)
        if not report.ok:
            return False, ("first-kind chart at %s fails the Carnot check: %s"
                           % (base, report.witnesses[:2]))
    directions = [(Fraction(1), Fraction(1), Fraction(1)),
                  (Fraction(1), Fraction(-1), Fraction(1, 2)),
                  (Fraction(-1), Fraction(1, 3), Fraction(-1, 4))]
    scaling = numeric_chart_report(frame, "first", m=1, directions=directions)
    if not scaling.passed:
        return False, "numeric residual slopes %s" % scaling.slopes()
    slopes = [e.slope for e in scaling.entries if e.slope is not None]
    return True, ("exact at 2 base points; numeric slopes %s"
                  % [round(s, 3) for s in slopes])


def crit11_second_kind(rng):
    """Second-kind canonical coordinates are privileged but never Carnot
    past step one, with witnesses of weighted degree exactly w_k."""
    h3 = catalog("heisenberg_3").frame
    chart = canonical_second_kind(h3)
    n = 3
    want_forward = PolyMap([RationalPoly.variable(n, 0),
                            RationalPoly.variable(n, 1),
                            RationalPoly.variable(n, 2)
                            - RationalPoly.monomial(n, (1, 1, 0), Fraction(1, 2))])
    if chart.forward != want_forward:
        return False, "frozen h3 forward map differs: %r" % chart.forward
    for name in ("heisenberg_3", "engel_4"):
        frame = catalog(name).frame
        ws = frame.weights.weights
        ch = canonical_second_kind(frame)
        if not check_privileged(frame, ch.change).ok:
            return False, "second-kind chart on %s is not privileged" % name
        report = check_carnot(frame, ch.change)
        if report.ok:
            return False, "second-kind chart on %s passed the Carnot check" % name
        violations = report.details["residual_violations"]
        if not violations:
            return False, "no residual witnesses on %s" % name
        seen = {}
        for k, exp, coef in violations:
            seen.setdefault(k, (exp, coef))
        for k, (exp, coef) in seen.items():
            if weighted_degree(exp, ws) != ws[k]:
                return False, ("witness %s in component %d has weighted degree "
                               "%d != w_k = %d on %s"
                               % (exp, k + 1, weighted_degree(exp, ws), ws[k], name))
        if name == "heisenberg_3":
            if "x1*x2/2 in component 3" not in report.witnesses:
                return False, ("expected witness 'x1*x2/2 in component 3', "
                               "got %s" % report.witnesses)
    return True, "h3 and engel_4: privileged yes, Carnot no, witnesses at w_k"


def crit12_osculation(rng):
    """Group frames osculate exactly; perturbed frames with slope >= 0.9."""
    details = []
    for name in ("heisenberg_3", "engel_4"):
        frame = catalog(name).frame
        report = osculation_report(frame, n_directions=8, rng=rng)
        for entry in report.entries:
            if not (entry.r_track.exact and entry.rt_track.exact):
                return False, ("%s: group-frame residual is not identically "
                               "zero along %s" % (name, entry.direction))
        details.append("%s exact" % name)
    for name in ("perturbed_heisenberg_3", "perturbed_engel_4"):
        frame = catalog(name).frame
        report = osculation_report(frame, n_directions=8, rng=rng)
        if not report.passed:
            bad = [e for e in report.entries if not e.passed][0]
            return False, ("%s: osculation fails along %s (slopes %s, %s)"
                           % (name, bad.direction, bad.r_track.slope,
                              bad.rt_track.slope))
        slopes = [t.slope for e in report.entries
                  for t in (e.r_track, e.rt_track) if t.slope is not None]
        details.append("%s slopes >= %.3f" % (name, min(slopes) if slopes else 1.0))
    return True, "; ".join(details)


def crit13_variants(rng):
    """Random chart variants keep or flip the verdicts as constructed."""
    counts = []
    for name, base, n_priv, n_carn, n_adv in (
            ("heisenberg_3", (Fraction(1, 3), Fraction(-1, 2), Fraction(2)), 50, 50, 10),
            ("engel_4", None, 10, 10, 5)):
        frame = catalog(name).frame
        if base is not None:
            frame = frame.at_base(base)
        eps = epsilon(frame)
        for change in generate_privileged_variants(eps.change, n_priv, rng):
            if not check_privileged(frame, change).ok:
                return False, "a privileged variant fails on %s" % name
        for change in generate_carnot_variants(eps.change, n_carn, rng):
            if not check_carnot(frame, change, eps=eps).ok:
                return False, "a Carnot variant fails on %s" % name
        for change in generate_adversarial_variants(eps.change, n_adv, rng):
            if check_carnot(frame, change, eps=eps).ok:
                return False, "an adversarial variant passed the Carnot check on %s" % name
            if not check_privileged(frame, change).ok:
                return False, "an adversarial variant lost privilege on %s" % name
        counts.append("%s %d+%d+%d" % (name, n_priv, n_carn, n_adv))
    return True, "; ".join(counts)


_FLOW_WEIGHTS = ((1, 1, 2), (1, 1, 1, 2), (1, 1, 2, 3))


def _random_triangular_fields(ws, rng):
    n = len(ws)
    fields = []
    for j in range(n):
        coeffs = [RationalPoly.zero(n) for _ in range(n)]
        coeffs[j] = RationalPoly.const(n, 1)
        for k in range(n):
            if ws[k] <= ws[j]:
                continue
            p = RationalPoly.zero(n)
            for exp in iter_weighted_exponents(ws, ws[k] - 1, "le"):
                if rng.random() < 0.3:
                    p = p + RationalPoly.monomial(n, exp, _rand_frac(rng, 3, 3))
            coeffs[k] = p
        fields.append(PolyVectorField(coeffs))
    return fields


def crit14_rk4(rng):
    """RK4 endpoints match exact flows to 1e-9 on random triangular systems."""
    worst = 0.0
    for _ in range(50):
        ws = rng.choice(_FLOW_WEIGHTS)
        fields = _random_triangular_fields(ws, rng)
        n = len(ws)
        y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        xi = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        exact = exact_flow(fields, ws).endpoint(y, xi, 1)
        numeric = numeric_flow(combined_field(fields, xi), y, 1.0)
        err = max(abs(float(e) - v) for e, v in zip(exact, numeric))
        worst = max(worst, err)
        if err > 1e-9:
            return False, ("endpoint error %.3g > 1e-9 on weights %s" % (err, ws))
    return True, "50 flows, worst endpoint error %.3g" % worst


CRITERIA = (
    (1, "group law axioms hold exactly", crit01_group_axioms),
    (2, "dilations are group automorphisms", crit02_dilation_automorphism),
    (3, "exponential of each canonical basis is the identity", crit03_exp_identity),
    (4, "bracket tables reproduce the structure constants", crit04_bracket_tables),
    (5, "coordinate functions have order w_k after linearize + psi", crit05_function_orders),
    (6, "epsilon charts pass the Carnot check across the catalog", crit06_epsilon_carnot),
    (7, "group-frame charts are left translations", crit07_group_translation),
    (8, "logarithm quadratic terms match the step-2 closed form", crit08_log_quadratic),
    (9, "charts are equivariant under weighted rescaling", crit09_rescaling_equivariance),
    (10, "first-kind canonical coordinates are Carnot", crit10_first_kind),
    (11, "second-kind canonical coordinates are privileged, not Carnot", crit11_second_kind),
    (12, "tangent groups osculate at the expected rate", crit12_osculation),
    (13, "chart variants keep or flip verdicts as constructed", crit13_variants),
    (14, "RK4 endpoints match exact flows to 1e-9", crit14_rk4),
)


class CriterionResult:
    def __init__(self, number, title, ok, detail):
        self.number = number
        self.title = title
        self.ok = ok
        self.detail = detail

    def line(self):
        verdict = "PASS" if self.ok else "FAIL"
        return "criterion %02d %s - %s (%s)" % (self.number, verdict,
                                                self.title, self.detail)


class SelfTestReport:
    def __init__(self, results):
        self.results = results

    @property
    def passed(self):
        return all(r.ok for r in self.results)

    def lines(self):
        return [r.line() for r in self.results]


def criterion_rng(seed, number):
    return random.Random("carnotkit:%d:criterion:%d" % (seed, number))


def run_criterion(number, seed):
    for num, title, fn in CRITERIA:
        if num == number:
            try:
                ok, detail = fn(criterion_rng(seed, num))
            except Exception as exc:
                ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
            return CriterionResult(num, title, ok, detail)
    raise KeyError("no criterion %d" % number)


def run_all(seed, only=None):
    results = []
    for num, title, fn in CRITERIA:
        if only is not None and num not in only:
            continue
        results.append(run_criterion(num, seed))
    return SelfTestReport(results)
