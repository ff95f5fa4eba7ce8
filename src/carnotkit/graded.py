"""Weights, anisotropic dilations, pseudo-norms and O_w residual classes.

Most helpers work on plain exponent tuples and weight tuples, so the same
code serves the base space (weights ``w``) and the doubled product space
(weights ``(w, w)``).  The product weights are *not* nondecreasing, hence
they are kept as raw tuples and never wrapped in a :class:`WeightVector`.
"""

from fractions import Fraction
import math


class WeightVector:
    """Nondecreasing positive integer weights ``(w_1, ..., w_n)``.

    ``r = w_n`` is the step.  Callers must pre-permute coordinates so the
    weights come out nondecreasing; this is enforced at construction.
    """

    def __init__(self, weights):
        if isinstance(weights, WeightVector):
            weights = weights.weights
        ws = tuple(int(w) for w in weights)
        if not ws:
            raise ValueError("weight vector must be nonempty")
        if any(w < 1 for w in ws):
            raise ValueError("weights must be positive integers")
        if any(ws[i] > ws[i + 1] for i in range(len(ws) - 1)):
            raise ValueError("weights must be nondecreasing; permute coordinates first")
        self.weights = ws
        self.n = len(ws)
        self.r = ws[-1]

    def __len__(self):
        return self.n

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def __eq__(self, other):
        if isinstance(other, WeightVector):
            return self.weights == other.weights
        if isinstance(other, tuple):
            return self.weights == other
        return NotImplemented

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return "WeightVector(%r)" % (self.weights,)


def as_weights(w):
    """Raw weight tuple from a WeightVector or any iterable of ints."""
    if isinstance(w, WeightVector):
        return w.weights
    return tuple(int(x) for x in w)


def weighted_degree(exp, weights):
    """<alpha> = sum_j w_j * alpha_j."""
    return sum(e * w for e, w in zip(exp, weights))


def multi_factorial(exp):
    """alpha! = prod_j alpha_j!."""
    out = 1
    for e in exp:
        out *= math.factorial(e)
    return out


def iter_weighted_exponents(weights, bound, mode="eq"):
    """Yield exponent tuples alpha with <alpha> == bound ('eq') or <= bound ('le').

    Deterministic order (last variable varies fastest in the recursion).
    """
    ws = as_weights(weights)
    if mode not in ("eq", "le"):
        raise ValueError("mode must be 'eq' or 'le'")
    n = len(ws)

    def rec(j, remaining):
        if j == n:
            if remaining == 0 or mode == "le":
                yield ()
            return
        w = ws[j]
        for e in range(remaining // w + 1):
            for rest in rec(j + 1, remaining - e * w):
                yield (e,) + rest

    if bound < 0:
        return
    yield from rec(0, bound)


def dilate(x, t, weights):
    """Anisotropic dilation t . x = (t^{w_1} x_1, ..., t^{w_n} x_n).

    Exact when x and t are rational; t may also be a float for the numeric
    harnesses.
    """
    ws = as_weights(weights)
    if len(x) != len(ws):
        raise ValueError("point has %d coordinates, weights have %d" % (len(x), len(ws)))
    return tuple(xj * t ** w for xj, w in zip(x, ws))


def pseudo_norm(x, weights):
    """sum_j |x_j|^{1/w_j}; satisfies ||t . x|| = |t| ||x|| under dilations."""
    ws = as_weights(weights)
    if len(x) != len(ws):
        raise ValueError("point/weights dimension mismatch")
    total = 0.0
    for xj, w in zip(x, ws):
        a = abs(float(xj))
        total += a if w == 1 else a ** (1.0 / w)
    return total


# ---------------------------------------------------------------------------
# O_w residual classes.
#
# A map R into R^n (with output weights w) is O_w(||x||^{w+m}) when every
# monomial x^alpha in component k has <alpha> >= w_k + m.  For polynomial
# residuals this is an exact decision; for sampled maps there is a slope
# test on a dyadic grid.
# ---------------------------------------------------------------------------


def ow_violations(residual, m, weights, in_weights=None):
    """Monomials breaking the O_w(||x||^{w_k+m}) bound.

    ``residual`` is a polynomial map (anything with a ``components`` list of
    polynomials) or a plain list of polynomials; ``weights`` grade the output
    components and ``in_weights`` the input variables (defaults to
    ``weights``; pass the doubled tuple for product-space residuals).

    Returns a list of (component_index, exponent, coefficient), smallest
    weighted degree first.
    """
    comps = getattr(residual, "components", residual)
    ws_out = as_weights(weights)
    ws_in = ws_out if in_weights is None else as_weights(in_weights)
    bad = []
    for k, comp in enumerate(comps):
        need = ws_out[k] + m
        for exp, coef in comp.terms.items():
            d = weighted_degree(exp, ws_in)
            if d < need:
                bad.append((k, exp, coef))
    bad.sort(key=lambda item: (weighted_degree(item[1], ws_in), item[0], item[1]))
    return bad


def ow_class_poly(residual, m, weights, in_weights=None):
    """Exact O_w membership test for a polynomial residual map."""
    return not ow_violations(residual, m, weights, in_weights)


DEFAULT_T_GRID = tuple(Fraction(1, 2 ** k) for k in range(1, 11))

# A sampled residual decays like t^m when its log-log slope reaches m - SLOPE_SLACK.
SLOPE_SLACK = 0.1

# Rescaled samples below this size count as exact zeros (guards float
# underflow; exact-rational samples compare equal to zero anyway).
_ZERO_CUTOFF = 1e-280


def fit_loglog_slope(ts, values):
    """Least-squares slope of log(value) against log(t)."""
    lx = [math.log(float(t)) for t in ts]
    ly = [math.log(v) for v in values]
    k = len(lx)
    mx = sum(lx) / k
    my = sum(ly) / k
    sxx = sum((a - mx) ** 2 for a in lx)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return sxy / sxx


class DecayTrack:
    """Rescaled residual sizes at scales ``ts`` along one direction (named
    by ``label``) and whether they decay like t^m: an ``exact`` (identically
    zero) track passes when it has a sample, any other when the log-log
    slope of its nonzero samples reaches ``m - SLOPE_SLACK``."""

    def __init__(self, label, m, ts, values, exact, skipped=()):
        self.label = label
        self.m = m
        self.ts = ts
        self.values = values
        self.exact = exact
        self.skipped = skipped
        nonzero = [(t, v) for t, v in zip(ts, values) if v > 0.0]
        self.slope = (fit_loglog_slope([t for t, _ in nonzero],
                                       [v for _, v in nonzero])
                      if len(nonzero) >= 2 else None)

    @property
    def passed(self):
        if self.exact:
            return bool(self.ts)
        return self.slope is not None and self.slope >= self.m - SLOPE_SLACK


class ScalingReport:
    """Outcome of a decay-rate sampling test (one DecayTrack per direction);
    it passes when there is a track and every track passes."""

    def __init__(self, m, t_grid, entries):
        self.m = m
        self.t_grid = tuple(t_grid)
        self.entries = entries
        self.passed = bool(entries) and all(e.passed for e in entries)

    def slopes(self):
        return [e.slope for e in self.entries]

    def __repr__(self):
        verdict = "pass" if self.passed else "FAIL"
        return "ScalingReport(m=%s, %d directions, %s)" % (self.m, len(self.entries), verdict)


def ow_scaling_test(f, m, in_weights, out_weights, directions, t_grid=DEFAULT_T_GRID):
    """Numeric O_w(||x||^{w+m}) test for a sampled map.

    For each direction d and each t in the grid, record
    ``|| delta_{1/t} f(t . d) ||`` in a :class:`DecayTrack` labelled by d.
    Directions whose samples all vanish are exact (this happens when the
    residual is identically zero).
    """
    ws_in = as_weights(in_weights)
    ws_out = as_weights(out_weights)
    ts = tuple(t_grid)
    entries = []
    for d in directions:
        samples = []
        for t in ts:
            point = dilate(d, t, ws_in)
            value = f(point)
            inv = 1 / Fraction(t) if not isinstance(t, float) else 1.0 / t
            rescaled = dilate(value, inv, ws_out)
            norm = math.sqrt(sum(float(c) ** 2 for c in rescaled))
            if norm < _ZERO_CUTOFF:
                norm = 0.0
            samples.append(norm)
        entries.append(DecayTrack(tuple(d), m, ts, samples,
                                  not any(v > 0.0 for v in samples)))
    return ScalingReport(m, ts, entries)
