"""Graded nilpotent Lie algebras and their polynomial group laws.

The group product is the truncated Baker-Campbell-Hausdorff series in
Dynkin's form, evaluated through nilpotent adjoint matrices: every bracket
word longer than the step r vanishes, so the sum is finite and the product
of two points is a polynomial with rational coefficients.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
import math
import re

from .graded import WeightVector
from .poly import PolyMap, RationalPoly
from .vfields import Frame, PolyVectorField


class StructureConstants:
    """Sparse table L_ij^k on a graded basis, stored for i < j only.

    Antisymmetry is applied on read; entries with i == j or out-of-range
    indices are rejected, but grading and Jacobi violations are *kept* so
    that validate_algebra can report them.
    """

    def __init__(self, weights, table):
        self.weights = WeightVector(weights)
        n = self.weights.n
        canonical = {}
        items = table.items() if isinstance(table, dict) else table
        for (i, j, k), c in items:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise ValueError("bracket index out of range: (%d, %d, %d)" % (i, j, k))
            if i == j:
                raise ValueError("a bracket [X_%d, X_%d] of a field with itself "
                                 "must vanish" % (i + 1, i + 1))
            c = Fraction(c)
            if not c:
                continue
            key, val = ((i, j, k), c) if i < j else ((j, i, k), -c)
            if key in canonical and canonical[key] != val:
                raise ValueError("conflicting coefficients for bracket %s" % (key,))
            canonical[key] = val
        self.table = canonical

    @property
    def n(self):
        return self.weights.n

    @property
    def step(self):
        return self.weights.r

    def get(self, i, j, k):
        """L_ij^k with antisymmetry applied; 0-based indices."""
        if i == j:
            return Fraction(0)
        if i < j:
            return self.table.get((i, j, k), Fraction(0))
        return -self.table.get((j, i, k), Fraction(0))

    def items_full(self):
        """Yield ((i, j, k), c) over both index orders."""
        for (i, j, k), c in self.table.items():
            yield (i, j, k), c
            yield (j, i, k), -c

    def key(self):
        return (self.weights.weights, tuple(sorted(self.table.items())))

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.weights == other.weights and self.table == other.table

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        entries = ", ".join("L(%d,%d)^%d=%s" % (i + 1, j + 1, k + 1, c)
                            for (i, j, k), c in sorted(self.table.items()))
        return "StructureConstants(w=%s%s)" % (
            self.weights.weights, ", " + entries if entries else "")


class AlgebraReport:
    """Outcome of validate_algebra: ok flag plus human-readable failures."""

    def __init__(self, ok, failures):
        self.ok = ok
        self.failures = failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "AlgebraReport(ok=%s, failures=%r)" % (self.ok, self.failures)


def validate_algebra(constants):
    """Check antisymmetry (by construction), grading compatibility
    (L_ij^k = 0 unless w_i + w_j = w_k) and the Jacobi identity, whose
    cyclic sums are built from pairs of nonzero entries L_ab^m (a < b),
    L_mc^l (c not in {a, b}); a pair counts negative when a < c < b."""
    ws = constants.weights.weights
    failures = []
    for (i, j, k), c in sorted(constants.table.items()):
        if ws[i] + ws[j] != ws[k]:
            failures.append(
                "grading: L(%d,%d)^%d = %s but w_%d + w_%d = %d != %d = w_%d"
                % (i + 1, j + 1, k + 1, c, i + 1, j + 1, ws[i] + ws[j], ws[k], k + 1))
    by_first = {}
    for (a, c, l), v in constants.items_full():
        by_first.setdefault(a, []).append((c, l, v))
    sums = {}
    for (a, b, m), u in constants.table.items():
        for c, l, v in by_first.get(m, ()):
            if c == a or c == b:
                continue
            term = u * v
            key = tuple(sorted((a, b, c))) + (l,)
            sums[key] = sums.get(key, 0) + (-term if a < c < b else term)
    for (i, j, k, l), total in sorted(sums.items()):
        if total:
            failures.append("jacobi: cyclic sum for (%d, %d, %d) -> %d is %s"
                            % (i + 1, j + 1, k + 1, l + 1, total))
    return AlgebraReport(not failures, failures)


def _ad_rows(constants, x):
    """Sparse row form of ad_x: {k: [(j, entry), ...]} with zero rows dropped."""
    n = constants.n
    rows = {}
    for (i, j, k), c in constants.items_full():
        xi = x[i]
        if not xi:
            continue
        rows.setdefault(k, {})
        prev = rows[k].get(j)
        rows[k][j] = c * xi if prev is None else prev + c * xi
    out = {}
    for k, row in rows.items():
        entries = [(j, v) for j, v in row.items() if v]
        if entries:
            out[k] = entries
    return out


def _ad_apply(rows, v, n):
    out = [0] * n
    hit = False
    for k, entries in rows.items():
        s = 0
        for j, a in entries:
            vj = v[j]
            if vj:
                s = s + a * vj
        if s:
            out[k] = s
            hit = True
    return out, hit


@lru_cache(maxsize=None)
def dynkin_words(step):
    """Bracket words of the Dynkin series up to total length ``step``.

    Returns tuples (coefficient, letters) where letters is a string over
    'x'/'y'; the final letter is the vector the preceding ad-operators act
    on.  Words whose last two letters coincide are dropped (ad_v v = 0), and
    words longer than the step vanish by grading, as do zero coefficients.
    A word of length L has the coefficient (1/L) sum_k ((-1)^{k-1}/k) sum
    over its splits into k blocks x^s y^t of prod 1/(s! t!), summed by
    dynamic programming over prefixes; words sort by their fewest-block split.
    """
    # splits[w][k]: L! times the sum over k-block splits of w, an integer:
    # a last block x^s y^t contributes C(L, s + t) C(s + t, s).
    splits, words = {"": [1]}, []
    for length in range(1, step + 1):
        for w in map("".join, product("xy", repeat=length)):
            head = w.rstrip("y")  # a last block is y^t, or x^s y^t over the whole y-run
            t_max, s_max = length - len(head), len(head) - len(head.rstrip("x"))
            splits[w] = row = [0] * (length + 1)
            for s, t in ([(0, t) for t in range(1, t_max + 1)]
                         + [(s, t_max) for s in range(1, s_max + 1)]):
                scale = math.comb(length, s + t) * math.comb(s + t, s)
                for k, g in enumerate(splits[w[:length - s - t]]):
                    row[k + 1] += g * scale
            coef = sum(Fraction((-1) ** (k - 1) * g, k) for k, g in enumerate(row) if g)
            if coef and (length == 1 or w[-1] != w[-2]):
                parts = [(b.count("x"), b.count("y")) for b in w.replace("yx", "y x").split()]
                words.append(((len(parts), parts), coef / (math.factorial(length) * length), w))
    return tuple((coef, w) for _, coef, w in sorted(words))


def group_product(x, y, constants):
    """The polynomial group law x . y from the truncated Dynkin series.

    Exact for rational points; also works with polynomial entries, which is
    how the symbolic law is built.  Words share suffixes, so each distinct
    suffix's vector ad_{s[0]}(vec(s[1:])) is formed once per call; a zero
    suffix (None in the memo) kills every word that ends in it.
    """
    n = constants.n
    if len(x) != n or len(y) != n:
        raise ValueError("points must have dimension %d" % n)
    report = validate_algebra(constants)
    if not report.ok:
        raise ValueError("structure constants are not a graded Lie algebra: %s"
                         % "; ".join(report.failures[:3]))
    ads = {"x": _ad_rows(constants, x), "y": _ad_rows(constants, y)}
    vecs = {"x": x, "y": y}

    def vec(s):
        if s not in vecs:
            v = vec(s[1:]) if ads[s[0]] else None  # ad_x = 0: x is zero or central
            if v is not None:
                v, alive = _ad_apply(ads[s[0]], v, n)
                v = v if alive else None
            vecs[s] = v
        return vecs[s]

    out = list(x[k] + y[k] for k in range(n))
    for coef, letters in dynkin_words(constants.step):
        v = vec(letters) if len(letters) > 1 else None  # x + y is seeded above
        if v is not None:
            for k in range(n):
                if v[k]:
                    out[k] = out[k] + coef * v[k]
    return tuple(out)


def dynkin_product(x, y, constants):
    """Exact group product of two rational points."""
    return group_product(tuple(Fraction(c) for c in x),
                         tuple(Fraction(c) for c in y), constants)


def group_inverse(x):
    """Group inverse: simply -x in these coordinates."""
    return tuple(-Fraction(c) for c in x)


def dynkin_symbolic(constants):
    """The group law as a PolyMap in 2n variables (x_1..x_n, y_1..y_n),
    built anew on every call."""
    n = constants.n
    nn = 2 * n
    xs = [RationalPoly.variable(nn, j) for j in range(n)]
    ys = [RationalPoly.variable(nn, n + j) for j in range(n)]
    zero = RationalPoly.zero(nn)
    comps = [c if c else zero for c in group_product(xs, ys, constants)]
    return PolyMap(comps)


def left_invariant_fields(constants):
    """The canonical left-invariant frame of the group law, built anew on
    every call: X_j(x) = psi(ad_x) e_j = sum_k c_k ad_x^k e_j, with c_k the
    Taylor coefficients of psi(z) = z / (1 - e^{-z})."""
    n = constants.n
    # c inverts the series 1 / psi(z) = (1 - e^{-z}) / z = sum_i (-1)^i z^i / (i + 1)!
    c = [Fraction(1)]
    for m in range(1, constants.step):
        c.append(-sum(Fraction((-1) ** i, math.factorial(i + 1)) * c[m - i]
                      for i in range(1, m + 1)))
    ad = _ad_rows(constants, [RationalPoly.variable(n, i) for i in range(n)])
    rows = []
    for j in range(n):
        v = [Fraction(int(i == j)) for i in range(n)]
        row = [RationalPoly.const(n, a) for a in v]
        for ck in c[1:]:
            v, alive = _ad_apply(ad, v, n)
            if not alive:
                break
            row = [r + ck * a if a and ck else r for r, a in zip(row, v)]
        rows.append(PolyVectorField(row))
    return tuple(rows)


def group_frame(constants, base_point=None):
    """Frame of left-invariant fields, by default based at the identity."""
    base = base_point if base_point is not None else (0,) * constants.n
    return Frame(left_invariant_fields(constants), constants.weights, base, check=False)


def _tangent_algebra(weights, table):
    """StructureConstants of a tangent table; ArithmeticError when it is
    not a graded Lie algebra, since the tables of H-frames always are."""
    constants = StructureConstants(weights, table)
    report = validate_algebra(constants)
    if not report.ok:
        raise ArithmeticError(
            "tangent constants are not a graded Lie algebra: %s"
            % "; ".join(report.failures[:3]))
    return constants


def structure_constants_at(frame):
    """Tangent-group constants of an H-frame at its base point a.

    Solves B(a)^t lambda = [X_i, X_j](a); entries with w_k > w_i + w_j must
    vanish (else ValueError from the frame), entries with w_k = w_i + w_j
    form the graded constants, and the rest is returned as the full table.

    Returns (StructureConstants, full_table) with 0-based (i, j, k) keys.
    """
    table = frame.bracket_table()
    ws = frame.weights.weights
    graded = {key: c for key, c in table.items()
              if ws[key[0]] + ws[key[1]] == ws[key[2]]}
    return _tangent_algebra(frame.weights, graded), table


def model_structure_constants(models, weights):
    """Tangent-group constants of a model basis adapted at 0 (X_j(0) = e_j):
    L_ij^k = d_i (X_j)_k(0) - d_j (X_i)_k(0) is the e_k component of
    [X_i, X_j](0), read off the degree-one coefficients of the fields and
    validated as in structure_constants_at."""
    wv = WeightVector(weights)
    n = wv.n
    # d[j][k][i] = d_i (X_j)_k(0)
    d = [PolyMap(x.coefficients).linear_matrix() for x in models]
    table = {(i, j, k): d[j][k][i] - d[i][k][j]
             for i in range(n) for j in range(i + 1, n) for k in range(n)}
    return _tangent_algebra(wv, table)


# ---------------------------------------------------------------------------
# Catalog of stock algebras and frames.
# ---------------------------------------------------------------------------


class CatalogEntry:
    def __init__(self, name, constants, frame):
        self.name = name
        self.constants = constants
        self.frame = frame


def _heisenberg_3():
    return StructureConstants((1, 1, 2), {(0, 1, 2): 1})


def _heisenberg_5():
    return StructureConstants((1, 1, 1, 1, 2), {(0, 2, 4): 1, (1, 3, 4): 1})


def _engel_4():
    return StructureConstants((1, 1, 2, 3), {(0, 1, 2): 1, (0, 2, 3): 1})


def _step3_filiform_5():
    # free nilpotent algebra on two generators, step 3:
    # [e1,e2]=e3, [e1,e3]=e4, [e2,e3]=e5
    return StructureConstants((1, 1, 2, 3, 3),
                              {(0, 1, 2): 1, (0, 2, 3): 1, (1, 2, 4): 1})


def _perturbed_heisenberg_3():
    n = 3
    x1 = RationalPoly.variable(n, 0)
    x2 = RationalPoly.variable(n, 1)
    zero = RationalPoly.zero(n)
    one = RationalPoly.const(n, 1)
    # X1 = d1 + (-x2/2 + x1^2) d3, X2 = d2 + (x1/2) d3, X3 = d3:
    # same commutator [X1, X2] = d3 as the group frame, but X1 carries a
    # weight-0 tail, so the identity chart is privileged yet the psi step
    # stays trivial and epsilon_0 is the identity.
    f1 = PolyVectorField([one, zero, x2 * Fraction(-1, 2) + x1 * x1])
    f2 = PolyVectorField([zero, one, x1 * Fraction(1, 2)])
    f3 = PolyVectorField([zero, zero, one])
    return Frame([f1, f2, f3], (1, 1, 2), (0, 0, 0))


def _perturbed_engel_4():
    base = left_invariant_fields(_engel_4())
    n = 4
    x1 = RationalPoly.variable(n, 0)
    x2 = RationalPoly.variable(n, 1)
    zero = RationalPoly.zero(n)
    # add x2 d4 to X1 and x1 d4 to X2; the pair is matched so that every
    # bracket still equals its group-frame value ([X1,X2]=X3 exactly) and
    # the frame remains an H-frame with the Engel tangent constants.
    f1 = base[0] + PolyVectorField([zero, zero, zero, x2])
    f2 = base[1] + PolyVectorField([zero, zero, zero, x1])
    return Frame([f1, f2, base[2], base[3]], (1, 1, 2, 3), (0, 0, 0, 0))


# One ordered table: the group algebras, whose entries carry the group frame
# at the identity, then the hand-built frames, whose constants are read at
# the origin.  "<n>" in a name stands for a digit 1-9.
_CATALOG = (
    ("abelian_<n>", lambda n: StructureConstants((1,) * n, {})),
    ("heisenberg_3", _heisenberg_3),
    ("heisenberg_5", _heisenberg_5),
    ("engel_4", _engel_4),
    ("step3_filiform_5", _step3_filiform_5),
    ("perturbed_heisenberg_3", _perturbed_heisenberg_3),
    ("perturbed_engel_4", _perturbed_engel_4),
)


def catalog_names():
    return [pattern for pattern, _ in _CATALOG]


def catalog(name):
    """Stock algebras and frames by name.

    Group entries carry the left-invariant frame at the identity; the
    perturbed entries carry hand-built H-frames whose tangent constants at
    the origin coincide with the matching group entry.
    """
    for pattern, build in _CATALOG:
        m = re.fullmatch(pattern.replace("<n>", "([1-9])"), name)
        if m:
            made = build(*map(int, m.groups()))
            if isinstance(made, StructureConstants):
                return CatalogEntry(name, made, group_frame(made))
            return CatalogEntry(name, structure_constants_at(made)[0], made)
    raise KeyError("unknown catalog entry %r (known: %s)"
                   % (name, ", ".join(catalog_names())))
