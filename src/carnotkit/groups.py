"""Graded nilpotent Lie algebras and their polynomial group laws.

The group product is the truncated Baker-Campbell-Hausdorff series in
Dynkin's form, evaluated through nilpotent adjoint matrices: every bracket
word longer than the step r vanishes, so the sum is finite and the product
of two points is a polynomial with rational coefficients.
"""

from fractions import Fraction
from functools import lru_cache
import math
import re

from .graded import WeightVector, as_weights, weighted_degree
from .poly import PolyMap, RationalPoly
from .vfields import Frame, PolyVectorField, bracket


class StructureConstants:
    """Sparse table L_ij^k on a graded basis, stored for i < j only.

    Antisymmetry is applied on read; entries with i == j or out-of-range
    indices are rejected, but grading and Jacobi violations are *kept* so
    that validate_algebra can report them.
    """

    def __init__(self, weights, table):
        self.weights = weights if isinstance(weights, WeightVector) else WeightVector(weights)
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


def _require_valid(constants):
    report = validate_algebra(constants)
    if not report.ok:
        raise ValueError("structure constants are not a graded Lie algebra: %s"
                         % "; ".join(report.failures[:3]))


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
    words longer than the step vanish by grading.  Block sequences that
    spell the same letters are merged into one word with the summed
    coefficient, and words whose coefficients cancel are dropped.
    """
    words = {}

    def blocks(nblocks, prefix, used):
        if nblocks == 0:
            yield prefix
            return
        for s in range(0, step - used + 1):
            for t in range(0, step - used - s + 1):
                if s + t == 0:
                    continue
                yield from blocks(nblocks - 1, prefix + ((s, t),), used + s + t)

    for nb in range(1, step + 1):
        for combo in blocks(nb, (), 0):
            total = sum(s + t for s, t in combo)
            letters = "".join("x" * s + "y" * t for s, t in combo)
            if len(letters) >= 2 and letters[-1] == letters[-2]:
                continue
            denom = total
            for s, t in combo:
                denom *= math.factorial(s) * math.factorial(t)
            coef = Fraction((-1) ** (nb - 1), nb) / denom
            words[letters] = words.get(letters, 0) + coef
    return tuple((coef, letters) for letters, coef in words.items() if coef)


def group_product(x, y, constants):
    """The polynomial group law x . y from the truncated Dynkin series.

    Exact for rational points; also works with polynomial entries, which is
    how the symbolic law is built.
    """
    _require_valid(constants)
    n = constants.n
    ax = _ad_rows(constants, x)
    ay = _ad_rows(constants, y)
    out = list(x[k] + y[k] for k in range(n))
    for coef, letters in dynkin_words(constants.step):
        if len(letters) == 1:
            continue  # the bare x + y is seeded above
        v = list(x if letters[-1] == "x" else y)
        alive = True
        for ch in reversed(letters[:-1]):
            v, alive = _ad_apply(ax if ch == "x" else ay, v, n)
            if not alive:
                break
        if not alive:
            continue
        for k in range(n):
            if v[k]:
                out[k] = out[k] + coef * v[k]
    return tuple(out)


def dynkin_product(x, y, constants):
    """Exact group product of two rational points."""
    xs = tuple(Fraction(c) for c in x)
    ys = tuple(Fraction(c) for c in y)
    if len(xs) != constants.n or len(ys) != constants.n:
        raise ValueError("points must have dimension %d" % constants.n)
    return group_product(xs, ys, constants)


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


def _drop_second_block(poly, n):
    """Restrict a 2n-variable polynomial to the first block, requiring the
    second block's variables to be absent."""
    terms = {}
    for exp, c in poly.terms.items():
        if any(exp[n:]):
            raise ValueError("polynomial still involves the second block")
        terms[exp[:n]] = c
    return RationalPoly(n, terms)


# The memo keeps the most recently used algebras: a caller works on a
# handful at a time, and a stream of fresh algebras must not grow the
# process without bound.  Its polynomials are shared, so callers copy them.
@lru_cache(maxsize=32)
def _invariant_coefficients(constants):
    """Rows b_jk(x) = d(x . y)_k / dy_j |_{y=0} of the symbolic law."""
    n = constants.n
    z = dynkin_symbolic(constants)
    origin_y = [RationalPoly.variable(2 * n, j) for j in range(n)] + \
               [RationalPoly.zero(2 * n) for _ in range(n)]
    return tuple(
        tuple(_drop_second_block(z.components[k].partial(n + j).substitute(origin_y), n)
              for k in range(n))
        for j in range(n))


def left_invariant_fields(constants):
    """The canonical left-invariant frame of the group law: new fields and
    coefficient polynomials on every call."""
    return tuple(PolyVectorField([c.copy() for c in row])
                 for row in _invariant_coefficients(constants))


def group_frame(constants, base_point=None):
    """Frame of left-invariant fields, by default based at the identity."""
    base = base_point if base_point is not None else (0,) * constants.n
    return Frame(left_invariant_fields(constants), constants.weights, base, check=False)


def structure_constants_at(frame, point=None):
    """Tangent-group constants of an H-frame at a point.

    Solves B(a)^t lambda = [X_i, X_j](a); entries with w_k > w_i + w_j must
    vanish (else ValueError from the frame), entries with w_k = w_i + w_j
    form the graded constants, and the rest is returned as the full table.

    Returns (StructureConstants, full_table) with 0-based (i, j, k) keys.
    """
    table = frame.bracket_table(point)
    ws = frame.weights.weights
    graded = {key: c for key, c in table.items()
              if ws[key[0]] + ws[key[1]] == ws[key[2]]}
    constants = StructureConstants(frame.weights, graded)
    report = validate_algebra(constants)
    if not report.ok:
        raise ArithmeticError(
            "tangent constants are not a graded Lie algebra: %s"
            % "; ".join(report.failures[:3]))
    return constants, table


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


_ABELIAN_RE = re.compile(r"^abelian_([1-9])$")


def catalog_names():
    return ["abelian_<n>", "heisenberg_3", "heisenberg_5", "engel_4",
            "step3_filiform_5", "perturbed_heisenberg_3", "perturbed_engel_4"]


def catalog(name):
    """Stock algebras and frames by name.

    Group entries carry the left-invariant frame at the identity; the
    perturbed entries carry hand-built H-frames whose tangent constants at
    the origin coincide with the matching group entry.
    """
    m = _ABELIAN_RE.match(name)
    if m:
        n = int(m.group(1))
        constants = StructureConstants((1,) * n, {})
        return CatalogEntry(name, constants, group_frame(constants))
    if name == "heisenberg_3":
        constants = _heisenberg_3()
        return CatalogEntry(name, constants, group_frame(constants))
    if name == "heisenberg_5":
        constants = _heisenberg_5()
        return CatalogEntry(name, constants, group_frame(constants))
    if name == "engel_4":
        constants = _engel_4()
        return CatalogEntry(name, constants, group_frame(constants))
    if name == "step3_filiform_5":
        constants = _step3_filiform_5()
        return CatalogEntry(name, constants, group_frame(constants))
    if name == "perturbed_heisenberg_3":
        frame = _perturbed_heisenberg_3()
        constants, _ = structure_constants_at(frame)
        return CatalogEntry(name, constants, frame)
    if name == "perturbed_engel_4":
        frame = _perturbed_engel_4()
        constants, _ = structure_constants_at(frame)
        return CatalogEntry(name, constants, frame)
    raise KeyError("unknown catalog entry %r (known: %s)"
                   % (name, ", ".join(catalog_names())))
