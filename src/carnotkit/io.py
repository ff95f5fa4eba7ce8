"""JSON serialization for algebras, frames, and coordinate changes.

Documents are flat JSON objects carrying ``schema`` ("carnot-kit/1") and
``kind`` ("algebra" | "frame" | "change" | "catalog").  Every exact number
is encoded as a string rational ("-3/4"); plain JSON integers are accepted
on load, floats never are (they only appear inside explicitly numeric
blocks such as fitted charts).  Bracket and component indices are 1-based
in the files, 0-based in memory.  The CLI reads its numbers and JSON here too.
"""

from fractions import Fraction
import json
import re
import reprlib

from .coords import CoordinateChange
from .groups import CatalogEntry, StructureConstants
from .poly import PolyMap, RationalPoly, term_sort_key
from .vfields import Frame, PolyVectorField

SCHEMA = "carnot-kit/1"
_INTEGER = r"[+-]?[0-9]+"  # the one integer grammar of outside text


class SchemaError(ValueError):
    """Malformed or mistyped document."""


def frac_str(x):
    return str(Fraction(x))


def parse_frac(value, where):
    """A JSON integer, or a string of optional sign, digits and optional
    "/digits" (surrounding whitespace allowed).  No decimal point, exponent
    or "_": "1e10000000" would cost seconds to expand."""
    if isinstance(value, bool) or isinstance(value, float):
        raise SchemaError("%s: %r is not exact; encode rationals as strings "
                          "like \"-3/4\"" % (where, value))
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise SchemaError("%s: expected a rational, got %r" % (where, value))
    match = re.fullmatch(r"(%s)(?:/([0-9]+))?" % _INTEGER, value.strip())
    if match is not None:
        num, den = match.groups()
        try:
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError):  # "p/0", or past int's digit cap
            pass
    raise SchemaError("%s: cannot parse rational %s; write an integer or "
                      "\"p/q\" like \"-3/4\" (no decimal point, exponent or _)"
                      % (where, reprlib.repr(value)))


def parse_int(text, where):
    """An integer option or environment value in parse_frac's grammar:
    optional sign and digits, surrounding whitespace allowed, no "_"."""
    match = re.fullmatch(_INTEGER, text.strip())
    if match is not None:
        try:
            return int(match.group())
        except ValueError:  # past int's digit cap
            pass
    raise SchemaError("%s must be an integer, got %s" % (where, reprlib.repr(text)))


def _is_int(value):
    """A JSON integer: bools are ints in Python but not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list_field(obj, key, where):
    """obj[key] as a list, [] when absent; anything else is a SchemaError."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SchemaError("%s: '%s' must be a list" % (where, key))
    return value


def _parse_weights(obj, where):
    ws = obj.get("weights")
    if not isinstance(ws, list) or not ws or not all(_is_int(w) and w >= 1 for w in ws):
        raise SchemaError("%s: 'weights' must be a list of positive integers" % where)
    return tuple(ws)


def parse_point(values, n, where):
    if not isinstance(values, list) or len(values) != n:
        raise SchemaError("%s: expected a list of %d rationals" % (where, n))
    return tuple(parse_frac(v, where) for v in values)


def decode_json(text, where):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
        raise SchemaError("%s is not valid JSON: %s" % (where, exc))


# ---------------------------------------------------------------------------
# Polynomials.
# ---------------------------------------------------------------------------


def poly_to_obj(p):
    return {"vars": p.n,
            "terms": [{"exp": list(exp), "coef": frac_str(c)}
                      for exp, c in sorted(p.terms.items(),
                                           key=lambda t: term_sort_key(t[0]))]}


def poly_from_obj(obj, where="polynomial"):
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    n = obj.get("vars")
    if not _is_int(n) or n < 1:
        raise SchemaError("%s: 'vars' must be a positive integer" % where)
    terms = {}
    for i, t in enumerate(_list_field(obj, "terms", where)):
        spot = "%s term %d" % (where, i)
        if not isinstance(t, dict):
            raise SchemaError("%s: expected an object" % spot)
        exp = t.get("exp")
        if (not isinstance(exp, list) or len(exp) != n or
                not all(_is_int(e) and e >= 0 for e in exp)):
            raise SchemaError("%s: 'exp' must be %d nonnegative integers" % (spot, n))
        key = tuple(exp)
        if key in terms:
            raise SchemaError("%s: duplicate exponent %s" % (spot, key))
        terms[key] = parse_frac(t.get("coef"), spot)
    return RationalPoly(n, terms)


# ---------------------------------------------------------------------------
# Algebras.
# ---------------------------------------------------------------------------


def algebra_to_obj(constants):
    brackets = []
    for (i, j, k), c in sorted(constants.table.items()):
        brackets.append({"i": i + 1, "j": j + 1, "k": k + 1, "coef": frac_str(c)})
    return {"weights": list(constants.weights.weights), "brackets": brackets}


def algebra_from_obj(obj, where="algebra"):
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    ws = _parse_weights(obj, where)
    n = len(ws)
    table = {}
    for idx, b in enumerate(_list_field(obj, "brackets", where)):
        spot = "%s bracket %d" % (where, idx)
        if not isinstance(b, dict):
            raise SchemaError("%s: expected an object" % spot)
        i, j, k = (b.get(key) for key in "ijk")
        if not all(_is_int(v) for v in (i, j, k)):
            raise SchemaError("%s: needs integer 'i', 'j', 'k'" % spot)
        if not (1 <= i < j <= n and 1 <= k <= n):
            raise SchemaError("%s: indices out of range (need 1 <= i < j <= %d)"
                              % (spot, n))
        key = (i - 1, j - 1, k - 1)
        if key in table:
            raise SchemaError("%s: duplicate bracket entry %s" % (spot, (i, j, k)))
        table[key] = parse_frac(b.get("coef"), spot)
    try:
        return StructureConstants(ws, table)
    except ValueError as exc:
        raise SchemaError("%s: %s" % (where, exc))


# ---------------------------------------------------------------------------
# Frames.
# ---------------------------------------------------------------------------


def frame_to_obj(frame):
    return {"weights": list(frame.weights.weights),
            "base_point": [frac_str(x) for x in frame.base_point],
            "fields": [[poly_to_obj(c) for c in x.coefficients]
                       for x in frame.fields]}


def frame_from_obj(obj, where="frame", check=True):
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    ws = _parse_weights(obj, where)
    n = len(ws)
    base = parse_point(obj.get("base_point", [0] * n), n, "%s base_point" % where)
    fields_obj = obj.get("fields")
    if not isinstance(fields_obj, list) or len(fields_obj) != n:
        raise SchemaError("%s: 'fields' must list exactly %d fields" % (where, n))
    fields = []
    for j, coeffs in enumerate(fields_obj):
        spot = "%s field %d" % (where, j + 1)
        if not isinstance(coeffs, list) or len(coeffs) != n:
            raise SchemaError("%s: needs exactly %d coefficient polynomials"
                              % (spot, n))
        polys = [poly_from_obj(c, "%s coefficient %d" % (spot, k + 1))
                 for k, c in enumerate(coeffs)]
        if any(p.n != n for p in polys):
            raise SchemaError("%s: coefficients must use %d variables" % (spot, n))
        fields.append(PolyVectorField(polys))
    try:
        return Frame(fields, ws, base, check=check)
    except ValueError as exc:
        raise SchemaError("%s: %s" % (where, exc))


# ---------------------------------------------------------------------------
# Coordinate changes.
# ---------------------------------------------------------------------------


def change_to_obj(change):
    return {"weights": list(change.weights.weights),
            "affine": {"matrix": [[frac_str(c) for c in row]
                                  for row in change.matrix],
                       "offset": [frac_str(x) for x in change.offset]},
            "triangular": {"components": [poly_to_obj(c)
                                          for c in change.poly.components]}}


def change_from_obj(obj, where="change"):
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    ws = _parse_weights(obj, where)
    n = len(ws)
    affine = obj.get("affine", {})
    if not isinstance(affine, dict):
        raise SchemaError("%s: 'affine' must be an object" % where)
    matrix_obj = affine.get("matrix")
    if matrix_obj is None:
        matrix = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    else:
        if (not isinstance(matrix_obj, list) or len(matrix_obj) != n or
                any(not isinstance(row, list) or len(row) != n for row in matrix_obj)):
            raise SchemaError("%s: 'affine.matrix' must be %d x %d" % (where, n, n))
        matrix = [[parse_frac(c, "%s matrix" % where) for c in row]
                  for row in matrix_obj]
    offset = parse_point(affine.get("offset", [0] * n), n, "%s offset" % where)
    tri = obj.get("triangular", {})
    if not isinstance(tri, dict):
        raise SchemaError("%s: 'triangular' must be an object" % where)
    comps_obj = tri.get("components")
    if comps_obj is None:
        poly = None
    else:
        if not isinstance(comps_obj, list) or len(comps_obj) != n:
            raise SchemaError("%s: 'triangular.components' must list %d "
                              "polynomials" % (where, n))
        comps = [poly_from_obj(c, "%s component %d" % (where, k + 1))
                 for k, c in enumerate(comps_obj)]
        if any(c.n != n for c in comps):
            raise SchemaError("%s: components must use %d variables" % (where, n))
        poly = PolyMap(comps)
    try:
        return CoordinateChange(matrix, offset, ws, poly)
    except ValueError as exc:
        raise SchemaError("%s: %s" % (where, exc))


# ---------------------------------------------------------------------------
# Documents.
# ---------------------------------------------------------------------------


def frame_document(frame):
    return {"schema": SCHEMA, "kind": "frame", "frame": frame_to_obj(frame)}


def change_document(change, extra=None):
    doc = {"schema": SCHEMA, "kind": "change", "change": change_to_obj(change)}
    if extra:
        doc.update(extra)
    return doc


def catalog_document(entry):
    return {"schema": SCHEMA, "kind": "catalog", "name": entry.name,
            "algebra": algebra_to_obj(entry.constants),
            "frame": frame_to_obj(entry.frame)}


def load_document(text, check_frames=True):
    """Parse a document from JSON text.

    Returns (kind, value): StructureConstants for "algebra", Frame for
    "frame", CoordinateChange for "change", CatalogEntry for "catalog".
    """
    obj = decode_json(text, "document")
    if not isinstance(obj, dict):
        raise SchemaError("document must be a JSON object")
    schema = obj.get("schema")
    if schema != SCHEMA:
        raise SchemaError("missing or unsupported schema %r (expected %r)"
                          % (schema, SCHEMA))
    kind = obj.get("kind")
    if kind == "algebra":
        return kind, algebra_from_obj(obj.get("algebra"))
    if kind == "frame":
        return kind, frame_from_obj(obj.get("frame"), check=check_frames)
    if kind == "change":
        return kind, change_from_obj(obj.get("change"))
    if kind == "catalog":
        name = obj.get("name")
        if not isinstance(name, str):
            raise SchemaError("catalog document needs a string 'name'")
        constants = algebra_from_obj(obj.get("algebra"), "catalog algebra")
        frame = frame_from_obj(obj.get("frame"), "catalog frame",
                               check=check_frames)
        return kind, CatalogEntry(name, constants, frame)
    raise SchemaError("unknown document kind %r" % kind)


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Result objects (one-way: these are outputs, never inputs).
# ---------------------------------------------------------------------------


def point_obj(point):
    return [frac_str(x) for x in point]


def verification_report_obj(report):
    return {"kind": report.kind, "ok": report.ok,
            "witnesses": list(report.witnesses),
            "truncated": bool(report.details.get("truncated", False))}


def _track_obj(track):
    return {"label": track.label,
            "values": track.values,
            "exact": track.exact,
            "slope": track.slope,
            "passed": track.passed,
            "skipped_t": [frac_str(t) for t in track.skipped]}


def osculation_report_obj(report):
    return {"passed": report.passed,
            "t_grid": [frac_str(t) for t in report.t_grid],
            "tangent_algebra": algebra_to_obj(report.constants),
            "entries": [{"x0": point_obj(e.direction[0]),
                         "y0": point_obj(e.direction[1]),
                         "chart": _track_obj(e.r_track),
                         "inverse_chart": _track_obj(e.rt_track)}
                        for e in report.entries]}


def numeric_chart_obj(chart):
    return {"kind": "numeric-chart",
            "chart_kind": chart.kind,
            "weights": list(chart.weights.weights),
            "base_point": point_obj(chart.base_point),
            "degree": chart.degree,
            "box": chart.box,
            "step": chart.step,
            "samples": chart.samples,
            "numeric": {"basis": [list(e) for e in chart.basis],
                        "coefficients": [[float(c) for c in row]
                                         for row in chart.coeffs]}}
