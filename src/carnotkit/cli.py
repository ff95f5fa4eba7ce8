"""Command-line interface.

Inputs are JSON documents (see io.py) given as a file path, a catalog name
(e.g. ``heisenberg_3``), or ``-``/piped stdin, so commands compose:

    carnot catalog heisenberg_3 | carnot group-law --x 1,0,0 --y 0,1,0

Exit codes: 0 success / check passed, 1 check failed, 2 usage or input
errors, 3 internal error (an ArithmeticError: two routes disagreed, which
is a bug).  The CARNOT_SEED environment variable overrides --seed
everywhere.
"""

import argparse
from fractions import Fraction
import os
import random
import sys

from . import io
from .coords import (CoordinateChange, canonical_first_kind,
                     canonical_second_kind, epsilon, linearize, psi_map)
from .groups import catalog, catalog_names, dynkin_product, validate_algebra
from .poly import PolyMap
from .selftest import run_all
from .vfields import Frame, function_order
from .verify import check_carnot, check_privileged, osculation_report


def _fail(code, message):
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(code)


def _emit(doc):
    print(io.dumps(doc))


def _parse_point(text, n, what="point"):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        _fail(2, "%s needs %d comma-separated rationals, got %r" % (what, n, text))
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        _fail(2, "cannot parse %s %r" % (what, text))


def _read_source(arg, check_frames=True):
    """(kind, value) from a file path, catalog name, or '-'/piped stdin."""
    if arg is None or arg == "-":
        if arg is None and sys.stdin.isatty():
            _fail(2, "no input: pass a file, a catalog name, or pipe a document")
        return io.load_document(sys.stdin.read(), check_frames=check_frames)
    if os.path.exists(arg):
        with open(arg) as fh:
            return io.load_document(fh.read(), check_frames=check_frames)
    try:
        return "catalog", catalog(arg)
    except KeyError:
        _fail(2, "input %r is neither a file, a catalog name, nor '-'" % arg)


def _as_algebra(kind, value):
    if kind == "algebra":
        return value
    if kind == "catalog":
        return value.constants
    _fail(2, "this command needs an algebra (or catalog) document, got %r" % kind)


def _as_frame(kind, value, base=None):
    if kind == "frame":
        frame = value
    elif kind == "catalog":
        frame = value.frame
    else:
        _fail(2, "this command needs a frame (or catalog) document, got %r" % kind)
    if base is not None:
        frame = frame.at_base(_parse_point(base, frame.n, "--base"))
    return frame


def _seed(args, required=False):
    env = os.environ.get("CARNOT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            _fail(2, "CARNOT_SEED must be an integer, got %r" % env)
    seed = getattr(args, "seed", None)
    if seed is None and required:
        _fail(2, "this command is randomized: pass --seed or set CARNOT_SEED")
    return seed


def _resolve_change(selector, frame):
    if selector == "epsilon":
        return epsilon(frame).change
    if selector == "first-kind":
        return canonical_first_kind(frame).change
    if selector == "second-kind":
        return canonical_second_kind(frame).change
    if selector == "psi":
        affine, adapted = linearize(frame)
        return CoordinateChange(affine.matrix, affine.offset, frame.weights,
                                psi_map(adapted))
    if selector == "identity":
        n = frame.n
        eye = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        return CoordinateChange(eye, frame.base_point, frame.weights)
    if os.path.exists(selector):
        with open(selector) as fh:
            kind, value = io.load_document(fh.read())
        if kind != "change":
            _fail(2, "--change file must hold a change document, got %r" % kind)
        return value
    _fail(2, "--change must be epsilon, first-kind, second-kind, psi, "
             "identity, or a change-document path (got %r)" % selector)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_catalog(args):
    if args.name is None:
        for name in catalog_names():
            print(name)
        return 0
    try:
        entry = catalog(args.name)
    except KeyError as exc:
        _fail(2, exc.args[0])
    _emit(io.catalog_document(entry))
    return 0


def cmd_validate(args):
    kind, value = _read_source(args.input, check_frames=False)
    failures = []
    if kind in ("algebra", "catalog"):
        constants = value if kind == "algebra" else value.constants
        failures.extend(validate_algebra(constants).failures)
    if kind in ("frame", "catalog"):
        frame = value if kind == "frame" else value.frame
        try:
            frame.validate()
        except ValueError as exc:
            failures.append(str(exc))
    _emit({"kind": kind, "ok": not failures, "failures": failures})
    return 0 if not failures else 1


def cmd_group_law(args):
    constants = _as_algebra(*_read_source(args.input))
    x = _parse_point(args.x, constants.n, "--x")
    y = _parse_point(args.y, constants.n, "--y")
    z = dynkin_product(x, y, constants)
    _emit({"x": io.point_obj(x), "y": io.point_obj(y), "product": io.point_obj(z)})
    return 0


def cmd_linearize(args):
    frame = _as_frame(*_read_source(args.input), base=args.base)
    affine, adapted = linearize(frame)
    _emit(io.change_document(affine,
                             {"adapted_frame": io.frame_to_obj(adapted)}))
    return 0


def cmd_psi(args):
    frame = _as_frame(*_read_source(args.input), base=args.base)
    affine, adapted = linearize(frame)
    change = CoordinateChange(affine.matrix, affine.offset, frame.weights,
                              psi_map(adapted))
    _emit(io.change_document(change))
    return 0


def cmd_epsilon(args):
    frame = _as_frame(*_read_source(args.input), base=args.base)
    eps = epsilon(frame)
    _emit(io.change_document(eps.change,
                             {"tangent_algebra": io.algebra_to_obj(eps.constants)}))
    return 0


def cmd_model_fields(args):
    frame = _as_frame(*_read_source(args.input), base=args.base)
    eps = epsilon(frame)
    models = Frame(eps.model_fields, frame.weights, (0,) * frame.n, check=False)
    _emit(io.frame_document(models))
    return 0


def cmd_order(args):
    frame = _as_frame(*_read_source(args.input), base=args.base)
    n = frame.n
    if args.coordinate is not None and args.poly is not None:
        _fail(2, "--coordinate and --poly are mutually exclusive")
    if args.coordinate is not None:
        if not 1 <= args.coordinate <= n:
            _fail(2, "--coordinate must be in 1..%d" % n)
        from .poly import RationalPoly
        f = RationalPoly.variable(n, args.coordinate - 1)
        label = "x%d" % args.coordinate
    elif args.poly is not None:
        import json
        try:
            obj = json.loads(args.poly)
        except json.JSONDecodeError as exc:
            _fail(2, "--poly is not valid JSON: %s" % exc)
        f = io.poly_from_obj(obj, "--poly")
        if f.n != n:
            _fail(2, "--poly uses %d variables, the frame has %d" % (f.n, n))
        label = str(f)
    else:
        _fail(2, "pass --coordinate K or --poly '<json>'")
    bound = args.bound if args.bound is not None else frame.step + 1
    order = function_order(f, frame, n_max=bound)
    _emit({"function": label, "order": order, "bound": bound,
           "note": None if order is not None
           else "every derivation of weight < %d vanishes" % bound})
    return 0


def _canonical(args, kind_fn):
    frame = _as_frame(*_read_source(args.input), base=args.base)
    if args.numeric:
        seed = _seed(args)
        rng = random.Random(seed) if seed is not None else None
        chart = kind_fn(frame, mode="numeric", degree=args.degree,
                        samples=args.samples, box=args.box, step=args.step,
                        rng=rng)
        _emit(io.numeric_chart_obj(chart.numeric))
        return 0
    chart = kind_fn(frame)
    _emit(io.change_document(chart.change, {
        "forward": {"components": [io.poly_to_obj(c)
                                   for c in chart.forward.components]}}))
    return 0


def cmd_canonical1(args):
    return _canonical(args, canonical_first_kind)


def cmd_canonical2(args):
    return _canonical(args, canonical_second_kind)


def _check(args, checker):
    frame = _as_frame(*_read_source(args.input), base=args.base)
    change = _resolve_change(args.change, frame)
    report = checker(frame, change)
    _emit(io.verification_report_obj(report))
    return 0 if report.ok else 1


def cmd_check_privileged(args):
    return _check(args, check_privileged)


def cmd_check_carnot(args):
    return _check(args, check_carnot)


def cmd_osculate(args):
    frame = _as_frame(*_read_source(args.input), base=args.base)
    seed = _seed(args, required=True)
    rng = random.Random("carnotkit:osculate:%d" % seed)
    report = osculation_report(frame, n_directions=args.directions, rng=rng)
    _emit(io.osculation_report_obj(report))
    return 0 if report.passed else 1


def cmd_selftest(args):
    seed = _seed(args, required=True)
    only = None
    if args.criteria:
        try:
            only = {int(c) for c in args.criteria.split(",")}
        except ValueError:
            _fail(2, "--criteria wants comma-separated integers, got %r"
                  % args.criteria)
    report = run_all(seed, only=only)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def _add_input(p, base=True):
    p.add_argument("input", nargs="?",
                   help="document file, catalog name, or '-' for stdin "
                        "(default: stdin when piped)")
    if base:
        p.add_argument("--base", help="re-base the frame at this point "
                                      "(comma-separated rationals)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="carnot",
        description="Exact privileged and Carnot coordinates for polynomial "
                    "H-frames.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list stock entries or print one")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("validate", help="validate an algebra/frame document")
    _add_input(p, base=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("group-law", help="multiply two points with the BCH law")
    _add_input(p, base=False)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_group_law)

    p = sub.add_parser("linearize", help="affine adaptation at the base point")
    _add_input(p)
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("psi", help="privileged coordinates (affine + psi)")
    _add_input(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("epsilon", help="Carnot coordinates at the base point")
    _add_input(p)
    p.set_defaults(func=cmd_epsilon)

    p = sub.add_parser("model-fields", help="homogeneous model fields at the base")
    _add_input(p)
    p.set_defaults(func=cmd_model_fields)

    p = sub.add_parser("order", help="derivation order of a coordinate function")
    _add_input(p)
    p.add_argument("--coordinate", type=int, metavar="K",
                   help="1-based coordinate index")
    p.add_argument("--poly", metavar="JSON",
                   help="inline polynomial object instead of a coordinate")
    p.add_argument("--bound", type=int,
                   help="search weights < BOUND (default: step + 1)")
    p.set_defaults(func=cmd_order)

    for name, fn, blurb in (
            ("canonical1", cmd_canonical1, "canonical coordinates, first kind"),
            ("canonical2", cmd_canonical2, "canonical coordinates, second kind")):
        p = sub.add_parser(name, help=blurb)
        _add_input(p)
        p.add_argument("--numeric", action="store_true",
                       help="RK4 sampling + least-squares chart instead of "
                            "the exact construction")
        p.add_argument("--degree", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--box", type=float, default=0.25)
        p.add_argument("--step", type=float, default=1e-3)
        p.add_argument("--seed", type=int)
        p.set_defaults(func=fn)

    for name, fn, blurb in (
            ("check-privileged", cmd_check_privileged,
             "are the chart's coordinates privileged?"),
            ("check-carnot", cmd_check_carnot,
             "are the chart's coordinates Carnot coordinates?")):
        p = sub.add_parser(name, help=blurb)
        _add_input(p)
        p.add_argument("--change", required=True,
                       help="epsilon | first-kind | second-kind | psi | "
                            "identity | path to a change document")
        p.set_defaults(func=fn)

    p = sub.add_parser("osculate", help="tangent-group osculation test")
    _add_input(p)
    p.add_argument("--directions", type=int, default=8)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_osculate)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--seed", type=int)
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except io.SchemaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("error: internal: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
