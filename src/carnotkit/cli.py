"""Command-line interface.

Inputs are JSON documents (see io.py) given as a file path, a catalog name
(e.g. ``heisenberg_3``), or ``-``/piped stdin, so commands compose:

    carnot catalog heisenberg_3 | carnot group-law --x 1,0,0 --y 0,1,0

Exit codes: 0 success / check passed, 1 check failed, 2 usage or input
errors, 3 internal error (an ArithmeticError: two routes disagreed, which
is a bug).  ``main`` returns every code; bad input is any ValueError, io's
SchemaError included, and only argparse exits by itself (usage, --help).
The CARNOT_SEED environment variable overrides --seed everywhere.
"""

import argparse
import os
import random
import sys

from . import io, linalg
from .coords import (MAX_OSCULATION_DIRECTIONS, CoordinateChange, NumericChart, epsilon,
                     canonical_first_kind, canonical_second_kind, linearize, psi_map)
from .groups import catalog, catalog_names, dynkin_product, validate_algebra
from .poly import RationalPoly
from .selftest import run_all
from .vfields import Frame, function_order
from .verify import check_carnot, check_privileged, osculation_report


def _emit(doc):
    print(io.dumps(doc))


def _load_file(path, check_frames=True):
    """(kind, value) of the document at path; an unreadable path is bad input."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError("cannot read %r: %s" % (path, exc.strerror))
    return io.load_document(text, check_frames=check_frames)


def _read_source(arg, check_frames=True):
    """(kind, value) from a file path, catalog name, or '-'/piped stdin."""
    if arg is None or arg == "-":
        if arg is None and sys.stdin.isatty():
            raise ValueError("no input: pass a file, a catalog name, or pipe a document")
        return io.load_document(sys.stdin.read(), check_frames=check_frames)
    if os.path.exists(arg):
        return _load_file(arg, check_frames)
    try:
        return "catalog", catalog(arg)
    except KeyError:
        raise ValueError("input %r is neither a file, a catalog name, nor '-'" % arg)


def _as_algebra(kind, value):
    if kind == "algebra":
        return value
    if kind == "catalog":
        return value.constants
    raise ValueError("this command needs an algebra (or catalog) document, got %r" % kind)


def _as_frame(kind, value, base=None):
    if kind == "frame":
        frame = value
    elif kind == "catalog":
        frame = value.frame
    else:
        raise ValueError("this command needs a frame (or catalog) document, got %r" % kind)
    if base is not None:
        frame = frame.at_base(io.parse_point(base.split(","), frame.n, "--base"))
    return frame


def _seed(args, required=False):
    env = os.environ.get("CARNOT_SEED")
    if env is not None:
        return io.parse_int(env, "CARNOT_SEED")
    seed = getattr(args, "seed", None)
    if seed is None and required:
        raise ValueError("this command is randomized: pass --seed or set CARNOT_SEED")
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
        return CoordinateChange(linalg.identity_matrix(frame.n), frame.base_point,
                                frame.weights)
    if os.path.exists(selector):
        kind, value = _load_file(selector)
        if kind != "change":
            raise ValueError("--change file must hold a change document, got %r" % kind)
        return value
    raise ValueError("--change must be epsilon, first-kind, second-kind, psi, "
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
        raise ValueError(exc.args[0])
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
    x = io.parse_point(args.x.split(","), constants.n, "--x")
    y = io.parse_point(args.y.split(","), constants.n, "--y")
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
    _emit(io.change_document(_resolve_change("psi", frame)))
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
        raise ValueError("--coordinate and --poly are mutually exclusive")
    if args.coordinate is not None:
        if not 1 <= args.coordinate <= n:
            raise ValueError("--coordinate must be in 1..%d" % n)
        f = RationalPoly.variable(n, args.coordinate - 1)
        label = "x%d" % args.coordinate
    elif args.poly is not None:
        f = io.poly_from_obj(io.decode_json(args.poly, "--poly"), "--poly")
        if f.n != n:
            raise ValueError("--poly uses %d variables, the frame has %d" % (f.n, n))
        label = str(f)
    else:
        raise ValueError("pass --coordinate K or --poly '<json>'")
    bound = args.bound if args.bound is not None else frame.step + 1
    if bound < 1:
        raise ValueError("--bound must be at least 1, got %d" % bound)
    order = function_order(f, frame, n_max=bound)
    _emit({"function": label, "order": order, "bound": bound,
           "note": None if order is not None
           else "every derivation of weight < %d vanishes" % bound})
    return 0


def _canonical(args, kind, exact_chart):
    frame = _as_frame(*_read_source(args.input), base=args.base)
    if args.numeric:
        seed = _seed(args)
        rng = random.Random(seed) if seed is not None else None
        chart = NumericChart.build(frame, kind, degree=args.degree,
                                   samples=args.samples, box=args.box,
                                   step=args.step, rng=rng)
        _emit(io.numeric_chart_obj(chart))
        return 0
    chart = exact_chart(frame)
    _emit(io.change_document(chart.change, {
        "forward": {"components": [io.poly_to_obj(c)
                                   for c in chart.forward.components]}}))
    return 0


def cmd_canonical1(args):
    return _canonical(args, "first", canonical_first_kind)


def cmd_canonical2(args):
    return _canonical(args, "second", canonical_second_kind)


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
    if not 1 <= args.directions <= MAX_OSCULATION_DIRECTIONS:
        raise ValueError("--directions must be in 1..%d, got %d"
                         % (MAX_OSCULATION_DIRECTIONS, args.directions))
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
            only = {io.parse_int(c, "--criteria") for c in args.criteria.split(",")}
        except ValueError:
            raise ValueError("--criteria wants comma-separated integers, got %r"
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
    p.add_argument("--coordinate", metavar="K",
                   help="1-based coordinate index")
    p.add_argument("--poly", metavar="JSON",
                   help="inline polynomial object instead of a coordinate")
    p.add_argument("--bound",
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
        p.add_argument("--degree")
        p.add_argument("--samples")
        p.add_argument("--box", type=float, default=0.25)
        p.add_argument("--step", type=float, default=1e-3)
        p.add_argument("--seed")
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
    p.add_argument("--directions", default="8")
    p.add_argument("--seed")
    p.set_defaults(func=cmd_osculate)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--seed")
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:  # integer options arrive as text; io parses them, like every number
        for name in ("seed", "bound", "coordinate", "directions", "degree", "samples"):
            if getattr(args, name, None) is not None:
                setattr(args, name, io.parse_int(getattr(args, name), "--" + name))
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("error: internal: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
