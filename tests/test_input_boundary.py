"""Outside input enters through one boundary: io parses every number and
document, and cli.main turns every bad input into one error line, exit 2.

- the rational and integer grammar and their rejected forms;
- one malformed document per io rejection;
- every subcommand and every --change selector, run in process against the
  library call it wraps;
- an AST pin that cli.py parses nothing and exits nowhere by itself;
- numeric sizes past their caps, refused before any work starts.
"""

import ast
from fractions import Fraction
from io import StringIO
import json
from pathlib import Path
import random
import re

import pytest

from carnotkit import cli, coords, io, linalg, poly, verify
from carnotkit.coords import (MAX_FIT_ENTRIES, MAX_OSCULATION_DIRECTIONS,
                              CoordinateChange, canonical_first_kind,
                              canonical_second_kind, epsilon, linearize, psi_map)
from carnotkit.groups import catalog, dynkin_product, validate_algebra
from carnotkit.poly import RationalPoly
from carnotkit.selftest import run_all
from carnotkit.verify import check_carnot, check_privileged, osculation_report
from carnotkit.vfields import Frame, PolyVectorField, function_order


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# The rational grammar.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value,want", [
    (" 3/4 ", Fraction(3, 4)), ("+5", Fraction(5)), ("-0", Fraction(0)),
    ("6/4", Fraction(3, 2)), ("-12/1", Fraction(-12)),
])
def test_parse_frac_reads_sign_digits_and_denominator(value, want):
    assert io.parse_frac(value, "here") == want


@pytest.mark.parametrize("value", [
    "1e10000000", "1E3", "1.5", ".5", "1.", "1_000", "1/2/3", "1/-2", "--1",
    "1 / 2", "", "+", "/2", "inf", "nan", "١",
])
def test_parse_frac_rejects_decimals_exponents_and_groups(value):
    with pytest.raises(io.SchemaError, match=r'here: .* like "-3/4"'):
        io.parse_frac(value, "here")


def test_parse_frac_error_is_short_on_a_huge_string():
    with pytest.raises(io.SchemaError) as err:
        io.parse_frac("1" * 100000, "here")
    assert len(str(err.value)) < 200


def test_parse_point_reads_cli_text():
    assert io.parse_point(" 1/2, -3 ,0".split(","), 3, "--x") == (
        Fraction(1, 2), Fraction(-3), Fraction(0))


@pytest.mark.parametrize("value,want", [(" 3 ", 3), ("+5", 5), ("-0", 0), ("-12", -12)])
def test_parse_int_reads_sign_and_digits(value, want):
    assert io.parse_int(value, "--n") == want


@pytest.mark.parametrize("value", ["1_0", "1/1", "1.0", "1e3", "", "+", "١", "1" * 100000])
def test_parse_int_rejects_what_parse_frac_rejects_and_fractions(value):
    with pytest.raises(io.SchemaError, match="^--n must be an integer, got ") as err:
        io.parse_int(value, "--n")
    assert len(str(err.value)) < 200


# ---------------------------------------------------------------------------
# One malformed document per io rejection.
# ---------------------------------------------------------------------------

def _catalog_doc():
    return json.loads(io.dumps(io.catalog_document(catalog("heisenberg_3"))))


def _change_doc():
    change = epsilon(catalog("heisenberg_3").frame.at_base((1, 2, 3))).change
    return json.loads(io.dumps(io.change_document(change)))


def _set(path, value):
    """A mutation that stores value at the key path inside the document."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return mutate


def _pop(*path):
    def mutate(doc):
        node = doc
        for key in path:
            node = node[key]
        node.pop()
        return doc
    return mutate


FIELD11 = ("frame", "fields", 0, 0)
COMPONENTS = ("change", "triangular", "components")

# (base document, mutation, the message: the spot and what is wrong there).
MALFORMED = {
    "not-an-object": (_catalog_doc, lambda d: [d], "document must be a JSON object"),
    "no-schema": (_catalog_doc, _set(("schema",), "carnot-kit/0"),
                  "missing or unsupported schema 'carnot-kit/0'"),
    "unknown-kind": (_catalog_doc, _set(("kind",), "sandwich"),
                     "unknown document kind 'sandwich'"),
    "catalog-name": (_catalog_doc, _set(("name",), 7),
                     "catalog document needs a string 'name'"),
    "algebra-object": (_catalog_doc, _set(("algebra",), []),
                       "catalog algebra: expected an object"),
    "algebra-weights": (_catalog_doc, _set(("algebra", "weights"), [1, 0, 2]),
                        "catalog algebra: 'weights' must be a list of positive integers"),
    "algebra-order": (_catalog_doc, _set(("algebra", "weights"), [2, 1, 1]),
                      "catalog algebra: weights must be nondecreasing"),
    "bracket-object": (_catalog_doc, _set(("algebra", "brackets", 0), 5),
                       "catalog algebra bracket 0: expected an object"),
    "bracket-range": (_catalog_doc, _set(("algebra", "brackets", 0, "k"), 4),
                      "catalog algebra bracket 0: indices out of range"),
    "bracket-coef": (_catalog_doc, _set(("algebra", "brackets", 0, "coef"), "1e10000000"),
                     "catalog algebra bracket 0: cannot parse rational '1e10000000'"),
    "frame-object": (_catalog_doc, _set(("frame",), None),
                     "catalog frame: expected an object"),
    "frame-order": (_catalog_doc, _set(("frame", "weights"), [2, 1, 1]),
                    "catalog frame: weights must be nondecreasing"),
    "base-point": (_catalog_doc, _set(("frame", "base_point"), ["0"]),
                   "catalog frame base_point: expected a list of 3 rationals"),
    "base-float": (_catalog_doc, _set(("frame", "base_point"), ["0", 0.5, "0"]),
                   "catalog frame base_point: 0.5 is not exact"),
    "fields": (_catalog_doc, _pop("frame", "fields"),
               "catalog frame: 'fields' must list exactly 3 fields"),
    "coefficients": (_catalog_doc, _pop("frame", "fields", 0),
                     "catalog frame field 1: needs exactly 3 coefficient polynomials"),
    "coefficient-vars": (_catalog_doc, _set(FIELD11, {"vars": 2, "terms": []}),
                         "catalog frame field 1: coefficients must use 3 variables"),
    "poly-object": (_catalog_doc, _set(FIELD11, "x1"),
                    "catalog frame field 1 coefficient 1: expected an object"),
    "vars": (_catalog_doc, _set(FIELD11 + ("vars",), 0),
             "catalog frame field 1 coefficient 1: 'vars' must be a positive integer"),
    "term-object": (_catalog_doc, _set(FIELD11 + ("terms",), [[0, 0, 0]]),
                    "catalog frame field 1 coefficient 1 term 0: expected an object"),
    "exp": (_catalog_doc, _set(FIELD11 + ("terms", 0, "exp"), [0, -1, 0]),
            "catalog frame field 1 coefficient 1 term 0: "
            "'exp' must be 3 nonnegative integers"),
    "coef": (_catalog_doc, _set(FIELD11 + ("terms", 0, "coef"), "1.0"),
             "catalog frame field 1 coefficient 1 term 0: cannot parse rational '1.0'"),
    "change-object": (_change_doc, _set(("change",), []), "change: expected an object"),
    "change-weights": (_change_doc, _set(("change", "weights"), None),
                       "change: 'weights' must be a list of positive integers"),
    "affine-object": (_change_doc, _set(("change", "affine"), []),
                      "change: 'affine' must be an object"),
    "affine-matrix": (_change_doc, _pop("change", "affine", "matrix"),
                      "change: 'affine.matrix' must be 3 x 3"),
    "matrix-entry": (_change_doc, _set(("change", "affine", "matrix", 0, 0), True),
                     "change matrix: True is not exact"),
    "offset": (_change_doc, _set(("change", "affine", "offset"), ["1", "2"]),
               "change offset: expected a list of 3 rationals"),
    "triangular-object": (_change_doc, _set(("change", "triangular"), 3),
                          "change: 'triangular' must be an object"),
    "components": (_change_doc, _pop(*COMPONENTS),
                   "change: 'triangular.components' must list 3 polynomials"),
    "component-poly": (_change_doc, _set(COMPONENTS + (0, "vars"), -1),
                       "change component 1: 'vars' must be a positive integer"),
    "component-vars": (_change_doc, _set(COMPONENTS + (0,), {"vars": 2, "terms": []}),
                       "change: components must use 3 variables"),
    "singular-matrix": (_change_doc, _set(("change", "affine", "matrix", 0), [0, 0, 0]),
                        "change: singular matrix"),
}


@pytest.mark.parametrize("row", sorted(MALFORMED))
def test_load_document_names_the_malformed_spot(row):
    base, mutate, message = MALFORMED[row]
    text = json.dumps(mutate(base()))
    with pytest.raises(io.SchemaError, match="^" + re.escape(message)):
        io.load_document(text)


@pytest.mark.parametrize("row", ["catalog-name", "vars", "bracket-coef",
                                 "affine-matrix", "components"])
def test_cli_validate_reports_malformed_documents(capsys, tmp_path, row):
    base, mutate, message = MALFORMED[row]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(base())))
    code, out, err = _run(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)


# ---------------------------------------------------------------------------
# Bad CLI input: one error line, exit 2, nothing on stdout.
# ---------------------------------------------------------------------------

class _Terminal(StringIO):
    def isatty(self):
        return True


def _stdin(document):
    return lambda mp: mp.setattr("sys.stdin", StringIO(io.dumps(document())))


def _frame_doc():
    return io.frame_document(catalog("heisenberg_3").frame)


GROUP_LAW = ["group-law", "heisenberg_3"]
ORDER = ["order", "heisenberg_3"]

# (argv, the start of the error line, a monkeypatch set-up or None).
BAD_INPUT = {
    "x-exponent": (GROUP_LAW + ["--x", "1e10000000,0,0", "--y", "0,1,0"],
                   "--x: cannot parse rational '1e10000000'", None),
    "y-decimal": (GROUP_LAW + ["--x", "1,0,0", "--y", "0,1.5,0"],
                  "--y: cannot parse rational '1.5'", None),
    "x-length": (GROUP_LAW + ["--x", "1,0", "--y", "0,1,0"],
                 "--x: expected a list of 3 rationals", None),
    "base-zero-denominator": (["epsilon", "heisenberg_3", "--base", "1/0,0,0"],
                              "--base: cannot parse rational '1/0'", None),
    "poly-json": (ORDER + ["--poly", "{nope"], "--poly is not valid JSON", None),
    "poly-deep": (ORDER + ["--poly", "[" * 100000], "--poly is not valid JSON", None),
    "poly-exponent": (ORDER + ["--poly", '{"vars": 3, "terms": '
                               '[{"exp": [1, 0, 0], "coef": "2e3"}]}'],
                      "--poly term 0: cannot parse rational '2e3'", None),
    "poly-vars": (ORDER + ["--poly", '{"vars": 2, "terms": []}'],
                  "--poly uses 2 variables, the frame has 3", None),
    "coordinate-and-poly": (ORDER + ["--coordinate", "1", "--poly", "{}"],
                            "--coordinate and --poly are mutually exclusive", None),
    "no-function": (ORDER, "pass --coordinate K or --poly", None),
    "needs-algebra": (["group-law", "-", "--x", "1,0,0", "--y", "0,1,0"],
                      "this command needs an algebra (or catalog) document, "
                      "got 'frame'", _stdin(_frame_doc)),
    "needs-frame": (["epsilon", "-"],
                    "this command needs a frame (or catalog) document, got 'change'",
                    _stdin(_change_doc)),
    "no-input": (["epsilon"], "no input: pass a file",
                 lambda mp: mp.setattr("sys.stdin", _Terminal())),
    "seed-env": (["selftest", "--criteria", "1"],
                 "CARNOT_SEED must be an integer, got 'x'",
                 lambda mp: mp.setenv("CARNOT_SEED", "x")),
    "criteria": (["selftest", "--seed", "1", "--criteria", "1,x"],
                 "--criteria wants", None),
    "criteria-digit-groups": (["selftest", "--seed", "1", "--criteria", "1_0"],
                              "--criteria wants", None),
    "seed-digit-groups": (["selftest", "--seed", "1_0", "--criteria", "1"],
                          "--seed must be an integer, got '1_0'", None),
    "seed-env-digit-groups": (["selftest", "--criteria", "1"],
                              "CARNOT_SEED must be an integer, got '1_0'",
                              lambda mp: mp.setenv("CARNOT_SEED", "1_0")),
    "bound-digit-groups": (ORDER + ["--coordinate", "3", "--bound", "3_0"],
                           "--bound must be an integer, got '3_0'", None),
    "coordinate-decimal": (ORDER + ["--coordinate", "1.0"],
                           "--coordinate must be an integer, got '1.0'", None),
    "directions-digit-groups": (["osculate", "heisenberg_3", "--seed", "1",
                                 "--directions", "1_0"],
                                "--directions must be an integer, got '1_0'", None),
    "degree-digit-groups": (["canonical1", "heisenberg_3", "--numeric", "--seed", "1",
                             "--degree", "1_0"],
                            "--degree must be an integer, got '1_0'", None),
    "samples-digit-groups": (["canonical2", "heisenberg_3", "--numeric", "--seed", "1",
                              "--samples", "8_0"],
                             "--samples must be an integer, got '8_0'", None),
    "change-selector": (["check-carnot", "heisenberg_3", "--change", "nosuch"],
                        "--change must be", None),
    "change-file-kind": (["check-carnot", "heisenberg_3", "--change", "{catalog}"],
                         "--change file must hold a change document, got 'catalog'",
                         None),
}


@pytest.mark.parametrize("row", sorted(BAD_INPUT))
def test_cli_bad_input_is_one_error_line(capsys, monkeypatch, tmp_path, row):
    argv, message, setup = BAD_INPUT[row]
    monkeypatch.delenv("CARNOT_SEED", raising=False)
    if setup is not None:
        setup(monkeypatch)
    path = tmp_path / "catalog.json"
    path.write_text(io.dumps(_catalog_doc()))
    code, out, err = _run(capsys, [a.replace("{catalog}", str(path)) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)
    assert len(err.splitlines()) == 1


def _frame_at_zero(coefficients, weights):
    n = len(weights)
    fields = [PolyVectorField([RationalPoly(n, terms) for terms in row])
              for row in coefficients]
    return Frame(fields, weights, (0,) * n)


# Frames good at 0 and bad at --base: the Engel-type fields X1 = d1,
# X2 = d2 + x1 d3 + x1^2/2 d4 (with X3 = d3, X4 = d4), whose [X1, X2] =
# X3 + x1 X4 leaves the filtration where x1 != 0, and X1 = d1,
# X2 = (x1 - 1/2) d2, degenerate where x1 = 1/2.
UNIT = {(0, 0, 0, 0): 1}
REBASED = {
    "filtration": (_frame_at_zero([[UNIT, {}, {}, {}],
                                   [{}, UNIT, {(1, 0, 0, 0): 1},
                                    {(2, 0, 0, 0): Fraction(1, 2)}],
                                   [{}, {}, UNIT, {}], [{}, {}, {}, UNIT]],
                                  (1, 1, 2, 3)),
                   "1/2,0,0,0",
                   "[X1, X2] leaves the weight filtration at (1/2, 0, 0, 0): "
                   "component 4 (weight 3 > 2)"),
    "degenerate": (_frame_at_zero([[{(0, 0): 1}, {}],
                                   [{}, {(1, 0): 1, (0, 0): Fraction(-1, 2)}]], (1, 1)),
                   "1/2,0", "frame is degenerate (B(x) singular) at (1/2, 0)"),
}
SUBPARSERS = next(a for a in cli.build_parser()._actions
                  if a.__class__.__name__ == "_SubParsersAction").choices
REQUIRED = {"order": ["--coordinate", "4"], "osculate": ["--seed", "1"],
            "check-privileged": ["--change", "epsilon"],
            "check-carnot": ["--change", "epsilon"]}
FRAME_COMMANDS = [(name, REQUIRED.get(name, [])) for name, p in SUBPARSERS.items()
                  if any("--base" in a.option_strings for a in p._actions)]


@pytest.mark.parametrize("row", sorted(REBASED))
@pytest.mark.parametrize("command,extra", FRAME_COMMANDS,
                         ids=[c for c, _ in FRAME_COMMANDS])
def test_cli_base_is_checked_like_a_document_base(capsys, monkeypatch, tmp_path,
                                                  command, extra, row):
    frame, base, message = REBASED[row]
    monkeypatch.delenv("CARNOT_SEED", raising=False)
    path = tmp_path / "frame.json"
    path.write_text(io.dumps(io.frame_document(frame)))
    code, out, err = _run(capsys, [command, str(path), "--base", base] + extra)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("row", sorted(REBASED))
def test_at_base_checks_the_new_point_by_default(row):
    """The library re-base checks as ``--base`` does; ``check=False`` opts out."""
    frame, base, message = REBASED[row]
    point = tuple(Fraction(x) for x in base.split(","))
    with pytest.raises(ValueError) as info:
        frame.at_base(point)
    assert str(info.value) == message
    assert frame.at_base(point, check=False).base_point == point


def test_cli_integer_options_allow_surrounding_whitespace(capsys):
    """Integers and rationals share one grammar: surrounding whitespace is
    allowed, as in --x, and the padded option means the plain one."""
    plain = _run(capsys, ORDER + ["--coordinate", "3", "--bound", "3"])
    assert plain[0] == 0 and json.loads(plain[1])["bound"] == 3
    assert _run(capsys, ORDER + ["--coordinate", " 3", "--bound", " 3 "]) == plain


@pytest.mark.parametrize("argv", [["epsilon", "{dir}"],
                                  ["check-carnot", "heisenberg_3", "--change", "{dir}"]])
def test_cli_unreadable_path_exits_2(capsys, tmp_path, argv):
    """A directory (or any path open() refuses) is bad input, not a crash."""
    argv = [a.format(dir=tmp_path) for a in argv]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read %r: " % str(tmp_path))


# ---------------------------------------------------------------------------
# Numeric sizes: capped before any enumeration or integration.
# ---------------------------------------------------------------------------

def _refuse_work(*args, **kwargs):
    raise AssertionError("work started before the size check")


@pytest.mark.parametrize("argv,message", [
    (["canonical1", "heisenberg_3", "--numeric", "--seed", "1", "--degree", "30"],
     "16368 samples of 5456 basis monomials exceed the cap of %d entries"
     % MAX_FIT_ENTRIES),
    (["canonical2", "heisenberg_3", "--numeric", "--seed", "1", "--degree", "1",
      "--samples", str(MAX_FIT_ENTRIES // 4 + 1)],
     "%d samples of 4 basis monomials exceed the cap of %d entries"
     % (MAX_FIT_ENTRIES // 4 + 1, MAX_FIT_ENTRIES)),
    (["osculate", "heisenberg_3", "--seed", "1",
      "--directions", str(MAX_OSCULATION_DIRECTIONS + 1)],
     "--directions must be in 1..%d, got %d"
     % (MAX_OSCULATION_DIRECTIONS, MAX_OSCULATION_DIRECTIONS + 1)),
], ids=["degree", "samples", "directions"])
def test_cli_caps_numeric_sizes_before_any_work(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("CARNOT_SEED", raising=False)
    for module, name in ((coords, "iter_weighted_exponents"), (coords, "ChartSampler"),
                         (verify, "epsilon"), (verify, "random_osculation_directions")):
        monkeypatch.setattr(module, name, _refuse_work)
    assert _run(capsys, argv) == (2, "", "error: %s\n" % message)


# ---------------------------------------------------------------------------
# Every subcommand and --change selector, against the library call it wraps.
# ---------------------------------------------------------------------------

FRAME, BASE = "perturbed_heisenberg_3", "1/2,-1,2"


def _frame():
    return catalog(FRAME).frame.at_base((Fraction(1, 2), -1, 2))


def _psi_change(frame):
    affine, adapted = linearize(frame)
    return CoordinateChange(affine.matrix, affine.offset, frame.weights,
                            psi_map(adapted))


CHANGES = {
    "epsilon": lambda f: epsilon(f).change,
    "first-kind": lambda f: canonical_first_kind(f).change,
    "second-kind": lambda f: canonical_second_kind(f).change,
    "psi": _psi_change,
    "identity": lambda f: CoordinateChange(linalg.identity_matrix(f.n),
                                           f.base_point, f.weights),
}


def _document(out, want_kind):
    kind, value = io.load_document(out)
    assert kind == want_kind
    return value


def _expect_catalog(out):
    entry = _document(out, "catalog")
    assert entry.constants == catalog("engel_4").constants
    return 0


def _expect_validate(out):
    failures = validate_algebra(catalog("engel_4").constants).failures
    assert json.loads(out)["failures"] == failures
    return 0 if not failures else 1


def _expect_group_law(out):
    sc = catalog("heisenberg_3").constants
    want = dynkin_product((Fraction(1, 2), 0, 0), (0, 1, 0), sc)
    assert json.loads(out)["product"] == io.point_obj(want)
    return 0


def _expect_change(build, extra=None):
    def expect(out):
        assert _document(out, "change") == build(_frame())
        if extra is not None:
            extra(json.loads(out))
        return 0
    return expect


def _expect_model_fields(out):
    models = _document(out, "frame")
    assert list(models.fields) == list(epsilon(_frame()).model_fields)
    return 0


def _expect_order(out):
    frame = _frame()
    want = function_order(RationalPoly.variable(3, 2), frame, n_max=frame.step + 1)
    assert json.loads(out)["order"] == want
    return 0


def _expect_check(checker, selector):
    def expect(out):
        frame = _frame()
        report = checker(frame, CHANGES[selector](frame))
        assert json.loads(out)["witnesses"] == list(report.witnesses)
        return 0 if report.ok else 1
    return expect


def _expect_osculate(out):
    report = osculation_report(_frame(), n_directions=2,
                               rng=random.Random("carnotkit:osculate:5"))
    assert json.loads(out)["passed"] is report.passed
    return 0 if report.passed else 1


def _expect_selftest(out):
    report = run_all(3, only={1, 2})
    assert out.splitlines() == report.lines()
    return 0 if report.passed else 1


def _forward(build):
    def check(doc):
        comps = [io.poly_from_obj(c) for c in doc["forward"]["components"]]
        assert comps == list(build(_frame()).forward.components)
    return check


SUBCOMMANDS = [
    (["catalog", "engel_4"], _expect_catalog),
    (["validate", "engel_4"], _expect_validate),
    (["group-law", "heisenberg_3", "--x", "1/2,0,0", "--y", "0,1,0"], _expect_group_law),
    (["linearize", FRAME, "--base", BASE], _expect_change(lambda f: linearize(f)[0])),
    (["psi", FRAME, "--base", BASE], _expect_change(_psi_change)),
    (["epsilon", FRAME, "--base", BASE], _expect_change(CHANGES["epsilon"])),
    (["model-fields", FRAME, "--base", BASE], _expect_model_fields),
    (["order", FRAME, "--base", BASE, "--coordinate", "3"], _expect_order),
    (["canonical1", FRAME, "--base", BASE],
     _expect_change(CHANGES["first-kind"], _forward(canonical_first_kind))),
    (["canonical2", FRAME, "--base", BASE],
     _expect_change(CHANGES["second-kind"], _forward(canonical_second_kind))),
    (["osculate", FRAME, "--base", BASE, "--seed", "5", "--directions", "2"],
     _expect_osculate),
    (["selftest", "--seed", "3", "--criteria", "1,2"], _expect_selftest),
] + [([command, FRAME, "--base", BASE, "--change", selector],
      _expect_check(checker, selector))
     for command, checker in (("check-carnot", check_carnot),
                              ("check-privileged", check_privileged))
     for selector in CHANGES]


@pytest.mark.parametrize("argv,expect", SUBCOMMANDS, ids=[
    a[0] + ("-" + a[-1] if "--change" in a else "") for a, _ in SUBCOMMANDS])
def test_cli_subcommand_matches_its_library_call(capsys, monkeypatch, argv, expect):
    monkeypatch.delenv("CARNOT_SEED", raising=False)
    code, out, err = _run(capsys, argv)
    assert err == ""
    assert code == expect(out)


def test_subcommand_table_covers_the_parser():
    assert {argv[0] for argv, _ in SUBCOMMANDS} == set(SUBPARSERS)
    checks = {(argv[0], argv[-1]) for argv, _ in SUBCOMMANDS if "--change" in argv}
    assert checks == {(c, s) for c in ("check-carnot", "check-privileged")
                      for s in CHANGES}


# ---------------------------------------------------------------------------
# The boundary, pinned in cli.py's syntax tree.
# ---------------------------------------------------------------------------

def test_outside_text_is_parsed_only_by_io():
    """cli.py calls no Fraction, int, json.loads or SystemExit and opens
    files in one function; polynomial coefficients are never parsed from
    text."""
    with pytest.raises(TypeError):
        poly._coef("1/2")
    with pytest.raises(TypeError):
        RationalPoly(2, {(0, 0): "1/2"})
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    callees = [ast.unparse(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert not names & {"Fraction", "SystemExit", "int"}
    assert "json.loads" not in callees and "loads" not in names
    openers = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for n in ast.walk(f)
               if isinstance(n, ast.Call) and ast.unparse(n.func) == "open"]
    assert callees.count("open") == 1 and len(openers) == 1
