import io as io_mod
import json
import os
from pathlib import Path
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given

import carnotkit
from carnotkit import cli, io
from carnotkit.coords import CoordinateChange, epsilon
from carnotkit.groups import catalog
from carnotkit.poly import PolyMap, RationalPoly

from conftest import off_centre_change, small_polys


# ---------------------------------------------------------------------------
# Rational parsing.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value,want", [
    (3, Fraction(3)), (-2, Fraction(-2)),
    ("3/4", Fraction(3, 4)), ("-3/4", Fraction(-3, 4)), ("0", Fraction(0)),
])
def test_parse_frac_accepts_exact_values(value, want):
    assert io.parse_frac(value, "here") == want


@pytest.mark.parametrize("value", [0.5, True, False, "abc", "1/0", None, [1]])
def test_parse_frac_rejects_inexact_values(value):
    with pytest.raises(io.SchemaError):
        io.parse_frac(value, "here")


def test_float_rejection_names_the_fix():
    with pytest.raises(io.SchemaError, match="encode rationals as strings"):
        io.parse_frac(0.5, "here")


# ---------------------------------------------------------------------------
# Object round-trips.
# ---------------------------------------------------------------------------

@given(small_polys(3))
def test_poly_round_trip(p):
    assert io.poly_from_obj(io.poly_to_obj(p)) == p


def test_poly_rejects_duplicate_exponent():
    obj = {"vars": 2, "terms": [{"exp": [1, 0], "coef": "1"},
                                {"exp": [1, 0], "coef": "2"}]}
    with pytest.raises(io.SchemaError, match="duplicate exponent"):
        io.poly_from_obj(obj)


def test_algebra_round_trip(group_entry):
    constants = group_entry.constants
    back = io.algebra_from_obj(io.algebra_to_obj(constants))
    assert back.weights == constants.weights
    assert back.table == constants.table


def test_algebra_rejects_bad_indices():
    obj = {"weights": [1, 1, 2],
           "brackets": [{"i": 2, "j": 1, "k": 3, "coef": "1"}]}
    with pytest.raises(io.SchemaError, match="out of range"):
        io.algebra_from_obj(obj)


def test_algebra_rejects_duplicate_bracket():
    obj = {"weights": [1, 1, 2],
           "brackets": [{"i": 1, "j": 2, "k": 3, "coef": "1"},
                        {"i": 1, "j": 2, "k": 3, "coef": "2"}]}
    with pytest.raises(io.SchemaError, match="duplicate bracket"):
        io.algebra_from_obj(obj)


def test_frame_round_trip(frame_entry):
    frame = frame_entry.frame.at_base((1,) * frame_entry.frame.n)
    back = io.frame_from_obj(io.frame_to_obj(frame))
    assert back.weights == frame.weights
    assert back.base_point == frame.base_point
    assert list(back.fields) == list(frame.fields)


def test_change_round_trip():
    frame = catalog("engel_4").frame.at_base((1, 2, 3, 4))
    change = epsilon(frame).change
    assert io.change_from_obj(io.change_to_obj(change)) == change


def test_change_defaults_to_identity_parts():
    change = io.change_from_obj({"weights": [1, 1, 2]})
    assert change == CoordinateChange.identity((1, 1, 2))


def test_change_schema_rejects_invalid_triangular():
    x1 = RationalPoly.variable(2, 0)
    obj = {"weights": [1, 2],
           "triangular": {"components": [io.poly_to_obj(x1),
                                         io.poly_to_obj(x1)]}}
    with pytest.raises(io.SchemaError,
                       match="change: linear term x1 in component 2"):
        io.change_from_obj(obj)


# ---------------------------------------------------------------------------
# Documents.
# ---------------------------------------------------------------------------

def test_load_document_dispatch(group_entry):
    kind, value = io.load_document(io.dumps(io.catalog_document(group_entry)))
    assert kind == "catalog"
    assert value.name == group_entry.name
    assert value.constants.table == group_entry.constants.table

    doc = {"schema": io.SCHEMA, "kind": "algebra",
           "algebra": io.algebra_to_obj(group_entry.constants)}
    kind, value = io.load_document(io.dumps(doc))
    assert kind == "algebra"
    assert value == group_entry.constants

    kind, value = io.load_document(io.dumps(io.frame_document(group_entry.frame)))
    assert kind == "frame"
    assert list(value.fields) == list(group_entry.frame.fields)


def test_load_document_rejects_garbage():
    with pytest.raises(io.SchemaError, match="not valid JSON"):
        io.load_document("{nope")
    with pytest.raises(io.SchemaError, match="schema"):
        io.load_document('{"kind": "algebra"}')
    with pytest.raises(io.SchemaError, match="unknown document kind"):
        io.load_document('{"schema": "carnot-kit/1", "kind": "sandwich"}')


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def test_cli_catalog_list(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "heisenberg_3" in out.splitlines()


def test_cli_catalog_document(capsys):
    assert cli.main(["catalog", "engel_4"]) == 0
    kind, entry = io.load_document(capsys.readouterr().out)
    assert kind == "catalog" and entry.name == "engel_4"


def test_cli_catalog_unknown_name(capsys):
    assert cli.main(["catalog", "nosuchgroup"]) == 2
    assert "unknown catalog entry" in capsys.readouterr().err


def test_cli_group_law(capsys):
    assert cli.main(["group-law", "heisenberg_3",
                     "--x", "1,0,0", "--y", "0,1,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["product"] == ["1", "1", "1/2"]


def test_cli_group_law_via_pipe(capsys, monkeypatch):
    """The documented composition: catalog output piped into group-law."""
    assert cli.main(["catalog", "heisenberg_3"]) == 0
    piped = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io_mod.StringIO(piped))
    assert cli.main(["group-law", "-", "--x", "1,0,0", "--y", "0,1,0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["product"] == ["1", "1", "1/2"]


def test_cli_internal_error_exits_3(capsys, monkeypatch):
    """A route disagreement is a bug: exit 3 with one error line, no traceback."""
    def disagree(*args):
        raise ArithmeticError("model-field routes disagree; this is a bug")
    monkeypatch.setattr(cli, "dynkin_product", disagree)
    assert cli.main(["group-law", "heisenberg_3",
                     "--x", "1,0,0", "--y", "0,1,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: internal: model-field routes disagree; this is a bug"]


def test_cli_pipe_subprocess():
    """Same composition through real processes and the console script.
    The children import the package from where this process found it."""
    here = str(Path(carnotkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [here, os.environ.get("PYTHONPATH")])))
    first = subprocess.run([sys.executable, "-m", "carnotkit.cli",
                            "catalog", "heisenberg_3"],
                           capture_output=True, text=True, env=env)
    assert first.returncode == 0
    second = subprocess.run([sys.executable, "-m", "carnotkit.cli",
                             "group-law", "-", "--x", "1,0,0", "--y", "0,1,0"],
                            input=first.stdout, capture_output=True, text=True,
                            env=env)
    assert second.returncode == 0
    assert json.loads(second.stdout)["product"] == ["1", "1", "1/2"]


def test_only_numeric_commands_load_numpy():
    """In a fresh interpreter, importing the package and running exact
    commands leaves numpy unloaded; a numeric chart loads it."""
    here = str(Path(carnotkit.__file__).resolve().parents[1])
    script = """
import contextlib, io, json, sys
import carnotkit
from carnotkit import cli
loaded = ["numpy" in sys.modules]
for argv in (["epsilon", "heisenberg_3"],
             ["check-carnot", "heisenberg_3", "--change", "epsilon"],
             ["canonical1", "perturbed_heisenberg_3", "--numeric",
              "--samples", "20", "--step", "0.01"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [here, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [False, False, False, True]


def test_cli_epsilon_then_check_carnot(capsys, tmp_path):
    assert cli.main(["epsilon", "heisenberg_3", "--base", "1,2,3"]) == 0
    doc = capsys.readouterr().out
    change_file = tmp_path / "change.json"
    change_file.write_text(doc)
    assert cli.main(["check-carnot", "heisenberg_3", "--base", "1,2,3",
                     "--change", str(change_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and report["witnesses"] == []


def test_cli_check_carnot_flags_second_kind(capsys):
    assert cli.main(["check-carnot", "heisenberg_3",
                     "--change", "second-kind"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert "x1*x2/2 in component 3" in report["witnesses"]
    assert cli.main(["check-privileged", "heisenberg_3",
                     "--change", "second-kind"]) == 0


@pytest.mark.parametrize("command", ["check-carnot", "check-privileged"])
def test_cli_change_with_other_weights_exits_2(capsys, tmp_path, command):
    assert cli.main(["canonical2", "heisenberg_3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    doc["change"]["weights"] = [1, 1, 1]
    change_file = tmp_path / "change.json"
    change_file.write_text(json.dumps(doc))
    assert cli.main([command, "heisenberg_3", "--change", str(change_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: change weights (1, 1, 1) differ")


@pytest.mark.parametrize("command", ["check-carnot", "check-privileged"])
def test_cli_change_centred_elsewhere_exits_2(capsys, tmp_path, command):
    """A truncated factor that vanishes away from its centre is bad input,
    not a disagreement of the Carnot routes."""
    frame, far = off_centre_change()
    frame_file, change_file = tmp_path / "frame.json", tmp_path / "far.json"
    frame_file.write_text(json.dumps(io.frame_document(frame)))
    change_file.write_text(json.dumps(io.change_document(far)))
    assert cli.main([command, str(frame_file), "--change", str(change_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: change does not map the frame's base point "
                            "to the origin; center the chart first\n")


def test_cli_order(capsys):
    assert cli.main(["order", "heisenberg_3", "--coordinate", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 2
    poly = json.dumps({"vars": 3, "terms": [{"exp": [1, 1, 0], "coef": "1"}]})
    assert cli.main(["order", "heisenberg_3", "--poly", poly]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 2


def test_cli_order_rejects_bad_coordinate():
    assert cli.main(["order", "heisenberg_3", "--coordinate", "9"]) == 2


def test_cli_canonical2_forward(capsys):
    assert cli.main(["canonical2", "heisenberg_3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    comps = [io.poly_from_obj(c) for c in doc["forward"]["components"]]
    x1 = RationalPoly.variable(3, 0)
    x2 = RationalPoly.variable(3, 1)
    x3 = RationalPoly.variable(3, 2)
    assert PolyMap(comps) == PolyMap([x1, x2, x3 - x1 * x2 * Fraction(1, 2)])


def test_cli_canonical1_numeric(capsys):
    assert cli.main(["canonical1", "perturbed_heisenberg_3",
                     "--numeric", "--seed", "7", "--samples", "80"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "numeric-chart"
    assert doc["chart_kind"] == "first" and doc["samples"] == 80


def test_cli_validate_catalog(capsys):
    assert cli.main(["validate", "heisenberg_3"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_cli_validate_flags_bad_algebra(capsys, tmp_path):
    doc = {"schema": "carnot-kit/1", "kind": "algebra",
           "algebra": {"weights": [1, 1, 2],
                       # grading violation: [e1, e3] lands in weight 2 != 3
                       "brackets": [{"i": 1, "j": 3, "k": 3, "coef": "1"}]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["failures"]


def _h3_document(kind):
    entry = catalog("heisenberg_3")
    doc = json.loads(io.dumps(io.catalog_document(entry)))
    return {"schema": doc["schema"], "kind": kind, kind: doc[kind]}


@pytest.mark.parametrize("kind,key,value", [
    ("frame", "terms", 5), ("frame", "terms", None), ("frame", "terms", {"exp": [0, 0, 0]}),
    ("algebra", "brackets", None), ("algebra", "brackets", 5), ("algebra", "brackets", "12"),
])
def test_cli_validate_rejects_non_list_terms_and_brackets(capsys, tmp_path, kind, key, value):
    """A 'terms' or 'brackets' entry that is not a list is bad input
    (exit 2), not a crash."""
    doc = _h3_document(kind)
    if kind == "frame":
        doc["frame"]["fields"][0][0]["terms"] = value
    else:
        doc["algebra"]["brackets"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    assert "'%s' must be a list" % key in capsys.readouterr().err


@pytest.mark.parametrize("index", [1.9, 1.0, True, "1", None])
def test_cli_validate_rejects_non_integer_bracket_index(capsys, tmp_path, index):
    """Bracket indices are JSON integers: floats, bools and strings are
    bad input (exit 2), never truncated or coerced."""
    doc = _h3_document("algebra")
    bracket = doc["algebra"]["brackets"][0]
    assert (bracket["i"], bracket["j"], bracket["k"]) == (1, 2, 3)
    bracket["i"] = index
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    assert "needs integer 'i', 'j', 'k'" in capsys.readouterr().err


def test_cli_selftest_subset(capsys):
    assert cli.main(["selftest", "--seed", "1234", "--criteria", "1,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert all("PASS" in line for line in lines)
    assert lines[0].startswith("criterion 01")


@pytest.mark.parametrize("criteria,unknown", [("99", "99"), ("0,6", "0")])
def test_cli_selftest_rejects_unknown_criteria(capsys, criteria, unknown):
    assert cli.main(["selftest", "--seed", "1", "--criteria", criteria]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "no criterion %s;" % unknown in out.err


@pytest.mark.parametrize("directions", ["0", "-3"])
def test_cli_osculate_rejects_nonpositive_directions(capsys, directions):
    assert cli.main(["osculate", "heisenberg_3", "--seed", "1",
                     "--directions", directions]) == 2
    assert "--directions" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["-2", "0"])
def test_cli_order_rejects_nonpositive_bound(capsys, bound):
    assert cli.main(["order", "heisenberg_3", "--coordinate", "3",
                     "--bound", bound]) == 2
    assert "--bound" in capsys.readouterr().err


def test_cli_selftest_requires_seed(capsys, monkeypatch):
    monkeypatch.delenv("CARNOT_SEED", raising=False)
    assert cli.main(["selftest"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_cli_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CARNOT_SEED", "1234")
    assert cli.main(["selftest", "--criteria", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_osculate_requires_seed(monkeypatch):
    monkeypatch.delenv("CARNOT_SEED", raising=False)
    assert cli.main(["osculate", "heisenberg_3"]) == 2


def test_cli_osculate_runs(capsys, monkeypatch):
    monkeypatch.delenv("CARNOT_SEED", raising=False)
    assert cli.main(["osculate", "heisenberg_3", "--directions", "2",
                     "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True


def test_cli_bad_input_name():
    assert cli.main(["group-law", "nosuchthing", "--x", "1", "--y", "1"]) == 2


def test_cli_schema_error_is_exit_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "carnot-kit/1", "kind": "sandwich"}')
    assert cli.main(["epsilon", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-1e-3", "nan", "inf", "1e-300"])
def test_cli_numeric_rejects_bad_step(capsys, step):
    assert cli.main(["canonical1", "heisenberg_3", "--numeric",
                     "--step=" + step, "--seed", "1"]) == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("options", [["--box", "0", "--samples", "25"],
                                     ["--samples", "1"], ["--degree", "0"]])
def test_cli_numeric_rejects_bad_fit(capsys, options):
    assert cli.main(["canonical2", "heisenberg_3", "--numeric", "--seed", "1"]
                    + options) == 2
    assert capsys.readouterr().out == ""
