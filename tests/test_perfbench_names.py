"""The benchmark under perfbench/ imports carnotkit names, calls them with
keyword arguments, and its tracer wraps carnotkit functions by name; all of
these must keep resolving and binding, or a run (or its --trace 1 pass)
breaks.  The files are only parsed, never run."""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _lookup(module, dotted):
    """The object ``dotted`` names in ``module``, as an attribute chain or
    a submodule, or None."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    for part in dotted.split(".") if dotted else ():
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(obj.__name__ + "." + part)
        except (AttributeError, ImportError):
            return None
    return obj


def _resolves(module, dotted):
    return _lookup(module, dotted) is not None


def test_tracer_targets_resolve():
    tree = _parse("tracer.py")
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    missing = [module + "." + name
               for module, names in targets.items() for name in names
               if not _resolves("carnotkit." + module, name)]
    assert not missing, "tracer TARGETS no longer in carnotkit: %s" % missing


def test_perfbench_carnotkit_imports_resolve():
    missing = []
    seen = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_parse(path.name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "carnotkit":
                for alias in node.names:
                    seen += 1
                    if not _resolves(node.module, alias.name):
                        missing.append("%s: from %s import %s"
                                       % (path.name, node.module, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "carnotkit":
                        seen += 1
                        if not _resolves(alias.name, ""):
                            missing.append("%s: import %s" % (path.name, alias.name))
    assert seen, "perfbench/ imports nothing from carnotkit"
    assert not missing, "perfbench imports that no longer resolve: %s" % missing


def _carnotkit_names(tree):
    """Local name -> (module, attribute) for each carnotkit import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "carnotkit":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "carnotkit":
                    if alias.asname:
                        names[alias.asname] = (alias.name, "")
                    else:
                        names["carnotkit"] = ("carnotkit", "")
    return names


def _call_chain(func):
    """['NumericChart', 'build'] for NumericChart.build(...), else None."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    return [func.id] + parts[::-1] if isinstance(func, ast.Name) else None


def test_perfbench_keyword_arguments_bind():
    """Every keyword argument a perfbench call passes to an imported
    carnotkit callable is still a parameter of it."""
    bad = []
    seen = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path.name)
        names = _carnotkit_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            chain = _call_chain(node.func)
            if not keywords or not chain or chain[0] not in names:
                continue
            module, attr = names[chain[0]]
            label = "%s:%d %s(%s=)" % (path.name, node.lineno, ".".join(chain),
                                       "=, ".join(keywords))
            target = _lookup(module, ".".join(p for p in [attr] + chain[1:] if p))
            if not callable(target):
                bad.append("%s: not a carnotkit callable" % label)
                continue
            seen += 1
            n_args = sum(not isinstance(a, ast.Starred) for a in node.args)
            try:
                inspect.signature(target).bind_partial(
                    *[None] * n_args, **dict.fromkeys(keywords))
            except TypeError as exc:
                bad.append("%s: %s" % (label, exc))
    assert seen, "perfbench/ passes no keyword arguments to carnotkit"
    assert not bad, "perfbench calls that no longer bind: %s" % bad
