"""The benchmark under perfbench/ imports carnotkit names and its tracer
wraps carnotkit functions by name; both must keep resolving, or a run (or
its --trace 1 pass) breaks.  The files are only parsed, never run."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _resolves(module, dotted):
    """Does ``module`` hold ``dotted`` as an attribute chain or a submodule?"""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return False
    for part in dotted.split(".") if dotted else ():
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(obj.__name__ + "." + part)
        except (AttributeError, ImportError):
            return False
    return True


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
