"""Per-layer timing, taken from outside the program.

``Tracer.install`` wraps the listed public functions of each carnotkit
module and rebinds the wrapper in every loaded module namespace that holds
the original object (the defining module, the modules that imported the
name, and the benchmark's own modules), so calls are counted whichever
path they take.  Methods are wrapped on their class.  ``uninstall``
restores the originals.

For each function the tracer records calls, inclusive seconds and self
seconds (inclusive minus the time spent in wrapped callees).
"""

import functools
import sys
import time

# module -> public functions; "Class.method" entries are wrapped on the class.
TARGETS = {
    "poly": ["RationalPoly.substitute", "PolyMap.compose", "invert_weight_triangular",
             "invert_triangular", "invert_perturbed_triangular"],
    "vfields": ["pushforward", "bracket", "expand", "model_field", "function_order",
                "Frame.bracket_table"],
    "linalg": ["mat_inv"],
    "groups": ["group_product", "validate_algebra", "left_invariant_fields",
               "dynkin_symbolic", "structure_constants_at"],
    "coords": ["linearize", "psi_map", "exp_map", "transform_frame", "epsilon",
               "exact_flow", "canonical_first_kind", "canonical_second_kind",
               "numeric_flow", "ChartSampler.__call__", "NumericChart.build"],
    "verify": ["check_carnot", "check_privileged", "numeric_chart_report"],
    "graded": ["ow_scaling_test"],
    "io": ["dumps", "load_document"],
}

TERMS_OUT = "poly.RationalPoly.substitute.terms_out"


def metric_names():
    """Every traced function's metric prefix, e.g. 'coords.ChartSampler.call'."""
    return [module + "." + target.replace("__call__", "call")
            for module, targets in TARGETS.items() for target in targets]


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in metric_names()}
        self.terms_out = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        count_terms = name == "poly.RationalPoly.substitute"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
            if count_terms:
                self.terms_out += len(out.terms)
            return out
        return wrapper

    def install(self):
        loaded = [m for m in list(sys.modules.values()) if m is not None]
        for module, targets in TARGETS.items():
            mod = sys.modules["carnotkit." + module]
            for target in targets:
                name = module + "." + target.replace("__call__", "call")
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    setattr(cls, attr, new)
                    self._undo.append((cls, attr, raw))
                    continue
                orig = getattr(mod, target)
                new = self._wrap(name, orig)
                for m in loaded:
                    space = getattr(m, "__dict__", None)
                    if not space:
                        continue
                    for key, value in list(space.items()):
                        if value is orig:
                            setattr(m, key, new)
                            self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []

    def metrics(self, passes):
        """Per-pass averages: calls, inclusive and self seconds."""
        out = {}
        for name, (calls, total, own) in self.stats.items():
            out[name + ".calls"] = (calls / passes, "count")
            out[name + ".s"] = (total / passes, "s")
            out[name + ".self_s"] = (own / passes, "s")
        out[TERMS_OUT] = (self.terms_out / passes, "count")
        return out
