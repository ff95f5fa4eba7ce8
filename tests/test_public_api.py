"""The public API is pinned: any name added to or dropped from
``carnotkit.__all__`` shows up as a one-line diff of PUBLIC below, any
parameter or default added to, dropped from or changed in a public callable
or public method as a one-line diff of SIGNATURES, and CHANGES.md says why."""

import inspect

import carnotkit

PUBLIC = [
    "ChartSampler", "CoordinateChange", "DegenerateFrameError", "EpsilonResult",
    "Frame", "NumericChart", "PolyMap", "PolyVectorField", "RationalPoly",
    "StructureConstants", "WeightVector", "__version__", "bracket",
    "canonical_first_kind", "canonical_second_kind", "catalog", "catalog_names",
    "check_carnot", "check_privileged", "combined_field",
    "convert_nilpotent_approx", "dilate", "dynkin_product", "epsilon",
    "exact_flow", "exp_map", "expand", "function_order",
    "generate_adversarial_variants", "generate_carnot_variants",
    "generate_privileged_variants", "group_frame", "group_inverse",
    "group_product", "invert_perturbed_triangular", "invert_triangular",
    "invert_weight_triangular", "iter_weighted_exponents",
    "left_invariant_fields", "linearize", "log_map", "model_field",
    "numeric_chart_report", "numeric_flow", "osculation_report",
    "ow_scaling_test", "ow_violations", "psi_map", "pushforward",
    "random_osculation_directions", "rescale", "run_all", "run_criterion",
    "structure_constants_at", "transform_frame", "validate_algebra",
    "weighted_degree",
]


def test_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC)
    assert len(carnotkit.__all__) == len(set(carnotkit.__all__))
    assert sorted(carnotkit.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in carnotkit.__all__ if not hasattr(carnotkit, name)]
    assert not missing


# Parameter names and defaults; a default whose repr is long shows its type.
SIGNATURES = {
    'ChartSampler': '(frame, kind, step=0.001)',
    'CoordinateChange': '(matrix, offset, weights, poly=None)',
    'CoordinateChange.affine_inverse_polymap': '(self)',
    'CoordinateChange.affine_polymap': '(self)',
    'CoordinateChange.apply': '(self, point)',
    'CoordinateChange.compose_tail': '(self, outer)',
    'CoordinateChange.forward_polymap': '(self)',
    'CoordinateChange.identity': '(weights)',
    'CoordinateChange.inverse_apply': '(self, point)',
    'CoordinateChange.inverse_polymap': '(self, max_weight=None)',
    'EpsilonResult': '(frame, change, model_fields, constants)',
    'Frame': '(fields, weights, base_point, check=True)',
    'Frame.adapted_matrix': '(self, point=None)',
    'Frame.at_base': '(self, point, check=True)',
    'Frame.bracket_table': '(self, point=None)',
    'Frame.coefficient_matrix': '(self, point=None)',
    'Frame.validate': '(self)',
    'NumericChart': '(kind, weights, base_point, degree, box, basis, coeffs, step, samples)',
    'NumericChart.build': '(frame, kind, degree=None, box=0.25, samples=None, step=0.001, rng=None)',
    'NumericChart.evaluate': '(self, x)',
    'PolyMap': '(components)',
    'PolyMap.compose': '(self, other, weights=None, bound=None)',
    'PolyMap.constant_part': '(self)',
    'PolyMap.evaluate': '(self, point)',
    'PolyMap.identity': '(n)',
    'PolyMap.linear_matrix': '(self)',
    'PolyVectorField': '(coefficients)',
    'PolyVectorField.apply': '(self, f, max_degree=None)',
    'PolyVectorField.coordinate': '(n, j)',
    'PolyVectorField.evaluate': '(self, point)',
    'PolyVectorField.zero': '(n)',
    'RationalPoly': '(nvars, terms=None)',
    'RationalPoly.const': '(nvars, c)',
    'RationalPoly.evaluate': '(self, point)',
    'RationalPoly.monomial': '(nvars, exp, c=1)',
    'RationalPoly.partial': '(self, j)',
    'RationalPoly.sorted_terms': '(self)',
    'RationalPoly.substitute': '(self, args, weights=None, bound=None)',
    'RationalPoly.variable': '(nvars, j)',
    'RationalPoly.zero': '(nvars)',
    'StructureConstants': '(weights, table)',
    'StructureConstants.get': '(self, i, j, k)',
    'StructureConstants.items_full': '(self)',
    'StructureConstants.key': '(self)',
    'WeightVector': '(weights)',
    'bracket': '(x, y)',
    'canonical_first_kind': '(frame)',
    'canonical_second_kind': '(frame)',
    'catalog': '(name)',
    'catalog_names': '()',
    'check_carnot': '(frame, change, eps=None)',
    'check_privileged': '(frame, change)',
    'combined_field': '(fields, xi)',
    'convert_nilpotent_approx': '(models, targets, weights)',
    'dilate': '(x, t, weights)',
    'dynkin_product': '(x, y, constants)',
    'epsilon': '(frame)',
    'exact_flow': '(fields, weights)',
    'exp_map': '(fields, weights)',
    'expand': '(x_field, weights)',
    'function_order': '(f, frame, n_max=None)',
    'generate_adversarial_variants': '(change, count, rng)',
    'generate_carnot_variants': '(change, count, rng)',
    'generate_privileged_variants': '(change, count, rng)',
    'group_frame': '(constants, base_point=None)',
    'group_inverse': '(x)',
    'group_product': '(x, y, constants)',
    'invert_perturbed_triangular': '(m, weights, max_weight)',
    'invert_triangular': '(m, weights)',
    'invert_weight_triangular': '(m, weights, max_weight=None)',
    'iter_weighted_exponents': "(weights, bound, mode='eq')",
    'left_invariant_fields': '(constants)',
    'linearize': '(frame)',
    'log_map': '(m, weights)',
    'model_field': '(x_field, j, weights)',
    'numeric_chart_report': "(frame, kind='first', m=1, eps=None, directions=None, n_directions=4, rng=None, t_grid=<tuple>)",
    'numeric_flow': '(field, y, t_total, step=0.001)',
    'osculation_report': '(frame, n_directions=8, directions=None, rng=None, t_grid=<tuple>)',
    'ow_scaling_test': '(f, m, weights, directions, t_grid=<tuple>)',
    'ow_violations': '(residual, m, weights)',
    'psi_map': '(frame)',
    'pushforward': '(x_field, forward, inverse)',
    'random_osculation_directions': '(weights, count, rng)',
    'rescale': '(x_field, t, weights)',
    'run_all': '(seed, only=None)',
    'run_criterion': '(number, seed)',
    'structure_constants_at': '(frame)',
    'transform_frame': '(frame, change)',
    'validate_algebra': '(constants)',
    'weighted_degree': '(exp, weights)',
}


class _Shown:
    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


def _signature(obj):
    sig = inspect.signature(obj)
    params = []
    for p in sig.parameters.values():
        if p.default is not p.empty:
            text = repr(p.default)
            p = p.replace(default=_Shown(
                text if len(text) <= 24 else "<%s>" % type(p.default).__name__))
        params.append(p)
    return str(sig.replace(parameters=params))


def test_public_signatures_are_pinned():
    """Every public callable but the exceptions, which take ValueError's
    arguments, and every public method of the public classes."""
    got = {}
    for name in carnotkit.__all__:
        obj = getattr(carnotkit, name)
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        got[name] = _signature(obj)
        if inspect.isclass(obj):
            for attr in dir(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    got[name + "." + attr] = _signature(getattr(obj, attr))
    assert got == SIGNATURES
