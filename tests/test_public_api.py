"""The public API is pinned: any name added to or dropped from
``carnotkit.__all__`` shows up as a one-line diff of PUBLIC below, and
CHANGES.md says why."""

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
