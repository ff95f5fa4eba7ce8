"""Exact privileged and Carnot coordinates for polynomial H-frames.

Everything is computed over the rationals: graded nilpotent group laws via
the Dynkin form of BCH, model vector fields and nilpotent approximations,
the epsilon Carnot charts, canonical coordinates of both kinds, and the
characterization / osculation checks.  A fixed-step RK4 harness backs the
numeric variants.
"""

from .graded import (WeightVector, dilate, iter_weighted_exponents,
                     ow_scaling_test, ow_violations, weighted_degree)
from .poly import (PolyMap, RationalPoly, invert_triangular,
                   invert_perturbed_triangular, invert_weight_triangular)
from .vfields import (DegenerateFrameError, Frame, PolyVectorField, bracket,
                      expand, function_order, model_field, pushforward,
                      rescale)
from .groups import (StructureConstants, catalog, catalog_names,
                     dynkin_product, group_frame, group_inverse,
                     group_product, left_invariant_fields,
                     structure_constants_at, validate_algebra)
from .coords import (ChartSampler, CoordinateChange, EpsilonResult,
                     NumericChart, canonical_first_kind,
                     canonical_second_kind, combined_field,
                     convert_nilpotent_approx, epsilon, exact_flow, exp_map,
                     linearize, log_map, numeric_flow, psi_map,
                     transform_frame)
from .verify import (check_carnot, check_privileged,
                     generate_adversarial_variants, generate_carnot_variants,
                     generate_privileged_variants, numeric_chart_report,
                     osculation_report, random_osculation_directions)
from .selftest import run_all, run_criterion

__version__ = "0.1.0"

__all__ = [
    "WeightVector", "dilate", "iter_weighted_exponents", "ow_scaling_test",
    "ow_violations", "weighted_degree",
    "PolyMap", "RationalPoly", "invert_triangular",
    "invert_perturbed_triangular", "invert_weight_triangular",
    "DegenerateFrameError", "Frame", "PolyVectorField", "bracket", "expand",
    "function_order", "model_field", "pushforward", "rescale",
    "StructureConstants", "catalog", "catalog_names", "dynkin_product",
    "group_frame", "group_inverse", "group_product",
    "left_invariant_fields", "structure_constants_at", "validate_algebra",
    "ChartSampler", "CoordinateChange", "EpsilonResult", "NumericChart",
    "canonical_first_kind", "canonical_second_kind", "combined_field",
    "convert_nilpotent_approx", "epsilon", "exact_flow", "exp_map",
    "linearize", "log_map", "numeric_flow", "psi_map", "transform_frame",
    "check_carnot", "check_privileged", "generate_adversarial_variants",
    "generate_carnot_variants", "generate_privileged_variants",
    "numeric_chart_report", "osculation_report",
    "random_osculation_directions", "run_all", "run_criterion",
    "__version__",
]
