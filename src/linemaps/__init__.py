"""Exact toolkit for maps that send restricted families of lines onto lines.

Multiaffine normal forms, the coefficient constraint system with its sharp
injective solutions, finite-grid collineation oracles and normal-form
recovery, projective frames and the projective-linearity decision procedure,
and the scalar rigidity lemmas — all over the rationals or an odd prime
field, with zero tolerance (every check is exact).

`import linemaps` loads none of the modules below.  Each public name, and each
`linemaps.<module>`, loads its module on first use (PEP 562), so a process
pays only for the modules it reaches.
"""

from importlib import import_module as _import_module

# the public names, by the module that defines them
_EXPORTS = {
    "exact": (
        "Field", "InputError", "InternalInconsistencyError", "Matrix", "PrimeField", "QQ",
        "Rationals", "ResourceError", "field_from_json", "field_to_json", "identity_matrix",
        "inverse", "is_j_independent", "mat_mul", "mat_vec", "matrix", "normalize_coords",
        "nullspace", "rank_of_vectors", "rref", "solve", "unit_vector", "vector",
        "vectors_parallel",
    ),
    "grid": (
        "DEFAULT_POINT_BUDGET", "FiniteMapTable", "LineFamily", "enumerate_lines",
        "grid_points", "point_index", "s_family", "standard_family", "table_from_function",
        "table_from_json", "table_to_json",
    ),
    "multiaffine": (
        "AffineMap", "MultiAffineMap", "UnivariateCurve", "compose", "curve_lies_in_line",
        "delta_to_mask", "evaluate", "identity_map", "map_from_json", "map_to_json",
        "mask_to_delta", "reduce_mod", "restrict_to_line", "tabulate",
    ),
    "collineations": (
        "DiagonalForm", "FamilyReport", "PlaneForm", "SpanInvariantReport", "Violation",
        "check_family", "exhaustive_bijection_search", "parallelism_report",
        "points_collinear", "recover_diagonal_form", "recover_plane_form",
        "tabulate_diagonal_form", "verify_span_invariants",
    ),
    "constraints": (
        "ConstraintCheck", "ConstraintSystem", "SharpMapSpec", "StandardFamilyReport",
        "build_constraints", "check_standard_family", "construct_sharp_map",
        "example_r3_map", "fifth_direction_refutation", "four_direction_form",
        "noninjective_r4_variant", "sample_constrained_map", "satisfies_constraints",
        "sharp_r4_map",
    ),
    "projective": (
        "ProjLinearMap", "ProjPoint", "ProjReport", "ProjTable", "ProjViolation",
        "check_projective_hypotheses", "decide_projective_linear", "embed_affine_table",
        "lines_through", "pg_points", "proj_general_position", "proj_identity", "proj_point",
        "proj_table_from_json", "proj_table_from_map", "proj_table_to_json", "split",
        "transform_from_correspondence",
    ),
    "scalars": (
        "ScalarFunctionTable", "bijections_fixing_0_1", "identity_table", "is_additive",
        "is_multiplicative", "multiplicative_injections", "ratio_criterion",
        "verify_additive_rigidity", "verify_diagonal_rigidity",
        "verify_multiplicative_rigidity",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the submodules are reached as linemaps.<module>, not through `import *`
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
