"""The public API of `linemaps`, pinned: a name is added or removed only on
purpose, together with this list."""

from __future__ import annotations

import json

import linemaps

PUBLIC = [
    "AffineMap", "ConstraintCheck", "ConstraintSystem", "DEFAULT_POINT_BUDGET",
    "DiagonalForm", "FamilyReport", "Field", "FiniteMapTable", "InputError",
    "InternalInconsistencyError", "LineFamily", "Matrix", "MultiAffineMap",
    "PlaneForm", "PrimeField", "ProjLinearMap", "ProjPoint", "ProjReport",
    "ProjTable", "ProjViolation", "QQ", "Rationals", "ResourceError",
    "ScalarFunctionTable", "SharpMapSpec", "SpanInvariantReport",
    "StandardFamilyReport", "UnivariateCurve", "Violation", "bijections_fixing_0_1",
    "build_constraints", "check_family", "check_projective_hypotheses",
    "check_standard_family", "compose", "construct_sharp_map", "curve_lies_in_line",
    "decide_projective_linear", "delta_to_mask", "embed_affine_table",
    "enumerate_lines", "evaluate", "example_r3_map", "exhaustive_bijection_search",
    "field_from_json", "field_to_json", "fifth_direction_refutation",
    "four_direction_form", "grid_points", "identity_map", "identity_matrix",
    "identity_table", "inverse", "is_additive", "is_j_independent",
    "is_multiplicative", "lines_through", "map_from_json", "map_to_json",
    "mask_to_delta", "mat_mul", "mat_vec", "matrix", "multiplicative_injections",
    "noninjective_r4_variant", "normalize_coords", "nullspace",
    "parallelism_report", "pg_points", "point_index", "points_collinear",
    "proj_general_position", "proj_identity", "proj_point", "proj_table_from_json",
    "proj_table_from_map", "proj_table_to_json", "rank_of_vectors",
    "ratio_criterion", "recover_diagonal_form", "recover_plane_form", "reduce_mod",
    "restrict_to_line", "rref", "s_family", "sample_constrained_map",
    "satisfies_constraints", "sharp_r4_map", "solve", "split", "standard_family",
    "table_from_function", "table_from_json", "table_to_json", "tabulate",
    "tabulate_diagonal_form", "transform_from_correspondence", "unit_vector",
    "vector", "vectors_parallel", "verify_additive_rigidity",
    "verify_diagonal_rigidity", "verify_multiplicative_rigidity",
    "verify_span_invariants",
]


def test_the_public_names_are_exactly_the_pinned_list():
    assert sorted(linemaps.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from linemaps import *", namespace)
    assert [name for name in PUBLIC if name not in namespace] == []


# in a fresh interpreter, where `import linemaps` has loaded no module yet
FRESH = """
import json, types, linemaps
listed = set(dir(linemaps)) >= set(linemaps.__all__)
modules = [name for name in ("exact", "grid", "multiaffine", "collineations", "constraints",
                             "projective", "scalars")
           if not isinstance(getattr(linemaps, name), types.ModuleType)]
try:
    linemaps.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
namespace = {}
exec("from linemaps import *", namespace)
print(json.dumps([listed, modules, unknown,
                  sorted(name for name in namespace if name != "__builtins__")]))
"""


def test_the_lazy_package_resolves_every_name_in_a_fresh_interpreter(fresh_python):
    assert json.loads(fresh_python(FRESH)) == [
        True, [], "module 'linemaps' has no attribute 'no_such_name'", PUBLIC]
