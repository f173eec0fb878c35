"""Exact toolkit for maps that send restricted families of lines onto lines.

Multiaffine normal forms, the coefficient constraint system with its sharp
injective solutions, finite-grid collineation oracles and normal-form
recovery, projective frames and the projective-linearity decision procedure,
and the scalar rigidity lemmas — all over the rationals or an odd prime
field, with zero tolerance (every check is exact).
"""

from types import ModuleType as _ModuleType

from .exact import (
    Field, InputError, InternalInconsistencyError, Matrix, PrimeField, QQ,
    Rationals, ResourceError, field_from_json, field_to_json, identity_matrix,
    inverse, is_j_independent, mat_mul, mat_vec, matrix, normalize_coords,
    nullspace, rank_of_vectors, rref, solve, unit_vector, vector,
    vectors_parallel,
)
from .grid import (
    DEFAULT_POINT_BUDGET, FiniteMapTable, LineFamily, enumerate_lines, grid_points,
    point_index, s_family, standard_family, table_from_function, table_from_json,
    table_to_json,
)
from .multiaffine import (
    AffineMap, MultiAffineMap, UnivariateCurve, compose, curve_lies_in_line,
    delta_to_mask, evaluate, identity_map, map_from_json, map_to_json,
    mask_to_delta, reduce_mod, restrict_to_line, tabulate,
)
from .collineations import (
    DiagonalForm, FamilyReport, PlaneForm, SpanInvariantReport, Violation,
    check_family, exhaustive_bijection_search, parallelism_report,
    points_collinear, recover_diagonal_form, recover_plane_form,
    tabulate_diagonal_form, verify_span_invariants,
)
from .constraints import (
    ConstraintCheck, ConstraintSystem, SharpMapSpec, StandardFamilyReport,
    build_constraints, check_standard_family, construct_sharp_map,
    example_r3_map, fifth_direction_refutation, four_direction_form,
    noninjective_r4_variant, sample_constrained_map, satisfies_constraints,
    sharp_r4_map,
)
from .projective import (
    ProjLinearMap, ProjPoint, ProjReport, ProjTable, ProjViolation,
    check_projective_hypotheses, decide_projective_linear, embed_affine_table,
    lines_through, pg_points, proj_general_position, proj_identity, proj_point,
    proj_table_from_json, proj_table_from_map, proj_table_to_json, split,
    transform_from_correspondence,
)
from .scalars import (
    ScalarFunctionTable, bijections_fixing_0_1, identity_table, is_additive,
    is_multiplicative, multiplicative_injections, ratio_criterion,
    verify_additive_rigidity, verify_diagonal_rigidity,
    verify_multiplicative_rigidity,
)

# the submodules are reached as linemaps.<module>, not through `import *`
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
