"""Extremal zero counts of systems of forms over finite fields.

Exhaustive searches, closed-form bounds and the monomial footprint
calculus connecting them, plus the projective Reed-Muller codes whose
weight hierarchy mirrors the zero maxima.
"""

from .errors import (AmbientMismatch, BadEncoding, BadLevel, BudgetExceeded,
                     CapExceeded, CountOutOfRange, DependentBasis,
                     DivisionByZero, IndexOutOfRange, NotPrimePower,
                     OutOfRange, WitnessInvalid)
from .formulas import (affine_max_points, affine_max_points_macaulay, binom,
                       conjectured_max_points, conjectured_max_points_macaulay,
                       gaussian_binomial, ghw_lower_bound, known_family,
                       known_max_points, macaulay_tuple, macaulay_value,
                       prm_dimension, prm_min_distance, projective_count,
                       projective_upper_bound, rank_split, vanishing_forms_dim)
from .gf import FieldSpec, make_field
from .monomials import (all_monomials, bounded_tuples, divides, expand, footprint,
                        format_monomial, hypercube, hypercube_footprint,
                        hypercube_lex_segment, hypercube_shadow,
                        hypercube_slice, is_reduced, reduce_monomial,
                        reduced_monomials, restrict_level, shadow, sort_desc,
                        specialize, stable_degree)
from .polys import (AffinePolynomial, HomogeneousPolynomial, make_affine_poly,
                    make_poly, monomial_poly, reduce_polynomial)
from .varieties import (SearchResult, WitnessResult, affine_points,
                        brute_force_affine_max_points,
                        brute_force_max_footprint, brute_force_max_points,
                        construct_witness, count_common_zeros,
                        projective_points)
from .codes import (LinearCode, build_prm, check_duality, export_generator_csv,
                    ghw_exhaustive, ghw_table, subspace_weight)
from .verify import SUITES, Check, SuiteReport, VerifyConfig, run_suites

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
