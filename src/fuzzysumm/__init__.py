"""Windowed weighted summability and statistical convergence for sequences
of fuzzy-number-valued functions, at desk scale."""

from .numbers import (ATOL, DEFAULT_LEVEL_COUNT, ClosenessCheck, FuzzyNumber,
                      add, closeness_check, crisp, distance, partial_leq,
                      resample, scale, translate, triangular,
                      triangular_profile_distance, triangular_profile_of,
                      uniform_alphas, zero)
from .schemes import (BetaGammaScheme, DegenerateWindowError, RatioResult,
                      SchemeValidation, WeightSequence, classical_scheme,
                      constant_weights, dilate, harmonicplus_weights,
                      lacunary_scheme, lambda_scheme, parse_scheme_spec,
                      parse_weight_spec, power_scheme, ratio_condition,
                      recip5_weights, validate_scheme, weighted_total)
from .sequences import (BoundednessReport, FuzzyFunctionSequence, XGridPolicy,
                        add_families, alternating_crisp_family,
                        constant_family, cube_decaying_family,
                        harmonic_crisp_family, is_bounded, is_cube, is_square,
                        parse_family_spec, scale_family,
                        square_indicator_family, triangular_growing_family,
                        truncated_square_indicator_family, uniform_grid)
from .summability import (ConvergenceReport, ModeParams, ModeTrace, Verdict,
                          VerdictPolicy, absolute_partial, classify, ladder,
                          ordinary_partial, sp_density, verdict,
                          window_fuzzy_mean)
from .tauberian import (SlowDecreaseWitness, TauberianReport,
                        dilation_mean_identity, shrink_mean_identity,
                        slowly_decreasing_check, tauberian_experiment)

__version__ = "0.1.0"
