"""Zero processes of Gaussian analytic functions and the Ginibre ensemble.

Simulation of the planar and hyperbolic families, certified zero counting,
exact overcrowding tails where the radial law is a product of independent
draws, closed-form deviation exponents, and the constructive coefficient
events that realize the lower bounds.
"""

from .models import (GafModel, Kind, TruncatedGaf, choose_truncation, coefficient_rows,
                     covariance, expected_count, log_sigma, log_weight,
                     sample_coefficients, sample_truncated, stream, weight_ratio_bound)
from .zeros import (CountResult, InconclusiveCount, JensenCheck,
                    RootsDidNotConverge, certified_counts, circle_mean_log_abs_many,
                    count_in_disk, count_replicas, count_with_retry,
                    find_gaf_roots, find_roots_many, jensen_residuals, max_modulus)
from .radial import (BernoulliProfile, RadialEnsemble, TailBracket,
                     bernoulli_probs, sample_radii, tail_log_brackets)
from .bounds import (ExponentRegime, ginibre_tail_brackets, hyperbolic_one_tail_brackets,
                     kappa, kappa_argmax, poisson_kernel_bounds, poisson_tail_log_upper,
                     predicted_exponent)
from .events import (AggregateBlock, EventConstructionError, EventKind,
                     EventLogProb, EventSpec, FitResult, IndexBlock, TailEstimate,
                     build_event, certified_event_count, conditioned_sample,
                     direct_mc_tail, domination_constant, event_log_prob_detail,
                     event_tail_sup_bound, exponent_fit, mc_tail_estimate,
                     sample_satisfies, verify_domination)

__version__ = "0.1.0"
