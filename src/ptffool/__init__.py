"""Exact verification workbench for bounded-independence fooling of
degree-2 polynomial threshold functions.

Everything that can be checked exactly is checked exactly: sample
spaces are verified on every low-order parity by one integer
Walsh-Hadamard transform of their point histogram, fooling deviations
come from rational arithmetic or an LP with dual certificates
re-verified in integers, and restriction trees carry dyadic leaf masses
that must sum to one.  Floating point shows up only
where analysis does (moment bounds, mollifier quadrature, hyperplane
rounding statistics), always next to a stated tolerance.
"""

__version__ = "0.1.0"

from .errors import (ConfigurationError, ContractViolationError,
                     ConvergenceError, DegenerateInputError, FormatError,
                     InconclusiveError, InvalidOrderError, PtfFoolError,
                     ResourceBudgetError)
from .fooling import (anticoncentration_probe, deviation,
                      exact_sgn_expectation, intersection_deviation,
                      lp_sweep, worst_case_lp)
from .gw import (Graph, cycle_graph, expected_cut_exact,
                 generate_test_embedding, k_for_eps, round_with_space,
                 single_edge)
from .moments import (eigenbound_ratio, exact_moment_hypercube,
                      hypercontractive_tail_check, khintchine_check,
                      mc_moment_hypercube)
from .mollify import (Mollifier, check_unit_integral, deriv_l1_norm,
                      squared_bump_moment, tail_mass)
from .poly import (DegTwoPoly, critical_index, dump_poly, influences,
                   load_poly, regularity, spectral_decompose)
from .spaces import (GaussianSpace, SampleSpace, build_kwise_bernoulli,
                     build_kwise_gaussian, dump_sample_space,
                     load_sample_space, sample, verify_kwise_exact)
from .tree import (DecisionTree, build_tree, dump_tree, load_tree,
                   tree_report)

__all__ = [
    "PtfFoolError", "InvalidOrderError", "ResourceBudgetError",
    "ConfigurationError", "ContractViolationError", "DegenerateInputError",
    "ConvergenceError", "FormatError", "InconclusiveError",
    "SampleSpace", "GaussianSpace", "build_kwise_bernoulli",
    "build_kwise_gaussian", "verify_kwise_exact", "sample",
    "dump_sample_space", "load_sample_space",
    "DegTwoPoly", "influences", "regularity", "critical_index",
    "spectral_decompose", "load_poly", "dump_poly",
    "exact_moment_hypercube", "mc_moment_hypercube", "eigenbound_ratio",
    "khintchine_check", "hypercontractive_tail_check",
    "Mollifier", "check_unit_integral", "deriv_l1_norm", "tail_mass",
    "squared_bump_moment",
    "exact_sgn_expectation", "deviation",
    "worst_case_lp", "lp_sweep", "intersection_deviation",
    "anticoncentration_probe",
    "DecisionTree", "build_tree", "tree_report", "dump_tree", "load_tree",
    "Graph", "single_edge", "cycle_graph", "generate_test_embedding",
    "expected_cut_exact", "k_for_eps", "round_with_space",
]
