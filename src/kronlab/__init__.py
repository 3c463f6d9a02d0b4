"""kronlab: exact Kronecker constants of three-element integer sets.

Closed-form angular and binary constants for {a, b, n} with gcd(a, b) = 1,
a constructive greedy algorithm producing certified approximates, and an
independent exact brute-force oracle everything is checked against.
"""

from .closed_form import (CongruenceData, alpha_formula, alpha_witness,
                          beta_formula, binary_mu, binary_mu_detail,
                          canonical_binary_pair, congruence_data,
                          in_asymptotic_regime, ln_value)
from .exact_arith import angular_norm, bezout_coprime, nearest_int_distance
from .greedy_triple import (Certificate, NotInAsymptoticRegime, TripleProblem,
                            ZWindow, greedy_bound, greedy_en_certificate,
                            modify, small_lambda_certificate, z_windows)
from .oracle import (OracleResult, SpectrumProblem, alpha_grid_lower_bound,
                     beta_exact, mu_exact, mu_value)
from .pair_solver import (BalancedApprox, PairProblem, best_pair_approx,
                          mu_pair, second_best_approx)

__version__ = "0.1.0"

__all__ = [
    "BalancedApprox", "Certificate", "CongruenceData", "NotInAsymptoticRegime",
    "OracleResult", "PairProblem", "SpectrumProblem", "TripleProblem",
    "ZWindow", "alpha_formula", "alpha_grid_lower_bound", "alpha_witness",
    "angular_norm", "best_pair_approx", "beta_exact", "beta_formula",
    "bezout_coprime", "binary_mu", "binary_mu_detail", "canonical_binary_pair",
    "congruence_data", "greedy_bound", "greedy_en_certificate",
    "in_asymptotic_regime", "ln_value", "modify", "mu_exact", "mu_pair",
    "mu_value", "nearest_int_distance", "second_best_approx",
    "small_lambda_certificate", "z_windows",
]
