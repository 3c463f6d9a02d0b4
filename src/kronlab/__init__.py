"""kronlab: exact Kronecker constants of three-element integer sets.

Closed-form angular and binary constants for {a, b, n} with gcd(a, b) = 1,
a constructive greedy algorithm producing certified approximates, and an
independent exact brute-force oracle everything is checked against.
"""

from .closed_form import (CongruenceData, TripleConstants, alpha_formula,
                          beta_formula, canonical_binary_pair,
                          in_asymptotic_regime, triple_constants)
from .exact_arith import bezout_coprime
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
    "OracleResult", "PairProblem", "SpectrumProblem", "TripleConstants",
    "TripleProblem", "ZWindow", "alpha_formula", "alpha_grid_lower_bound",
    "best_pair_approx", "beta_exact", "beta_formula", "bezout_coprime",
    "canonical_binary_pair", "greedy_bound", "greedy_en_certificate",
    "in_asymptotic_regime", "modify", "mu_exact", "mu_pair", "mu_value",
    "second_best_approx", "small_lambda_certificate", "triple_constants",
    "z_windows",
]
