"""Mean field games of timing on finite binomial lattices.

Agents choose when to stop; they interact only through the distribution
of everyone's stopping dates, conditioned on a common noise.  This
package computes exact optimal stopping best responses on several
information structures, iterates them monotonically to bracket the set
of equilibria, checks the complementarity assumptions that guarantee
the bracket numerically, and measures how well the mean field solution
approximates finite-player games.
"""

__version__ = "0.1.0"

from .lattice import (AdaptedMeasure, GridMeasure, LatticeModel,
                      build_lattice, point_mass, stochastic_leq)
from .trees import (InfoTree, SignalModel, StoppingRule, build_signal_tree,
                    conditional_law, count_rules, enumerate_rules, full_tree,
                    public_tree, random_rule)
from .payoffs import (BankRunParams, CheckReport, CrowdDiscountParams,
                      DiffusionPayoffParams, OrderViolation, PayoffSpec,
                      SubmartingaleReport, bankrun_payoff,
                      check_increasing_differences, check_submartingale,
                      constant_payoff, crowd_discount_payoff,
                      crowd_fraction_payoff, diffusion_payoff, evaluate_J,
                      exhaustive_increasing_differences,
                      sample_ordered_measures, sample_ordered_rules)
from .snell import (BruteForceResult, SnellSolution, brute_force_optimal,
                    snell_solve)
from .mfe import (EquilibriumResult, IterationRecord, IterationResult,
                  VerifyResult, iterate_from_bottom, iterate_from_top,
                  public_info_equilibrium, solve_mfe, verify_mfe)
from .nplayer import (DeviationReport, Exact, MonteCarlo, NPlayerProfile,
                      best_deviation, convergence_experiment,
                      equilibrium_value, estimate_epsilon)
from .experiments import (CONFIG_SCHEMA, ConfigError, RunRecord, emit,
                          payload_bytes, run, validate_config, write_output)

__all__ = [name for name in dir() if not name.startswith("_")]
