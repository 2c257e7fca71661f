"""Safety filters with optimality certificates.

Minimally invasive corrections of a nominal control that keep a
barrier function nonnegative, for deterministic, disturbed, and
stochastic control-affine systems, together with the machinery needed
to certify them: comparison-function algebra, convex conjugate pairs,
pointwise residuals of the associated steady-state PDEs, cost
invariance along closed loops, and simulation harnesses that record
everything the certificates need.
"""

from .comparison import (DomainError, ExtendedKFunction, KFunction,
                         LegendreFenchelPair, decay_tube, eps_power_extended,
                         eps_power_k, extended_k_from_name, identity_k,
                         k_from_name, kl_solve, kl_solve_grid,
                         legendre_fenchel, lf_pair_from_name, linear_extended,
                         linear_k, numeric_inverse, piecewise_extended,
                         power_extended, power_k, power_pair, young_gap)
from .systems import (BarrierFunction, ControlAffineSystem, LieData,
                      ModelBlowup, SafefiltError, check_gradient, lie_data,
                      lie_data_rows, scalar_system, stacked)
from .filters import (CBF, DSSF, HALF_SONTAG, MIN_NORM, SONTAG, CbfViolation,
                      DssfCbfSpec, Filter, InverseOptimalSpec, Weight,
                      half_sontag_filter, hji_residual,
                      inverse_optimal_condition, inverse_optimal_general,
                      inverse_optimal_qp, omega_dssf, pi_gap, qp_filter,
                      qp_filter_affine_form, qp_weights,
                      qp_worst_case_disturbance, scp_diagnostic,
                      sontag_filter, sontag_kappa, state_penalty_l,
                      worst_case_disturbance)
from .reciprocal import (RECIPROCAL, RcbfSpec, RcbfViolation, omega_tilde,
                         rcbf_condition, rcbf_inverse_optimal,
                         rcbf_penalty_bound_gap, rcbf_penalty_l,
                         rcbf_qp_filter, rcbf_weights)
from .stochastic import (GENERATOR, NSSF, CovarianceSchedule, NssfSpec,
                         ScbfViolation, StochSpec, generator_h, hjb_residual,
                         min_eigenvalue, nsbf_premise, nssf_condition,
                         nssf_hji_residual, nssf_inverse_optimal,
                         nssf_qp_filter, nssf_sontag_filter,
                         nssf_state_penalty_l, omega_nssf, omega_sbfc,
                         stoch_inverse_optimal, stoch_io_condition,
                         stoch_qp_filter, stoch_sontag_filter,
                         stoch_state_penalty_l, worst_case_covariance)
from .projection import (PROJECTION, ProjectionError, ProjectionSpec,
                         classic_projection, inverse_optimal_update,
                         projection_penalty_l, qp_projection,
                         simulate_projection)
from .nonovershoot import (SandwichSpec, gain_separation_margin,
                           nominal_decay_margin, omega0, omega_no,
                           sandwich_filter, stoch_gain_separation_margin,
                           stoch_omega, stoch_omega0,
                           stoch_sandwich_filter)
from .sim import (SimConfig, SimulationError, Trajectory, integrate_ode,
                  integrate_ode_scalar, integrate_sde,
                  sde_path_functionals, write_trajectory_csv)
from .certify import (COST_KINDS, CostSpec, CostValue, ProbeSetup,
                      certify_dssf_bound, cost_invariance_check,
                      evaluate_cost, ibssf_check, mc_summary,
                      optimality_probe, standard_perturbations)
from .scenarios import (BUILTINS, ConfigError, ScenarioResult, run_builtin,
                        run_config)

__version__ = "0.1.0"
