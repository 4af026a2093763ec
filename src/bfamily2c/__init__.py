"""Pseudospectral simulator for a two-component b-family shallow water
system on a periodic domain, with a-posteriori verification of energy
identities, sup-norm bounds, and wave-breaking predictions.

The state is (u, rho) with momentum m = u - u_xx.  The evolution is
integrated in the nonlocal form

    u_t   = u u_x + dx (1 - dxx)^{-1} [ (k1/2) u^2 + ((3-k1)/2) u_x^2
                                        + (k2/2) rho^2 ]
    rho_t = k3 (u rho)_x

which is equivalent to m_t = u m_x + k1 u_x m + k2 rho rho_x for
smooth solutions.
"""

from .characteristics import (CharField, RhoBoundResult,
                              advance_characteristics, init_characteristics,
                              rho_sup_bound_check, transport_residual)
from .diagnostics import (DIAG_COLUMNS, EXTRA_COLUMNS, ConservationResult,
                          DiagRecord, GronwallResult, RiccatiResult,
                          SymmetryMode, conservation_check, energy_scalars,
                          fill_identity_residuals, gronwall_check_h2,
                          h3_energy_check, make_record, riccati_check,
                          symmetry_residual)
from .dynamics import State, Tendency, eval_rhs, momentum, u_from_m0
from .initdata import (InitKind, InitSpec, blowup_bound, build_initial,
                       profile, u0_prime_at_zero)
from .model import (Branch, CaseTag, Framework, ModelParams, ScenarioBranch,
                    classify_scenario, custom_params, make_params)
from .spectral import Grid, Kernel
from .stepper import (RESOLUTION_TOL, BlowupDiagnostic, BlowupQuantity,
                      DiagSettings, OverflowSignal, RunReport, RunStatus,
                      StepControl, Trajectory, choose_dt, run, step_rk4)

__version__ = "0.1.0"

__all__ = [
    "Branch", "BlowupDiagnostic", "BlowupQuantity", "CaseTag", "CharField",
    "ConservationResult", "DIAG_COLUMNS", "DiagRecord", "DiagSettings",
    "EXTRA_COLUMNS", "Framework", "Grid", "GronwallResult", "InitKind",
    "InitSpec", "Kernel", "ModelParams", "OverflowSignal", "RESOLUTION_TOL",
    "RhoBoundResult", "RiccatiResult", "RunReport", "RunStatus",
    "ScenarioBranch", "State", "StepControl", "SymmetryMode", "Tendency",
    "Trajectory",
    "advance_characteristics", "blowup_bound", "build_initial", "choose_dt",
    "classify_scenario", "conservation_check", "custom_params",
    "energy_scalars", "eval_rhs", "fill_identity_residuals",
    "gronwall_check_h2", "h3_energy_check",
    "init_characteristics", "make_params",
    "make_record", "momentum", "profile", "rho_sup_bound_check",
    "riccati_check", "run", "step_rk4", "symmetry_residual",
    "transport_residual", "u0_prime_at_zero", "u_from_m0",
]
