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

from .characteristics import (CharField, init_characteristics,
                              rho_sup_bound_check, transport_residual)
from .diagnostics import (DIAG_COLUMNS, EXTRA_COLUMNS, DiagRecord,
                          SymmetryMode, conservation_check, gronwall_check_h2,
                          h3_energy_check, make_record, riccati_check,
                          symmetry_residual)
from .dynamics import State, Tendency, Workspace, eval_rhs
from .initdata import InitKind, InitSpec, blowup_bound, build_initial, profile
from .model import (Branch, CaseTag, Framework, ModelParams, ParamStack,
                    classify_scenario, custom_params, make_params)
from .spectral import Grid, Kernel
from .stepper import (RESOLUTION_TOL, DiagSettings, OverflowSignal, RunReport,
                      RunStatus, StepControl, Trajectory, choose_dt, run,
                      run_batch, step_rk4)

__version__ = "0.5.0"

__all__ = [
    "Branch", "CaseTag", "CharField", "DIAG_COLUMNS", "DiagRecord",
    "DiagSettings", "EXTRA_COLUMNS", "Framework", "Grid", "InitKind",
    "InitSpec", "Kernel", "ModelParams", "OverflowSignal", "ParamStack",
    "RESOLUTION_TOL",
    "RunReport", "RunStatus", "State", "StepControl", "SymmetryMode",
    "Tendency", "Trajectory", "Workspace",
    "blowup_bound", "build_initial", "choose_dt",
    "classify_scenario", "conservation_check", "custom_params",
    "eval_rhs",
    "gronwall_check_h2", "h3_energy_check",
    "init_characteristics", "make_params",
    "make_record", "profile", "rho_sup_bound_check",
    "riccati_check", "run", "run_batch", "step_rk4", "symmetry_residual",
    "transport_residual",
]
