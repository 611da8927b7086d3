"""Exactly solvable time-dependent two-level dynamics.

A library and CLI for driven su(2) (spin-1/2) problems whose evolution
operator closes in elementary or elliptic functions: generalized-resonant
drives, constant detuning-to-drive ratio, and two arctangent ansatz
families, plus a unitarity-preserving numerical oracle and a coupled
waveguide-mode front end.
"""

from .closed_forms import (EvolutionEntries, case1_entries, case2_entries,
                           elliptic_phase, modulated_probability,
                           resonance_asymptote)
from .errors import (ConfigError, GenrabiError, InconsistentProfileError,
                     NumericError, QuadratureError, SingularAnsatzError,
                     StepResolutionError, UnitarityDriftError)
from .fields import (FieldProfile, PhysicalField, detuning, from_profile,
                     is_generalized_resonant, phase_derivative, to_profile,
                     transverse_area)
from .modes import (CouplingSpec, ModeState, ModeTrajectory,
                    coupling_from_config, detilde, propagate_modes, tilde,
                    to_su2_profile)
from .observables import pauli_series
from .propagator import (ConvergenceReport, PropagatorConfig, Trajectory,
                         propagate, richardson_check, suggested_step)
from .scenarios import (FAMILIES, ScenarioParams, closed_form_series,
                        default_window, make_scenario, scenario_time_scale)
from .theta import (AnsatzVerification, ThetaAnsatz, ThetaEvaluator,
                    ansatz_from_table, beta0_ansatz, case1_ansatz,
                    case2_ansatz, general_entries_series, named_ansatz,
                    verify_ansatz, zero_ansatz)

__version__ = "0.1.0"

__all__ = [
    "EvolutionEntries", "case1_entries", "case2_entries", "elliptic_phase",
    "modulated_probability", "resonance_asymptote",
    "ConfigError", "GenrabiError", "InconsistentProfileError", "NumericError",
    "QuadratureError", "SingularAnsatzError", "StepResolutionError",
    "UnitarityDriftError",
    "FieldProfile", "PhysicalField", "detuning", "from_profile",
    "is_generalized_resonant", "phase_derivative", "to_profile",
    "transverse_area",
    "CouplingSpec", "ModeState", "ModeTrajectory", "coupling_from_config",
    "detilde", "propagate_modes", "tilde", "to_su2_profile",
    "pauli_series",
    "ConvergenceReport", "PropagatorConfig", "Trajectory", "propagate",
    "richardson_check", "suggested_step",
    "FAMILIES", "ScenarioParams", "closed_form_series", "default_window",
    "make_scenario", "scenario_time_scale",
    "AnsatzVerification", "ThetaAnsatz", "ThetaEvaluator",
    "ansatz_from_table", "beta0_ansatz", "case1_ansatz", "case2_ansatz",
    "general_entries_series", "named_ansatz", "verify_ansatz", "zero_ansatz",
    "__version__",
]
