"""Stochastic transient-stability simulation of multi-machine power systems.

Solves the coupled machine/network model with Ornstein-Uhlenbeck load noise
using either a windowed truncated power-series propagator or an
Euler-Maruyama reference scheme, and provides Monte Carlo ensemble
statistics (stability-in-probability, envelopes, distribution evolution).
"""

__version__ = "0.1.0"

from .case import SystemCase, GeneratorParams, CaseError, parse_case, load_case
from .network import NetworkCondition, ReducedNetwork, ReductionError
from .powerflow import PowerFlowError, solve_power_flow
from .dynamics import (
    EquilibriumError,
    MachineSet,
    WindowWork,
    init_dynamic_state,
    rhs,
    solve_equilibrium,
)
from .noise import NoisePath, build_noise_path, load_schedule
from .scenario import Scenario, ScenarioError, SimulationSetup, load_scenario
from .trajectory import Trajectory
from .sas import SolverConfig, simulate_sas, simulate_sas_batch, window_coefficients
from .em import EMConfig, euler_det_step, simulate_em, simulate_em_batch
from .ensemble import (
    Ensemble,
    StabilityCriterion,
    confidence_envelope,
    ensemble_stats,
    pdf_evolution,
    run_ensemble,
)
