"""Toolkit for two-team zero-sum polymatrix games.

Solution-concept verifiers, the quadratic -> minmax -> game reduction
pipeline with its pullbacks, a duality-based Nash solver for independent
adversaries, a self-contained dense LP solver, and brute-force oracles.
"""

from .game_core import (
    NashReport,
    PolymatrixGame,
    StrategyProfile,
    StructuralError,
    TwoTeamStructure,
    ValidationReport,
    best_response,
    common_utility,
    utility,
    validate_two_team,
    verify_epsilon_nash,
)
from .instances import (
    BoxPoint,
    KKTReport,
    MinmaxIndInstance,
    MinmaxPoint,
    QuadraticInstance,
    eval_minmax,
    eval_quadratic,
    grad_minmax,
    grad_quadratic,
    sum_abs_coeffs,
    verify_general_kkt,
    verify_min_kkt,
    verify_minmax_kkt,
)
from .lp_solver import LinearProgram, LPOutcome, find_feasible, solve_lp
from .membership_solver import (
    DualMinProgram,
    MultiplierCertificate,
    build_dual_program,
    extract_multipliers,
    find_kkt_point,
    reconstruct_nash,
    solve,
)
from .reductions import (
    FullReductionParams,
    StageOneParams,
    StageTwoParams,
    copy_gadget,
    pullback_full,
    pullback_stage1,
    pullback_stage2,
    reduce_full,
    reduce_stage1,
    reduce_stage2,
)

__version__ = "0.1.0"
