"""Inexact tensor methods (orders 1 and 2) with dynamic inner accuracies."""

from .linalg import FactorizationError, NormOperator, sym_eig
from .model import TensorModel, model_upper_bound_check
from .policies import AccuracyPolicy, adaptive, adaptive_c_limit, condition_number, constant, power, strong_convexity_c_bound
from .problems import (
    Dataset,
    LogisticOracle,
    LogSumExpOracle,
    PowerComposite,
    PoweredChainOracle,
    ProblemInstance,
    QuadraticOracle,
    ZeroComposite,
    check_derivatives,
    generate_shifted_logsumexp,
    logistic_oracle,
    parse_libsvm,
    powered_chain_oracle,
    synthetic_logistic,
)
from .subsolvers import (
    StepResult,
    SubsolverStall,
    exact_cubic_step,
    fgm_step,
    gradient_step,
    monotone_step,
    residual_bound,
    solve_model,
)
from .methods import SolverConfig, SolverRun, TraceRecord, averaging, monotone1, monotone2
from .accel import accelerated, build_subproblem, subproblem_certificate
from .harness import ExperimentConfig, compare, fit_rate, run_experiment

__version__ = "0.1.0"
