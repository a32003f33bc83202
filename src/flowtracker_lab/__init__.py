"""flowtracker-lab: continuous-time distributed optimization over time-varying
directed graphs, with mixing-flow classification and convergence diagnostics."""

from .errors import (
    CapabilityError,
    ConfigError,
    DegenerateWeightsError,
    FlowtrackerError,
    InvalidInputError,
    NumericalFailureError,
)
from .graphnet import (
    Laplacian,
    LaplacianProcess,
    common_stationary_distribution,
    constant_process,
    integrated_min_cut,
    make_laplacian,
    min_cut,
    process_from_dict,
    random_process,
)
from .flowcore import (
    ErgodicityReport,
    FlowMatrix,
    ergodicity_report,
    transition_matrix,
)
from .objectives import (
    Box,
    ObjectiveFamily,
    custom_table,
    family_from_dict,
    global_gradient,
    global_objective,
    gradient_bound,
    huberized_quadratic,
    logistic_scalar,
    mirror_pair,
    optimizer_oracle,
)
from .schedules import (
    StepSchedule,
    check_validity,
    constant,
    custom_piecewise,
    evaluate,
    lemma_aux_check,
    power_law,
    schedule_from_dict,
)
from .dynamics import (
    GradientFeedback,
    ZeroControl,
    averaging_system,
    gradient_feedback,
    make_system,
    predicted_spps_rate,
    push_sum_system,
    saddle_point_system,
    spps_system,
)
from .simulate import (
    Trajectory,
    closed_form_two_agent,
    estimate_limit,
    integrate,
)
from . import diagnostics
from . import harness

__version__ = "0.1.0"
