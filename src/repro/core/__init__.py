"""Veritas core: the EHMM, its algorithms, and the abduction engine.

The batched abduction paths run on one of three kernel tiers
(:data:`ABDUCTION_TIERS`, selected via
``VeritasAbduction.solve_batch(..., kernel=...)`` or the CLI
``--abduction-kernel`` flag): ``"reference"`` solves each log
with the scalar golden path, ``"numpy"`` runs the stacked recursions
bit-identical to it, and ``"compiled"`` routes each stack through the
:mod:`repro.core._kernels` cc+cffi build (integer outputs bit-identical,
float posteriors within ``rtol=1e-13``, graceful degrade to NumPy when
the build is unavailable).  The default is ``"compiled"`` where that
build loads and ``"numpy"`` elsewhere.
"""

from .abduction import (
    ABDUCTION_TIERS,
    VeritasAbduction,
    VeritasConfig,
    VeritasPosterior,
    resolve_abduction_kernel,
    sample_traces_batch,
)
from .diagnostics import (
    ChunkDiagnostics,
    PosteriorDiagnostics,
    diagnose_posterior,
)
from .ehmm import EHMMProblem, build_problem, build_problems_batch
from .em import EMResult, learn_transition_matrix
from .emission import EmissionModel, naive_emission
from .forward_backward import (
    ForwardBackwardBatchResult,
    ForwardBackwardResult,
    forward_backward,
    forward_backward_batch,
)
from .grid import CapacityGrid
from .interpolation import (
    CapacityTracePlan,
    interpolate_capacity_trace,
    window_gaps,
    window_index,
)
from .interventional import (
    DownloadTimeDistribution,
    InterventionalPrediction,
    VeritasDownloadPredictor,
)
from .model_selection import (
    ScoredConfig,
    score_config,
    select_config,
    sigma_grid_search,
)
from .sampler import (
    sample_state_path,
    sample_state_paths,
    sample_state_paths_stack,
)
from .transitions import (
    TransitionModel,
    sticky_matrix,
    tridiagonal_matrix,
    uniform_matrix,
)
from .viterbi import ViterbiBatchResult, ViterbiResult, viterbi_path, viterbi_path_batch

__all__ = [
    "ABDUCTION_TIERS",
    "CapacityGrid",
    "CapacityTracePlan",
    "ChunkDiagnostics",
    "DownloadTimeDistribution",
    "EHMMProblem",
    "EMResult",
    "EmissionModel",
    "ForwardBackwardBatchResult",
    "ForwardBackwardResult",
    "InterventionalPrediction",
    "PosteriorDiagnostics",
    "ScoredConfig",
    "TransitionModel",
    "VeritasAbduction",
    "VeritasConfig",
    "VeritasDownloadPredictor",
    "VeritasPosterior",
    "ViterbiBatchResult",
    "ViterbiResult",
    "build_problem",
    "build_problems_batch",
    "diagnose_posterior",
    "forward_backward",
    "forward_backward_batch",
    "interpolate_capacity_trace",
    "learn_transition_matrix",
    "naive_emission",
    "resolve_abduction_kernel",
    "sample_state_path",
    "sample_state_paths",
    "sample_state_paths_stack",
    "sample_traces_batch",
    "score_config",
    "select_config",
    "sigma_grid_search",
    "sticky_matrix",
    "tridiagonal_matrix",
    "uniform_matrix",
    "viterbi_path",
    "viterbi_path_batch",
    "window_gaps",
    "window_index",
]
