"""Veritas abduction: session logs → posterior GTBW traces (§3.2-§3.3).

This is the paper's primary contribution wired end to end:

1. build the EHMM for the logged session (emission = Gaussian around the
   TCP throughput estimator ``f``, transitions = ``A^Δn``),
2. run the Viterbi variant for the maximum-likelihood capacity path,
3. run forward-backward for the pairwise posterior Γ — on first use of
   :attr:`VeritasPosterior.smoothing`, so callers that need only the MAP
   path (interventional queries) never run it,
4. draw K posterior capacity paths with the Algorithm-1 sampler, and
5. interpolate each path into a full δ-grid bandwidth trace ready for
   counterfactual replay.

Typical use::

    veritas = VeritasAbduction(VeritasConfig(max_capacity_mbps=10.0))
    posterior = veritas.solve(session_log)
    traces = posterior.sample_traces(count=5, seed=0)

Abduction kernel tiers (:data:`ABDUCTION_TIERS`), selected per call via
``VeritasAbduction.solve_batch(logs, kernel=...)`` /
:func:`sample_traces_batch` (per engine via
``CounterfactualEngine(abduction_kernel=...)`` / the CLI
``--abduction-kernel`` flag), mirroring the replay ``KERNEL_TIERS``
registry.  ``None`` picks the fastest tier this machine can build:
``"compiled"`` when the cc+cffi build of :mod:`repro.core._kernels`
loads, else ``"numpy"`` (:func:`resolve_abduction_kernel`):

* ``"reference"`` — one scalar :meth:`VeritasAbduction.solve` per log;
  the retained golden path.
* ``"numpy"`` (default without cc) — the corpus-batched stacked
  recursions; bit-identical to ``"reference"``.
* ``"compiled"`` (default with cc) — the stacked hot loops (emission
  build, forward-backward, Viterbi, FFBS) each run as one
  :mod:`repro.core._kernels` call per same-length stack (cc+cffi
  backend).  Viterbi paths and FFBS samples stay bit-identical; float
  posteriors are within ``rtol=1e-13``.  Without the cc build an
  explicit ``"compiled"`` resolves to ``"numpy"`` with a
  once-per-process :class:`RuntimeWarning`
  (:func:`resolve_abduction_kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net.trace import PiecewiseConstantTrace
from ..player.logs import SessionLog
from ..tcp.estimator import estimate_throughput_grid_batch
from ..util.compiled import warn_fallback
from ..util.rng import SeedLike, ensure_rng
from . import _kernels
from .ehmm import EHMMProblem, build_problem, build_problems_batch
from .emission import EmissionModel, naive_emission
from .forward_backward import (
    ForwardBackwardResult,
    forward_backward,
    forward_backward_batch,
)
from .grid import CapacityGrid
from .interpolation import CapacityTracePlan
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
from .viterbi import ViterbiResult, viterbi_path, viterbi_path_batch

__all__ = [
    "ABDUCTION_TIERS",
    "VeritasConfig",
    "VeritasPosterior",
    "VeritasAbduction",
    "resolve_abduction_kernel",
    "sample_traces_batch",
]

ABDUCTION_TIERS = ("reference", "numpy", "compiled")
"""Abduction kernel tiers, slowest first (see the module docstring)."""


def resolve_abduction_kernel(kernel: "str | None") -> str:
    """The abduction tier that will serve ``kernel``, or ``ValueError``
    if the name is unknown.

    ``None`` picks the fastest tier this machine can build: ``"compiled"``
    when the cc+cffi build of :mod:`repro.core._kernels` loads (its
    ``backend()`` is ``"cc"``; the first call builds it), else the
    portable ``"numpy"``, silently.  An explicit ``"compiled"`` that
    cannot be served degrades to ``"numpy"`` with a once-per-process
    ``RuntimeWarning``, as :func:`repro.tcp.connection.resolve_kernel`
    does for replay: one config works across machines with and without
    a toolchain, and no stage is handed a tier it cannot run.
    """
    if kernel is None:
        return "compiled" if _kernels.backend() == "cc" else "numpy"
    if kernel not in ABDUCTION_TIERS:
        raise ValueError(
            f"unknown abduction kernel {kernel!r}; "
            f"available: {list(ABDUCTION_TIERS)}"
        )
    if kernel == "compiled" and not _kernels.available():
        warn_fallback("abduction", "compiled", "numpy")
        return "numpy"
    return kernel

# Sessions per stacked inference block.  Bounds the transient
# (T, N-1, K, K) tensors (stacked powers / pairwise posteriors) to
# ~90-135 MB at paper scale (200-300 chunks, K=21, 128 sessions) while
# leaving plenty of lanes to amortise the per-chunk NumPy dispatch the
# batching exists to remove.
_MAX_STACK = 128

_TRANSITION_BUILDERS = {
    "tridiagonal": tridiagonal_matrix,
    "uniform": lambda n, **_: uniform_matrix(n),
    "sticky": sticky_matrix,
}

_EMISSION_ESTIMATORS = {
    "tcp": estimate_throughput_grid_batch,
    "naive": naive_emission,
}


@dataclass(frozen=True)
class VeritasConfig:
    """Hyperparameters from §4.1 of the paper.

    Defaults match the evaluation setup: δ = 5 s windows, ε = 0.5 Mbps
    quantization, σ = 0.5 Mbps emission noise, tridiagonal transitions and
    a uniform initial distribution.
    """

    delta_s: float = 5.0
    epsilon_mbps: float = 0.5
    sigma_mbps: float = 0.5
    max_capacity_mbps: float = 10.0
    transition_kind: str = "tridiagonal"
    transition_stay_prob: float = 0.8
    emission_kind: str = "tcp"

    def __post_init__(self) -> None:
        if self.delta_s <= 0:
            raise ValueError(f"delta must be positive, got {self.delta_s}")
        if self.transition_kind not in _TRANSITION_BUILDERS:
            raise ValueError(
                f"unknown transition kind {self.transition_kind!r}; "
                f"available: {sorted(_TRANSITION_BUILDERS)}"
            )
        if self.emission_kind not in _EMISSION_ESTIMATORS:
            raise ValueError(
                f"unknown emission kind {self.emission_kind!r}; "
                f"available: {sorted(_EMISSION_ESTIMATORS)}"
            )


@dataclass
class VeritasPosterior:
    """The abduction result for one session.

    Wraps the Viterbi path and forward-backward posteriors and turns hidden
    state paths into replayable bandwidth traces.  :attr:`smoothing` runs
    forward-backward on :attr:`problem` the first time it is read and keeps
    the result (stacked :meth:`VeritasAbduction.solve_batch` posteriors
    come with theirs), so the MAP path, :meth:`map_trace` and
    :meth:`expected_capacity_after` cost no forward-backward pass.
    """

    problem: EHMMProblem
    viterbi: ViterbiResult
    _smoothing: "ForwardBackwardResult | None" = field(default=None)
    _trace_duration_s: float = field(default=0.0)

    # ------------------------------------------------------------------
    @property
    def smoothing(self) -> ForwardBackwardResult:
        """Forward-backward posteriors Γ and ξ, computed on first read.

        Raises :class:`FloatingPointError` if the forward pass underflows.
        """
        if self._smoothing is None:
            problem = self.problem
            self._smoothing = forward_backward(
                problem.log_emissions, problem.transitions, problem.deltas
            )
        return self._smoothing

    @property
    def log_likelihood(self) -> float:
        return self.smoothing.log_likelihood

    def map_capacities_mbps(self) -> np.ndarray:
        """Maximum-likelihood capacity (Mbps) at each chunk start."""
        return self.problem.grid.values_of(self.viterbi.states)

    def posterior_mean_capacities_mbps(self) -> np.ndarray:
        """Posterior-mean capacity at each chunk start (smoothed)."""
        return self.smoothing.gamma @ self.problem.grid.values_mbps

    def _path_to_trace(self, states: np.ndarray) -> PiecewiseConstantTrace:
        # One interpolation plan per posterior: the window structure
        # depends only on the chunk start times, so the MAP path and every
        # posterior sample reuse it (traces are bit-identical to the
        # one-shot interpolate_capacity_trace, which shares the code).
        plan = getattr(self, "_plan_cache", None)
        if plan is None:
            plan = CapacityTracePlan(
                self.problem.start_times_s,
                self.problem.delta_s,
                self.problem.grid,
                duration_s=max(
                    self._trace_duration_s, self.problem.session_end_s
                ),
            )
            object.__setattr__(self, "_plan_cache", plan)
        return plan.trace_for(self.problem.grid.values_of(states))

    def map_trace(self) -> PiecewiseConstantTrace:
        """The single most-likely GTBW trace (used by interventional queries)."""
        return self._path_to_trace(self.viterbi.states)

    def sample_trace(self, seed: SeedLike = None) -> PiecewiseConstantTrace:
        """One posterior GTBW trace (Algorithm 1 + interpolation)."""
        states = sample_state_path(
            self.viterbi.states, self.smoothing.xi, seed=seed
        )
        return self._path_to_trace(states)

    def sample_traces(
        self, count: int = 5, seed: SeedLike = None
    ) -> list[PiecewiseConstantTrace]:
        """K posterior GTBW traces (the paper samples 5 by default).

        All ``count`` hidden paths are drawn in one batched FFBS pass (one
        uniform draw per chunk) before being interpolated into traces.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = ensure_rng(seed)
        paths = sample_state_paths(
            self.viterbi.states, self.smoothing.xi, count, seed=rng
        )
        return [self._path_to_trace(states) for states in paths]

    def expected_capacity_after(self, extra_windows: int) -> float:
        """``E[C]`` ``extra_windows`` δ-windows past the last chunk start.

        Interventional queries use this with the transition matrix to
        project the inferred GTBW forward to the next chunk (§4.4).
        """
        if extra_windows < 0:
            raise ValueError(f"extra_windows must be >= 0, got {extra_windows}")
        last_state = int(self.viterbi.states[-1])
        return self.problem.transitions.expected_next_value(
            last_state, extra_windows, self.problem.grid.values_mbps
        )


class VeritasAbduction:
    """End-to-end abduction engine (Fig. 6's "Veritas" box).

    Scalar :meth:`solve` always takes the reference path;
    :meth:`solve_batch` takes its :data:`ABDUCTION_TIERS` entry per call.
    Constructing one builds no compiled library, so callers that only
    solve scalar (interventional predictors, EM, ``repro abduct``) never
    load :mod:`repro.core._kernels`.
    """

    def __init__(self, config: VeritasConfig | None = None):
        self.config = config or VeritasConfig()
        self.grid = CapacityGrid(
            epsilon_mbps=self.config.epsilon_mbps,
            max_mbps=self.config.max_capacity_mbps,
        )
        builder = _TRANSITION_BUILDERS[self.config.transition_kind]
        matrix = builder(
            self.grid.n_states, stay_prob=self.config.transition_stay_prob
        ) if self.config.transition_kind != "uniform" else builder(self.grid.n_states)
        self.transitions = TransitionModel(matrix)
        self.emission = EmissionModel(
            grid=self.grid,
            sigma_mbps=self.config.sigma_mbps,
            estimator=_EMISSION_ESTIMATORS[self.config.emission_kind],
        )
        # (models, settings, log, posterior) of the last solve().
        self._last_solve: "tuple | None" = None

    def solve(
        self, log: SessionLog, trace_duration_s: float | None = None
    ) -> VeritasPosterior:
        """Infer the GTBW posterior for one session log.

        ``trace_duration_s`` optionally extends the reconstructed traces
        (counterfactual replays can run longer than the original session).

        The engine remembers its last solve and returns that posterior
        again while nothing it depends on has changed: a log equal by
        value (``==`` compares the matrices, which no caller can write, so
        keeping a reference to the last log is safe), an equal
        ``trace_duration_s``, the same ``grid``,
        ``transitions`` and ``emission`` objects (reassigning
        ``transitions``, as EM does, forces a fresh solve) and an equal
        ``config.delta_s``.  Asking about one session prefix many times —
        one interventional question per candidate chunk size — thus costs
        one emission build and one Viterbi pass.  The returned posterior is
        shared between those calls and must be treated as read-only.

        Forward-backward runs on the first read of
        :attr:`VeritasPosterior.smoothing` (or ``log_likelihood``), so its
        underflow :class:`FloatingPointError` surfaces there rather than
        here; the emission model's 5% outlier mixture keeps every emission
        positive, so this engine does not reach it.
        """
        duration = trace_duration_s or 0.0
        models = (self.grid, self.transitions, self.emission)
        settings = (self.config.delta_s, duration)
        if self._last_solve is not None:
            last_models, last_settings, last_log, last = self._last_solve
            if (
                all(a is b for a, b in zip(last_models, models))
                and last_settings == settings
                and last_log == log
            ):
                return last
        problem = build_problem(
            log, self.grid, self.transitions, self.emission, self.config.delta_s
        )
        posterior = self._posterior_from_problem(problem, duration)
        self._last_solve = (models, settings, log, posterior)
        return posterior

    def _posterior_from_problem(
        self, problem: EHMMProblem, trace_duration_s: float
    ) -> VeritasPosterior:
        """Scalar Viterbi tail shared by solve paths (smoothing is lazy)."""
        vit = viterbi_path(problem.log_emissions, problem.transitions, problem.deltas)
        return VeritasPosterior(
            problem=problem,
            viterbi=vit,
            _trace_duration_s=trace_duration_s,
        )

    def solve_batch(
        self,
        logs: "list[SessionLog]",
        trace_duration_s: "float | list[float] | None" = None,
        kernel: "str | None" = None,
    ) -> "list[VeritasPosterior]":
        """Infer GTBW posteriors for many session logs at once.

        The corpus-batched twin of :meth:`solve`: all logs share one
        emission-matrix evaluation, and sessions with equal chunk counts
        are stacked so the Viterbi and forward-backward recursions run
        once per stack instead of once per session (ragged corpora are
        partitioned by chunk count; a session with no same-length peers
        just takes the scalar path).  Entry ``i`` of the result is
        **bit-identical** to ``solve(logs[i], ...)`` — the stacked
        recursions reproduce the scalar floats exactly (see
        ``tests/test_batch_prepare.py``).

        ``trace_duration_s`` may be a scalar (applied to every log) or a
        per-log sequence.

        Memory note: posteriors from one stack share its arrays —
        ``smoothing.gamma``/``xi`` are views into the stacked tensors and
        each posterior keeps a reference to the block's pairwise tensor so
        :func:`sample_traces_batch` can reuse it without re-copying.
        Keeping a single posterior alive therefore retains its whole block
        (up to ~0.8 MB x 128 sessions at paper scale); deep-copy the
        slices if one posterior must outlive the batch.

        ``kernel`` picks the abduction tier (``None`` = the fastest
        buildable tier, see :func:`resolve_abduction_kernel`): the
        ``"reference"`` tier solves each log scalar (the bit-identity
        yardstick), ``"numpy"`` runs the stacked recursions above, and
        ``"compiled"`` additionally routes each stack through
        :mod:`repro.core._kernels` (posteriors within ``rtol=1e-13``,
        Viterbi paths bit-identical).
        """
        kernel = resolve_abduction_kernel(kernel)
        logs = list(logs)
        if not logs:
            raise ValueError("need at least one session log")
        if trace_duration_s is None:
            durations = [0.0] * len(logs)
        elif np.isscalar(trace_duration_s):
            durations = [float(trace_duration_s)] * len(logs)
        else:
            durations = [float(d) for d in trace_duration_s]
            if len(durations) != len(logs):
                raise ValueError(
                    f"need one trace duration per log, got {len(durations)} "
                    f"for {len(logs)} logs"
                )

        if kernel == "reference":
            return [
                self.solve(log, duration)
                for log, duration in zip(logs, durations)
            ]
        stack_kernel = kernel if kernel == "compiled" else None

        problems = build_problems_batch(
            logs,
            self.grid,
            self.transitions,
            self.emission,
            self.config.delta_s,
            kernel=stack_kernel,
        )
        posteriors: "list[VeritasPosterior | None]" = [None] * len(logs)
        by_length: dict[int, list[int]] = {}
        for i, problem in enumerate(problems):
            by_length.setdefault(problem.n_chunks, []).append(i)
        for indices in by_length.values():
            for start in range(0, len(indices), _MAX_STACK):
                block = indices[start : start + _MAX_STACK]
                if len(block) == 1:
                    i = block[0]
                    posteriors[i] = self._posterior_from_problem(
                        problems[i], durations[i]
                    )
                    continue
                log_b = np.stack([problems[i].log_emissions for i in block])
                deltas = np.stack([problems[i].deltas for i in block])
                vits = viterbi_path_batch(
                    log_b, self.transitions, deltas, kernel=stack_kernel
                )
                smooths = forward_backward_batch(
                    log_b, self.transitions, deltas, kernel=stack_kernel
                )
                for t, i in enumerate(block):
                    posterior = VeritasPosterior(
                        problem=problems[i],
                        viterbi=vits.session(t),
                        _smoothing=smooths.session(t),
                        _trace_duration_s=durations[i],
                    )
                    # Remember the owning stack so sample_traces_batch can
                    # reuse the contiguous xi tensor instead of re-stacking
                    # tens of MB per block.
                    posterior._stack_xi = smooths.xi
                    posterior._stack_slot = t
                    posteriors[i] = posterior
        return posteriors


def sample_traces_batch(
    posteriors: "list[VeritasPosterior]",
    count: int,
    seeds: "list",
    kernel: "str | None" = None,
) -> "list[list[PiecewiseConstantTrace]]":
    """Draw ``count`` posterior GTBW traces per posterior, batched.

    Posteriors with equal shapes are stacked so the inverse-CDF FFBS
    backward pass runs once per stack; each posterior consumes exactly one
    uniform block from its own ``seeds[i]``, so entry ``i`` of the result
    is bit-identical to ``posteriors[i].sample_traces(count,
    seed=seeds[i])``.  ``kernel`` picks the abduction tier for the
    backward pass: ``"compiled"`` runs each stack through the
    :mod:`repro.core._kernels` FFBS (samples stay bit-identical given the
    same posteriors); ``"reference"`` samples each posterior scalar.
    """
    kernel = resolve_abduction_kernel(kernel)
    posteriors = list(posteriors)
    seeds = list(seeds)
    if len(seeds) != len(posteriors):
        raise ValueError(
            f"need one seed per posterior, got {len(seeds)} for "
            f"{len(posteriors)} posteriors"
        )
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")

    out: "list[list[PiecewiseConstantTrace] | None]" = [None] * len(posteriors)
    if kernel == "reference":
        for i, posterior in enumerate(posteriors):
            out[i] = posterior.sample_traces(count, seed=seeds[i])
        return out
    stack_kernel = kernel if kernel == "compiled" else None
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, posterior in enumerate(posteriors):
        key = (posterior.problem.n_chunks, posterior.problem.n_states)
        by_shape.setdefault(key, []).append(i)
    for indices in by_shape.values():
        for start in range(0, len(indices), _MAX_STACK):
            block = indices[start : start + _MAX_STACK]
            if len(block) == 1:
                i = block[0]
                out[i] = posteriors[i].sample_traces(count, seed=seeds[i])
                continue
            states = np.stack([posteriors[i].viterbi.states for i in block])
            base = getattr(posteriors[block[0]], "_stack_xi", None)
            if (
                base is not None
                and base.shape[0] == len(block)
                and all(
                    getattr(posteriors[i], "_stack_xi", None) is base
                    and getattr(posteriors[i], "_stack_slot", -1) == t
                    for t, i in enumerate(block)
                )
            ):
                # The whole block is one solve_batch stack in order: reuse
                # its contiguous xi tensor instead of re-copying tens of MB.
                xi = base
            else:
                xi = np.stack([posteriors[i].smoothing.xi for i in block])
            paths = sample_state_paths_stack(
                states, xi, count, [seeds[i] for i in block],
                kernel=stack_kernel,
            )
            for t, i in enumerate(block):
                posterior = posteriors[i]
                out[i] = [
                    posterior._path_to_trace(path) for path in paths[t]
                ]
    return out
