"""Explicit pipeline stages with typed artifacts.

The flow of Fig. 4 decomposes into five stages, each a small object with a
``run`` method consuming and producing typed artifact dataclasses::

    OfflineStage   (circuit, clock_period)        -> Preparation
    TestStage      (preparation, population)      -> TestArtifact
    PredictStage   (preparation, TestArtifact)    -> BoundsArtifact
    ConfigureStage (preparation, BoundsArtifact)  -> ConfigArtifact
    VerifyStage    (circuit, pop, ConfigArtifact) -> VerifyArtifact

Mode switches that the monolithic framework threaded through config flags
become stage swaps: the Fig. 8 test-all-paths mode is an
:class:`OfflineStage` whose config selects every path (the predict stage
then has nothing to predict), and the path-wise baseline of [2, 6, 8, 9] is
:class:`PathwiseTestStage` slotted in place of :class:`AlignedTestStage`.

:class:`~repro.api.engine.Engine` wires the stages and caches
:class:`OfflineStage` outputs; the stages themselves are engine-agnostic
and can be composed by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.api.config import OfflineConfig, OnlineConfig
from repro.circuit.generator import Circuit
from repro.circuit.insertion import plan_buffers
from repro.core.alignment import build_batch_alignment
from repro.core.budget import certify_refinement, coarse_epsilon
from repro.core.calibration import calibrate_epsilon
from repro.core.configuration import ConfigurationResult, build_config_structure, configure_chips
from repro.core.framework import Preparation
from repro.core.grouping import group_and_select
from repro.core.holdtime import (
    compute_hold_bounds,
    hold_feasible_settings,
    solve_hold_bounds_exact,
)
from repro.core.multiplexing import plan_multiplexing
from repro.core.population import (
    PopulationTestResult,
    test_population,
    test_population_lazy,
)
from repro.core.prediction import build_predictor
from repro.core.yields import ChipSource, CircuitPopulation, configured_pass
from repro.opt.warmstart import WarmStartCache
from repro.tester.freqstep import pathwise_frequency_stepping
from repro.utils.rng import derive_seed
from repro.utils.timing import Stopwatch

#: Stages consuming chips accept either a dense realized population or the
#: lazy recipe; :class:`~repro.core.yields.ChipSource` inputs are streamed
#: shard by shard so the full delay matrices never exist in this process.
Chips = CircuitPopulation | ChipSource


# ----------------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class OfflineRequest:
    """Input of the offline stage: what to prepare, sized for what period."""

    circuit: Circuit
    clock_period: float  # design period sizing the buffer ranges


@dataclass(frozen=True)
class TestArtifact:
    """On-tester outcome: measured delay ranges for every chip."""

    test: PopulationTestResult
    tester_seconds_per_chip: float


@dataclass(frozen=True)
class BoundsArtifact:
    """Dense ``(n_chips, n_paths)`` delay bounds: tested + predicted.

    Prediction time counts toward the paper's ``Ts`` (off-tester work),
    alongside the configuration time.
    """

    lower: np.ndarray
    upper: np.ndarray
    predict_seconds_per_chip: float = 0.0


@dataclass(frozen=True)
class ConfigArtifact:
    """Per-chip buffer configuration from the minimax-xi search."""

    configuration: ConfigurationResult
    config_seconds_per_chip: float


@dataclass(frozen=True)
class VerifyArtifact:
    """Final pass/fail of every configured chip at the operating period."""

    passed: np.ndarray

    @property
    def yield_fraction(self) -> float:
        return float(self.passed.mean())


# ----------------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------------


class OfflineStage:
    """The paper's ``Tp``: everything computed before any chip is touched.

    ``warm_cache`` (normally the engine's shared
    :class:`~repro.opt.warmstart.WarmStartCache`) threads simplex bases and
    integer incumbents across the offline MILPs of structurally identical
    preparations — sweep variants of one circuit warm-start each other.
    Hints never change the attained optimum *value* — only where the
    solver starts and, among tied optima, which vertex it reaches first.
    """

    def __init__(
        self,
        config: OfflineConfig | None = None,
        warm_cache: WarmStartCache | None = None,
    ):
        self.config = config or OfflineConfig()
        self.warm_cache = warm_cache

    def run(self, request: OfflineRequest) -> Preparation:
        cfg = self.config
        circuit = request.circuit
        watch = Stopwatch()

        with watch.measure("offline"):
            buffer_plan = plan_buffers(
                list(circuit.buffered_ffs),
                request.clock_period,
                range_fraction=cfg.range_fraction,
                n_steps=cfg.n_steps,
            )

            model = circuit.paths.model
            prior_means = model.means
            prior_stds = model.stds()

            if cfg.test_all_paths:
                grouping = None
                selected = np.arange(circuit.paths.n_paths, dtype=np.intp)
                fill = False
            else:
                grouping = group_and_select(
                    model,
                    start_threshold=cfg.start_threshold,
                    threshold_step=cfg.threshold_step,
                    floor_threshold=cfg.floor_threshold,
                    pc_criterion=cfg.pc_criterion,
                    variance_fraction=cfg.variance_fraction,
                    relative_threshold=cfg.relative_threshold,
                )
                selected = grouping.tested_indices
                fill = cfg.fill_slots

            plan = plan_multiplexing(
                circuit.paths,
                selected,
                mutual_exclusions=circuit.mutual_exclusions,
                fill_slots=fill,
                affinity=cfg.batch_affinity,
                fill_sigma_fraction=cfg.fill_sigma_fraction,
                max_fill_factor=cfg.max_fill_factor,
                fill_rank=cfg.fill_rank,
            )

            solver_stats: list = []
            if cfg.hold_exact:
                hold_bounds, hold_stats = solve_hold_bounds_exact(
                    circuit.short_paths,
                    buffer_plan,
                    target_yield=cfg.hold_yield,
                    n_samples=cfg.hold_samples,
                    seed=derive_seed(cfg.seed, circuit.name, "hold"),
                    backend=cfg.hold_backend,
                    warm=self.warm_cache,
                )
                if hold_stats is not None:
                    solver_stats.append(hold_stats)
            else:
                hold_bounds = compute_hold_bounds(
                    circuit.short_paths,
                    buffer_plan,
                    target_yield=cfg.hold_yield,
                    n_samples=cfg.hold_samples,
                    seed=derive_seed(cfg.seed, circuit.name, "hold"),
                )
            default_settings = hold_feasible_settings(
                buffer_plan, hold_bounds, circuit.ff_names
            )

            specs = []
            x_inits = []
            for batch in plan.batches:
                spec = build_batch_alignment(
                    batch.path_indices,
                    circuit.paths.source_idx,
                    circuit.paths.sink_idx,
                    circuit.ff_names,
                    buffer_plan,
                    hold_pairs=hold_bounds.pairs,
                    hold_lambdas=hold_bounds.lambdas,
                    default_settings=default_settings,
                )
                specs.append(spec)
                x_inits.append(
                    np.array([default_settings[name] for name in spec.buffer_names])
                )

            predictor = None
            if plan.n_measured < circuit.paths.n_paths:
                predictor = build_predictor(model, plan.measured)

            structure = build_config_structure(
                circuit.paths, buffer_plan, hold_bounds
            )

            epsilon = calibrate_epsilon(cfg, prior_stds)

        return Preparation(
            buffer_plan=buffer_plan,
            grouping=grouping,
            plan=plan,
            specs=specs,
            x_inits=x_inits,
            hold_bounds=hold_bounds,
            default_settings=default_settings,
            predictor=predictor,
            structure=structure,
            epsilon=epsilon,
            prior_means=prior_means,
            prior_stds=prior_stds,
            offline_seconds=watch.total("offline"),
            sigma_window=cfg.sigma_window,
            solver_stats=tuple(solver_stats),
            model=model,
        )


class TestStage(Protocol):
    """Any on-tester measurement strategy producing delay ranges.

    ``period`` and ``circuit`` are the operating context of the run; the
    uniform budget ignores them, the adaptive budget needs both to certify
    that coarse measurements cannot flip the chip's final verdict (the
    engine always supplies them).
    """

    def run(
        self,
        preparation: Preparation,
        population: Chips,
        period: float | None = None,
        circuit: Circuit | None = None,
    ) -> TestArtifact:  # pragma: no cover - protocol
        ...


class _CoarseEpsilonMemo:
    """One-entry memo of :func:`~repro.core.budget.coarse_epsilon`.

    The coarse allocation depends on the preparation's delay model, the
    measured paths, ``epsilon`` and the criticality kernel, never on the
    chips, so every shard of a run can share one result.  The entry is
    keyed by the preparation's identity and holds a reference to it, so the
    identity cannot be reused by a later preparation.
    """

    def __init__(self) -> None:
        self._entry: tuple | None = None

    def get(
        self, preparation: Preparation, measured, epsilon: float, kernel: str
    ) -> np.ndarray:
        entry = self._entry
        if (
            entry is not None
            and entry[0] is preparation
            and entry[1] == epsilon
            and entry[2] == kernel
        ):
            return entry[3]
        eps = coarse_epsilon(preparation.model, measured, epsilon, kernel=kernel)
        eps.setflags(write=False)  # shared by every later shard
        self._entry = (preparation, epsilon, kernel, eps)
        return eps


def _check_adaptive_context(
    preparation: Preparation, period: float | None, circuit: Circuit | None
) -> None:
    """Fail fast when the adaptive budget lacks its certification inputs."""
    if period is None or circuit is None:
        raise ValueError(
            "test_budget='adaptive' certifies verdicts against the operating "
            "period and circuit; run through the engine or pass period= and "
            "circuit= to the stage's run()"
        )
    if preparation.model is None:
        raise ValueError(
            "preparation carries no delay model (it predates adaptive test "
            "budgets — e.g. an old on-disk cache entry); recompute the "
            "offline stage"
        )


class AlignedTestStage:
    """§3.3: multiplexed frequency stepping with delay alignment.

    ``OnlineConfig.chip_shard_size`` streams the population through the
    test engine in memory-bounded chip shards (identical results for any
    shard size — chips are independent).  With a lazy
    :class:`~repro.core.yields.ChipSource` each shard's required-path
    delays are materialized on demand and dropped after testing, so the
    dense ``(n_chips, n_paths)`` matrix never exists in this process.

    ``OnlineConfig.test_budget="adaptive"`` switches to the graduated
    test of :mod:`repro.core.budget`: a coarse pass at
    criticality-allocated per-path resolution, a per-chip certificate
    that refinement cannot change the configure/verify verdict, and a
    uniform rerun (bit-identical to the default budget) for the chips the
    certificate rejects.  Yield verdicts match the uniform budget; mean
    iterations (``t_a``) drop.  The adaptive path needs the realized
    population (background + hold delays feed the certificate), so a lazy
    source is materialized here.
    """

    def __init__(self, online: OnlineConfig | None = None):
        self.online = online or OnlineConfig()
        self._coarse = _CoarseEpsilonMemo()

    def run(
        self,
        preparation: Preparation,
        population: Chips,
        period: float | None = None,
        circuit: Circuit | None = None,
    ) -> TestArtifact:
        if self.online.test_budget == "adaptive":
            return self._run_adaptive(preparation, population, period, circuit)
        watch = Stopwatch()
        with watch.measure("tester"):
            if isinstance(population, ChipSource):
                delays_of_shard = population.required_shard
            else:
                dense = population.required
                delays_of_shard = lambda start, stop: dense[start:stop]  # noqa: E731
            test = test_population_lazy(
                delays_of_shard,
                population.n_chips,
                preparation.plan,
                preparation.specs,
                preparation.prior_means,
                preparation.prior_stds,
                preparation.epsilon,
                sigma_window=preparation.sigma_window,
                k0=self.online.k0,
                kd=self.online.kd,
                align=self.online.align,
                x_inits=preparation.x_inits,
                chip_shard_size=self.online.chip_shard_size,
                kernel=self.online.test_kernel,
            )
        return TestArtifact(
            test=test,
            tester_seconds_per_chip=watch.total("tester") / population.n_chips,
        )

    def _run_adaptive(
        self,
        preparation: Preparation,
        population: Chips,
        period: float | None,
        circuit: Circuit | None,
    ) -> TestArtifact:
        _check_adaptive_context(preparation, period, circuit)
        if isinstance(population, ChipSource):
            population = population.realize()
        online = self.online
        watch = Stopwatch()
        with watch.measure("tester"):

            def aligned_test(delays, epsilon):
                return test_population(
                    delays,
                    preparation.plan,
                    preparation.specs,
                    preparation.prior_means,
                    preparation.prior_stds,
                    epsilon,
                    sigma_window=preparation.sigma_window,
                    k0=online.k0,
                    kd=online.kd,
                    align=online.align,
                    x_inits=preparation.x_inits,
                    chip_shard_size=online.chip_shard_size,
                    kernel=online.test_kernel,
                )

            eps_uniform = preparation.epsilon
            eps_coarse = self._coarse.get(
                preparation,
                preparation.plan.measured,
                eps_uniform,
                online.criticality_kernel,
            )
            coarse = aligned_test(population.required, eps_coarse)
            certified = certify_refinement(
                preparation.structure,
                circuit.short_paths,
                preparation.predictor,
                coarse,
                population,
                period,
                eps_uniform,
                sigma_window=preparation.sigma_window,
                xi_tolerance=online.xi_tolerance,
                kernel=online.configure_kernel,
            )
            lower = coarse.lower.copy()
            upper = coarse.upper.copy()
            iterations = coarse.iterations.copy()
            per_batch = coarse.iterations_per_batch.copy()
            refine = np.flatnonzero(~certified)
            if refine.size:
                # Chips are row-independent through the whole test engine,
                # so this rerun reproduces the uniform budget's rows bit
                # for bit — an uncertified chip pays coarse + full.
                full = aligned_test(population.required[refine], eps_uniform)
                lower[refine] = full.lower
                upper[refine] = full.upper
                iterations[refine] += full.iterations
                per_batch[refine] += full.iterations_per_batch
            test = PopulationTestResult(
                measured_indices=coarse.measured_indices,
                lower=lower,
                upper=upper,
                iterations=iterations,
                iterations_per_batch=per_batch,
            )
        return TestArtifact(
            test=test,
            tester_seconds_per_chip=watch.total("tester") / population.n_chips,
        )


class PathwiseTestStage:
    """The baseline of [2, 6, 8, 9]: every required path stepped alone.

    A drop-in :class:`TestStage`: its artifact covers *all* paths (each path
    is its own batch), so the downstream stages run unchanged with nothing
    left to predict.  A lazy source is realized eagerly here — the baseline
    exists for comparison runs, not for out-of-core scale.

    With ``OnlineConfig.test_budget="adaptive"`` the same graduated-test
    machinery as :class:`AlignedTestStage` applies: the per-path binary
    searches first run at criticality-allocated coarse resolutions, chips
    whose verdict the certificate pins keep the coarse ranges, the rest
    rerun at full resolution (bit-identical to the uniform baseline).
    """

    def __init__(self, online: OnlineConfig | None = None):
        self.online = online or OnlineConfig()
        self._coarse = _CoarseEpsilonMemo()

    def run(
        self,
        preparation: Preparation,
        population: Chips,
        period: float | None = None,
        circuit: Circuit | None = None,
    ) -> TestArtifact:
        if self.online.test_budget == "adaptive":
            return self._run_adaptive(preparation, population, period, circuit)
        watch = Stopwatch()
        with watch.measure("tester"):
            required = (
                population.required_shard()
                if isinstance(population, ChipSource)
                else population.required
            )
            result = pathwise_frequency_stepping(
                required,
                preparation.prior_means,
                preparation.prior_stds,
                preparation.epsilon,
                sigma_window=preparation.sigma_window,
                kernel=self.online.test_kernel,
            )
            n_chips, n_paths = result.lower.shape
            test = PopulationTestResult(
                measured_indices=np.arange(n_paths, dtype=np.intp),
                lower=result.lower,
                upper=result.upper,
                iterations=np.full(n_chips, result.total_iterations, dtype=int),
                # Per-path counts are deterministic, so every chip's row is
                # the same vector: share it as a broadcast view instead of
                # materializing O(chips x paths) copies.
                iterations_per_batch=np.broadcast_to(
                    result.iterations_per_path, (n_chips, n_paths)
                ),
            )
        return TestArtifact(
            test=test,
            tester_seconds_per_chip=watch.total("tester") / population.n_chips,
        )

    def _run_adaptive(
        self,
        preparation: Preparation,
        population: Chips,
        period: float | None,
        circuit: Circuit | None,
    ) -> TestArtifact:
        _check_adaptive_context(preparation, period, circuit)
        if isinstance(population, ChipSource):
            population = population.realize()
        online = self.online
        watch = Stopwatch()
        with watch.measure("tester"):
            n_paths = len(preparation.prior_means)
            all_paths = np.arange(n_paths, dtype=np.intp)

            def pathwise_test(delays, epsilon):
                return pathwise_frequency_stepping(
                    delays,
                    preparation.prior_means,
                    preparation.prior_stds,
                    epsilon,
                    sigma_window=preparation.sigma_window,
                    kernel=online.test_kernel,
                )

            eps_uniform = preparation.epsilon
            eps_coarse = self._coarse.get(
                preparation, all_paths, eps_uniform, online.criticality_kernel
            )
            coarse = pathwise_test(population.required, eps_coarse)
            n_chips = coarse.lower.shape[0]
            coarse_test = PopulationTestResult(
                measured_indices=all_paths,
                lower=coarse.lower,
                upper=coarse.upper,
                iterations=np.full(
                    n_chips, coarse.total_iterations, dtype=int
                ),
                iterations_per_batch=np.broadcast_to(
                    coarse.iterations_per_path, (n_chips, n_paths)
                ),
            )
            certified = certify_refinement(
                preparation.structure,
                circuit.short_paths,
                None,  # every path is measured; nothing is predicted
                coarse_test,
                population,
                period,
                eps_uniform,
                sigma_window=preparation.sigma_window,
                xi_tolerance=online.xi_tolerance,
                kernel=online.configure_kernel,
            )
            lower = coarse.lower.copy()
            upper = coarse.upper.copy()
            iterations = np.full(n_chips, coarse.total_iterations, dtype=int)
            per_batch = np.tile(coarse.iterations_per_path, (n_chips, 1))
            refine = np.flatnonzero(~certified)
            if refine.size:
                full = pathwise_test(population.required[refine], eps_uniform)
                lower[refine] = full.lower
                upper[refine] = full.upper
                iterations[refine] += full.total_iterations
                per_batch[refine] += full.iterations_per_path
            test = PopulationTestResult(
                measured_indices=all_paths,
                lower=lower,
                upper=upper,
                iterations=iterations,
                iterations_per_batch=per_batch,
            )
        return TestArtifact(
            test=test,
            tester_seconds_per_chip=watch.total("tester") / population.n_chips,
        )


class PredictStage:
    """§3.4 input assembly: tested ranges + conditional predictions."""

    def run(
        self, preparation: Preparation, tested: TestArtifact
    ) -> BoundsArtifact:
        test = tested.test
        n_chips = test.n_chips
        n_paths = len(preparation.prior_means)
        watch = Stopwatch()
        with watch.measure("predict"):
            lower = np.empty((n_chips, n_paths))
            upper = np.empty((n_chips, n_paths))
            lower[:, test.measured_indices] = test.lower
            upper[:, test.measured_indices] = test.upper

            predictor = preparation.predictor
            if predictor is not None and test.n_measured < n_paths:
                # Conservative conditioning on measured *upper* bounds (§3.4).
                pred_lower, pred_upper = predictor.predict_intervals(
                    test.upper, sigma_window=preparation.sigma_window
                )
                lower[:, predictor.predicted_idx] = pred_lower
                upper[:, predictor.predicted_idx] = pred_upper
        return BoundsArtifact(
            lower=lower,
            upper=upper,
            predict_seconds_per_chip=watch.total("predict") / n_chips,
        )


class ConfigureStage:
    """§3.4: minimax-xi buffer configuration per chip."""

    def __init__(self, online: OnlineConfig | None = None):
        self.online = online or OnlineConfig()

    def run(
        self, preparation: Preparation, bounds: BoundsArtifact, period: float
    ) -> ConfigArtifact:
        watch = Stopwatch()
        with watch.measure("config"):
            configuration = configure_chips(
                preparation.structure,
                bounds.lower,
                bounds.upper,
                period,
                xi_tolerance=self.online.xi_tolerance,
                kernel=self.online.configure_kernel,
            )
        n_chips = bounds.lower.shape[0]
        return ConfigArtifact(
            configuration=configuration,
            config_seconds_per_chip=watch.total("config") / n_chips,
        )


class VerifyStage:
    """Final pass/fail test of the configured chips.

    With a lazy :class:`~repro.core.yields.ChipSource` the population is
    re-materialized shard by shard (``chip_shard_size`` chips at a time)
    and checked against the matching rows of the configuration — recompute
    over storage, so verification stays O(shard) too.
    """

    def __init__(self, chip_shard_size: int | None = None):
        self.chip_shard_size = chip_shard_size

    def run(
        self,
        circuit: Circuit,
        population: Chips,
        configured: ConfigArtifact,
        period: float,
    ) -> VerifyArtifact:
        result = configured.configuration
        if isinstance(population, ChipSource):
            passed = np.empty(population.n_chips, dtype=bool)
            for start, stop, shard in population.iter_shards(self.chip_shard_size):
                rows = ConfigurationResult(
                    feasible=result.feasible[start:stop],
                    settings=result.settings[start:stop],
                    xi=result.xi[start:stop],
                    buffer_names=result.buffer_names,
                )
                passed[start:stop] = configured_pass(circuit, shard, rows, period)
        else:
            passed = configured_pass(circuit, population, result, period)
        return VerifyArtifact(passed=passed)


__all__ = [
    "AlignedTestStage",
    "BoundsArtifact",
    "Chips",
    "ConfigArtifact",
    "ConfigureStage",
    "OfflineRequest",
    "OfflineStage",
    "PathwiseTestStage",
    "PredictStage",
    "TestArtifact",
    "TestStage",
    "VerifyArtifact",
    "VerifyStage",
]
