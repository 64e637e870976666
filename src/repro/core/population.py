"""Vectorized aligned delay test over a whole chip population.

Real testers handle chips one at a time, and each chip's adaptive test
trajectory (the sequence of aligned periods and buffer settings) depends on
its own pass/fail history.  This engine simulates all Monte-Carlo chips in
lockstep with numpy: per iteration, every still-active chip solves its own
alignment (weighted medians and coordinate descent are row-vectorized) and
updates its own bounds — producing, per chip, exactly the trace the scalar
:mod:`repro.core.testflow` engine produces, hundreds of times faster.

Two scaling mechanisms keep very large populations cheap:

* **Active-set compaction** (default): every per-chip computation is
  row-independent, so each iteration the working arrays are compacted to
  the chips that still have an unresolved path
  (``np.flatnonzero(chip_active)``), and a chip's bounds are scattered back
  into the full result arrays when it retires.  Late iterations — where
  only a few straggler chips remain — touch a handful of rows instead of
  the whole population, with bit-identical results (``compact=False``
  keeps the all-rows sweep for A/B checks and benchmarks).
* **Chip sharding**: :func:`test_population` accepts ``chip_shard_size``
  and streams the population through in chip shards, bounding the
  population-proportional working set — the per-batch ``(n_chips, m)``
  bound/center/weight arrays and their sort workspaces — independently of
  the population size (the alignment solver's candidate sweep blocks its
  ``(chips, candidates, paths)`` cost tensor at 1024 chips by itself).
  Chips are mutually independent, so any shard size produces identical
  results.

Iteration accounting matches the paper's: a chip pays one iteration for a
batch whenever at least one of its paths in that batch is still unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.alignment import BatchAlignment, center_sorted_weights, solve_alignment
from repro.core.multiplexing import MultiplexPlan
from repro.kernels import TEST_KERNELS, resolve_kernel
from repro.opt.weighted_median import weighted_median_rows
from repro.tester.oracle import shifted_slack_pass


@dataclass(frozen=True)
class PopulationTestResult:
    """Aligned-test outcome for every chip.

    Bounds are dense over the *measured* paths: column ``k`` corresponds to
    global path index ``measured_indices[k]``.
    """

    measured_indices: np.ndarray
    lower: np.ndarray  # (n_chips, n_measured)
    upper: np.ndarray
    iterations: np.ndarray  # (n_chips,) total frequency-stepping iterations
    iterations_per_batch: np.ndarray  # (n_chips, n_batches)

    @property
    def n_chips(self) -> int:
        return self.lower.shape[0]

    @property
    def n_measured(self) -> int:
        """Paths covered by this test — the single source for ``n_pt``."""
        return int(len(self.measured_indices))

    @property
    def mean_iterations(self) -> float:
        """The paper's ``t_a``: average iterations per chip."""
        return float(self.iterations.mean())


def concat_population_test_results(
    parts: Sequence[PopulationTestResult],
) -> PopulationTestResult:
    """Stack per-shard results back into one population-sized result.

    All parts must cover the same measured paths (chip shards of one
    population always do).
    """
    if not parts:
        raise ValueError("need at least one result to concatenate")
    first = parts[0]
    for part in parts[1:]:
        if not np.array_equal(part.measured_indices, first.measured_indices):
            raise ValueError("shard results cover different measured paths")
    if len(parts) == 1:
        return first
    return PopulationTestResult(
        measured_indices=first.measured_indices,
        lower=np.vstack([p.lower for p in parts]),
        upper=np.vstack([p.upper for p in parts]),
        iterations=np.concatenate([p.iterations for p in parts]),
        iterations_per_batch=np.vstack([p.iterations_per_batch for p in parts]),
    )


def _batch_max_iterations(
    prior_lower: np.ndarray,
    prior_upper: np.ndarray,
    epsilon: float | np.ndarray,
    m: int,
) -> int:
    """Iteration cap for one batch; ``epsilon`` may be scalar or per-path."""
    widths = np.maximum(prior_upper - prior_lower, epsilon)
    return int(m * (np.ceil(np.log2(widths / epsilon)).max() + 2))


def _sweep_all_rows(
    true_delays: np.ndarray,
    spec: BatchAlignment,
    lower: np.ndarray,
    upper: np.ndarray,
    x: np.ndarray,
    epsilon: float | np.ndarray,
    k0: float,
    kd: float,
    align: bool,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pre-compaction reference sweep: every iteration touches all rows.

    Kept verbatim as the bit-identity baseline for the active-set engine
    (tests and ``benchmarks/bench_population_scaling.py`` run both).
    """
    n_chips = true_delays.shape[0]
    iterations = np.zeros(n_chips, dtype=int)
    for _ in range(max_iterations):
        active = (upper - lower) >= epsilon
        chip_active = active.any(axis=1)
        if not chip_active.any():
            break
        centers = np.where(active, 0.5 * (lower + upper), np.nan)
        weights = center_sorted_weights(centers, k0, kd)
        if align and spec.n_buffers:
            period, x = solve_alignment(spec, centers, weights, x)
            shift = spec.shift(x)
        else:
            shift = spec.shift(x)
            period = weighted_median_rows(centers + shift, weights)

        passed = shifted_slack_pass(true_delays, shift, period[:, None])
        bound = period[:, None] - shift
        tighten_upper = active & passed & chip_active[:, None]
        tighten_lower = active & ~passed & chip_active[:, None]
        upper = np.where(tighten_upper, np.minimum(upper, bound), upper)
        lower = np.where(tighten_lower, np.maximum(lower, bound), lower)
        iterations += chip_active.astype(int)
    return lower, upper, iterations


def _sweep_active_set(
    true_delays: np.ndarray,
    spec: BatchAlignment,
    lower: np.ndarray,
    upper: np.ndarray,
    x: np.ndarray,
    epsilon: float | np.ndarray,
    k0: float,
    kd: float,
    align: bool,
    max_iterations: int,
    kernel: str = "vectorized",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Active-set sweep: compact to still-active chips, scatter on retire.

    Every per-chip operation in the loop body (weights, alignment, oracle,
    bound tightening) is row-independent, so dropping retired rows changes
    nothing about the rows that remain — the trace is bit-identical to
    :func:`_sweep_all_rows`, but late iterations only pay for stragglers.

    ``kernel="compiled"`` fuses the oracle + bound-tightening step into
    one in-place numba pass (:func:`repro.kernels.freqstep.
    step_bounds_kernel`) over the working copies this function owns —
    cell-for-cell the same accepted bounds, without the four masks and two
    fresh arrays per iteration.
    """
    n_chips = true_delays.shape[0]
    out_lower, out_upper = lower, upper
    iterations = np.zeros(n_chips, dtype=int)
    active_idx = np.arange(n_chips, dtype=np.intp)
    delays = true_delays
    if kernel == "compiled":
        from repro.kernels.freqstep import step_bounds_kernel
    else:
        step_bounds_kernel = None

    for _ in range(max_iterations):
        active = (upper - lower) >= epsilon
        row_active = active.any(axis=1)
        if not row_active.all():
            # Retire converged chips: scatter their final bounds into the
            # full arrays and compact the working set to survivors.
            retired = np.flatnonzero(~row_active)
            out_lower[active_idx[retired]] = lower[retired]
            out_upper[active_idx[retired]] = upper[retired]
            keep = np.flatnonzero(row_active)
            active_idx = active_idx[keep]
            lower = lower[keep]
            upper = upper[keep]
            x = x[keep]
            delays = delays[keep]
            active = active[keep]
        if active_idx.size == 0:
            break

        centers = np.where(active, 0.5 * (lower + upper), np.nan)
        weights = center_sorted_weights(centers, k0, kd)
        if align and spec.n_buffers:
            period, x = solve_alignment(spec, centers, weights, x)
            shift = spec.shift(x)
        else:
            shift = spec.shift(x)
            period = weighted_median_rows(centers + shift, weights)

        if step_bounds_kernel is not None:
            step_bounds_kernel(lower, upper, delays, shift, period, active)
        else:
            passed = shifted_slack_pass(delays, shift, period[:, None])
            bound = period[:, None] - shift
            upper = np.where(active & passed, np.minimum(upper, bound), upper)
            lower = np.where(active & ~passed, np.maximum(lower, bound), lower)
        iterations[active_idx] += 1

    # Rows that ran out of iterations (or never compacted) scatter here.
    out_lower[active_idx] = lower
    out_upper[active_idx] = upper
    return out_lower, out_upper, iterations


def run_batch_population(
    true_delays: np.ndarray,
    spec: BatchAlignment,
    prior_lower: np.ndarray,
    prior_upper: np.ndarray,
    x_init: np.ndarray,
    epsilon: float | np.ndarray,
    k0: float = 1000.0,
    kd: float = 1.0,
    align: bool = True,
    max_iterations: int | None = None,
    compact: bool = True,
    kernel: str = "vectorized",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Test one batch across all chips.

    ``true_delays`` is ``(n_chips, m)`` for the batch's paths; priors are
    per path.  ``epsilon`` is the stepping resolution — a scalar, or an
    ``(m,)`` array for per-path resolutions (the adaptive budget's coarse
    pass): a path retires from the active set as soon as its own range is
    narrower than its own epsilon.  Returns per-chip bounds and iteration
    counts.  ``compact`` selects the active-set engine (default) or the
    all-rows reference sweep; ``kernel`` selects the stepping-update
    implementation inside the active-set engine
    (:data:`repro.kernels.TEST_KERNELS`).  All combinations produce
    bit-identical results.
    """
    if kernel not in TEST_KERNELS:
        raise ValueError(f"kernel must be one of {TEST_KERNELS}, got {kernel!r}")
    kernel = resolve_kernel(kernel)
    true_delays = np.atleast_2d(np.asarray(true_delays, dtype=float))
    n_chips, m = true_delays.shape
    if np.ndim(epsilon) > 0:
        epsilon = np.asarray(epsilon, dtype=float)
        if epsilon.shape != (m,):
            raise ValueError("per-path epsilon must have one entry per path")
    if np.any(np.asarray(epsilon) <= 0):
        raise ValueError("epsilon must be positive")
    lower = np.tile(np.asarray(prior_lower, dtype=float), (n_chips, 1))
    upper = np.tile(np.asarray(prior_upper, dtype=float), (n_chips, 1))
    x = np.tile(np.asarray(x_init, dtype=float), (n_chips, 1))
    if max_iterations is None:
        max_iterations = _batch_max_iterations(
            prior_lower, prior_upper, epsilon, m
        )
    if compact:
        return _sweep_active_set(
            true_delays, spec, lower, upper, x, epsilon, k0, kd, align,
            max_iterations, kernel=kernel,
        )
    return _sweep_all_rows(
        true_delays, spec, lower, upper, x, epsilon, k0, kd, align,
        max_iterations,
    )


def _test_shard(
    true_delays: np.ndarray,
    plan: MultiplexPlan,
    specs: list[BatchAlignment],
    prior_means: np.ndarray,
    prior_stds: np.ndarray,
    epsilon: float | np.ndarray,
    sigma_window: float,
    k0: float,
    kd: float,
    align: bool,
    x_inits: list[np.ndarray] | None,
    compact: bool,
    column_of: dict[int, int],
    kernel: str = "vectorized",
) -> PopulationTestResult:
    """Run every batch over one chip shard."""
    n_chips = true_delays.shape[0]
    measured = plan.measured
    lower_full = np.empty((n_chips, len(measured)))
    upper_full = np.empty((n_chips, len(measured)))
    per_batch = np.zeros((n_chips, plan.n_batches), dtype=int)

    for b, (batch, spec) in enumerate(zip(plan.batches, specs)):
        idx = batch.path_indices
        x_init = x_inits[b] if x_inits is not None else spec.feasible_default()
        eps_batch = epsilon if np.ndim(epsilon) == 0 else epsilon[idx]
        lower, upper, iters = run_batch_population(
            true_delays[:, idx],
            spec,
            prior_means[idx] - sigma_window * prior_stds[idx],
            prior_means[idx] + sigma_window * prior_stds[idx],
            x_init,
            eps_batch,
            k0=k0,
            kd=kd,
            align=align,
            compact=compact,
            kernel=kernel,
        )
        cols = np.array([column_of[int(p)] for p in idx], dtype=np.intp)
        lower_full[:, cols] = lower
        upper_full[:, cols] = upper
        per_batch[:, b] = iters

    return PopulationTestResult(
        measured_indices=measured,
        lower=lower_full,
        upper=upper_full,
        iterations=per_batch.sum(axis=1),
        iterations_per_batch=per_batch,
    )


def test_population(
    true_delays_full: np.ndarray,
    plan: MultiplexPlan,
    specs: list[BatchAlignment],
    prior_means: np.ndarray,
    prior_stds: np.ndarray,
    epsilon: float | np.ndarray,
    sigma_window: float = 3.0,
    k0: float = 1000.0,
    kd: float = 1.0,
    align: bool = True,
    x_inits: list[np.ndarray] | None = None,
    chip_shard_size: int | None = None,
    compact: bool = True,
    kernel: str = "vectorized",
) -> PopulationTestResult:
    """Aligned delay test of every batch over every chip.

    ``true_delays_full`` is ``(n_chips, n_paths_total)`` over the *global*
    path indexing used by the plan's batches.  With ``chip_shard_size`` the
    population streams through in shards of at most that many chips,
    bounding peak memory; chips are independent, so any shard size yields
    identical results.
    """
    true_delays_full = np.atleast_2d(np.asarray(true_delays_full, dtype=float))
    n_chips = true_delays_full.shape[0]
    return test_population_lazy(
        lambda start, stop: true_delays_full[start:stop],
        n_chips,
        plan,
        specs,
        prior_means,
        prior_stds,
        epsilon,
        sigma_window=sigma_window,
        k0=k0,
        kd=kd,
        align=align,
        x_inits=x_inits,
        chip_shard_size=chip_shard_size,
        compact=compact,
        kernel=kernel,
    )


def test_population_lazy(
    delays_of_shard: Callable[[int, int], np.ndarray],
    n_chips: int,
    plan: MultiplexPlan,
    specs: list[BatchAlignment],
    prior_means: np.ndarray,
    prior_stds: np.ndarray,
    epsilon: float | np.ndarray,
    sigma_window: float = 3.0,
    k0: float = 1000.0,
    kd: float = 1.0,
    align: bool = True,
    x_inits: list[np.ndarray] | None = None,
    chip_shard_size: int | None = None,
    compact: bool = True,
    kernel: str = "vectorized",
) -> PopulationTestResult:
    """Out-of-core variant of :func:`test_population`.

    ``delays_of_shard(start, stop)`` materializes the ``(stop - start,
    n_paths_total)`` true-delay matrix of one chip shard on demand (for
    example :meth:`repro.core.yields.ChipSource.required_shard`), so the
    full ``(n_chips, n_paths_total)`` matrix never exists in this process:
    the peak delay-matrix working set is one shard.  Chips are independent,
    so results are bit-identical to the dense path for any shard size.
    """
    if len(specs) != plan.n_batches:
        raise ValueError("one alignment spec per batch required")
    if chip_shard_size is not None and chip_shard_size < 1:
        raise ValueError("chip_shard_size must be >= 1")
    if np.ndim(epsilon) > 0:
        epsilon = np.asarray(epsilon, dtype=float)
        if epsilon.shape != np.shape(prior_means):
            raise ValueError(
                "per-path epsilon must have one entry per path (global "
                "indexing, like the priors)"
            )
    if np.any(np.asarray(epsilon) <= 0):
        raise ValueError("epsilon must be positive")
    column_of = {int(p): k for k, p in enumerate(plan.measured)}

    shard = chip_shard_size if chip_shard_size is not None else n_chips
    shard = max(shard, 1)
    parts = [
        _test_shard(
            np.atleast_2d(
                np.asarray(
                    delays_of_shard(start, min(start + shard, max(n_chips, 1))),
                    dtype=float,
                )
            ),
            plan,
            specs,
            prior_means,
            prior_stds,
            epsilon,
            sigma_window,
            k0,
            kd,
            align,
            x_inits,
            compact,
            column_of,
            kernel=kernel,
        )
        for start in range(0, max(n_chips, 1), shard)
    ]
    return concat_population_test_results(parts)
