"""The candidate sweep as it was before the once-per-call sort.

:func:`solve_alignment` and :func:`_improve_buffer` are kept verbatim from
:mod:`repro.core.alignment`: every candidate row of every buffer goes
through :func:`~repro.opt.weighted_median.weighted_median_rows`, and the
period returned by each sweep step is threaded through the next call.
``tests/core/test_alignment_oracle.py`` pins the shipped solver to this
one bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.alignment import BatchAlignment
from repro.opt.weighted_median import weighted_median_rows


def solve_alignment(
    spec: BatchAlignment,
    centers: np.ndarray,
    weights: np.ndarray,
    x_init: np.ndarray,
    sweeps: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted-median / coordinate-descent alignment solver.

    Parameters are batched: ``centers``/``weights`` are ``(n_chips, m)``
    (NaN centre = inactive path), ``x_init`` is ``(n_chips, n_buf)`` and
    must satisfy the static bounds and pairwise constraints.

    Returns ``(T, x)`` with ``T`` shape ``(n_chips,)``.  Deterministic:
    grid-candidate ties resolve to the lowest index.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    x = np.array(np.atleast_2d(np.asarray(x_init, dtype=float)), copy=True)
    n_chips, m = centers.shape
    if weights.shape != centers.shape:
        raise ValueError("weights must match centers in shape")
    if x.shape != (n_chips, spec.n_buffers):
        raise ValueError("x_init must be (n_chips, n_buffers)")

    masked_weights = np.where(np.isnan(centers), 0.0, weights)

    period = weighted_median_rows(centers + spec.shift(x), masked_weights)
    for _ in range(sweeps):
        for b in range(spec.n_buffers):
            period, _ = _improve_buffer(
                spec, b, centers, masked_weights, x, period
            )
        period = weighted_median_rows(centers + spec.shift(x), masked_weights)
    return period, x


_CHUNK = 1024  # chips per block in the candidate sweep (memory bound)


def _improve_buffer(
    spec: BatchAlignment,
    b: int,
    centers: np.ndarray,
    weights: np.ndarray,
    x: np.ndarray,
    period: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Exact coordinate minimization of buffer ``b`` over its grid.

    For every candidate grid value the clock period is re-optimized (the
    optimal ``T`` for fixed buffers is the weighted median of the shifted
    centres), so each step minimizes the *joint* objective over
    ``(T, x_b)`` — plain coordinate descent with ``T`` frozen stalls on the
    symmetric in/out-pair case where moving ``x_b`` alone cannot help.
    """
    affected_src = spec.src_buffer == b
    affected_snk = spec.snk_buffer == b
    if not affected_src.any() and not affected_snk.any():
        return period, False
    grid = spec.grids[b]
    n_chips, m = centers.shape
    n_cand = len(grid)

    # Per-chip feasible interval from static bounds and pair constraints.
    lb = np.full(n_chips, spec.lower_bounds[b])
    ub = np.full(n_chips, spec.upper_bounds[b])
    for a, other, lam in spec.pair_lower:
        if a == b and other != b:
            lb = np.maximum(lb, lam + x[:, other])  # x_b >= lam + x_other
        elif other == b and a != b:
            ub = np.minimum(ub, x[:, a] - lam)  # x_b <= x_a - lam
    feasible = (grid[None, :] >= lb[:, None] - 1e-12) & (
        grid[None, :] <= ub[:, None] + 1e-12
    )

    # Shift with buffer b removed, and the +-1 coupling of each path to b.
    x_zero = x.copy()
    x_zero[:, b] = 0.0
    partial = centers + spec.shift(x_zero)
    sign = affected_src.astype(float) - affected_snk.astype(float)

    best_k = np.zeros(n_chips, dtype=np.intp)
    best_period = period.copy()
    for start in range(0, n_chips, _CHUNK):
        stop = min(start + _CHUNK, n_chips)
        block = slice(start, stop)
        rows = stop - start
        shifted = (
            partial[block, None, :] + sign[None, None, :] * grid[None, :, None]
        )  # (rows, n_cand, m)
        w_block = np.broadcast_to(
            weights[block, None, :], (rows, n_cand, m)
        ).reshape(-1, m)
        medians = weighted_median_rows(
            shifted.reshape(-1, m), w_block
        ).reshape(rows, n_cand)
        cost = np.nansum(
            np.where(
                np.isnan(shifted), 0.0,
                weights[block, None, :] * np.abs(medians[:, :, None] - shifted),
            ),
            axis=2,
        )
        cost = np.where(feasible[block], cost, np.inf)
        k = np.argmin(cost, axis=1)
        best_k[block] = k
        best_period[block] = medians[np.arange(rows), k]

    # If numerical tightening left a chip with no feasible candidate, keep
    # its current (feasible) value rather than jumping to an invalid one.
    all_infeasible = ~feasible.any(axis=1)
    if all_infeasible.any():
        current_k = np.argmin(np.abs(grid[None, :] - x[:, b : b + 1]), axis=1)
        best_k[all_infeasible] = current_k[all_infeasible]
        best_period[all_infeasible] = period[all_infeasible]
    x[:, b] = grid[best_k]
    return best_period, True
