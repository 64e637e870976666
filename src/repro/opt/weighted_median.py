"""Weighted medians, scalar and row-vectorized.

The delay-alignment objective (eq. 7 of the paper) minimizes a weighted sum
of absolute distances ``sum(k_ij * |T - c_ij|)`` over the shifted range
centres ``c_ij``; for fixed buffer values, the optimal clock period ``T`` is
the *weighted median* of the centres.  The row-vectorized variant evaluates
one median per Monte-Carlo chip so the population test engine
(:mod:`repro.core.population`) can align thousands of chips per call.
"""

from __future__ import annotations

import numpy as np


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Smallest ``v`` in ``values`` minimizing ``sum(w * |v - values|)``.

    Ignores entries with zero weight; raises if total weight is zero.

    Delegates to :func:`weighted_median_rows` so the scalar and vectorized
    paths share one tie-breaking rule bit for bit — the scalar ``testflow``
    engine and the population engine must pick the same median even when
    cumulative-weight rounding puts an entry within one ulp of half the
    total weight.  The candidate sweep of the alignment solver
    (:func:`repro.core.alignment._candidate_medians`) reproduces that rule
    itself — stable order by value then column, sequential running sum,
    the same half-weight test — without calling this module;
    ``tests/core/test_alignment_oracle.py`` pins the two together.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or values.ndim != 1:
        raise ValueError("values and weights must be 1-D arrays of equal shape")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if weights.sum() <= 0:
        raise ValueError("total weight must be positive")
    return float(weighted_median_rows(values[None, :], weights[None, :])[0])


def weighted_median_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise weighted median with NaN masking.

    ``values`` and ``weights`` have shape ``(rows, cols)``.  Entries where
    ``values`` is NaN (or weight is 0) are excluded from that row's median.
    Rows with no valid entries return NaN.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.shape != weights.shape or values.ndim != 2:
        raise ValueError("values and weights must be 2-D arrays of equal shape")
    rows, _ = values.shape

    mask = np.isnan(values) | (weights <= 0)
    work_values = np.where(mask, np.inf, values)
    work_weights = np.where(mask, 0.0, weights)

    order = np.argsort(work_values, axis=1, kind="stable")
    sorted_values = np.take_along_axis(work_values, order, axis=1)
    sorted_weights = np.take_along_axis(work_weights, order, axis=1)

    cumulative = np.cumsum(sorted_weights, axis=1)
    totals = cumulative[:, -1]
    valid = totals > 0

    # First index where cumulative weight reaches half the total.
    target = 0.5 * totals[:, None]
    reached = cumulative >= target - 1e-15
    idx = reached.argmax(axis=1)

    out = np.full(rows, np.nan)
    picked = sorted_values[np.arange(rows), idx]
    out[valid] = picked[valid]
    return out
