"""Aligned delay test optimization (§3.3, eqs. 6–14 of the paper).

Per test iteration, one clock period ``T`` and batch-local buffer values
``x`` are chosen to minimize the weighted distance of ``T`` from every
path's *shifted* range centre:

    minimize sum_ij k_ij * | T - ((u_ij + l_ij)/2 + x_i - x_j) |    (eq. 7)

subject to buffer ranges (eq. 14) and hold-safety bounds ``x_i - x_j >=
lambda_ij`` (eq. 21).  The weights are centre-sorted (the middle range gets
``k0``, decreasing by ``kd`` outward, ``k0 >> kd``) to break the
non-overlapping-ranges tie of Fig. 6e.

Three solvers are provided:

* :func:`solve_alignment` — the production solver: the optimal ``T`` for
  fixed ``x`` is a weighted median, and each discrete buffer is improved by
  exact coordinate minimization over its (hold-feasible) grid values.
  Fully vectorized across Monte-Carlo chips.
* :func:`solve_alignment_milp` — the paper's formulation solved exactly;
  ``formulation="paper"`` reproduces the big-M/0-1 encoding of eqs. 8–13
  verbatim, ``formulation="compact"`` the equivalent two-inequality
  absolute-value encoding.  Used for cross-checks and small flows.
* :class:`CompiledAlignmentModel` — the same MILP built once and re-solved
  for new centres and weights.

The candidate sweep of :func:`solve_alignment` is where the online test
spends its time.  A candidate value ``g`` for buffer ``b`` moves only the
paths coupled to ``b`` (sources by ``+g``, sinks by ``-g``), so
:func:`_candidate_medians` sorts the other paths once per call and places
the moving ones by counting, instead of sorting every candidate row; the
medians and therefore ``(T, x)`` are bit-identical to running
:func:`~repro.opt.weighted_median.weighted_median_rows` on every candidate
(``tests/core/test_alignment_oracle.py`` pins both against the retired
sweep).  After a buffer's first evaluation, a chip is evaluated again only
if one of its other buffers has moved since, because nothing else enters
the result.  Only the final period is a weighted median of the whole
batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.opt.linexpr import LinExpr
from repro.opt.model import MatrixForm, Model, ObjectiveSense, VarType
from repro.opt.solve import Solution, solve, solve_matrix_form
from repro.opt.warmstart import WarmHint, WarmStartCache
from repro.opt.weighted_median import weighted_median_rows


@dataclass(frozen=True)
class BatchAlignment:
    """Static alignment structure of one test batch.

    ``m`` batch paths reference ``n_buf`` movable buffers by local index
    (-1 = that endpoint has no buffer or its buffer is outside the batch
    and held at its default).  ``base_shift`` carries the contribution of
    non-movable endpoints, so a path's tested quantity is
    ``centre + base_shift + x[src_buffer] - x[snk_buffer]``.
    """

    src_buffer: np.ndarray  # (m,) local buffer index or -1
    snk_buffer: np.ndarray  # (m,)
    base_shift: np.ndarray  # (m,)
    grids: tuple[np.ndarray, ...]  # candidate values per local buffer
    lower_bounds: np.ndarray  # (n_buf,) static bounds incl. hold vs fixed env
    upper_bounds: np.ndarray
    pair_lower: tuple[tuple[int, int, float], ...] = ()
    # each (a, b, lam): x[a] - x[b] >= lam between movable buffers
    buffer_names: tuple[str, ...] = ()  # FF names of the movable buffers

    @property
    def n_paths(self) -> int:
        return len(self.src_buffer)

    @property
    def n_buffers(self) -> int:
        return len(self.grids)

    def shift(self, x: np.ndarray) -> np.ndarray:
        """Per-path ``x_i - x_j`` (plus fixed environment) for settings ``x``.

        ``x`` is ``(n_buf,)`` or ``(n_chips, n_buf)``; result matches with a
        trailing path axis.
        """
        x = np.asarray(x, dtype=float)
        batched = x.ndim == 2
        xs = x if batched else x[None, :]
        shift = np.tile(self.base_shift, (xs.shape[0], 1))
        src_has = self.src_buffer >= 0
        snk_has = self.snk_buffer >= 0
        if src_has.any():
            shift[:, src_has] += xs[:, self.src_buffer[src_has]]
        if snk_has.any():
            shift[:, snk_has] -= xs[:, self.snk_buffer[snk_has]]
        return shift if batched else shift[0]

    def feasible_default(self) -> np.ndarray:
        """A hold-feasible starting point: per-buffer value closest to 0.

        The static bounds are assumed to admit such a point (guaranteed by
        the offline hold-bound computation, which validates the default
        settings).  Pairwise ``lambda`` constraints are *checked*, not
        assumed: a start that violates ``x[a] - x[b] >= lambda`` would send
        the coordinate-descent solver through hold-infeasible settings, so
        a violation raises instead of being silently returned.
        """
        out = np.empty(self.n_buffers)
        for b, grid in enumerate(self.grids):
            feasible = grid[
                (grid >= self.lower_bounds[b] - 1e-12)
                & (grid <= self.upper_bounds[b] + 1e-12)
            ]
            pool = feasible if feasible.size else grid
            out[b] = pool[np.argmin(np.abs(pool))]
        for a, b, lam in self.pair_lower:
            if out[a] - out[b] < lam - 1e-9:
                name_a = self.buffer_names[a] if self.buffer_names else str(a)
                name_b = self.buffer_names[b] if self.buffer_names else str(b)
                raise ValueError(
                    "feasible_default is hold-infeasible: "
                    f"x[{name_a}] - x[{name_b}] = {out[a] - out[b]:g} "
                    f"violates the pair constraint >= {lam:g}; the offline "
                    "hold bounds do not cover this batch's default settings "
                    "— pass explicit x_inits (e.g. from "
                    "hold_feasible_settings) instead"
                )
        return out


def build_batch_alignment(
    batch_paths: np.ndarray,
    path_source_idx: np.ndarray,
    path_sink_idx: np.ndarray,
    ff_names: tuple[str, ...],
    buffer_plan,
    hold_pairs: tuple[tuple[int, int], ...] = (),
    hold_lambdas: np.ndarray | None = None,
    default_settings: dict[str, float] | None = None,
) -> BatchAlignment:
    """Construct the alignment structure of one batch.

    Movable buffers are the tunable endpoints of the batch's paths; buffers
    elsewhere in the circuit stay parked at ``default_settings``, which
    turns hold constraints against them into static bounds on the movable
    ones.  ``hold_pairs``/``hold_lambdas`` are (source FF index, sink FF
    index) -> lambda from :mod:`repro.core.holdtime`.
    """
    batch_paths = np.asarray(batch_paths, dtype=np.intp)
    defaults = default_settings or {}

    movable: list[str] = []
    movable_index: dict[str, int] = {}
    for p in batch_paths.tolist():
        for ff_idx in (int(path_source_idx[p]), int(path_sink_idx[p])):
            name = ff_names[ff_idx]
            if buffer_plan.has_buffer(name) and name not in movable_index:
                movable_index[name] = len(movable)
                movable.append(name)

    src_buffer = np.array(
        [
            movable_index.get(ff_names[int(path_source_idx[p])], -1)
            for p in batch_paths.tolist()
        ],
        dtype=np.intp,
    )
    snk_buffer = np.array(
        [
            movable_index.get(ff_names[int(path_sink_idx[p])], -1)
            for p in batch_paths.tolist()
        ],
        dtype=np.intp,
    )

    grids = tuple(buffer_plan.buffer(name).values() for name in movable)
    lower = np.array([buffer_plan.buffer(name).lower for name in movable])
    upper = np.array([buffer_plan.buffer(name).upper for name in movable])

    pair_lower: list[tuple[int, int, float]] = []
    if hold_lambdas is not None:
        for (src_idx, snk_idx), lam in zip(hold_pairs, hold_lambdas):
            src_name, snk_name = ff_names[src_idx], ff_names[snk_idx]
            a = movable_index.get(src_name)
            b = movable_index.get(snk_name)
            lam = float(lam)
            if a is not None and b is not None:
                pair_lower.append((a, b, lam))
            elif a is not None:
                # x_a >= lam + fixed setting of the sink side
                fixed = defaults.get(snk_name, 0.0)
                lower[a] = max(lower[a], lam + fixed)
            elif b is not None:
                fixed = defaults.get(src_name, 0.0)
                upper[b] = min(upper[b], fixed - lam)

    return BatchAlignment(
        src_buffer=src_buffer,
        snk_buffer=snk_buffer,
        base_shift=np.zeros(len(batch_paths)),
        grids=grids,
        lower_bounds=lower,
        upper_bounds=upper,
        pair_lower=tuple(pair_lower),
        buffer_names=tuple(movable),
    )


def center_sorted_weights(
    centers: np.ndarray, k0: float = 1000.0, kd: float = 1.0
) -> np.ndarray:
    """Eq.-7 weights: middle of the sorted centres gets ``k0``; weight drops
    by ``kd`` per rank step away from the middle (``k0 >> kd``).

    Accepts ``(m,)`` or ``(n_chips, m)`` centres; NaN centres (converged or
    inactive paths) get weight 0.
    """
    centers = np.asarray(centers, dtype=float)
    single = centers.ndim == 1
    c = centers[None, :] if single else centers
    n_rows, m = c.shape

    valid = ~np.isnan(c)
    # Rank valid entries per row by centre value; NaNs sort to the end.
    order = np.argsort(np.where(valid, c, np.inf), axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(n_rows)[:, None]
    ranks[rows, order] = np.arange(m)[None, :]

    n_valid = valid.sum(axis=1)
    middle = (n_valid - 1) / 2.0
    weights = k0 - kd * np.abs(ranks - middle[:, None])
    weights = np.where(valid, np.maximum(weights, kd), 0.0)
    return weights[0] if single else weights


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

    # A chip's new value for buffer b depends only on its other buffers:
    # the shifted centres exclude x_b, and so do the feasible bounds (a
    # chip with no feasible candidate keeps x_b, the value b last chose).
    # So after b's first evaluation only the chips where another buffer
    # moved since then are evaluated again.  ``seen[b]`` is x as b last
    # saw it.
    seen: list[np.ndarray | None] = [None] * spec.n_buffers
    for _ in range(sweeps):
        for b in range(spec.n_buffers):
            if not ((spec.src_buffer == b) | (spec.snk_buffer == b)).any():
                continue
            if seen[b] is None:
                x[:, b] = _improve_buffer(spec, b, centers, masked_weights, x)
            else:
                rows = np.flatnonzero((x != seen[b]).any(axis=1))
                if rows.size:
                    x[rows, b] = _improve_buffer(
                        spec, b, centers[rows], masked_weights[rows], x[rows]
                    )
            seen[b] = x.copy()
    return weighted_median_rows(centers + spec.shift(x), masked_weights), x


_CHUNK = 1024  # chips per block in the candidate sweep (memory bound)


def _improve_buffer(
    spec: BatchAlignment,
    b: int,
    centers: np.ndarray,
    weights: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Exact coordinate minimization of buffer ``b`` over its grid.

    Returns every chip's new grid value for ``b``; ``x`` is only read.
    For every candidate grid value the clock period is re-optimized (the
    optimal ``T`` for fixed buffers is the weighted median of the shifted
    centres, from :func:`_candidate_medians`), so each step minimizes the
    *joint* objective over ``(T, x_b)`` — plain coordinate descent with
    ``T`` frozen stalls on the symmetric in/out-pair case where moving
    ``x_b`` alone cannot help.  Each candidate's cost is a sum over the
    last axis of a ``(chips, candidates, paths)`` tensor, whose rounding
    decides between candidates on a plateau; the cheapest feasible
    candidate wins, ties to the lowest index.  A chip with no feasible
    candidate keeps the grid value nearest its current one.  The period
    of the winner is not returned: :func:`solve_alignment` recomputes it
    once from the final ``x``.
    """
    grid = spec.grids[b]
    n_chips = centers.shape[0]

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
    sign = (spec.src_buffer == b).astype(float) - (spec.snk_buffer == b)

    best_k = np.zeros(n_chips, dtype=np.intp)
    for start in range(0, n_chips, _CHUNK):
        block = slice(start, min(start + _CHUNK, n_chips))
        shifted = (
            partial[block, None, :] + sign[None, None, :] * grid[None, :, None]
        )  # (rows, n_cand, m)
        medians = _candidate_medians(partial[block], weights[block], sign, grid)
        cost = np.where(
            np.isnan(shifted), 0.0,
            weights[block, None, :] * np.abs(medians[:, :, None] - shifted),
        ).sum(axis=2)
        cost = np.where(feasible[block], cost, np.inf)
        best_k[block] = np.argmin(cost, axis=1)

    # If numerical tightening left a chip with no feasible candidate, keep
    # its current (feasible) value rather than jumping to an invalid one.
    all_infeasible = ~feasible.any(axis=1)
    if all_infeasible.any():
        current_k = np.argmin(np.abs(grid[None, :] - x[:, b : b + 1]), axis=1)
        best_k[all_infeasible] = current_k[all_infeasible]
    return grid[best_k]


def _candidate_medians(
    values: np.ndarray, weights: np.ndarray, sign: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """Weighted median of ``values + sign * g`` for every candidate ``g``.

    ``values``/``weights`` are ``(rows, m)``, ``sign`` is each path's ±1
    coupling to the buffer (0 = the path does not move) and the result is
    ``(rows, n_cand)``.  Every entry equals
    :func:`~repro.opt.weighted_median.weighted_median_rows` of that
    candidate's shifted row, bit for bit, without a sort per candidate:

    * the mask and the weights do not depend on the candidate, nor does
      the stable order of the paths that do not move, so those are sorted
      once per call;
    * each moving path is placed by counting the entries before it, by
      value and then by column index (the tie rule of a stable argsort);
    * the weights are then summed sequentially in that order, one
      ``(n_cand, rows)`` plane per position, so the half-weight test sees
      the same floats as ``weighted_median_rows``'s ``cumsum``.
    """
    rows, m = values.shape
    n_cand = len(grid)
    valid = ~(np.isnan(values) | (weights <= 0))
    masked = np.where(valid, values, np.inf)
    masked_weights = np.where(valid, weights, 0.0)
    work = masked.T  # (m, rows): path i of every row is work[i]
    moving = np.flatnonzero(sign)
    still = np.flatnonzero(sign == 0)
    n_still = still.size
    count = np.min_scalar_type(m)  # positions and counts are below m
    column = np.arange(rows)

    # Per row, entry-major: the still entries in sorted order, then (for
    # the weights) the moving ones by column, or (for the values) a spare
    # entry so that a still rank one past the end stays in bounds.
    order = np.argsort(work[still], axis=0, kind="stable")
    picks = still[order] + column * m  # flat (rows, m) index, sorted
    weight_table = np.concatenate(
        [masked_weights.take(picks), masked_weights.T[moving]]
    ).ravel()
    value_table = np.concatenate(
        [masked.take(picks), np.full((1, rows), np.inf)]
    ).ravel()
    moved = [work[i] + (sign[i] * grid)[:, None] for i in moving]

    # Sorted position of each moving entry: the entries before it.
    position = []
    for a, i in enumerate(moving):
        before = np.zeros((n_cand, rows), dtype=count)
        for u in still:
            ahead = work[u] <= moved[a] if u < i else work[u] < moved[a]
            before += ahead.view(np.uint8)
        position.append(before)
    for a in range(len(moving)):
        for a2 in range(a + 1, len(moving)):
            first = moved[a] <= moved[a2]  # the lower column wins a tie
            position[a2] += first.view(np.uint8)
            position[a] += (~first).view(np.uint8)

    # The entry at every position: the next still rank, unless a moving
    # entry sits there.
    slots = np.arange(m, dtype=count)[:, None, None]
    entry = np.empty((m, n_cand, rows), dtype=count)
    entry[...] = slots
    for at in position:
        entry -= (at < slots).view(np.uint8)
    flat = np.arange(n_cand * rows).reshape(n_cand, rows)
    for a, at in enumerate(position):
        np.put(entry, at.astype(np.intp) * flat.size + flat, n_still + a)

    # Sequential running sum of the weights in sorted order.
    cumulative = weight_table.take(entry.astype(np.intp) * rows + column)
    for p in range(1, m):
        np.add(cumulative[p - 1], cumulative[p], out=cumulative[p])
    total = cumulative[-1]
    # First position whose running sum reaches half the total weight; the
    # running sum never decreases, so that is the count of positions short.
    median_at = (cumulative < 0.5 * total - 1e-15).sum(axis=0, dtype=count)

    rank = median_at.copy()  # still rank at the median position
    for at in position:
        rank -= (at < median_at).view(np.uint8)
    medians = value_table.take(rank.astype(np.intp) * rows + column)
    for a, at in enumerate(position):
        np.copyto(medians, moved[a], where=at == median_at)
    return np.where(total > 0, medians, np.nan).T


# ----------------------------------------------------------------------------
# Exact MILP formulations (scalar)
# ----------------------------------------------------------------------------


def _is_uniform_grid(grid: np.ndarray) -> bool:
    """Whether all grid steps are (numerically) equal."""
    if len(grid) < 3:
        return True
    steps = np.diff(np.asarray(grid, dtype=float))
    return bool(np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12))


def _alignment_model(
    spec: BatchAlignment,
    centers: np.ndarray,
    weights: np.ndarray,
    formulation: str,
) -> tuple[Model, list[LinExpr]]:
    centers = np.asarray(centers, dtype=float)
    weights = np.asarray(weights, dtype=float)
    model = Model("alignment")

    x_exprs: list[LinExpr] = []
    for b, grid in enumerate(spec.grids):
        if _is_uniform_grid(grid):
            # Uniform lattice: one integer step count is exact and keeps the
            # branch & bound tree small.
            step = grid[1] - grid[0] if len(grid) > 1 else 1.0
            k = model.add_var(f"k{b}", 0, len(grid) - 1, VarType.INTEGER)
            x_exprs.append(k * float(step) + float(grid[0]))
        else:
            # Non-uniform grid: affine step encoding would silently round to
            # off-grid values, so select the value with one-hot binaries.
            selectors = [
                model.add_binary(f"z{b}_{j}") for j in range(len(grid))
            ]
            model.add_constraint(LinExpr.sum(selectors).equals(1))
            x_exprs.append(
                LinExpr.sum(
                    float(v) * z for v, z in zip(grid.tolist(), selectors)
                )
            )

    # Static bounds (hold vs fixed environment) and pair constraints.
    for b in range(spec.n_buffers):
        model.add_constraint(x_exprs[b] >= float(spec.lower_bounds[b]))
        model.add_constraint(x_exprs[b] <= float(spec.upper_bounds[b]))
    for a, b, lam in spec.pair_lower:
        model.add_constraint(x_exprs[a] - x_exprs[b] >= float(lam))

    finite = [p for p in range(spec.n_paths) if not np.isnan(centers[p])]
    span = max(
        (abs(float(centers[p])) for p in finite), default=1.0
    ) + sum(float(np.max(np.abs(g))) for g in spec.grids) + 1.0
    period = model.add_var("T", -span, span)

    big_m = 4.0 * span
    objective = LinExpr()
    for p in finite:
        eta = model.add_var(f"eta{p}", 0.0)
        gap: LinExpr = period - float(centers[p]) - float(spec.base_shift[p])
        if spec.src_buffer[p] >= 0:
            gap = gap - x_exprs[spec.src_buffer[p]]
        if spec.snk_buffer[p] >= 0:
            gap = gap + x_exprs[spec.snk_buffer[p]]
        if formulation == "compact":
            model.add_constraint(eta >= gap)
            model.add_constraint(eta >= -1.0 * gap)
        elif formulation == "paper":
            zp = model.add_binary(f"zp{p}")
            zn = model.add_binary(f"zn{p}")
            model.add_constraint(gap <= big_m * zp)  # eq. 8
            model.add_constraint(gap - eta <= big_m * (1 - zp))  # eq. 9
            model.add_constraint(-1.0 * gap + eta <= big_m * (1 - zp))  # eq. 10
            model.add_constraint(-1.0 * gap <= big_m * zn)  # eq. 11
            model.add_constraint(-1.0 * gap - eta <= big_m * (1 - zn))  # eq. 12
            model.add_constraint(gap + eta <= big_m * (1 - zn))  # eq. 13
            model.add_constraint(zp + zn >= 1)
        else:
            raise ValueError(f"unknown formulation {formulation!r}")
        objective = objective + float(weights[p]) * eta
    model.set_objective(objective, ObjectiveSense.MINIMIZE)
    return model, x_exprs


def solve_alignment_milp(
    spec: BatchAlignment,
    centers: np.ndarray,
    weights: np.ndarray,
    formulation: str = "compact",
    backend: str = "scipy",
) -> tuple[float, np.ndarray, Solution]:
    """Solve eqs. 7–14 exactly; returns ``(T, x, solution)``.

    Raises ``RuntimeError`` when the solver fails (e.g. inconsistent hold
    bounds), since alignment infeasibility indicates a configuration bug.
    """
    model, x_exprs = _alignment_model(spec, centers, weights, formulation)
    solution = solve(model, backend=backend)
    if not solution.ok:
        raise RuntimeError(f"alignment MILP failed: {solution.status}")
    x = np.empty(spec.n_buffers)
    for b, grid in enumerate(spec.grids):
        # Evaluate the buffer's encoding (integer step or one-hot selection)
        # and snap to the nearest grid value to undo solver round-off.
        value = x_exprs[b].evaluate(solution.values)
        x[b] = grid[int(np.argmin(np.abs(grid - value)))]
    return float(solution["T"]), x, solution


class CompiledAlignmentModel:
    """Eqs. 7–14 precompiled: build the matrix encoding once, re-solve often.

    :func:`solve_alignment_milp` re-encodes the whole MILP through
    ``Model``/``LinExpr`` objects on every call even though the *structure*
    — variable layout, constraint sparsity, one-hot groups, which entries
    carry the big M — depends only on the :class:`BatchAlignment`, while
    ``centers``/``weights`` only move coefficient *values* (objective
    entries, right-hand sides, the period bounds and the big-M magnitude).
    This class does the PR-5 treatment for that hot path: the
    :class:`~repro.opt.model.MatrixForm` arrays are assembled once per
    ``(spec, formulation)`` and each :meth:`solve` rewrites just the
    recorded value slots — no per-call object churn.

    With all-finite ``centers`` the compiled arrays are *identical* to
    ``_alignment_model(...).to_matrix_form()`` (pinned by tests), so any
    backend produces the same answer for both encodings.  Unlike the
    dynamic model, the compiled layout always carries **all** batch paths:
    a NaN centre gets weight 0 and centre 0, which leaves the ``(T, x)``
    optimum and the objective unchanged (its ``eta`` is elastic and free),
    but keeps the matrix shape — and therefore the warm-start structure
    fingerprint — stable across calls where different paths drop out.
    """

    def __init__(self, spec: BatchAlignment, formulation: str = "compact"):
        if formulation not in ("compact", "paper"):
            raise ValueError(f"unknown formulation {formulation!r}")
        self.spec = spec
        self.formulation = formulation
        paper = formulation == "paper"
        m_paths = spec.n_paths

        # -- variable layout (must match _alignment_model exactly) ----------
        names: list[str] = []
        lower: list[float] = []
        upper: list[float] = []
        integer: list[bool] = []
        self._buffer_encoding: list[tuple[str, int, np.ndarray]] = []
        # per buffer: ("step", k_col, grid) or ("onehot", first_col, grid)
        for b, grid in enumerate(spec.grids):
            grid = np.asarray(grid, dtype=float)
            if _is_uniform_grid(grid):
                self._buffer_encoding.append(("step", len(names), grid))
                names.append(f"k{b}")
                lower.append(0.0)
                upper.append(float(len(grid) - 1))
                integer.append(True)
            else:
                self._buffer_encoding.append(("onehot", len(names), grid))
                for j in range(len(grid)):
                    names.append(f"z{b}_{j}")
                    lower.append(0.0)
                    upper.append(1.0)
                    integer.append(True)
        self._t_col = len(names)
        names.append("T")
        lower.append(0.0)  # per-call: [-span, span]
        upper.append(0.0)
        integer.append(False)
        self._eta_cols = np.empty(m_paths, dtype=np.intp)
        for p in range(m_paths):
            self._eta_cols[p] = len(names)
            names.append(f"eta{p}")
            lower.append(0.0)
            upper.append(np.inf)
            integer.append(False)
            if paper:
                for tag in (f"zp{p}", f"zn{p}"):
                    names.append(tag)
                    lower.append(0.0)
                    upper.append(1.0)
                    integer.append(True)
        n_vars = len(names)

        # x_expr of buffer b as (columns, coefficients, constant).
        def buffer_terms(b: int) -> tuple[np.ndarray, np.ndarray, float]:
            kind, col, grid = self._buffer_encoding[b]
            if kind == "step":
                step = grid[1] - grid[0] if len(grid) > 1 else 1.0
                return np.array([col]), np.array([float(step)]), float(grid[0])
            cols = np.arange(col, col + len(grid))
            return cols, grid.copy(), 0.0

        # -- equality rows: one-hot selectors sum to 1 ----------------------
        eq_rows: list[np.ndarray] = []
        for b in range(spec.n_buffers):
            kind, col, grid = self._buffer_encoding[b]
            if kind == "onehot":
                row = np.zeros(n_vars)
                row[col : col + len(grid)] = 1.0
                eq_rows.append(row)
        a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n_vars))
        b_eq = np.ones(len(eq_rows))

        # -- inequality rows ------------------------------------------------
        ub_rows: list[np.ndarray] = []
        ub_rhs: list[float] = []  # value with centre = 0 and M = 0
        center_path: list[int] = []  # path contributing ±centre, or -1
        center_sign: list[float] = []
        m_rhs_flag: list[float] = []  # 1.0 where the rhs carries +M
        m_entries: list[tuple[int, int, float]] = []  # (row, col, ±1) ⋅ M

        def push(row: np.ndarray, rhs: float, path: int = -1, sign: float = 0.0,
                 m_flag: float = 0.0) -> int:
            ub_rows.append(row)
            ub_rhs.append(rhs)
            center_path.append(path)
            center_sign.append(sign)
            m_rhs_flag.append(m_flag)
            return len(ub_rows) - 1

        for b in range(spec.n_buffers):
            cols, coeffs, const = buffer_terms(b)
            row = np.zeros(n_vars)
            row[cols] = -coeffs  # x >= lb, negated to <=
            push(row, const - float(spec.lower_bounds[b]))
            row = np.zeros(n_vars)
            row[cols] = coeffs  # x <= ub
            push(row, float(spec.upper_bounds[b]) - const)
        for a, b, lam in spec.pair_lower:
            cols_a, coeffs_a, const_a = buffer_terms(a)
            cols_b, coeffs_b, const_b = buffer_terms(b)
            row = np.zeros(n_vars)
            row[cols_a] -= coeffs_a  # x_a - x_b >= lam, negated
            row[cols_b] += coeffs_b
            push(row, const_a - const_b - float(lam))

        # Per-path constants of the gap expression, kept separate so `load`
        # can fold the centre in with the exact same float-operation order
        # as the dynamic LinExpr build (bit-identical right-hand sides).
        self._path_base = np.asarray(spec.base_shift, dtype=float).copy()
        self._path_src_const = np.zeros(m_paths)
        self._path_snk_const = np.zeros(m_paths)
        for p in range(m_paths):
            gap = np.zeros(n_vars)  # variable part of T - c_p - base - x_src + x_snk
            gap[self._t_col] = 1.0
            if spec.src_buffer[p] >= 0:
                cols, coeffs, const = buffer_terms(int(spec.src_buffer[p]))
                gap[cols] -= coeffs
                self._path_src_const[p] = const
            if spec.snk_buffer[p] >= 0:
                cols, coeffs, const = buffer_terms(int(spec.snk_buffer[p]))
                gap[cols] += coeffs
                self._path_snk_const[p] = const
            eta = int(self._eta_cols[p])
            if not paper:
                row = gap.copy()  # eta >= gap, negated
                row[eta] = -1.0
                push(row, 0.0, path=p, sign=1.0)
                row = -gap  # eta >= -gap, negated
                row[eta] = -1.0
                push(row, 0.0, path=p, sign=-1.0)
            else:
                zp, zn = eta + 1, eta + 2
                row = gap.copy()  # eq. 8: gap <= M zp
                r = push(row, 0.0, path=p, sign=1.0)
                m_entries.append((r, zp, -1.0))
                row = gap.copy()  # eq. 9: gap - eta <= M (1 - zp)
                row[eta] = -1.0
                r = push(row, 0.0, path=p, sign=1.0, m_flag=1.0)
                m_entries.append((r, zp, 1.0))
                row = -gap  # eq. 10: -gap + eta <= M (1 - zp)
                row[eta] = 1.0
                r = push(row, 0.0, path=p, sign=-1.0, m_flag=1.0)
                m_entries.append((r, zp, 1.0))
                row = -gap  # eq. 11: -gap <= M zn
                r = push(row, 0.0, path=p, sign=-1.0)
                m_entries.append((r, zn, -1.0))
                row = -gap  # eq. 12: -gap - eta <= M (1 - zn)
                row[eta] = -1.0
                r = push(row, 0.0, path=p, sign=-1.0, m_flag=1.0)
                m_entries.append((r, zn, 1.0))
                row = gap.copy()  # eq. 13: gap + eta <= M (1 - zn)
                row[eta] = 1.0
                r = push(row, 0.0, path=p, sign=1.0, m_flag=1.0)
                m_entries.append((r, zn, 1.0))
                row = np.zeros(n_vars)  # zp + zn >= 1, negated
                row[zp] = -1.0
                row[zn] = -1.0
                push(row, -1.0)

        self._rhs_static = np.array(ub_rhs)
        self._center_path = np.array(center_path, dtype=np.intp)
        self._center_sign = np.array(center_sign)
        self._m_rhs_flag = np.array(m_rhs_flag)
        if m_entries:
            rows, cols, signs = zip(*m_entries)
            self._m_rows = np.array(rows, dtype=np.intp)
            self._m_cols = np.array(cols, dtype=np.intp)
            self._m_signs = np.array(signs)
        else:
            self._m_rows = np.empty(0, dtype=np.intp)
            self._m_cols = np.empty(0, dtype=np.intp)
            self._m_signs = np.empty(0)
        self._grid_span = sum(float(np.max(np.abs(g))) for g in spec.grids)

        self.form = MatrixForm(
            variable_names=names,
            c=np.zeros(n_vars),
            objective_constant=0.0,
            flip_objective=False,
            a_ub=np.array(ub_rows) if ub_rows else np.zeros((0, n_vars)),
            b_ub=self._rhs_static.copy(),
            a_eq=a_eq,
            b_eq=b_eq,
            lower=np.array(lower),
            upper=np.array(upper),
            integer=np.array(integer),
        )

    def load(self, centers: np.ndarray, weights: np.ndarray) -> MatrixForm:
        """Write one call's coefficient values into the standing arrays.

        Only *values* move: objective entries (weights), the centre- and
        big-M-dependent right-hand sides, the period bounds and the big-M
        matrix slots.  Sparsity, shapes and integrality are untouched, so
        the form's structure fingerprint — the warm-start cache key — is
        invariant across calls.
        """
        centers = np.asarray(centers, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if centers.shape != (self.spec.n_paths,) or weights.shape != (self.spec.n_paths,):
            raise ValueError("centers/weights must have one entry per batch path")
        finite = np.isfinite(centers)
        centers_eff = np.where(finite, centers, 0.0)
        weights_eff = np.where(finite, weights, 0.0)
        span = (
            float(np.max(np.abs(centers_eff[finite]))) if finite.any() else 1.0
        ) + self._grid_span + 1.0
        big_m = 4.0 * span
        self._loaded = (centers_eff, weights_eff, span)

        form = self.form
        form.c[self._eta_cols] = weights_eff
        form.lower[self._t_col] = -span
        form.upper[self._t_col] = span
        # Gap constants folded in the dynamic model's float-operation order,
        # so the right-hand sides are bit-identical to the LinExpr build:
        # gc_p = ((-centre - base) - c_src) + c_snk, row rhs = -(±gc - M).
        gap_const = ((-centers_eff) - self._path_base) - self._path_src_const
        gap_const = gap_const + self._path_snk_const
        rhs = self._rhs_static.copy()
        has_center = self._center_path >= 0
        rhs[has_center] = -(
            self._center_sign[has_center] * gap_const[self._center_path[has_center]]
            - big_m * self._m_rhs_flag[has_center]
        )
        form.b_ub[:] = rhs
        if self._m_rows.size:
            form.a_ub[self._m_rows, self._m_cols] = self._m_signs * big_m
        return form

    def _repair_incumbent(self, x_prev: np.ndarray) -> np.ndarray | None:
        """Adapt a previous variant's solution to the current coefficients.

        Across sweep variants only ``centers``/``weights`` move, so a stale
        incumbent fails the solver's feasibility re-validation in exactly
        one place: its elastic columns (``eta``, and ``zp``/``zn`` in the
        paper formulation) no longer cover the new gaps.  The integer
        buffer assignment, however, still satisfies every static bound and
        pairing row — so keep it, recompute the inner optimum ``T`` (the
        weighted median of the per-path alignment targets, eq. 7 with
        ``x`` fixed) and rebuild the elastic columns from the new gaps.
        The result is feasible by construction and optimal *given that
        buffer assignment*, which is what makes it a strong pruning bound
        for the branch & bound.  Returns ``None`` when ``x_prev`` has the
        wrong shape for this model.
        """
        n_vars = len(self.form.variable_names)
        x_prev = np.asarray(x_prev, dtype=float)
        if x_prev.shape != (n_vars,):
            return None
        centers_eff, weights_eff, span = self._loaded
        repaired = np.zeros(n_vars)
        buffer_values = np.empty(self.spec.n_buffers)
        for b, (kind, col, grid) in enumerate(self._buffer_encoding):
            if kind == "step":
                step = grid[1] - grid[0] if len(grid) > 1 else 1.0
                k = int(np.clip(round(x_prev[col]), 0, len(grid) - 1))
                repaired[col] = float(k)
                buffer_values[b] = grid[0] + step * k
            else:
                j = int(np.argmax(x_prev[col : col + len(grid)]))
                repaired[col + j] = 1.0
                buffer_values[b] = grid[j]
        # Per-path target: T aligned to centre + base + x_src - x_snk.
        target = centers_eff + self._path_base
        src, snk = self.spec.src_buffer, self.spec.snk_buffer
        has_src, has_snk = src >= 0, snk >= 0
        target[has_src] += buffer_values[src[has_src]]
        target[has_snk] -= buffer_values[snk[has_snk]]
        if np.any(weights_eff > 0):
            t_opt = float(
                weighted_median_rows(target[None, :], weights_eff[None, :])[0]
            )
        else:
            t_opt = 0.0
        t_opt = float(np.clip(t_opt, -span, span))
        repaired[self._t_col] = t_opt
        gaps = t_opt - target
        repaired[self._eta_cols] = np.abs(gaps)
        if self.formulation == "paper":
            repaired[self._eta_cols + 1] = (gaps >= 0).astype(float)  # zp
            repaired[self._eta_cols + 2] = (gaps <= 0).astype(float)  # zn
        return repaired

    def solve(
        self,
        centers: np.ndarray,
        weights: np.ndarray,
        backend: str = "auto",
        warm: WarmStartCache | None = None,
    ) -> tuple[float, np.ndarray, Solution]:
        """Solve eqs. 7–14 for one ``(centers, weights)``; ``(T, x, solution)``.

        Matches :func:`solve_alignment_milp` (same optimum, same grid
        snapping) while reusing the precompiled arrays; an accompanying
        ``warm`` cache carries the basis and incumbent across calls.
        Raises ``RuntimeError`` when the solver fails, since alignment
        infeasibility indicates a configuration bug; a ``FEASIBLE``
        (node-budget) incumbent is accepted as usable.
        """
        form = self.load(centers, weights)
        if warm is not None and backend in ("auto", "pure"):
            # A cached incumbent from a previous (centers, weights) variant
            # is stale — its elastic columns cover the *old* gaps, so the
            # solver's re-validation would rightly drop it.  Repair it for
            # the new coefficients before the solver looks it up.
            fingerprint = form.structure_fingerprint()
            hint = warm.peek(fingerprint)
            if hint is not None and hint.x is not None:
                repaired = self._repair_incumbent(hint.x)
                if repaired is not None:
                    objective = float(form.c @ repaired)
                    warm.put(
                        fingerprint,
                        WarmHint(hint.basis, x=repaired, objective=objective),
                    )
        solution = solve_matrix_form(form, backend, warm=warm)
        if not solution.usable:
            raise RuntimeError(f"alignment MILP failed: {solution.status}")
        x = np.empty(self.spec.n_buffers)
        for b, (kind, col, grid) in enumerate(self._buffer_encoding):
            if kind == "step":
                step = grid[1] - grid[0] if len(grid) > 1 else 1.0
                value = grid[0] + step * solution.values[f"k{b}"]
            else:
                value = float(
                    np.dot(
                        grid,
                        [solution.values[f"z{b}_{j}"] for j in range(len(grid))],
                    )
                )
            x[b] = grid[int(np.argmin(np.abs(grid - value)))]
        return float(solution["T"]), x, solution
