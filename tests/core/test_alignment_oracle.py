"""The candidate sweep against its oracle, bit for bit.

:mod:`tests.oracles.alignment_reference` keeps the sweep that ran every
candidate row through ``weighted_median_rows``.  The shipped sweep sorts
the paths that do not move once per call, places the moving ones by
counting and re-evaluates only chips whose other buffers moved; these
tests pin it to the oracle's ``(T, x)`` bit for bit, and its candidate
medians to ``weighted_median_rows``'s tie rule.

The random specs cover batch widths 1 to 12 with every count of coupled
paths from 0 to ``m``, NaN and exactly tied centres, non-integer
``k0``/``kd``, pair constraints, buffers whose every candidate is
infeasible, 0 to 3 sweeps, and populations larger than one sweep block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import alignment
from repro.core.alignment import BatchAlignment, center_sorted_weights, solve_alignment
from repro.opt.weighted_median import weighted_median_rows
from tests.oracles import alignment_reference

#: (k0, kd) pairs: the default, and non-integer weights whose running sums round.
WEIGHTINGS = ((1000.0, 1.0), (7.3, 0.3), (1.1, 0.7))


def random_case(rng, m, coupled, n_chips, weighting, nan_frac, pairs, infeasible):
    """A spec, centres, weights and start whose buffer 0 couples ``coupled`` paths.

    Centres and grids sit on a half-unit lattice so shifted centres tie
    exactly and often.  A coupled path is a source or a sink of buffer 0;
    one path may be a self-loop of buffer 0 (it couples but never moves).
    """
    n_buf = int(rng.integers(1, 4))
    src = rng.integers(-1, n_buf, size=m)
    snk = rng.integers(-1, n_buf, size=m)
    src[src == 0] = -1
    snk[snk == 0] = -1
    for p in rng.permutation(m)[:coupled]:
        if rng.random() < 0.5:
            src[p] = 0
        else:
            snk[p] = 0
    if coupled < m and rng.random() < 0.2:
        loop = rng.choice(np.flatnonzero((src != 0) & (snk != 0)))
        src[loop] = snk[loop] = 0
    grids = []
    for _ in range(n_buf):
        n_cand = int(rng.integers(1, 10))
        grid = np.sort(rng.choice(np.arange(-6, 7) * 0.5, n_cand, replace=False))
        grids.append(grid)
    lower = np.array([g[0] for g in grids], dtype=float)
    upper = np.array([g[-1] for g in grids], dtype=float)
    if infeasible:
        lower[0] = upper[0] + 1.0  # no candidate of buffer 0 is feasible
    pair_lower = ()
    if pairs and n_buf >= 2:
        pair_lower = ((0, 1, float(rng.choice([-2.0, -0.5, 0.0, 1.0]))),)
        if n_buf == 3:
            pair_lower += ((2, 0, float(rng.choice([-1.0, 0.5]))),)
    spec = BatchAlignment(
        src_buffer=src.astype(np.intp),
        snk_buffer=snk.astype(np.intp),
        base_shift=rng.choice([0.0, 0.5, -1.0], size=m),
        grids=tuple(grids),
        lower_bounds=lower,
        upper_bounds=upper,
        pair_lower=pair_lower,
    )
    centers = rng.integers(0, 8, size=(n_chips, m)) * 0.5 + 100.0
    centers[rng.random((n_chips, m)) < nan_frac] = np.nan
    k0, kd = weighting
    weights = center_sorted_weights(centers, k0, kd)
    x_init = np.column_stack(
        [rng.choice(grid, size=n_chips) for grid in grids]
    )
    return spec, centers, weights, x_init


def assert_same_solution(spec, centers, weights, x_init, sweeps=2):
    period, x = solve_alignment(spec, centers, weights, x_init, sweeps)
    ref_period, ref_x = alignment_reference.solve_alignment(
        spec, centers, weights, x_init, sweeps
    )
    assert x.tobytes() == ref_x.tobytes()
    assert period.tobytes() == ref_period.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**31),
    n_chips=st.integers(1, 24),
    weighting=st.sampled_from(WEIGHTINGS),
    nan_frac=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
    pairs=st.booleans(),
    infeasible=st.booleans(),
    sweeps=st.integers(0, 3),
)
def test_solve_alignment_matches_oracle(
    data, m, seed, n_chips, weighting, nan_frac, pairs, infeasible, sweeps
):
    coupled = data.draw(st.integers(0, m), label="coupled")
    rng = np.random.default_rng(seed)
    case = random_case(
        rng, m, coupled, n_chips, weighting, nan_frac, pairs, infeasible
    )
    assert_same_solution(*case, sweeps=sweeps)


@pytest.mark.parametrize("m, coupled", [(8, 2), (12, 12), (5, 0)])
def test_more_chips_than_one_block(m, coupled):
    rng = np.random.default_rng(m * 100 + coupled)
    n_chips = alignment._CHUNK + 77
    case = random_case(rng, m, coupled, n_chips, (7.3, 0.3), 0.2, True, False)
    assert_same_solution(*case)


@pytest.mark.parametrize(
    "values, weights, sign, expected",
    [
        # The moving path (column 3) ties a still one with a lower column.
        ([0.0, 0.0, 2.0, 1.0, 1.0], [0.3, 1000.3, 1000.3, 0.2, 0.1],
         [0.0, 0.0, 0.0, 1.0, 0.0], 1.0),
        # A moving path (column 3) ties a still one with a higher column.
        ([0.0, 0.0, 0.0, 1.0, 0.0], [0.2, 1000.3, 0.3, 0.1, 1000.3],
         [1.0, -1.0, -1.0, -1.0, 0.0], 0.0),
    ],
)
def test_ties_keep_the_stable_order(values, weights, sign, expected):
    """Tied entries are summed in column order, as a stable argsort does.

    Summing the two tied weights the other way round moves the total by
    one rounding step, which moves the half-weight split to a different
    value: these two rows catch a tie rule that is off either way.
    """
    values = np.array([values])
    weights = np.array([weights])
    sign = np.array(sign)
    grid = np.array([1.0])
    reference = weighted_median_rows(values + sign * grid, weights)
    assert reference[0] == expected
    medians = alignment._candidate_medians(values, weights, sign, grid)
    assert medians[:, 0].tobytes() == reference.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**31),
    integer_weights=st.booleans(),
)
def test_candidate_medians_match_weighted_median_rows(data, m, seed, integer_weights):
    """Every candidate's median, NaN rows and zero weights included."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 9))
    sign = np.zeros(m)
    moving = rng.permutation(m)[: data.draw(st.integers(0, m), label="coupled")]
    sign[moving] = rng.choice([-1.0, 1.0], size=moving.size)
    values = rng.integers(0, 6, size=(rows, m)) * 0.5
    values[rng.random((rows, m)) < 0.2] = np.nan
    if integer_weights:
        weights = rng.integers(0, 4, size=(rows, m)).astype(float)
    else:
        weights = rng.choice(
            [0.0, 0.1, 0.2, 0.3, 7.3, 1000.3, 1e-16], size=(rows, m)
        )
    grid = np.unique(rng.integers(-4, 5, size=int(rng.integers(1, 8))) * 0.5)

    medians = alignment._candidate_medians(values, weights, sign, grid)
    for j, g in enumerate(grid):
        expected = weighted_median_rows(values + sign * g, weights)
        assert medians[:, j].tobytes() == expected.tobytes()
