"""Tests for the vectorized population test engine.

The key contract: per chip, the vectorized engine reproduces *exactly* the
trace of the scalar Procedure-2 reference implementation.
"""

import numpy as np
import pytest

from repro.api import Engine, OfflineConfig, OnlineConfig
from repro.core import population as population_module
from repro.core import sample_circuit
from repro.core.population import (
    concat_population_test_results,
    run_batch_population,
)
from repro.core.population import test_population as run_test_population
from repro.core.testflow import run_batch
from repro.tester.oracle import ChipOracle
from tests.core.test_testflow import simple_spec
from tests.oracles import alignment_reference


class TestRunBatchPopulation:
    def test_matches_scalar_engine(self):
        rng = np.random.default_rng(5)
        spec = simple_spec()
        prior_lower = np.array([85.0, 88.0])
        prior_upper = np.array([115.0, 118.0])
        true = rng.uniform(90.0, 112.0, size=(7, 2))

        lower_v, upper_v, iters_v = run_batch_population(
            true, spec, prior_lower, prior_upper, np.zeros(1), epsilon=0.1
        )
        for c in range(7):
            oracle = ChipOracle(true[c])
            lower_s, upper_s, iters_s = run_batch(
                oracle, np.array([0, 1]), spec, prior_lower, prior_upper,
                np.zeros(1), epsilon=0.1,
            )
            np.testing.assert_allclose(lower_v[c], lower_s, atol=1e-12)
            np.testing.assert_allclose(upper_v[c], upper_s, atol=1e-12)
            assert iters_v[c] == iters_s

    def test_iteration_counting_stops_per_chip(self):
        spec = simple_spec()
        # Chip 1 has a much wider prior to resolve? Same priors, but one
        # chip's truths are identical so it converges in lockstep; compare
        # with an epsilon that both satisfy quickly.
        true = np.array([[100.0, 103.0], [100.0, 103.0]])
        _, _, iters = run_batch_population(
            true, spec, np.array([95.0, 98.0]), np.array([105.0, 108.0]),
            np.zeros(1), epsilon=0.5,
        )
        assert iters[0] == iters[1]

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            run_batch_population(
                np.zeros((1, 2)), simple_spec(), np.zeros(2), np.ones(2),
                np.zeros(1), epsilon=-1.0,
            )

    def test_alignment_off_mode(self):
        true = np.array([[100.0, 104.0]])
        _, upper, iters = run_batch_population(
            true, simple_spec(), np.array([85.0, 85.0]),
            np.array([115.0, 115.0]), np.zeros(1), epsilon=0.1, align=False,
        )
        assert np.isfinite(upper).all()
        assert iters[0] > 0


class TestActiveSetCompaction:
    """The compacted engine must be bit-identical to the all-rows sweep."""

    def test_bit_identical_to_all_rows_sweep(self):
        rng = np.random.default_rng(11)
        spec = simple_spec()
        prior_lower = np.array([85.0, 88.0])
        prior_upper = np.array([115.0, 118.0])
        # Spread of alignabilities -> chips retire at different iterations.
        true = rng.uniform(87.0, 116.0, size=(60, 2))
        results = {
            compact: run_batch_population(
                true, spec, prior_lower, prior_upper, np.zeros(1),
                epsilon=0.1, compact=compact,
            )
            for compact in (True, False)
        }
        for compacted, reference in zip(results[True], results[False]):
            np.testing.assert_array_equal(compacted, reference)

    def test_bit_identical_with_alignment_off(self):
        rng = np.random.default_rng(3)
        true = rng.uniform(90.0, 112.0, size=(30, 2))
        results = {
            compact: run_batch_population(
                true, simple_spec(), np.array([85.0, 85.0]),
                np.array([115.0, 115.0]), np.zeros(1), epsilon=0.2,
                align=False, compact=compact,
            )
            for compact in (True, False)
        }
        for compacted, reference in zip(results[True], results[False]):
            np.testing.assert_array_equal(compacted, reference)

    def test_retirement_accounting_unchanged(
        self, tiny_preparation, tiny_population
    ):
        """Per-chip, per-batch iteration counts are exactly the all-rows
        engine's — retiring a chip early must not change what it paid."""
        prep = tiny_preparation
        runs = {
            compact: run_test_population(
                tiny_population.required,
                prep.plan,
                prep.specs,
                prep.prior_means,
                prep.prior_stds,
                prep.epsilon,
                x_inits=prep.x_inits,
                compact=compact,
            )
            for compact in (True, False)
        }
        np.testing.assert_array_equal(
            runs[True].iterations_per_batch, runs[False].iterations_per_batch
        )
        np.testing.assert_array_equal(runs[True].lower, runs[False].lower)
        np.testing.assert_array_equal(runs[True].upper, runs[False].upper)

    def test_empty_active_set_exits_without_iterations(self):
        """Priors already narrower than epsilon: no tester work at all."""
        prior_lower = np.array([99.9, 102.9])
        prior_upper = np.array([100.0, 103.0])
        true = np.array([[100.0, 103.0], [99.95, 102.95]])
        for compact in (True, False):
            lower, upper, iters = run_batch_population(
                true, simple_spec(), prior_lower, prior_upper, np.zeros(1),
                epsilon=1.0, compact=compact,
            )
            np.testing.assert_array_equal(iters, 0)
            np.testing.assert_array_equal(lower, np.tile(prior_lower, (2, 1)))
            np.testing.assert_array_equal(upper, np.tile(prior_upper, (2, 1)))

    def test_max_iterations_cap_with_stragglers(self):
        """Chips still active at the cap scatter their partial bounds."""
        true = np.array([[100.0, 104.0], [95.0, 111.0]])
        lower, upper, iters = run_batch_population(
            true, simple_spec(), np.array([85.0, 85.0]),
            np.array([115.0, 115.0]), np.zeros(1), epsilon=0.01,
            max_iterations=3, compact=True,
        )
        np.testing.assert_array_equal(iters, 3)
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        assert np.all(lower <= upper)


class TestChipSharding:
    def _run(self, prep, population, **kwargs):
        return run_test_population(
            population.required,
            prep.plan,
            prep.specs,
            prep.prior_means,
            prep.prior_stds,
            prep.epsilon,
            x_inits=prep.x_inits,
            **kwargs,
        )

    def test_shard_boundary_parity(self, tiny_preparation, tiny_population):
        """Shard sizes 1, n-1 and > n all reproduce the unsharded run."""
        prep = tiny_preparation
        population = tiny_population.subset(range(12))
        reference = self._run(prep, population)
        for shard in (1, population.n_chips - 1, population.n_chips + 5):
            sharded = self._run(prep, population, chip_shard_size=shard)
            np.testing.assert_array_equal(sharded.lower, reference.lower)
            np.testing.assert_array_equal(sharded.upper, reference.upper)
            np.testing.assert_array_equal(
                sharded.iterations_per_batch, reference.iterations_per_batch
            )
            np.testing.assert_array_equal(
                sharded.measured_indices, reference.measured_indices
            )

    def test_invalid_shard_size_rejected(self, tiny_preparation, tiny_population):
        with pytest.raises(ValueError):
            self._run(tiny_preparation, tiny_population, chip_shard_size=0)

    def test_concat_requires_matching_paths(self, tiny_preparation, tiny_population):
        prep = tiny_preparation
        part = self._run(prep, tiny_population.subset(range(4)))
        mismatched = type(part)(
            measured_indices=part.measured_indices[:-1],
            lower=part.lower[:, :-1],
            upper=part.upper[:, :-1],
            iterations=part.iterations,
            iterations_per_batch=part.iterations_per_batch,
        )
        with pytest.raises(ValueError):
            concat_population_test_results([part, mismatched])
        with pytest.raises(ValueError):
            concat_population_test_results([])

    def test_concat_stacks_chips(self, tiny_preparation, tiny_population):
        prep = tiny_preparation
        a = self._run(prep, tiny_population.subset(range(5)))
        b = self._run(prep, tiny_population.subset(range(5, 8)))
        whole = concat_population_test_results([a, b])
        assert whole.n_chips == 8
        np.testing.assert_array_equal(whole.lower[:5], a.lower)
        np.testing.assert_array_equal(whole.lower[5:], b.lower)
        np.testing.assert_array_equal(
            whole.iterations, np.concatenate([a.iterations, b.iterations])
        )


class TestTestPopulation:
    def test_matches_scalar_chip_flow(
        self, tiny_framework, tiny_preparation, tiny_population
    ):
        prep = tiny_preparation
        sub = tiny_population.subset(range(5))
        result = tiny_framework.run(sub, period=1.0, preparation=prep)
        for c in range(5):
            scalar = tiny_framework.run_chip(sub.required[c], prep)
            np.testing.assert_allclose(
                result.test.lower[c], scalar.lower, atol=1e-12
            )
            np.testing.assert_allclose(
                result.test.upper[c], scalar.upper, atol=1e-12
            )
            assert result.test.iterations[c] == scalar.iterations

    def test_result_shape_and_accounting(
        self, tiny_framework, tiny_preparation, tiny_population
    ):
        prep = tiny_preparation
        result = tiny_framework.run(
            tiny_population, period=1e6, preparation=prep
        )
        test = result.test
        n_measured = len(prep.plan.measured)
        assert test.lower.shape == (tiny_population.n_chips, n_measured)
        np.testing.assert_array_equal(
            test.iterations, test.iterations_per_batch.sum(axis=1)
        )
        assert test.mean_iterations == pytest.approx(test.iterations.mean())

    def test_spec_count_validated(self, tiny_preparation, tiny_population):
        with pytest.raises(ValueError):
            run_test_population(
                tiny_population.required,
                tiny_preparation.plan,
                tiny_preparation.specs[:-1],
                tiny_preparation.prior_means,
                tiny_preparation.prior_stds,
                tiny_preparation.epsilon,
            )

    def test_bounds_bracket_truth_for_in_prior_chips(
        self, tiny_framework, tiny_preparation, tiny_population
    ):
        prep = tiny_preparation
        result = tiny_framework.run(tiny_population, 1.0, prep)
        test = result.test
        idx = test.measured_indices
        true = tiny_population.required[:, idx]
        prior_lo = prep.prior_means[idx] - 3 * prep.prior_stds[idx]
        prior_hi = prep.prior_means[idx] + 3 * prep.prior_stds[idx]
        in_prior = (true >= prior_lo) & (true <= prior_hi)
        assert np.all(test.lower[in_prior] <= true[in_prior] + 1e-9)
        assert np.all(true[in_prior] <= test.upper[in_prior] + 1e-9)


class TestAlignmentOracleDigest:
    """The shipped candidate sweep reproduces the retired one end to end."""

    @pytest.mark.parametrize("k0, kd", [(1000.0, 1.0), (7.3, 0.3)])
    def test_digest_matches_oracle_sweep(
        self, tiny_circuit, tiny_periods, monkeypatch, k0, kd
    ):
        chips = sample_circuit(tiny_circuit, 40, seed=17)
        online = OnlineConfig(k0=k0, kd=kd, chip_shard_size=16)

        def digest():
            engine = Engine(offline=OfflineConfig(hold_samples=400), online=online)
            return engine.run(tiny_circuit, chips, tiny_periods[0]).summary.digest()

        shipped = digest()
        monkeypatch.setattr(
            population_module, "solve_alignment", alignment_reference.solve_alignment
        )
        assert digest() == shipped
