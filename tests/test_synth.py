"""Synthetic data generators: exact piecewise integration and determinism."""

import math
import re

import numpy as np
import pytest

from pathkf import (
    BirthDeathScenario,
    GenePanelScenario,
    InvalidConfigError,
    PiecewiseConstant,
    panel_labels,
    simulate_birth_death,
    simulate_gene_panel,
)
from pathkf.synth import DYNAMIC_LABEL, STATIC_LABEL, GeneSpec

from oracles import rk4_integrate_piecewise


class TestBirthDeath:
    def test_flat_before_first_rate_change(self):
        truth, _ = simulate_birth_death(BirthDeathScenario())
        times = truth.grid.times
        np.testing.assert_allclose(truth.values[times < 5.0], 100.0, rtol=1e-14)

    def test_exponential_segment_ratio(self):
        truth, _ = simulate_birth_death(BirthDeathScenario())
        times = truth.grid.times
        i5 = int(np.argmin(np.abs(times - 5.0)))
        i15 = int(np.argmin(np.abs(times - 15.0)))
        np.testing.assert_allclose(
            truth.values[i15] / truth.values[i5], math.e, rtol=1e-12
        )

    def test_same_seed_bit_identical(self):
        a_truth, a_data = simulate_birth_death(BirthDeathScenario(seed=99))
        b_truth, b_data = simulate_birth_death(BirthDeathScenario(seed=99))
        np.testing.assert_array_equal(a_truth.values, b_truth.values)
        for ga, gb in zip(a_data.samples, b_data.samples):
            np.testing.assert_array_equal(ga, gb)

    def test_log_derivative_piecewise_constant(self):
        truth, _ = simulate_birth_death(BirthDeathScenario())
        times = truth.grid.times
        rates = np.diff(np.log(truth.values)) / np.diff(times)
        # segment growth rates: 0, 0.1, -0.35 at the default schedules
        seg1 = rates[times[1:] <= 5.0]
        seg2 = rates[(times[:-1] >= 5.0) & (times[1:] <= 15.0)]
        seg3 = rates[times[:-1] >= 15.0]
        np.testing.assert_allclose(seg1, 0.0, atol=1e-12)
        np.testing.assert_allclose(seg2, 0.1, rtol=1e-10)
        np.testing.assert_allclose(seg3, -0.35, rtol=1e-10)

    def test_truth_continuous_across_rate_changes(self):
        # off-grid change points still integrate exactly
        scenario = BirthDeathScenario(dt=0.3, t_end=18.0)
        truth, _ = simulate_birth_death(scenario)
        times = truth.grid.times

        def deriv(t, x):
            kb = 0.05 if t < 5.0 else 0.15
            kd = 0.05 if t < 15.0 else 0.5
            return (kb - kd) * x

        for i in (20, 40, 55, 60):
            expected = rk4_integrate_piecewise(
                deriv, 100.0, 0.0, float(times[i]), (5.0, 15.0), steps=8000
            )
            np.testing.assert_allclose(truth.values[i], expected, rtol=1e-8)

    def test_replicate_means_converge_to_truth(self):
        scenario = BirthDeathScenario(t_end=3.0, replicates=20000, seed=5)
        truth, data = simulate_birth_death(scenario)
        means, _ = data.summaries()
        # noise sd is 1.0 on this segment; 5-sigma band on the mean
        bound = 5.0 * 1.0 / math.sqrt(scenario.replicates)
        assert np.all(np.abs(means - truth.values) <= bound)

    def test_schedule_gap_rejected(self):
        with pytest.raises(InvalidConfigError):
            BirthDeathScenario(birth=PiecewiseConstant((1.0,), (0.05,)))

    def test_schedule_breaks_must_increase(self):
        with pytest.raises(InvalidConfigError):
            PiecewiseConstant((0.0, 0.0), (1.0, 2.0))

    @pytest.mark.parametrize("value", [-1.0, math.nan])
    def test_negative_noise_rejected(self, value):
        with pytest.raises(InvalidConfigError, match=r"^noise values must be non-negative, got "):
            BirthDeathScenario(noise=PiecewiseConstant((0.0, 10.0), (1.0, value)))

    @pytest.mark.parametrize(
        "settings, message",
        [
            # NaN and infinity both pass the positivity check
            *(({name: value}, f"{name} must be finite, got {value}")
              for name in ("t_end", "dt") for value in (math.nan, math.inf)),
            ({"seed": -1}, "seed must be non-negative, got -1"),
            ({"n0": math.nan}, "n0 must be finite, got nan"),
            ({"n0": math.inf}, "n0 must be finite, got inf"),
            # NaN breaks pass the ordering and coverage checks
            ({"birth": PiecewiseConstant((0.0, math.nan), (0.05, 0.15))},
             "birth breaks must be finite, got nan"),
            ({"death": PiecewiseConstant((0.0,), (math.nan,))},
             "death values must be finite, got nan"),
            # infinite noise passes the sign check; the samples would be blamed
            ({"noise": PiecewiseConstant((0.0,), (math.inf,))},
             "noise values must be finite, got inf"),
            # integers past the float range, which math.isfinite alone raises on
            pytest.param({"birth": PiecewiseConstant((0.0,), (10**400,))},
                         f"birth values must be finite, got {10**400}", id="birth-value-int"),
            pytest.param({"t_end": 10**400}, f"t_end must be finite, got {10**400}",
                         id="t_end-int"),
        ],
    )
    def test_settings_rejected(self, settings, message):
        with pytest.raises(InvalidConfigError, match=f"^{message}$"):
            BirthDeathScenario(**settings)

    @pytest.mark.parametrize(
        "t_end, dt",
        [(1e300, 0.25), (1e308, 1e-10), (1e9, 0.25), (250_000.0, 0.25)],
        ids=["1e300", "infinite-ratio", "1e9", "one-point-over"],
    )
    def test_grid_size_is_bounded(self, t_end, dt):
        # rejected when built, before grid() allocates anything
        with pytest.raises(
            InvalidConfigError,
            match="^" + re.escape(
                f"t_end / dt must give at most 1000000 grid points, got t_end={t_end}, dt={dt}"
            ) + "$",
        ):
            BirthDeathScenario(t_end=t_end, dt=dt)

    def test_grid_at_the_bound_is_accepted(self):
        scenario = BirthDeathScenario(t_end=249_999.75, dt=0.25)
        assert round(scenario.t_end / scenario.dt) + 1 == 10**6


class TestGenePanel:
    def test_static_gene_at_steady_state_is_constant(self):
        gene = GeneSpec(
            gene_id="g",
            expression=PiecewiseConstant.constant(8.0),
            degradation=PiecewiseConstant.constant(2.0),
            x0=4.0,
            noise_sd=0.0,
            label=STATIC_LABEL,
        )
        scenario = GenePanelScenario((gene,), times=tuple(np.arange(6.0)), replicates=2)
        truth, data = simulate_gene_panel(scenario)[0]
        np.testing.assert_allclose(truth.values, 4.0, rtol=1e-14)
        for group in data.samples:
            np.testing.assert_allclose(group, 4.0, rtol=1e-14)

    def test_same_seed_bit_identical_panel(self):
        a = simulate_gene_panel(GenePanelScenario.default(n_genes=6, seed=3))
        b = simulate_gene_panel(GenePanelScenario.default(n_genes=6, seed=3))
        for (_, da), (_, db) in zip(a, b):
            for ga, gb in zip(da.samples, db.samples):
                np.testing.assert_array_equal(ga, gb)

    def test_dynamic_gene_matches_ode_across_step(self):
        t_cp = 5.0
        gene = GeneSpec(
            gene_id="g",
            expression=PiecewiseConstant((0.0, t_cp), (6.0, 18.0)),
            degradation=PiecewiseConstant.constant(0.5),
            x0=12.0,
            noise_sd=0.0,
            label=DYNAMIC_LABEL,
        )
        scenario = GenePanelScenario((gene,), times=tuple(np.linspace(0.0, 12.0, 13)))
        truth, _ = simulate_gene_panel(scenario)[0]

        def deriv(t, x):
            return (6.0 if t < t_cp else 18.0) - 0.5 * x

        for i in (4, 6, 9, 12):
            expected = rk4_integrate_piecewise(
                deriv, 12.0, 0.0, float(truth.grid.times[i]), (t_cp,), steps=8000
            )
            np.testing.assert_allclose(truth.values[i], expected, rtol=1e-8)

    def test_default_panel_split_and_labels(self):
        scenario = GenePanelScenario.default(n_genes=10, seed=0)
        labels = panel_labels(scenario)
        assert sum(1 for v in labels.values() if v == DYNAMIC_LABEL) == 5
        assert sum(1 for v in labels.values() if v == STATIC_LABEL) == 5
        panel = simulate_gene_panel(scenario)
        assert len(panel) == 10
        assert all(len(data.grid) == 14 for _, data in panel)

    @pytest.mark.parametrize(
        "settings, message",
        [
            # the change-point draw needs a fourth timepoint
            ({"n_timepoints": 3}, "n_timepoints must be at least 4, got 3"),
            ({"spacing": 0.0}, "spacing must be positive, got 0.0"),
            ({"noise_level": -0.5}, "noise_level must be non-negative, got -0.5"),
            ({"spacing": math.inf}, "spacing must be finite, got inf"),
            # not blamed on the samples it would make infinite
            ({"noise_level": math.inf}, "noise_level must be finite, got inf"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
        ],
    )
    def test_default_panel_settings_rejected(self, settings, message):
        with pytest.raises(InvalidConfigError, match=f"^{message}$"):
            GenePanelScenario.default(n_genes=4, **settings)

    def test_negative_seed_rejected(self):
        gene = GeneSpec("g", PiecewiseConstant.constant(8.0), PiecewiseConstant.constant(2.0),
                        4.0, 1.0, STATIC_LABEL)
        with pytest.raises(InvalidConfigError, match=r"^seed must be non-negative, got -3$"):
            GenePanelScenario((gene,), times=tuple(np.arange(6.0)), seed=-3)

    def test_negative_gene_noise_rejected(self):
        gene = GeneSpec("g", PiecewiseConstant.constant(8.0), PiecewiseConstant.constant(2.0),
                        4.0, -1.0, STATIC_LABEL)
        with pytest.raises(InvalidConfigError, match=r"^g noise_sd must be non-negative, got -1\.0$"):
            GenePanelScenario((gene,), times=tuple(np.arange(6.0)))

    @pytest.mark.parametrize(
        "noise_sd, expression, message",
        [
            (math.inf, PiecewiseConstant.constant(8.0), r"g noise_sd must be finite, got inf"),
            (1.0, PiecewiseConstant((0.0, 2.0), (8.0, math.inf)),
             r"g expression values must be finite, got inf"),
        ],
        ids=["noise_sd-inf", "expression-inf"],
    )
    def test_non_finite_gene_settings_rejected(self, noise_sd, expression, message):
        gene = GeneSpec("g", expression, PiecewiseConstant.constant(2.0), 4.0, noise_sd,
                        STATIC_LABEL)
        with pytest.raises(InvalidConfigError, match=f"^{message}$"):
            GenePanelScenario((gene,), times=tuple(np.arange(6.0)))

    @pytest.mark.parametrize("n_timepoints", [4, 5, 6, 7])
    def test_short_grid_sees_every_dynamic_step(self, n_timepoints):
        # a change point leaves at least one grid point after it, so every
        # dynamic truth rises on the grid
        scenario = GenePanelScenario.default(n_genes=6, n_timepoints=n_timepoints, seed=1)
        for gene, (truth, _) in zip(scenario.genes, simulate_gene_panel(scenario)):
            if gene.label == DYNAMIC_LABEL:
                assert gene.expression.breaks[1] < truth.grid.times[-1]
                assert truth.values[-1] > truth.values[0]

    def test_smallest_default_panel_simulates(self):
        panel = simulate_gene_panel(GenePanelScenario.default(n_genes=4, n_timepoints=4))
        assert all(len(data.grid) == 4 for _, data in panel)
