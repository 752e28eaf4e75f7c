"""Deterministic, seeded generators for benchmark and panel data.

Two scenarios: a birth/death population with piecewise-constant rates and a
noise level that steps up mid-course (the benchmark dataset), and a panel
of constant-regulation gene series, half of which carry an expression-rate
change point (the desk-scale stand-in for a time-course expression panel).
Ground truth is integrated exactly, segment by segment, from the closed-form
flows; replicates are Gaussian draws fully determined by the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GroundTruth,
    InvalidConfigError,
    NumericalOverflowError,
    TimeGrid,
    TimeSeriesData,
    _isfinite,
)
from .models import flow_birth_death, flow_const_reg

#: Most points a birth/death grid may have; the bound keeps a huge
#: ``t_end / dt`` from allocating gigabytes. The default grid has 81.
_MAX_GRID_POINTS = 10**6

#: Labels attached to panel genes.
DYNAMIC_LABEL = "dynamic"
STATIC_LABEL = "static"


def _check_finite(**settings) -> None:
    """Reject the first setting that is not finite, naming it and its value."""
    for name, value in settings.items():
        if not _isfinite(value):
            raise InvalidConfigError(f"{name} must be finite, got {value}")


def _check_seed(seed: int) -> None:
    """Reject a negative seed, which numpy's generators do not take."""
    if seed < 0:
        raise InvalidConfigError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-continuous step function: ``values[i]`` on ``[breaks[i], breaks[i+1])``."""

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breaks) != len(self.values) or not self.breaks:
            raise InvalidConfigError("breaks and values must be equal-length, non-empty")
        if any(b <= a for a, b in zip(self.breaks, self.breaks[1:])):
            raise InvalidConfigError("breaks must be strictly increasing")

    def value_at(self, t: float) -> float:
        idx = int(np.searchsorted(self.breaks, t, side="right")) - 1
        if idx < 0:
            raise InvalidConfigError(f"schedule has a gap: no value defined at t={t}")
        return self.values[idx]

    def check_covers(self, start: float) -> None:
        if self.breaks[0] > start:
            raise InvalidConfigError(
                f"schedule starts at t={self.breaks[0]}, leaving [{start}, "
                f"{self.breaks[0]}) undefined"
            )

    def check_finite(self, name: str) -> None:
        """Reject the first break or value that is not finite, naming the
        schedule ``name`` and the value."""
        for part, numbers in (("breaks", self.breaks), ("values", self.values)):
            for x in numbers:
                _check_finite(**{f"{name} {part}": x})

    def change_points(self, start: float, end: float) -> list[float]:
        return [b for b in self.breaks if start < b < end]

    @classmethod
    def constant(cls, value: float) -> PiecewiseConstant:
        return cls((0.0,), (value,))


@dataclass(frozen=True)
class BirthDeathScenario:
    """Population benchmark scenario.

    Default schedules: birth 0.05 before t=5 then 0.15, death 0.05 before
    t=15 then 0.5, noise standard deviation 1 before t=10 then 5. The grid
    spans [0, t_end] with spacing dt.
    """

    n0: float = 100.0
    t_end: float = 20.0
    dt: float = 0.25
    replicates: int = 100
    birth: PiecewiseConstant = PiecewiseConstant((0.0, 5.0), (0.05, 0.15))
    death: PiecewiseConstant = PiecewiseConstant((0.0, 15.0), (0.05, 0.5))
    noise: PiecewiseConstant = PiecewiseConstant((0.0, 10.0), (1.0, 5.0))
    seed: int = 42

    def __post_init__(self):
        if self.n0 <= 0:
            raise InvalidConfigError("n0 must be positive")
        if self.dt <= 0 or self.t_end <= 0:
            raise InvalidConfigError("dt and t_end must be positive")
        _check_finite(t_end=self.t_end, dt=self.dt, n0=self.n0)
        # the grid has round(t_end / dt) + 1 points, at most the bound below a ratio
        # of bound - 0.5; the float comparison keeps round() off an infinite ratio
        if self.t_end / self.dt >= _MAX_GRID_POINTS - 0.5:
            raise InvalidConfigError(
                f"t_end / dt must give at most {_MAX_GRID_POINTS} grid points, "
                f"got t_end={self.t_end}, dt={self.dt}"
            )
        if self.replicates < 1:
            raise InvalidConfigError("replicates must be at least 1")
        for value in self.noise.values:
            if not value >= 0:
                raise InvalidConfigError(f"noise values must be non-negative, got {value}")
        for name in ("birth", "death", "noise"):
            schedule = getattr(self, name)
            schedule.check_covers(0.0)
            schedule.check_finite(name)
        _check_seed(self.seed)

    def grid(self) -> TimeGrid:
        n_steps = int(round(self.t_end / self.dt))
        return TimeGrid(self.dt * np.arange(n_steps + 1))


def _integrate_piecewise(
    times: np.ndarray, x0: float, schedules: tuple[PiecewiseConstant, ...], flow
) -> np.ndarray:
    """Exact integration from ``x0`` at ``times[0]`` of an ODE whose rates
    are piecewise constant: ``flow(x, *rates, dt)`` is the closed form over
    a span of constant ``rates``, one value from each schedule. A flow that
    leaves its range fails naming the time it was integrated to."""
    t0, t_end = float(times[0]), float(times[-1])
    events = sorted({t0, *(b for s in schedules for b in s.change_points(t0, t_end))})

    def step(x, start, t):
        try:
            return flow(x, *(s.value_at(start) for s in schedules), t - start)
        except NumericalOverflowError as exc:
            raise NumericalOverflowError(f"{exc} at t={t}") from None

    seg_values = [x0]
    for a, b in zip(events, events[1:]):
        seg_values.append(step(seg_values[-1], a, b))
    out = np.empty_like(times)
    for i, t in enumerate(times):
        idx = int(np.searchsorted(events, t, side="right")) - 1
        out[i] = step(seg_values[idx], events[idx], t)
    return out


def simulate_birth_death(
    scenario: BirthDeathScenario,
) -> tuple[GroundTruth, TimeSeriesData]:
    """Generate the population ground truth and its noisy replicates."""
    grid = scenario.grid()
    truth_values = _integrate_piecewise(
        grid.times, scenario.n0, (scenario.birth, scenario.death), flow_birth_death
    )
    rng = np.random.default_rng(scenario.seed)
    samples = tuple(
        rng.normal(truth_values[i], scenario.noise.value_at(float(t)), scenario.replicates)
        for i, t in enumerate(grid.times)
    )
    truth = GroundTruth(grid, truth_values)
    data = TimeSeriesData("population", grid, samples)
    return truth, data


@dataclass(frozen=True)
class GeneSpec:
    """One synthetic gene: rate schedules, initial value, noise, label."""

    gene_id: str
    expression: PiecewiseConstant
    degradation: PiecewiseConstant
    x0: float
    noise_sd: float
    label: str


@dataclass(frozen=True)
class GenePanelScenario:
    """A panel of independent constant-regulation gene series."""

    genes: tuple[GeneSpec, ...]
    times: tuple[float, ...]
    replicates: int = 2
    seed: int = 7

    def __post_init__(self):
        if not self.genes:
            raise InvalidConfigError("panel needs at least one gene")
        if self.replicates < 1:
            raise InvalidConfigError("replicates must be at least 1")
        for gene in self.genes:
            if not gene.noise_sd >= 0:
                raise InvalidConfigError(
                    f"{gene.gene_id} noise_sd must be non-negative, got {gene.noise_sd}"
                )
            _check_finite(**{f"{gene.gene_id} noise_sd": gene.noise_sd})
            for name in ("expression", "degradation"):
                schedule = getattr(gene, name)
                schedule.check_covers(self.times[0])
                schedule.check_finite(f"{gene.gene_id} {name}")
        _check_seed(self.seed)

    @classmethod
    def default(
        cls,
        n_genes: int = 200,
        n_timepoints: int = 14,
        spacing: float = 2.0,
        replicates: int = 2,
        noise_level: float = 0.02,
        seed: int = 7,
    ) -> GenePanelScenario:
        """Half-dynamic, half-static panel with randomized per-gene rates.

        Static genes hold constant rates and start at steady state; dynamic
        genes step their expression rate at a random timepoint from the
        fourth on, and never at the last, so that the grid sees the step (on
        four timepoints it falls on the third). Noise standard deviation is
        ``noise_level`` times the initial steady state.
        """
        if n_timepoints < 4:
            raise InvalidConfigError(f"n_timepoints must be at least 4, got {n_timepoints}")
        if not spacing > 0:
            raise InvalidConfigError(f"spacing must be positive, got {spacing}")
        if not noise_level >= 0:
            raise InvalidConfigError(f"noise_level must be non-negative, got {noise_level}")
        _check_finite(spacing=spacing, noise_level=noise_level)
        _check_seed(seed)
        rng = np.random.default_rng(seed)
        times = tuple(spacing * i for i in range(n_timepoints))
        genes = []
        for i in range(n_genes):
            k_deg = float(rng.uniform(0.2, 1.0))
            steady = float(rng.uniform(5.0, 50.0))
            k_exp = steady * k_deg
            dynamic = i < n_genes // 2
            if dynamic:
                cp_index = int(rng.integers(3, max(n_timepoints - 3, 4)))
                t_cp = times[min(cp_index, n_timepoints - 2)]
                factor = float(rng.uniform(4.0, 8.0))
                expression = PiecewiseConstant((0.0, t_cp), (k_exp, k_exp * factor))
                label = DYNAMIC_LABEL
            else:
                expression = PiecewiseConstant.constant(k_exp)
                label = STATIC_LABEL
            genes.append(
                GeneSpec(
                    gene_id=f"gene{i:04d}",
                    expression=expression,
                    degradation=PiecewiseConstant.constant(k_deg),
                    x0=steady,
                    noise_sd=noise_level * steady,
                    label=label,
                )
            )
        return cls(tuple(genes), times, replicates, seed)


def simulate_gene_panel(
    scenario: GenePanelScenario,
) -> list[tuple[GroundTruth, TimeSeriesData]]:
    """Generate every gene in the panel.

    Each gene draws from its own generator seeded by ``(seed, gene index)``,
    so panels are reproducible and genes are independent.
    """
    grid = TimeGrid(np.asarray(scenario.times, dtype=float))
    out = []
    for i, gene in enumerate(scenario.genes):
        truth_values = _integrate_piecewise(
            grid.times, gene.x0, (gene.expression, gene.degradation), flow_const_reg
        )
        rng = np.random.default_rng([scenario.seed, i])
        samples = tuple(
            rng.normal(truth_values[t], gene.noise_sd, scenario.replicates)
            for t in range(len(grid))
        )
        out.append(
            (GroundTruth(grid, truth_values), TimeSeriesData(gene.gene_id, grid, samples))
        )
    return out


def panel_labels(scenario: GenePanelScenario) -> dict[str, str]:
    """Mapping of gene id to its dynamic/static label."""
    return {gene.gene_id: gene.label for gene in scenario.genes}
