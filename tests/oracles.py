"""Independent reference computations used to check the library's closed forms.

Everything here is deliberately implemented by a different route than the
code under test: fixed-step numerical integration instead of analytic
flows, exhaustive grid search instead of closed-form minimizers, plain
scalar Kalman recursions instead of sigma-point machinery, and a plain-float
pathspace-filter step instead of the array kernel.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def rk4_integrate(deriv, x0: float, t0: float, t1: float, steps: int = 4096) -> float:
    """Classic fourth-order Runge-Kutta integration of ``dx/dt = deriv(t, x)``."""
    h = (t1 - t0) / steps
    x, t = float(x0), float(t0)
    for _ in range(steps):
        k1 = deriv(t, x)
        k2 = deriv(t + h / 2, x + h * k1 / 2)
        k3 = deriv(t + h / 2, x + h * k2 / 2)
        k4 = deriv(t + h, x + h * k3)
        x += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        t += h
    return x


def rk4_integrate_piecewise(
    deriv, x0: float, t0: float, t1: float, breakpoints, steps: int = 4096
) -> float:
    """RK4 integration split at known discontinuities of the right-hand side.

    Fixed-step RK4 loses its order when a step straddles a rate jump, so
    each smooth segment is integrated separately.
    """
    edges = [t0] + [b for b in sorted(breakpoints) if t0 < b < t1] + [t1]
    x = float(x0)
    for a, b in zip(edges, edges[1:]):
        # clamp stage evaluations into the open segment so the final RK4
        # stage does not sample the post-jump rate at the boundary
        eps = 1e-9 * (b - a)

        def segment_deriv(t, x, _hi=b - eps):
            return deriv(min(t, _hi), x)

        x = rk4_integrate(segment_deriv, x, a, b, steps)
    return x


def brute_force_weights(
    a: float, b: float, c: float, coarse: float = 1e-2, fine: float = 1e-4
) -> tuple[float, float]:
    """Grid minimizer of ``w^2 c + wm^2 b + (1 - w - wm)^2 a`` on the simplex.

    A coarse sweep over the whole simplex locates the basin; a second sweep
    at the fine resolution around the coarse winner pins the grid argmin.
    The two-stage search finds the same point as the exhaustive fine grid
    because the objective is a convex quadratic.
    """

    def grid_argmin(w_lo, w_hi, wm_lo, wm_hi, step):
        w = np.arange(max(w_lo, 0.0), min(w_hi, 1.0) + step / 2, step)
        wm = np.arange(max(wm_lo, 0.0), min(wm_hi, 1.0) + step / 2, step)
        grid_w, grid_wm = np.meshgrid(w, wm, indexing="ij")
        feasible = grid_w + grid_wm <= 1.0 + 1e-12
        objective = np.where(
            feasible,
            grid_w**2 * c + grid_wm**2 * b + (1.0 - grid_w - grid_wm) ** 2 * a,
            np.inf,
        )
        i, j = np.unravel_index(np.argmin(objective), objective.shape)
        return float(grid_w[i, j]), float(grid_wm[i, j])

    w0, wm0 = grid_argmin(0.0, 1.0, 0.0, 1.0, coarse)
    pad = 2.0 * coarse
    return grid_argmin(w0 - pad, w0 + pad, wm0 - pad, wm0 + pad, fine)


class ScalarEstimate(NamedTuple):
    mean: float
    variance: float


class ScalarWeights(NamedTuple):
    w_data: float
    w_model: float
    w_filter: float


def pkf_step(t: int, prev_state, data, model):
    """One pathspace-filter update at timepoint ``t`` in plain floats.

    ``prev_state`` supplies ``filter.means``, ``filter.variances`` and
    ``process_uncertainty``; ``data`` a ``mean`` and ``variance``; ``model``
    an ``estimate`` with both. Returns the new estimate, the weights used
    and the updated process uncertainty, whose loss is the squared gap of
    model and data means.
    """
    a = float(prev_state.filter.variances[t])
    q_prev = float(prev_state.process_uncertainty[t])
    b = model.estimate.variance + q_prev
    c = data.variance
    denom = a * b + b * c + c * a
    if denom == 0.0:
        w = wm = wf = 1.0 / 3.0
    else:
        w, wm, wf = a * b / denom, a * c / denom, b * c / denom
    mean = w * data.mean + wm * model.estimate.mean + wf * float(prev_state.filter.means[t])
    variance = w**2 * c + wm**2 * b + wf**2 * a
    loss = (model.estimate.mean - data.mean) ** 2
    q_new = q_prev + (w + wm) * (loss - q_prev)
    return ScalarEstimate(mean, variance), ScalarWeights(w, wm, wf), q_new


def linear_kf(times, z_means, z_vars, slope, intercept, q, floor=1e-9):
    """Scalar Kalman filter with fixed affine dynamics at every step."""
    n = len(times)
    m = np.empty(n)
    p = np.empty(n)
    m_pred = np.empty(n)
    p_pred = np.empty(n)
    m[0] = z_means[0]
    p[0] = max(z_vars[0], floor)
    m_pred[0], p_pred[0] = m[0], p[0]
    for t in range(1, n):
        m_pred[t] = slope * m[t - 1] + intercept
        p_pred[t] = slope**2 * p[t - 1] + q
        gain = p_pred[t] / (p_pred[t] + z_vars[t])
        m[t] = m_pred[t] + gain * (z_means[t] - m_pred[t])
        p[t] = max((1.0 - gain) * p_pred[t], floor)
    return m, p, m_pred, p_pred


def linear_rts(times, z_means, z_vars, slope, intercept, q, floor=1e-9):
    """Scalar RTS smoother with fixed affine dynamics at every step."""
    m, p, m_pred, p_pred = linear_kf(times, z_means, z_vars, slope, intercept, q, floor)
    ms = m.copy()
    ps = p.copy()
    for t in range(len(times) - 2, -1, -1):
        gain = slope * p[t] / p_pred[t + 1]
        ms[t] = m[t] + gain * (ms[t + 1] - m_pred[t + 1])
        ps[t] = max(p[t] + gain**2 * (ps[t + 1] - p_pred[t + 1]), floor)
    return ms, ps


class LinearPathModel:
    """Exact linear internal model for the pathspace filter.

    Predicts each point from its predecessor on the previous filter path via
    ``x -> slope * x + intercept``; the first point uses the inverse map from
    its successor.
    """

    def __init__(self, slope: float, intercept: float):
        self.slope = slope
        self.intercept = intercept

    def predict_path(self, grid, means, variances):
        n = len(grid)
        m = np.empty(n)
        v = np.empty(n)
        m[1:] = self.slope * means[:-1] + self.intercept
        v[1:] = self.slope**2 * variances[:-1]
        m[0] = (means[1] - self.intercept) / self.slope
        v[0] = variances[1] / self.slope**2
        return m, np.maximum(v, 1e-9)
