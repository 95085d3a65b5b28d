"""Per-pair uncertainty scores driving sensor placement.

A pair's instantaneous score is the sum of two confidence-ellipsoid
widths: the home-factor width of the direction (appliance row ∘ season
row) under the home precision inverse, and the appliance-factor width
of (home row ∘ season row) under the appliance precision inverse, each
scaled by its alpha.  The integrated score sums instantaneous scores
over a 12-month horizon with a triangle time-decay kernel, using fitted
season rows for past/current months and prior season rows for future
months.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .als_engine import CONDITION_LIMIT, SufficientStats
from .errors import NumericalError
from .tensor_core import LatentFactors

MODES = ("full", "current", "current_future")


@dataclass(frozen=True)
class ConfidenceParams:
    """The two alphas scaling a pair's home and appliance widths.

    The paper's factor-error bound grows both alike with the observation
    count; at the data-derived norm caps its ratio ``alpha_home / alpha_app``
    is ``sqrt(lambda2 / lambda1)``, so alphas in that ratio pick as it does.
    """

    alpha_home: float = 0.1
    alpha_app: float = 0.1

    def __post_init__(self):
        if not all(0.0 <= a < np.inf for a in (self.alpha_home, self.alpha_app)):
            raise ValueError("alpha_home and alpha_app must be finite and >= 0")


@dataclass(frozen=True)
class KernelConfig:
    """Triangle kernel window (months) and scoring horizon."""

    sigma_window: int = 3
    horizon: int = 12

    def __post_init__(self):
        if self.sigma_window < 1:
            raise ValueError("sigma_window must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class InvertedStats:
    """Cached inverses of the fitted precision matrices."""

    home: np.ndarray    # (M, r, r)
    app: np.ndarray     # (N, r, r)


def invert_stats(stats: SufficientStats) -> InvertedStats:
    """Invert the home and appliance precision stacks once per fit; reused
    across pair scores.

    Every matrix must have a condition number within CONDITION_LIMIT.  An
    SPD r x r matrix has cond <= trace^r / det: det is the smallest
    eigenvalue times r - 1 others, and the largest eigenvalue and each of
    those others are at most the trace.  So the SVD behind np.linalg.cond
    runs only where det <= 0 or that bound exceeds the limit.
    """
    for mats in (stats.home_precision, stats.app_precision):
        det = np.linalg.det(mats)
        bounded = (det > 0) & (np.trace(mats, axis1=-2, axis2=-1) ** mats.shape[-1]
                               <= CONDITION_LIMIT * det)
        if bounded.all():
            continue
        worst = float(np.max(np.linalg.cond(mats)))
        if not np.isfinite(worst) or worst > CONDITION_LIMIT:
            raise NumericalError(f"precision condition {worst:.3e} too large to invert")
    return InvertedStats(home=np.linalg.inv(stats.home_precision),
                         app=np.linalg.inv(stats.app_precision))


def _quadform(precision, v):
    cond = np.linalg.cond(precision)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericalError(f"precision condition {cond:.3e} too large")
    return float(v @ np.linalg.solve(precision, v))


def instant_score(x: int, y: int, s_tilde, stats: SufficientStats,
                  factors: LatentFactors, cp: ConfidenceParams) -> float:
    """Pair (x, y) uncertainty at one season vector s_tilde."""
    s_tilde = np.asarray(s_tilde, dtype=float)
    v_home = factors.A[y] * s_tilde
    v_app = factors.H[x] * s_tilde
    width_home = np.sqrt(_quadform(stats.home_precision[x], v_home))
    width_app = np.sqrt(_quadform(stats.app_precision[y], v_app))
    return float(cp.alpha_home * width_home + cp.alpha_app * width_app)


def triangle_weight(t_prime: int, t: int, kc: KernelConfig) -> float:
    """Triangle kernel: 1 - |t' - t| / sigma inside the window, else 0."""
    lag = abs(t_prime - t)
    if lag <= kc.sigma_window:
        return 1.0 - lag / kc.sigma_window
    return 0.0


def _months_in_mode(t: int, kc: KernelConfig, mode: str):
    if mode not in MODES:
        raise ValueError(f"unknown uncertainty mode {mode!r}")
    if mode == "current":
        return [t] if 0 <= t < kc.horizon else []
    start = t if mode == "current_future" else 0
    return list(range(max(start, 0), kc.horizon))


def integrated_uncertainty(x: int, y: int, t: int, factors: LatentFactors,
                           stats: SufficientStats, season_prior: np.ndarray,
                           cp: ConfidenceParams, kc: KernelConfig,
                           mode: str = "full") -> float:
    """Kernel-weighted sum of instantaneous scores over the horizon.

    Months at or before ``t`` use the fitted season rows; later months
    use rows of ``season_prior``.  ``mode`` restricts which months
    contribute ("current", "current_future", or "full").
    """
    total = 0.0
    for tp in _months_in_mode(t, kc, mode):
        w = triangle_weight(tp, t, kc)
        if w == 0.0:
            continue
        if tp <= t:
            s_tilde = factors.S[tp]
        else:
            if season_prior is None or tp >= np.asarray(season_prior).shape[0]:
                raise ValueError(f"season prior row for future month {tp} is missing")
            s_tilde = np.asarray(season_prior, dtype=float)[tp]
        total += w * instant_score(x, y, s_tilde, stats, factors, cp)
    return total


def score_pairs(homes, apps, t: int, factors: LatentFactors, inv: InvertedStats,
                season_prior: np.ndarray | None, cp: ConfidenceParams,
                kc: KernelConfig, mode: str = "full") -> np.ndarray:
    """Vectorized integrated uncertainty, one score per pair (homes[k], apps[k])."""
    inv_home = inv.home[homes]
    inv_app = inv.app[apps]
    h_rows = factors.H[homes]
    a_rows = factors.A[apps]
    total = np.zeros(len(homes))
    for tp in _months_in_mode(t, kc, mode):
        w = triangle_weight(tp, t, kc)
        if w == 0.0:
            continue
        if tp <= t:
            s_tilde = factors.S[tp]
        else:
            if season_prior is None or tp >= np.asarray(season_prior).shape[0]:
                raise ValueError(f"season prior row for future month {tp} is missing")
            s_tilde = np.asarray(season_prior, dtype=float)[tp]
        v_home = a_rows * s_tilde
        v_app = h_rows * s_tilde
        q_home = np.einsum("nr,nrs,ns->n", v_home, inv_home, v_home)
        q_app = np.einsum("nr,nrs,ns->n", v_app, inv_app, v_app)
        total += w * (cp.alpha_home * np.sqrt(np.maximum(q_home, 0.0))
                      + cp.alpha_app * np.sqrt(np.maximum(q_app, 0.0)))
    return total


def sherman_morrison_update(inv_mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Inverse of (A + v v^T) given inv(A), by the rank-one update formula."""
    v = np.asarray(v, dtype=float)
    iv = inv_mat @ v
    denom = 1.0 + float(v @ iv)
    return inv_mat - np.outer(iv, iv) / denom
