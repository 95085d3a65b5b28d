"""Accuracy metrics, cross-validation splits and the hyperparameter grid.

RMSE is computed per appliance per month over the held-out test homes;
Mean RMSE averages the breakdown appliances at one month (the aggregate
pseudo-appliance is excluded); Year RMSE averages Mean RMSE over the
simulated months (12 for a full year).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tensor_core import EnergyTensor


@dataclass(frozen=True)
class FoldSplit:
    """Disjoint home index groups; together they cover every home."""

    train_homes: tuple
    validation_homes: tuple
    test_homes: tuple

    def __post_init__(self):
        groups = [tuple(int(h) for h in g) for g in
                  (self.train_homes, self.validation_homes, self.test_homes)]
        flat = [h for g in groups for h in g]
        if len(set(flat)) != len(flat):
            raise ValueError("split groups must be disjoint")
        object.__setattr__(self, "train_homes", groups[0])
        object.__setattr__(self, "validation_homes", groups[1])
        object.__setattr__(self, "test_homes", groups[2])


@dataclass(frozen=True)
class GridSpec:
    """Search grid; lambdas apply jointly to all three ridge weights."""

    ranks: tuple
    lambdas: tuple
    sigmas: tuple
    L_values: tuple

    def __post_init__(self):
        for name, low in (("ranks", 1), ("lambdas", 0), ("sigmas", 1), ("L_values", 0)):
            vals = tuple(getattr(self, name))
            if not vals:
                raise ValueError(f"GridSpec.{name} must be nonempty")
            if min(vals) < low:
                raise ValueError(f"GridSpec.{name} must be >= {low}, got {min(vals)}")
            object.__setattr__(self, name, vals)

    @classmethod
    def default(cls) -> "GridSpec":
        return cls(ranks=(1, 2, 3, 4), lambdas=(5000.0, 8000.0, 10000.0),
                   sigmas=(1, 3, 6, 12), L_values=(5,))

    def points(self):
        """Grid points in declaration order: (rank, lam, sigma, L)."""
        return list(itertools.product(self.ranks, self.lambdas, self.sigmas,
                                      self.L_values))


def rmse_appliance_month(predictions: np.ndarray, truth: EnergyTensor,
                         j: int, t: int, test_homes) -> float:
    """Root mean square error for appliance j at month t over test homes.

    Cells without ground truth are excluded; returns NaN if the test
    homes have no ground truth at all for this (appliance, month).
    """
    homes = np.asarray(list(test_homes), dtype=np.int64)
    if homes.size == 0:
        raise ValueError("test home set is empty")
    have = truth.mask[homes, j, t]
    if not have.any():
        return float("nan")
    sel = homes[have]
    err = predictions[sel, j, t] - truth.readings[sel, j, t]
    return float(np.sqrt(np.mean(err ** 2)))


def mean_rmse(rmse_row) -> float:
    """Average of per-appliance RMSEs at one month (aggregate excluded
    upstream), skipping NaN: an appliance no test home has that month."""
    row = np.asarray(list(rmse_row), dtype=float)
    if row.size == 0:
        raise ValueError("cannot average an empty RMSE row")
    return float(np.nanmean(row))


def year_rmse(mean_rmse_series) -> float:
    """Average Mean RMSE over the simulated months."""
    series = np.asarray(list(mean_rmse_series), dtype=float)
    if series.size == 0:
        raise ValueError("cannot average an empty Mean RMSE series")
    return float(series.mean())


def relative_improvement(baseline: float, method: float) -> float:
    """Percentage improvement of method over baseline (positive = better)."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (baseline - method) / baseline


def kfold_split(home_ids, k: int = 5, val_fraction: float = 0.2,
                seed: int = 0) -> list:
    """k folds over homes; each home tests exactly once.

    Within each fold the remaining homes are shuffled once (seeded) and
    the last ``val_fraction`` of them, which must lie in [0, 1), become
    the validation group: at least one home when ``val_fraction`` > 0.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    homes = [int(h) for h in home_ids]
    if len(homes) < k:
        raise ValueError(f"need at least {k} homes for {k}-fold splitting")
    rng = np.random.default_rng(seed)
    order = list(np.array(homes)[rng.permutation(len(homes))])
    base, extra = divmod(len(order), k)
    folds = []
    start = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        test = order[start:start + size]
        rest = order[:start] + order[start + size:]
        start += size
        n_val = int(len(rest) * val_fraction)
        if val_fraction > 0 and len(rest) > 0:
            n_val = max(1, n_val)
        val = rest[len(rest) - n_val:] if n_val else []
        train = rest[: len(rest) - n_val]
        folds.append(FoldSplit(train_homes=tuple(train),
                               validation_homes=tuple(val),
                               test_homes=tuple(test)))
    return folds
