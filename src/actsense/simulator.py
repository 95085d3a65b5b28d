"""Month-by-month active deployment simulation.

Each month: reveal the newly available readings (every home's bill for
the month, plus one reading per previously installed pair), refit the
factors warm-started from last month, evaluate RMSE on the held-out
homes, let the strategy pick L new pairs from the candidate pool, and
record the installation month.  A query-by-committee month that selects
fits the month's model and the cold committee members in one stacked
call (the model is member 0) and leaves ``stats`` None.  Readings from
freshly selected pairs only start arriving the following month.
"""

from __future__ import annotations

import itertools
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace, asdict
import json

import numpy as np

from . import als_engine, strategies
from .als_engine import SufficientStats
from .errors import NumericalError
from .evaluation import FoldSplit, mean_rmse, rmse_appliance_month, year_rmse
from .strategies import CandidatePool
from .tensor_core import (EnergyTensor, LatentFactors, ModelConfig, ObservationSet,
                          derived_seed)
from .uncertainty import ConfidenceParams, KernelConfig

log = logging.getLogger(__name__)

# the format of the package's log lines, in the CLI and in run_all's workers
LOG_FORMAT = "%(levelname)s %(message)s"


@dataclass(frozen=True)
class SimState:
    """Snapshot of the deployment loop after a month has completed."""

    month: int
    omega: ObservationSet
    installed: dict = field(compare=False)
    factors: LatentFactors | None = None
    stats: SufficientStats | None = None
    seed: int = 0

    @classmethod
    def initial(cls, shape, seed: int = 0) -> "SimState":
        """The state before month 0: nothing observed in a tensor of ``shape``."""
        return cls(month=-1, omega=ObservationSet.empty(shape), installed={}, seed=seed)


@dataclass
class SimReport:
    """Everything one simulation produced, in JSON-native types."""

    config_echo: dict
    selections: list          # [{"month": t, "pairs": [[i, j], ...], "scores": [...]}]
    rmse_table: dict          # appliance name -> [RMSE per month] (test homes)
    mean_rmse: list           # per month, averaged over breakdown appliances
    year_rmse: float
    omega_sizes: list
    val_mean_rmse: list | None = None
    val_year_rmse: float | None = None


def reveal(state: SimState, tensor: EnergyTensor, t: int) -> ObservationSet:
    """Observation set after month t's readings arrive.

    Adds the month-t aggregate cell of every home (bills are always
    available, held-out homes included) and the month-t reading of every
    pair installed before month t.  Cells with no ground truth are
    skipped and logged.
    """
    if t != state.month + 1:
        raise ValueError(f"reveal expects month {state.month + 1}, got {t}")
    agg = tensor.aggregate_index
    new = [(i, agg, t) for i in range(tensor.num_homes)]
    for (x, y), m in state.installed.items():
        if m < t:
            if tensor.mask[x, y, t]:
                new.append((x, y, t))
            else:
                log.info("pair (%d, %d) has no ground truth at month %d; skipped",
                         x, y, t)
    return state.omega.union(new)


def _rmse_rows(pred, tensor, homes, t):
    row = {}
    for j in tensor.breakdown_indices():
        row[tensor.appliance_names[j]] = rmse_appliance_month(pred, tensor, j, t, homes)
    return row


def step_month(state: SimState, tensor: EnergyTensor, strategy: str, L: int,
               model_config: ModelConfig, cp: ConfidenceParams, kc: KernelConfig,
               split: FoldSplit, season_prior=None, uncertainty_mode: str = "full",
               committee_ranks=(1, 2, 3, 4), sequential: bool = False):
    """Advance the simulation one month; returns (new state, month log)."""
    if strategy not in strategies.STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {strategy!r}")
    t = state.month + 1
    if t >= tensor.num_months:
        raise ValueError("simulation horizon exhausted")
    omega = reveal(state, tensor, t)

    fit_config = model_config if state.factors is not None else \
        replace(model_config, seed=derived_seed(state.seed, 1))
    committee = (strategies.committee_configs(model_config, committee_ranks,
                                              derived_seed(state.seed, 3))
                 if strategy == "qbc" else [])
    pool = CandidatePool.build(split.train_homes, tensor, state.installed)
    members = []
    if committee and L > 0 and len(pool):
        # the month's model is member 0 of the committee's stacked fit
        fitted = als_engine.fit_committee(
            tensor, omega, [fit_config, *committee],
            warm_starts=[state.factors] + [None] * len(committee),
            season_priors=[season_prior] + [None] * len(committee))
        # select_qbc reads no precisions, so none are built
        factors, members, stats = fitted[0][0], [f for f, _ in fitted[1:]], None
    else:
        factors, stats, _ = als_engine.fit(
            tensor, omega, fit_config, season_prior=season_prior,
            warm_start=state.factors)

    pred = factors.reconstruct()
    test_row = _rmse_rows(pred, tensor, split.test_homes, t)
    val_row = (_rmse_rows(pred, tensor, split.validation_homes, t)
               if split.validation_homes else None)

    if L > 0 and len(pool) < L:
        log.info("month %d: pool has %d candidates, fewer than L=%d; installing all",
                 t, len(pool), L)
    if strategy == "actsense":
        prior_eff = season_prior
        if prior_eff is None:
            prior_eff = np.tile(factors.S[t], (kc.horizon, 1))
        result = strategies.select_actsense(pool, L, t, factors, stats, prior_eff,
                                            cp, kc, mode=uncertainty_mode,
                                            sequential=sequential)
    elif strategy == "random":
        result = strategies.select_random(pool, L, derived_seed(state.seed, 2, t))
    else:
        result = strategies.select_qbc(pool, L, members, month=t)

    installed = dict(state.installed)
    for pair in result.chosen:
        installed[pair] = t
    new_state = SimState(month=t, omega=omega, installed=installed,
                         factors=factors, stats=stats, seed=state.seed)
    month_log = {
        "month": t,
        "pairs": [list(p) for p in result.chosen],
        "scores": list(result.scores),
        "omega_size": len(omega),
        "rmse_row": test_row,
        "val_rmse_row": val_row,
    }
    return new_state, month_log


def run(tensor: EnergyTensor, split: FoldSplit, strategy: str, L: int, T: int,
        model_config: ModelConfig, **kwargs) -> SimReport:
    """Run the full T-month loop and assemble the report.

    Only train homes are instrumentable; validation and test homes
    contribute nothing but their aggregate rows.  Deterministic given
    the tensor, split, configs and seed.
    """
    report, _ = run_with_state(tensor, split, strategy, L, T, model_config,
                               **kwargs)
    return report


def run_with_state(tensor: EnergyTensor, split: FoldSplit, strategy: str,
                   L: int, T: int, model_config: ModelConfig,
                   confidence: ConfidenceParams | None = None,
                   kernel_config_kwargs: dict | None = None, seed: int = 0,
                   season_prior=None, uncertainty_mode: str = "full",
                   committee_ranks=(1, 2, 3, 4), sequential: bool = False,
                   extra_config: dict | None = None):
    """Like :func:`run` but also returns the final :class:`SimState`."""
    if T < 1 or T > tensor.num_months:
        raise ValueError(f"T must be in [1, {tensor.num_months}]")
    cp = confidence if confidence is not None else ConfidenceParams()
    kc = KernelConfig(**(kernel_config_kwargs or {}))

    state = SimState.initial(tensor.readings.shape, seed=seed)
    logs = []
    for _ in range(T):
        state, month_log = step_month(
            state, tensor, strategy, L, model_config, cp, kc, split,
            season_prior=season_prior, uncertainty_mode=uncertainty_mode,
            committee_ranks=committee_ranks, sequential=sequential)
        logs.append(month_log)

    names = [tensor.appliance_names[j] for j in tensor.breakdown_indices()]
    rmse_table = {name: [lg["rmse_row"][name] for lg in logs] for name in names}
    monthly = [mean_rmse(lg["rmse_row"][n] for n in names) for lg in logs]
    year = year_rmse(monthly)

    val_monthly = None
    val_year = None
    if split.validation_homes:
        val_monthly = [mean_rmse(lg["val_rmse_row"][n] for n in names) for lg in logs]
        val_year = year_rmse(val_monthly)

    echo = {
        "strategy": strategy,
        "L": L,
        "T": T,
        "seed": seed,
        "uncertainty_mode": uncertainty_mode,
        "sequential": sequential,
        "committee_ranks": list(committee_ranks),
        "model": asdict(model_config),
        "confidence": asdict(cp),
        "kernel": asdict(kc),
        "split": {"train": list(split.train_homes),
                  "validation": list(split.validation_homes),
                  "test": list(split.test_homes)},
        "season_prior": season_prior is not None,
    }
    if extra_config:
        echo.update(extra_config)
    echo = json.loads(json.dumps(echo))  # JSON-native types for lossless round-trips

    report = SimReport(
        config_echo=echo,
        selections=[{"month": lg["month"], "pairs": lg["pairs"],
                     "scores": lg["scores"]} for lg in logs],
        rmse_table=rmse_table,
        mean_rmse=monthly,
        year_rmse=year,
        omega_sizes=[lg["omega_size"] for lg in logs],
        val_mean_rmse=val_monthly,
        val_year_rmse=val_year,
    )
    return report, state


def run_all(tensor: EnergyTensor, runs, jobs: int = 1) -> list:
    """``run_with_state(tensor, split, strategy, **kwargs)`` for each
    ``(split, strategy, kwargs)`` of ``runs``, in order: its (report, state),
    or the NumericalError or ValueError it raised; other errors propagate.
    Runs go to ``min(jobs, len(runs))`` worker processes when that exceeds
    1, so the tensor and the runs must pickle.  ``run_with_state`` is looked
    up at call time, so a replacement of it is seen (by forked workers too).
    """
    runs = list(runs)
    workers = min(jobs, len(runs))
    if workers <= 1:
        return [_run_one(tensor, spec) for spec in runs]
    level = logging.getLogger("actsense").getEffectiveLevel()
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(level,)) as pool:
        return list(pool.map(_run_one, itertools.repeat(tensor), runs))


def _run_one(tensor, spec):
    split, strategy, kwargs = spec
    try:
        return run_with_state(tensor, split, strategy, **kwargs)
    except (NumericalError, ValueError) as exc:
        return exc


def _init_worker(level: int) -> None:
    """Log as the parent does: a spawned or forkserver worker starts with
    no handler and the default level."""
    logging.basicConfig(format=LOG_FORMAT)
    logging.getLogger("actsense").setLevel(level)
