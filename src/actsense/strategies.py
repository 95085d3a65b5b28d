"""Pluggable <home, appliance> selection policies.

All strategies consume the same candidate pool (non-instrumented train
pairs, aggregate appliance excluded), held as parallel home and
appliance index arrays, and return at most L pairs.  Score ties break by
ascending (home, appliance) index so reruns are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import uncertainty
from .als_engine import SufficientStats
from .tensor_core import EnergyTensor, LatentFactors, ModelConfig, derived_seed
from .uncertainty import ConfidenceParams, InvertedStats, KernelConfig

STRATEGY_NAMES = ("actsense", "random", "qbc")


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """Pairs still open for instrumentation: (homes[k], apps[k]), frozen int64 arrays."""

    homes: np.ndarray
    apps: np.ndarray

    def __post_init__(self):
        for name in ("homes", "apps"):
            index = np.array(getattr(self, name), dtype=np.int64)
            index.flags.writeable = False
            object.__setattr__(self, name, index)
        pairs = np.stack([self.homes, self.apps])  # ValueError on unequal shapes
        # once sorted, a repeated pair sits next to its copy
        if pairs.ndim != 2 or not np.diff(pairs[:, np.lexsort(pairs)], axis=1).any(0).all():
            raise ValueError("candidate pool needs 1-D homes and apps and no duplicate pair")

    @classmethod
    def build(cls, train_homes, tensor: EnergyTensor, installed) -> "CandidatePool":
        """All (train home, breakdown appliance) pairs that are not yet
        instrumented and have at least one ground-truth month, in
        ascending (home, appliance) order."""
        train = np.zeros(tensor.num_homes, dtype=bool)
        train[np.fromiter(train_homes, dtype=np.int64)] = True
        open_ = tensor.mask.any(-1) & train[:, None]
        open_[:, tensor.aggregate_index] = False
        if installed:  # an empty index tuple would select every cell
            open_[tuple(zip(*installed))] = False
        return cls(*np.nonzero(open_))

    def __len__(self):
        return len(self.homes)


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple   # ordered (home, appliance) pairs
    scores: tuple   # parallel scores; zeros for the random policy

    def __post_init__(self):
        object.__setattr__(self, "chosen", tuple((int(i), int(j)) for i, j in self.chosen))
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))


def _top_by_score(homes, apps, scores, L):
    """The L largest-score pairs, ties by ascending (home, appliance)."""
    take = np.lexsort((apps, homes, -scores))[:L]
    return SelectionResult(chosen=tuple(zip(homes[take], apps[take])), scores=scores[take])


def select_actsense(pool: CandidatePool, L: int, t: int, factors: LatentFactors,
                    stats: SufficientStats, season_prior, cp: ConfidenceParams,
                    kc: KernelConfig, mode: str = "full",
                    sequential: bool = False) -> SelectionResult:
    """Top-L pairs by integrated uncertainty.

    The default scores the whole batch against one fitted model.
    ``sequential=True`` picks one pair at a time and, before re-scoring
    the rest, adds the pick's current-month reading to its home and
    appliance precisions (a Sherman-Morrison update of the inverses).
    """
    if L <= 0 or len(pool) == 0:
        return SelectionResult(chosen=(), scores=())
    inv = uncertainty.invert_stats(stats)
    if not sequential:
        scores = uncertainty.score_pairs(pool.homes, pool.apps, t, factors, inv,
                                         season_prior, cp, kc, mode)
        return _top_by_score(pool.homes, pool.apps, scores, L)

    live = InvertedStats(home=inv.home.copy(), app=inv.app.copy())
    keep = np.ones(len(pool), dtype=bool)
    chosen, chosen_scores = [], []
    for _ in range(min(L, len(pool))):
        homes, apps = pool.homes[keep], pool.apps[keep]
        scores = uncertainty.score_pairs(homes, apps, t, factors, live,
                                         season_prior, cp, kc, mode)
        pick = _top_by_score(homes, apps, scores, 1)
        (x, y), = pick.chosen
        chosen.append((x, y))
        chosen_scores.append(pick.scores[0])
        keep &= (pool.homes != x) | (pool.apps != y)
        s_now = factors.S[t]
        live.home[x] = uncertainty.sherman_morrison_update(live.home[x], factors.A[y] * s_now)
        live.app[y] = uncertainty.sherman_morrison_update(live.app[y], factors.H[x] * s_now)
    return SelectionResult(chosen=tuple(chosen), scores=tuple(chosen_scores))


def select_random(pool: CandidatePool, L: int, rng_seed: int) -> SelectionResult:
    """L distinct pairs sampled uniformly without replacement."""
    if L <= 0 or len(pool) == 0:
        return SelectionResult(chosen=(), scores=())
    rng = np.random.default_rng(rng_seed)
    n = min(L, len(pool))
    take = rng.choice(len(pool), size=n, replace=False)
    return SelectionResult(chosen=tuple(zip(pool.homes[take], pool.apps[take])),
                           scores=(0.0,) * n)


def committee_variance(predictions: np.ndarray) -> np.ndarray:
    """Population variance across committee members, per candidate pair.

    ``predictions`` has shape (members, pairs).
    """
    predictions = np.asarray(predictions, dtype=float)
    if predictions.ndim != 2:
        raise ValueError("predictions must be (members, pairs)")
    return predictions.var(axis=0)


def committee_configs(base_config: ModelConfig, committee_ranks, seed: int) -> list:
    """One config per committee rank: ``base_config`` at that rank, its
    seed derived from ``seed`` and the rank (so identical ranks give
    identical members).  A committee needs at least two ranks."""
    ranks = list(committee_ranks)
    if len(ranks) < 2:
        raise ValueError("committee needs at least two rank settings")
    return [replace(base_config, rank=int(rank), seed=derived_seed(seed, rank))
            for rank in ranks]


def select_qbc(pool: CandidatePool, L: int, members, month: int) -> SelectionResult:
    """Query-by-committee: disagreement across fits at different ranks.

    ``members`` are the committee's fitted factors, one per rank of
    :func:`committee_configs`, each a cold refit of the observed tensor.
    Every member predicts every pool pair at ``month``, and pairs are
    ranked by the population variance of those predictions; nothing is
    fitted here.  The simulator fits the members in the same
    :func:`als_engine.fit_committee` call as the month's model: their
    factors ride a member axis, zero-padded to the largest rank, so each
    sweep's contractions with the observation mask are shared, and a
    member that converges is frozen at that sweep with the result of its
    own fit.
    """
    if L <= 0 or len(pool) == 0:
        return SelectionResult(chosen=(), scores=())
    preds = np.empty((len(members), len(pool)))
    for m, factors in enumerate(members):
        preds[m] = np.einsum("nr,nr->n", factors.H[pool.homes] * factors.A[pool.apps],
                             np.broadcast_to(factors.S[month], (len(pool), factors.rank)))
    return _top_by_score(pool.homes, pool.apps, committee_variance(preds), L)
