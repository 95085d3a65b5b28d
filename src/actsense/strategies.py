"""Pluggable <home, appliance> selection policies.

All strategies consume the same candidate pool (non-instrumented train
pairs, aggregate appliance excluded) and return at most L pairs.  Score
ties break by ascending (home, appliance) index so reruns are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import als_engine, uncertainty
from .als_engine import SufficientStats
from .tensor_core import EnergyTensor, LatentFactors, ModelConfig, ObservationSet
from .uncertainty import ConfidenceParams, InvertedStats, KernelConfig

STRATEGY_NAMES = ("actsense", "random", "qbc")


@dataclass(frozen=True)
class CandidatePool:
    """Pairs still available for instrumentation."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        if len(set(pairs)) != len(pairs):
            raise ValueError("candidate pool contains duplicate pairs")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def build(cls, train_homes, tensor: EnergyTensor, installed) -> "CandidatePool":
        """All (train home, breakdown appliance) pairs that are not yet
        instrumented and have at least one ground-truth month."""
        homes = sorted(int(h) for h in train_homes)
        apps = tensor.breakdown_indices()
        observable = tensor.mask[np.ix_(np.array(homes, dtype=np.int64),
                                        np.array(apps, dtype=np.int64))].any(-1)
        pairs = [(i, j) for i, row in zip(homes, observable.tolist())
                 for j, seen in zip(apps, row) if seen and (i, j) not in installed]
        return cls(tuple(pairs))

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple   # ordered (home, appliance) pairs
    scores: tuple   # parallel scores; zeros for the random policy

    def __post_init__(self):
        object.__setattr__(self, "chosen", tuple((int(i), int(j)) for i, j in self.chosen))
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))


def _top_by_score(pairs, scores, L):
    """Largest-score pairs, ties by ascending (home, appliance)."""
    if L <= 0 or len(pairs) == 0:
        return SelectionResult(chosen=(), scores=())
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    order = np.lexsort((ys, xs, -np.asarray(scores, dtype=float)))
    take = order[: min(L, len(pairs))]
    return SelectionResult(chosen=tuple(pairs[i] for i in take),
                           scores=tuple(float(scores[i]) for i in take))


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
        scores = uncertainty.score_pairs(pool.pairs, t, factors, inv,
                                         season_prior, cp, kc, mode)
        return _top_by_score(pool.pairs, scores, L)

    inv_home = inv.home.copy()
    inv_app = inv.app.copy()
    remaining = list(pool.pairs)
    chosen, chosen_scores = [], []
    for _ in range(min(L, len(pool))):
        live = InvertedStats(home=inv_home, app=inv_app)
        scores = uncertainty.score_pairs(remaining, t, factors, live,
                                         season_prior, cp, kc, mode)
        pick = _top_by_score(remaining, scores, 1)
        (x, y), = pick.chosen
        chosen.append((x, y))
        chosen_scores.append(pick.scores[0])
        remaining.remove((x, y))
        s_now = factors.S[t]
        inv_home[x] = uncertainty.sherman_morrison_update(inv_home[x], factors.A[y] * s_now)
        inv_app[y] = uncertainty.sherman_morrison_update(inv_app[y], factors.H[x] * s_now)
    return SelectionResult(chosen=tuple(chosen), scores=tuple(chosen_scores))


def select_random(pool: CandidatePool, L: int, rng_seed: int) -> SelectionResult:
    """L distinct pairs sampled uniformly without replacement."""
    if L <= 0 or len(pool) == 0:
        return SelectionResult(chosen=(), scores=())
    rng = np.random.default_rng(rng_seed)
    n = min(L, len(pool))
    take = rng.choice(len(pool), size=n, replace=False)
    return SelectionResult(chosen=tuple(pool.pairs[i] for i in take),
                           scores=(0.0,) * n)


def committee_variance(predictions: np.ndarray) -> np.ndarray:
    """Population variance across committee members, per candidate pair.

    ``predictions`` has shape (members, pairs).
    """
    predictions = np.asarray(predictions, dtype=float)
    if predictions.ndim != 2:
        raise ValueError("predictions must be (members, pairs)")
    return predictions.var(axis=0)


def _member_seed(base_seed: int, rank: int) -> int:
    return int(np.random.SeedSequence([int(base_seed), int(rank)]).generate_state(1)[0])


def select_qbc(pool: CandidatePool, L: int, tensor: EnergyTensor,
               omega: ObservationSet, committee_ranks, base_config: ModelConfig,
               seed: int, month: int) -> SelectionResult:
    """Query-by-committee: disagreement across fits at different ranks.

    Each member refits the observed tensor at its own rank (seed derived
    from the base seed and the rank, so identical ranks give identical
    members) and predicts every pool pair at the current month; pairs
    are ranked by the population variance of those predictions.
    """
    ranks = list(committee_ranks)
    if len(ranks) < 2:
        raise ValueError("committee needs at least two rank settings")
    if L <= 0 or len(pool) == 0:
        return SelectionResult(chosen=(), scores=())
    xs = np.array([p[0] for p in pool.pairs])
    ys = np.array([p[1] for p in pool.pairs])
    preds = np.empty((len(ranks), len(pool)))
    for m, rank in enumerate(ranks):
        cfg = replace(base_config, rank=int(rank), seed=_member_seed(seed, rank))
        factors, _, _ = als_engine.fit(tensor, omega, cfg)
        preds[m] = np.einsum("nr,nr->n", factors.H[xs] * factors.A[ys],
                             np.broadcast_to(factors.S[month], (len(pool), factors.rank)))
    return _top_by_score(pool.pairs, committee_variance(preds), L)
