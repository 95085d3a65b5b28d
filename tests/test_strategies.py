import json
from dataclasses import replace

import numpy as np
import pytest

from actsense import (ConfidenceParams, EnergyTensor, FoldSplit, KernelConfig,
                      LatentFactors, ModelConfig, ObservationSet, SimState,
                      generate_synthetic, select_actsense, select_qbc,
                      select_random, step_month, SyntheticConfig)
from actsense import als_engine, strategies
from actsense.als_engine import SufficientStats
from actsense.tensor_core import derived_seed
from actsense.strategies import CandidatePool, committee_configs, committee_variance
from actsense.uncertainty import InvertedStats, score_pairs

from conftest import full_omega


def pool_of(pairs):
    """The pool holding ``pairs``, in the given order."""
    return CandidatePool(homes=[i for i, _ in pairs], apps=[j for _, j in pairs])


def pairs_of(pool):
    return list(zip(pool.homes.tolist(), pool.apps.tolist()))


def identity_stats(M, N, r=2):
    eye = lambda n: np.tile(np.eye(r), (n, 1, 1))
    return SufficientStats(home_precision=eye(M), app_precision=eye(N))


class TestCandidatePool:
    def test_excludes_aggregate_installed_and_unobservable(self, tiny_tensor):
        pool = CandidatePool.build([0, 1], tiny_tensor, installed={(0, 1): 0})
        assert pool.homes.dtype == pool.apps.dtype == np.int64
        assert pairs_of(pool) == [(0, 2), (1, 1), (1, 2)]

    def test_unobservable_pair_dropped(self):
        readings = np.ones((1, 3, 2))
        mask = np.ones((1, 3, 2), dtype=bool)
        mask[0, 2, :] = False
        readings[0, 2, :] = 0.0
        tensor = EnergyTensor(readings=readings, mask=mask,
                              appliance_names=("aggregate", "a", "b"))
        pool = CandidatePool.build([0], tensor, installed={})
        assert pairs_of(pool) == [(0, 1)]

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            pool_of(((0, 1), (0, 1)))

    def test_index_arrays_are_frozen_copies(self):
        homes, apps = np.array([1, 0]), np.array([2, 1])
        pool = CandidatePool(homes=homes, apps=apps)
        homes[0] = 5
        assert pairs_of(pool) == [(1, 2), (0, 1)]
        with pytest.raises(ValueError):
            pool.homes[0] = 3
        for bad in (([0, 1], [1]), ([[0]], [[1]])):
            with pytest.raises(ValueError):
                CandidatePool(*bad)

    @staticmethod
    def loop_oracle(train_homes, tensor, installed):
        pairs = []
        for i in sorted(int(h) for h in train_homes):
            for j in tensor.breakdown_indices():
                if (i, j) in installed:
                    continue
                if not tensor.mask[i, j, :].any():
                    continue
                pairs.append((i, j))
        return pairs

    @pytest.mark.parametrize("seed,aggregate", [(0, 0), (1, 0), (2, 2), (3, 4)])
    def test_build_matches_loop_oracle(self, seed, aggregate):
        rng = np.random.default_rng(seed)
        M, N, T = 12, 5, 4
        mask = rng.random((M, N, T)) < 0.3  # about a quarter of pairs have no month
        mask[:, aggregate, :] = True
        readings = np.where(mask, rng.uniform(1.0, 10.0, size=(M, N, T)), 0.0)
        tensor = EnergyTensor(readings=readings, mask=mask,
                              appliance_names=tuple(f"a{j}" for j in range(N)),
                              aggregate_index=aggregate)
        train = rng.permutation(M)[:8]
        installed = {(int(i), int(j)): 0 for i, j in
                     zip(rng.choice(train, 6), rng.integers(0, N, 6))}
        want = self.loop_oracle(train, tensor, installed)
        assert not mask[train].any(-1).all()
        assert any(p in installed for p in
                   ((int(i), j) for i in train for j in tensor.breakdown_indices()))
        assert pairs_of(CandidatePool.build(train, tensor, installed)) == want
        assert pairs_of(CandidatePool.build(list(train), tensor, installed)) == want
        # nothing installed: every observable train pair is open
        everything = self.loop_oracle(train, tensor, {})
        assert len(everything) > len(want)
        assert pairs_of(CandidatePool.build(train, tensor, {})) == everything


class TestSelectActsense:
    def _setup(self):
        # identity precisions, alpha = 1: score(x, y) = |a_y o s| + |h_x o s|
        # with s = [1, 1]: pairs (0,1) -> 6, (1,1) -> 5, (1,2) -> 1
        factors = LatentFactors(H=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                A=np.array([[1.0, 1.0], [3.0, 4.0], [1.0, 0.0]]),
                                S=np.ones((3, 2)), rank=2)
        stats = identity_stats(2, 3)
        cp = ConfidenceParams(alpha_home=1.0, alpha_app=1.0)
        kc = KernelConfig(sigma_window=1, horizon=3)
        pool = pool_of(((0, 1), (1, 1), (1, 2)))
        prior = np.ones((3, 2))
        return pool, factors, stats, prior, cp, kc

    def test_zero_budget(self):
        pool, factors, stats, prior, cp, kc = self._setup()
        result = select_actsense(pool, 0, 1, factors, stats, prior, cp, kc)
        assert result.chosen == () and result.scores == ()

    def test_singleton_pool(self):
        _, factors, stats, prior, cp, kc = self._setup()
        pool = pool_of(((1, 2),))
        result = select_actsense(pool, 5, 1, factors, stats, prior, cp, kc)
        assert result.chosen == ((1, 2),)

    def test_hand_built_score_ordering(self):
        pool, factors, stats, prior, cp, kc = self._setup()
        result = select_actsense(pool, 2, 1, factors, stats, prior, cp, kc)
        assert result.chosen == ((0, 1), (1, 1))
        assert result.scores[0] == pytest.approx(6.0)
        assert result.scores[1] == pytest.approx(5.0)
        assert result.scores[0] >= result.scores[1]

    @staticmethod
    def _random_instance(seed, r=2, M=6, N=5, T=8):
        """Positive factors, SPD precisions, every (home, breakdown appliance)
        pair and a season prior, all drawn from one seed."""
        g = np.random.default_rng(seed)
        factors = LatentFactors(H=g.random((M, r)) + 0.05,
                                A=g.random((N, r)) + 0.05,
                                S=g.random((T, r)) + 0.05, rank=r)
        mats = g.normal(size=(M, r, r))
        home = np.einsum("nij,nkj->nik", mats, mats) + np.tile(np.eye(r), (M, 1, 1))
        mats = g.normal(size=(N, r, r))
        app = np.einsum("nij,nkj->nik", mats, mats) + np.tile(np.eye(r), (N, 1, 1))
        stats = SufficientStats(home_precision=home, app_precision=app)
        pairs = tuple((i, j) for i in range(M) for j in range(1, N))
        return factors, stats, pairs, g.random((T, r))

    def test_argmax_property_on_random_pools(self):
        from actsense import integrated_uncertainty
        rng = np.random.default_rng(20)
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=3, horizon=8)
        for seed in range(20):
            factors, stats, pairs, prior = self._random_instance(seed)
            pool = pool_of(pairs)
            t = int(rng.integers(0, 8))
            result = select_actsense(pool, 1, t, factors, stats, prior, cp, kc)
            best = max(integrated_uncertainty(x, y, t, factors, stats, prior, cp, kc)
                       for x, y in pairs)
            assert result.scores[0] == pytest.approx(best, rel=1e-10)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_sequential_picks_match_directly_bumped_precisions(self, rank):
        # oracle: after each pick (x, y), add v v^T to home x's and appliance
        # y's precision, v the pick's current-month direction, and invert the
        # bumped stacks directly in place of the Sherman-Morrison update
        rng = np.random.default_rng(30 + rank)
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=3, horizon=8)
        for seed in range(10):
            factors, stats, pairs, prior = self._random_instance(100 * rank + seed, r=rank)
            t = int(rng.integers(0, 8))
            result = select_actsense(pool_of(pairs), 3, t, factors, stats,
                                     prior, cp, kc, sequential=True)
            assert len(result.chosen) == 3
            home = stats.home_precision.copy()
            app = stats.app_precision.copy()
            remaining = list(pairs)
            for pick, score in zip(result.chosen, result.scores):
                inv = InvertedStats(home=np.linalg.inv(home), app=np.linalg.inv(app))
                homes, apps = (np.array(ix) for ix in zip(*remaining))
                scores = score_pairs(homes, apps, t, factors, inv, prior, cp, kc)
                best = int(np.argmax(scores))
                assert pick == remaining[best]
                assert score == pytest.approx(scores[best], rel=1e-10)
                x, y = remaining.pop(best)
                v_home = factors.A[y] * factors.S[t]
                v_app = factors.H[x] * factors.S[t]
                home[x] += np.outer(v_home, v_home)
                app[y] += np.outer(v_app, v_app)

    def test_sequential_mode_returns_distinct_pairs(self):
        pool, factors, stats, prior, cp, kc = self._setup()
        result = select_actsense(pool, 3, 1, factors, stats, prior, cp, kc,
                                 sequential=True)
        assert len(set(result.chosen)) == 3
        assert result.chosen[0] == (0, 1)  # first pick matches batch argmax


class TestSelectRandom:
    def test_short_pool_returns_everything(self):
        pool = pool_of(((0, 1), (1, 1)))
        result = select_random(pool, 10, rng_seed=0)
        assert sorted(result.chosen) == [(0, 1), (1, 1)]
        assert result.scores == (0.0, 0.0)

    def test_deterministic_under_seed(self):
        pool = pool_of([(i, j) for i in range(5) for j in range(1, 4)])
        a = select_random(pool, 4, rng_seed=123)
        b = select_random(pool, 4, rng_seed=123)
        assert a.chosen == b.chosen

    def test_uniformity(self):
        pool = pool_of([(0, j) for j in range(1, 11)])
        counts = {p: 0 for p in pairs_of(pool)}
        trials = 10_000
        for s in range(trials):
            (pick,), _ = select_random(pool, 1, rng_seed=s).chosen, None
            counts[pick] += 1
        freqs = np.array(list(counts.values())) / trials
        assert freqs.min() >= 0.08 and freqs.max() <= 0.12


class TestSelectQbc:
    def test_variance_of_two_member_committee(self):
        preds = np.array([[10.0, 5.0], [20.0, 5.0]])
        np.testing.assert_allclose(committee_variance(preds), [25.0, 0.0])

    def _instance(self):
        cfg = SyntheticConfig(num_homes=6, num_appliances=3, num_months=4,
                              true_rank=2, noise_sigma=0.05, seed=21)
        tensor, _ = generate_synthetic(cfg)
        return tensor, full_omega(tensor)

    def _members(self, ranks, cfg, seed):
        tensor, omega = self._instance()
        fitted = als_engine.fit_committee(tensor, omega, committee_configs(cfg, ranks, seed))
        return [factors for factors, _ in fitted]

    def test_identical_committee_falls_to_tie_break(self):
        pool = pool_of(((0, 1), (0, 2), (1, 1)))
        cfg = ModelConfig(rank=2, lambda1=10.0, lambda2=10.0, lambda3=10.0,
                          max_sweeps=10)
        members = self._members([2, 2], cfg, seed=1)
        result = select_qbc(pool, 2, members, month=2)
        assert result.chosen == ((0, 1), (0, 2))
        assert result.scores == (0.0, 0.0)

    def test_committee_size_validated(self):
        for ranks in ([2], [], [0, 2]):
            with pytest.raises(ValueError):
                committee_configs(ModelConfig(rank=2), ranks, seed=1)

    def test_one_stacked_fit_per_qbc_month(self, monkeypatch):
        tensor, _ = self._instance()
        split = FoldSplit(train_homes=(0, 1, 2, 3), validation_homes=(), test_homes=(4, 5))
        mc = ModelConfig(rank=2, lambda1=10.0, lambda2=10.0, lambda3=10.0, max_sweeps=5)
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=3, horizon=4)
        calls = []
        real_fit_committee = als_engine.fit_committee
        real_select = strategies.select_qbc

        def counting_fit_committee(tensor, omega, configs, warm_starts=None,
                                   season_priors=None):
            calls.append((list(configs), list(warm_starts)))
            return real_fit_committee(tensor, omega, configs, warm_starts, season_priors)

        def no_solo_fit(*args, **kwargs):
            raise AssertionError("a QBC month must not fit its model on its own")

        def fitless_select(*args, **kwargs):
            before = len(calls)
            result = real_select(*args, **kwargs)
            assert len(calls) == before, "select_qbc must not fit"
            return result

        monkeypatch.setattr(als_engine, "fit_committee", counting_fit_committee)
        monkeypatch.setattr(als_engine, "fit", no_solo_fit)
        monkeypatch.setattr(strategies, "select_qbc", fitless_select)
        state = SimState.initial(tensor.readings.shape, seed=4)
        for t in range(3):
            previous = state.factors
            state, month_log = step_month(state, tensor, "qbc", 1, mc, cp, kc, split,
                                          committee_ranks=(1, 2, 3))
            assert len(calls) == t + 1 and len(month_log["pairs"]) == 1
            configs, warm_starts = calls[-1]
            # member 0 is the month's model: the run's config (a derived
            # seed in the first, cold month), warm-started from last month
            assert configs[0] == (mc if t else replace(mc, seed=derived_seed(4, 1)))
            assert configs[1:] == committee_configs(mc, (1, 2, 3), derived_seed(4, 3))
            assert warm_starts[0] is previous
            assert warm_starts[1:] == [None, None, None]

    def test_deterministic(self):
        pool = pool_of([(i, j) for i in range(4) for j in (1, 2)])
        cfg = ModelConfig(rank=2, max_sweeps=15)
        a = select_qbc(pool, 3, self._members([1, 2], cfg, seed=5), month=2)
        b = select_qbc(pool, 3, self._members([1, 2], cfg, seed=5), month=2)
        assert a.chosen == b.chosen and a.scores == b.scores

    def test_scores_non_increasing_and_subset_of_pool(self):
        pairs = tuple((i, j) for i in range(6) for j in (1, 2, 3))
        pool = pool_of(pairs)
        cfg = ModelConfig(rank=2, max_sweeps=15)
        result = select_qbc(pool, 5, self._members([1, 2, 3], cfg, seed=7), month=3)
        assert set(result.chosen) <= set(pairs)
        assert all(a >= b for a, b in zip(result.scores, result.scores[1:]))
        assert all(j != 0 for _, j in result.chosen)


def test_selections_hold_python_ints_and_floats():
    # the pool's numpy indices and scores must not reach a month log
    pool, factors, stats, prior, cp, kc = TestSelectActsense()._setup()
    other = LatentFactors(H=factors.H + 1.0, A=factors.A, S=factors.S, rank=2)
    results = [select_actsense(pool, 2, 1, factors, stats, prior, cp, kc),
               select_actsense(pool, 2, 1, factors, stats, prior, cp, kc, sequential=True),
               select_random(pool, 2, rng_seed=0),
               select_qbc(pool, 2, [factors, other], month=1)]
    for result in results:
        assert len(result.chosen) == 2
        assert all(type(v) is int for pair in result.chosen for v in pair)
        assert all(type(s) is float for s in result.scores)
        json.dumps({"pairs": [list(p) for p in result.chosen],
                    "scores": list(result.scores)})
