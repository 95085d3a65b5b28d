import numpy as np
import pytest

from actsense import (ConfidenceParams, EnergyTensor, KernelConfig,
                      LatentFactors, ModelConfig, ObservationSet,
                      generate_synthetic, select_actsense, select_qbc,
                      select_random, SyntheticConfig)
from actsense import als_engine
from actsense.als_engine import SufficientStats
from actsense.strategies import CandidatePool, committee_variance
from actsense.uncertainty import InvertedStats, score_pairs

from conftest import full_omega


def identity_stats(M, N, T, r=2):
    eye = lambda n: np.tile(np.eye(r), (n, 1, 1))
    return SufficientStats(home_precision=eye(M), home_rhs=np.zeros((M, r)),
                           app_precision=eye(N), app_rhs=np.zeros((N, r)),
                           season_precision=eye(T), season_rhs=np.zeros((T, r)))


class TestCandidatePool:
    def test_excludes_aggregate_installed_and_unobservable(self, tiny_tensor):
        pool = CandidatePool.build([0, 1], tiny_tensor, installed={(0, 1): 0})
        assert (0, 1) not in pool.pairs
        assert all(j != 0 for _, j in pool.pairs)
        assert pool.pairs == ((0, 2), (1, 1), (1, 2))

    def test_unobservable_pair_dropped(self):
        readings = np.ones((1, 3, 2))
        mask = np.ones((1, 3, 2), dtype=bool)
        mask[0, 2, :] = False
        readings[0, 2, :] = 0.0
        tensor = EnergyTensor(readings=readings, mask=mask,
                              appliance_names=("aggregate", "a", "b"))
        pool = CandidatePool.build([0], tensor, installed={})
        assert pool.pairs == ((0, 1),)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            CandidatePool(pairs=((0, 1), (0, 1)))

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
        return tuple(pairs)

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
        assert CandidatePool.build(train, tensor, installed).pairs == want
        assert CandidatePool.build(list(train), tensor, installed).pairs == want


class TestSelectActsense:
    def _setup(self):
        # identity precisions, alpha = 1: score(x, y) = |a_y o s| + |h_x o s|
        # with s = [1, 1]: pairs (0,1) -> 6, (1,1) -> 5, (1,2) -> 1
        factors = LatentFactors(H=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                A=np.array([[1.0, 1.0], [3.0, 4.0], [1.0, 0.0]]),
                                S=np.ones((3, 2)), rank=2)
        stats = identity_stats(2, 3, 3)
        cp = ConfidenceParams(alpha_home=1.0, alpha_app=1.0)
        kc = KernelConfig(sigma_window=1, horizon=3)
        pool = CandidatePool(pairs=((0, 1), (1, 1), (1, 2)))
        prior = np.ones((3, 2))
        return pool, factors, stats, prior, cp, kc

    def test_zero_budget(self):
        pool, factors, stats, prior, cp, kc = self._setup()
        result = select_actsense(pool, 0, 1, factors, stats, prior, cp, kc)
        assert result.chosen == () and result.scores == ()

    def test_singleton_pool(self):
        _, factors, stats, prior, cp, kc = self._setup()
        pool = CandidatePool(pairs=((1, 2),))
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
        stats = SufficientStats(home_precision=home, home_rhs=np.zeros((M, r)),
                                app_precision=app, app_rhs=np.zeros((N, r)),
                                season_precision=np.tile(np.eye(r), (T, 1, 1)),
                                season_rhs=np.zeros((T, r)))
        pairs = tuple((i, j) for i in range(M) for j in range(1, N))
        return factors, stats, pairs, g.random((T, r))

    def test_argmax_property_on_random_pools(self):
        from actsense import integrated_uncertainty
        rng = np.random.default_rng(20)
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=3, horizon=8)
        for seed in range(20):
            factors, stats, pairs, prior = self._random_instance(seed)
            pool = CandidatePool(pairs=pairs)
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
            result = select_actsense(CandidatePool(pairs=pairs), 3, t, factors, stats,
                                     prior, cp, kc, sequential=True)
            assert len(result.chosen) == 3
            home = stats.home_precision.copy()
            app = stats.app_precision.copy()
            remaining = list(pairs)
            for pick, score in zip(result.chosen, result.scores):
                inv = InvertedStats(home=np.linalg.inv(home), app=np.linalg.inv(app))
                scores = score_pairs(remaining, t, factors, inv, prior, cp, kc)
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
        pool = CandidatePool(pairs=((0, 1), (1, 1)))
        result = select_random(pool, 10, rng_seed=0)
        assert sorted(result.chosen) == [(0, 1), (1, 1)]
        assert result.scores == (0.0, 0.0)

    def test_deterministic_under_seed(self):
        pool = CandidatePool(pairs=tuple((i, j) for i in range(5) for j in range(1, 4)))
        a = select_random(pool, 4, rng_seed=123)
        b = select_random(pool, 4, rng_seed=123)
        assert a.chosen == b.chosen

    def test_uniformity(self):
        pool = CandidatePool(pairs=tuple((0, j) for j in range(1, 11)))
        counts = {p: 0 for p in pool.pairs}
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

    def test_identical_committee_falls_to_tie_break(self):
        tensor, omega = self._instance()
        pool = CandidatePool(pairs=((0, 1), (0, 2), (1, 1)))
        cfg = ModelConfig(rank=2, lambda1=10.0, lambda2=10.0, lambda3=10.0,
                          max_sweeps=10)
        result = select_qbc(pool, 2, tensor, omega, committee_ranks=[2, 2],
                            base_config=cfg, seed=1, month=2)
        assert result.chosen == ((0, 1), (0, 2))
        assert result.scores == (0.0, 0.0)

    def test_committee_size_validated(self):
        tensor, omega = self._instance()
        pool = CandidatePool(pairs=((0, 1),))
        with pytest.raises(ValueError):
            select_qbc(pool, 1, tensor, omega, committee_ranks=[2],
                       base_config=ModelConfig(rank=2), seed=1, month=0)

    def test_one_fit_per_committee_rank(self, monkeypatch):
        tensor, omega = self._instance()
        pool = CandidatePool(pairs=((0, 1), (1, 2)))
        calls = []
        real_fit = als_engine.fit

        def counting_fit(*args, **kwargs):
            calls.append(args[2].rank)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr("actsense.strategies.als_engine.fit", counting_fit)
        cfg = ModelConfig(rank=2, max_sweeps=5)
        select_qbc(pool, 1, tensor, omega, committee_ranks=[1, 2, 3, 4],
                   base_config=cfg, seed=3, month=1)
        assert calls == [1, 2, 3, 4]

    def test_deterministic(self):
        tensor, omega = self._instance()
        pool = CandidatePool(pairs=tuple((i, j) for i in range(4) for j in (1, 2)))
        cfg = ModelConfig(rank=2, max_sweeps=15)
        a = select_qbc(pool, 3, tensor, omega, [1, 2], cfg, seed=5, month=2)
        b = select_qbc(pool, 3, tensor, omega, [1, 2], cfg, seed=5, month=2)
        assert a.chosen == b.chosen and a.scores == b.scores

    def test_scores_non_increasing_and_subset_of_pool(self):
        tensor, omega = self._instance()
        pairs = tuple((i, j) for i in range(6) for j in (1, 2, 3))
        pool = CandidatePool(pairs=pairs)
        cfg = ModelConfig(rank=2, max_sweeps=15)
        result = select_qbc(pool, 5, tensor, omega, [1, 2, 3], cfg, seed=7, month=3)
        assert set(result.chosen) <= set(pairs)
        assert all(a >= b for a, b in zip(result.scores, result.scores[1:]))
        assert all(j != 0 for _, j in result.chosen)
