from dataclasses import fields

import numpy as np
import pytest

from actsense import (ConfidenceParams, KernelConfig, LatentFactors,
                      NumericalError, instant_score, integrated_uncertainty,
                      invert_stats, sherman_morrison_update, triangle_weight)
from actsense.als_engine import CONDITION_LIMIT, SufficientStats
from actsense.uncertainty import score_pairs


def stats_with(home_precision, app_precision, r=2, n_homes=1, n_apps=1):
    home = np.tile(np.eye(r), (n_homes, 1, 1))
    app = np.tile(np.eye(r), (n_apps, 1, 1))
    home[0] = home_precision
    app[0] = app_precision
    return SufficientStats(home_precision=home, app_precision=app)


class TestInstantScore:
    def test_zero_direction(self):
        f = LatentFactors(H=np.zeros((1, 2)), A=np.zeros((1, 2)),
                          S=np.ones((3, 2)), rank=2)
        cp = ConfidenceParams(alpha_home=1.0, alpha_app=1.0)
        stats = stats_with(np.eye(2), np.eye(2))
        assert instant_score(0, 0, np.ones(2), stats, f, cp) == 0.0

    def test_identity_precision_norms(self):
        # a_y o s = [3, 4] (norm 5), h_x o s = [0, 1] (norm 1)
        f = LatentFactors(H=np.array([[0.0, 1.0]]), A=np.array([[3.0, 4.0]]),
                          S=np.ones((3, 2)), rank=2)
        cp = ConfidenceParams(alpha_home=1.0, alpha_app=1.0)
        stats = stats_with(np.eye(2), np.eye(2))
        assert instant_score(0, 0, np.ones(2), stats, f, cp) == pytest.approx(6.0)

    def test_scaled_precision(self):
        f = LatentFactors(H=np.array([[1.0, 1.0]]), A=np.array([[2.0, 0.0]]),
                          S=np.ones((3, 2)), rank=2)
        cp = ConfidenceParams(alpha_home=1.0, alpha_app=0.0)
        stats = stats_with(4.0 * np.eye(2), np.eye(2))
        assert instant_score(0, 0, np.ones(2), stats, f, cp) == pytest.approx(1.0)

    def test_singular_precision_rejected(self):
        from actsense import NumericalError
        f = LatentFactors(H=np.ones((1, 2)), A=np.ones((1, 2)),
                          S=np.ones((3, 2)), rank=2)
        stats = stats_with(np.ones((2, 2)), np.eye(2))  # rank-1 home precision
        with pytest.raises(NumericalError):
            instant_score(0, 0, np.ones(2), stats, f, ConfidenceParams())


@pytest.mark.parametrize("alphas", [dict(alpha_home=-1.0), dict(alpha_app=float("nan")),
                                    dict(alpha_home=float("inf"))],
                         ids=["negative", "nan", "inf"])
def test_alpha_must_be_finite_and_nonnegative(alphas):
    with pytest.raises(ValueError, match="finite and >= 0"):
        ConfidenceParams(**alphas)


def test_confidence_params_holds_only_the_two_alphas():
    assert [f.name for f in fields(ConfidenceParams)] == ["alpha_home", "alpha_app"]
    with pytest.raises(TypeError):
        ConfidenceParams(delta=0.05)


class TestTriangleWeight:
    def test_zero_lag(self):
        assert triangle_weight(4, 4, KernelConfig(sigma_window=3)) == 1.0

    def test_boundary_of_window(self):
        for sigma in (1, 3, 6, 12):
            kc = KernelConfig(sigma_window=sigma)
            assert triangle_weight(0, sigma, kc) == 0.0

    def test_half_window(self):
        assert triangle_weight(3, 5, KernelConfig(sigma_window=4)) == 0.5

    def test_exact_piecewise_form(self):
        for sigma in (1, 3, 6, 12):
            kc = KernelConfig(sigma_window=sigma, horizon=12)
            for lag in range(0, 25):
                expected = 1.0 - lag / sigma if lag <= sigma else 0.0
                assert triangle_weight(7, 7 + lag, kc) == expected
                assert triangle_weight(7 + lag, 7, kc) == expected

    def test_non_increasing_in_lag(self):
        kc = KernelConfig(sigma_window=6)
        weights = [triangle_weight(0, lag, kc) for lag in range(15)]
        assert all(a >= b for a, b in zip(weights, weights[1:]))
        assert all(0.0 <= w <= 1.0 for w in weights)


def _scoring_setup(seed=0, M=3, N=4, T=12, r=2):
    rng = np.random.default_rng(seed)
    factors = LatentFactors(H=rng.random((M, r)) + 0.1,
                            A=rng.random((N, r)) + 0.1,
                            S=rng.random((T, r)) + 0.1, rank=r)
    def spd(n):
        mats = rng.normal(size=(n, r, r))
        return np.einsum("nij,nkj->nik", mats, mats) + np.tile(np.eye(r), (n, 1, 1))
    stats = SufficientStats(home_precision=spd(M), app_precision=spd(N))
    prior = rng.random((T, r))
    return factors, stats, prior


class TestInvertStats:
    @staticmethod
    def stats(home, app):
        return SufficientStats(home_precision=home, app_precision=app)

    def test_trace_det_bound_skips_the_exact_condition(self, cond_calls):
        rng = np.random.default_rng(13)
        home, app = (2.0 * np.eye(3) + np.einsum("nar,nas->nrs", v, v)
                     for v in (rng.normal(size=(6, 8, 3)), rng.normal(size=(4, 8, 3))))
        inv = invert_stats(self.stats(home, app))
        assert cond_calls == []
        np.testing.assert_allclose(inv.home @ home, np.tile(np.eye(3), (6, 1, 1)),
                                   atol=1e-12)
        np.testing.assert_allclose(inv.app @ app, np.tile(np.eye(3), (4, 1, 1)),
                                   atol=1e-12)

    @pytest.mark.parametrize("mat", [
        np.diag([1e11, 1e11, 1e11, 1.0]),  # cond 1e11, but trace^4 / det is 8.1e12
        np.diag([2.0, -1.0]),              # det < 0: the bound does not apply
    ], ids=["loose_bound", "negative_det"])
    def test_failed_bound_falls_back_and_inverts(self, cond_calls, mat):
        r = len(mat)
        inv = invert_stats(self.stats(mat[None], np.eye(r)[None]))
        assert len(cond_calls) == 1
        np.testing.assert_allclose(inv.home[0], np.linalg.inv(mat), rtol=1e-14)

    def test_ill_conditioned_stack_rejected(self, cond_calls):
        bad = np.diag([1.0 + 2.0 * CONDITION_LIMIT, 1.0])[None]
        with pytest.raises(NumericalError):
            invert_stats(self.stats(np.eye(2)[None], bad))
        assert len(cond_calls) == 1


class TestIntegratedUncertainty:
    def test_window_one_keeps_only_current_month(self):
        factors, stats, prior = _scoring_setup()
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=1, horizon=12)
        t = 5
        total = integrated_uncertainty(0, 1, t, factors, stats, prior, cp, kc)
        only = instant_score(0, 1, factors.S[t], stats, factors, cp)
        assert total == pytest.approx(only, rel=1e-12)

    def test_constant_scores_sum_kernel(self):
        # identity precisions and identical season rows make every month's
        # instant score equal, so the integral is score * sum of weights
        r = 2
        factors = LatentFactors(H=np.ones((2, r)), A=np.ones((3, r)),
                                S=np.ones((12, r)), rank=r)
        stats = SufficientStats(home_precision=np.tile(np.eye(r), (2, 1, 1)),
                                app_precision=np.tile(np.eye(r), (3, 1, 1)))
        prior = np.ones((12, r))
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=12, horizon=12)
        t = 6
        weights = sum(triangle_weight(tp, t, kc) for tp in range(12))
        c = instant_score(0, 0, factors.S[t], stats, factors, cp)
        total = integrated_uncertainty(0, 0, t, factors, stats, prior, cp, kc)
        assert total == pytest.approx(c * weights, rel=1e-12)

    def test_zero_prior_future_contributes_nothing(self):
        factors, stats, _ = _scoring_setup(seed=3)
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=3, horizon=12)
        t = 9
        zero_prior = np.zeros((12, 2))
        full = integrated_uncertainty(0, 1, t, factors, stats, zero_prior, cp, kc)
        past_only = sum(
            triangle_weight(tp, t, kc) * instant_score(0, 1, factors.S[tp],
                                                       stats, factors, cp)
            for tp in range(t + 1))
        assert full == pytest.approx(past_only, rel=1e-12)

    def test_missing_prior_row_rejected(self):
        factors, stats, _ = _scoring_setup(seed=4)
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=3, horizon=12)
        with pytest.raises(ValueError):
            integrated_uncertainty(0, 1, 5, factors, stats, np.ones((4, 2)), cp, kc)

    def test_mode_restrictions(self):
        factors, stats, prior = _scoring_setup(seed=5)
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=12, horizon=12)
        t = 6
        full = integrated_uncertainty(0, 1, t, factors, stats, prior, cp, kc, "full")
        cur = integrated_uncertainty(0, 1, t, factors, stats, prior, cp, kc, "current")
        cur_fut = integrated_uncertainty(0, 1, t, factors, stats, prior, cp, kc,
                                         "current_future")
        assert cur == pytest.approx(
            instant_score(0, 1, factors.S[t], stats, factors, cp))
        assert cur < cur_fut < full

    def test_vectorized_scores_match_scalar_path(self):
        factors, stats, prior = _scoring_setup(seed=6)
        cp = ConfidenceParams()
        kc = KernelConfig(sigma_window=4, horizon=12)
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
        inv = invert_stats(stats)
        for mode in ("full", "current", "current_future"):
            vec = score_pairs(np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3]), 7,
                              factors, inv, prior, cp, kc, mode)
            ref = [integrated_uncertainty(x, y, 7, factors, stats, prior, cp,
                                          kc, mode) for x, y in pairs]
            np.testing.assert_allclose(vec, ref, rtol=1e-10)

    def test_uniform_alpha_scaling_is_linear(self):
        factors, stats, prior = _scoring_setup(seed=8)
        kc = KernelConfig(sigma_window=4, horizon=12)
        cp1 = ConfidenceParams(alpha_home=0.1, alpha_app=0.1)
        cp3 = ConfidenceParams(alpha_home=0.3, alpha_app=0.3)
        u1 = integrated_uncertainty(1, 2, 5, factors, stats, prior, cp1, kc)
        u3 = integrated_uncertainty(1, 2, 5, factors, stats, prior, cp3, kc)
        assert u3 == pytest.approx(3.0 * u1, rel=1e-12)


class TestShermanMorrison:
    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            r = int(rng.integers(1, 5))
            B = rng.normal(size=(r, r))
            A = B @ B.T + np.eye(r)
            v = rng.normal(size=r)
            updated = sherman_morrison_update(np.linalg.inv(A), v)
            direct = np.linalg.inv(A + np.outer(v, v))
            assert np.linalg.norm(updated - direct) <= 1e-8

    def test_norm_shrink_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            r = int(rng.integers(1, 5))
            B = rng.normal(size=(r, r))
            A = B @ B.T + np.eye(r)
            v = rng.normal(size=r)
            before = float(v @ np.linalg.solve(A, v))
            after = float(v @ np.linalg.solve(A + np.outer(v, v), v))
            assert abs(after - before / (1.0 + before)) <= 1e-10

    def test_observation_shrinks_instant_score(self):
        rng = np.random.default_rng(13)
        cp = ConfidenceParams()
        for seed in range(200):
            factors, stats, _ = _scoring_setup(seed=seed)
            x, y = int(rng.integers(0, 3)), int(rng.integers(0, 4))
            s = factors.S[int(rng.integers(0, 12))]
            v = factors.A[y] * s
            if np.linalg.norm(v) == 0:
                continue
            before = instant_score(x, y, s, stats, factors, cp)
            home = stats.home_precision.copy()
            home[x] = home[x] + np.outer(v, v)
            bumped = SufficientStats(home_precision=home, app_precision=stats.app_precision)
            after = instant_score(x, y, s, bumped, factors, cp)
            assert after < before
