import logging
from dataclasses import replace

import numpy as np
import pytest

from actsense import (EnergyTensor, LatentFactors, ModelConfig, NumericalError,
                      ObservationSet, SyntheticConfig, accumulate_stats, fit,
                      generate_synthetic, masked_objective, resolve_caps)
from actsense import als_engine
from actsense.als_engine import (CONDITION_LIMIT, _project_rows, _solve_family,
                                 fit_committee, init_factors)
from actsense.tensor_core import derived_seed, masked_losses, masked_readings, support_rows

from conftest import full_omega


def ridge_oracle(vecs, values, lam, prior=None):
    """Independent ridge solve via an augmented generic least-squares system."""
    r = vecs.shape[1]
    target = np.zeros(r) if prior is None else np.sqrt(lam) * prior
    design = np.vstack([vecs, np.sqrt(lam) * np.eye(r)])
    rhs = np.concatenate([values, target])
    sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return sol


def scatter_stats(tensor, omega, factors, lams):
    """Normal equations by np.add.at: one outer product per observed cell,
    added to the precision of the row that the cell touches."""
    ii, jj, kk = np.nonzero(omega.mask)
    e = tensor.readings[ii, jj, kk]
    H, A, S = factors.H, factors.A, factors.S
    out = []
    for vecs, idx, n_rows, lam in ((A[jj] * S[kk], ii, len(H), lams[0]),
                                   (H[ii] * S[kk], jj, len(A), lams[1]),
                                   (H[ii] * A[jj], kk, len(S), lams[2])):
        r = factors.rank
        precision = np.tile(lam * np.eye(r), (n_rows, 1, 1))
        rhs = np.zeros((n_rows, r))
        np.add.at(precision, idx, vecs[:, :, None] * vecs[:, None, :])
        np.add.at(rhs, idx, e[:, None] * vecs)
        out += [precision, rhs]
    return out


def sweep_stats(tensor, omega, factors, lams):
    """The three families of normal equations that a sweep's own helpers
    build from ``factors``, in scatter_stats' order; accumulate_stats
    returns the first two precisions."""
    H, A, S = (m[:, None, :] for m in (factors.H, factors.A, factors.S))
    ridges = als_engine._ridges(lams, np.ones((1, factors.rank), dtype=bool))
    W, XW, cols = masked_readings(tensor, omega)
    r, Z = factors.rank, support_rows(A, S, cols)
    Ht = np.ascontiguousarray(H.transpose(1, 2, 0))
    NT = len(A) * len(S)
    V = als_engine._over_homes(W, als_engine._outer_rows_t(Ht),
                               als_engine._column_index(cols, r * r, NT),
                               np.zeros((r * r, len(A), len(S))))
    U = als_engine._over_homes(XW, np.ascontiguousarray(H[:, 0, :].T),
                               als_engine._column_index(cols, r, NT),
                               np.zeros((r, len(A), len(S))))
    out = []
    for contract, X, Y, F, ridge in ((np.matmul, W, XW, Z, ridges[0]),
                                     (als_engine._over_months, V, U, S, ridges[1]),
                                     (als_engine._over_appliances, V, U, A, ridges[2])):
        out += [als_engine._precision(contract, X, F, ridge), als_engine._rhs(contract, Y, F)]
    return out


def config_lams(cfg):
    return (cfg.lambda1, cfg.lambda2, cfg.lambda3)


# mask kind -> (seed offset, coverage of a random mask, or None for a fixed one)
ORACLE_MASKS = {"empty": (0, 0.0), "sparse": (3, 0.3), "dense": (7, 0.7),
                "full": (10, 1.0), "through_month": (1, None), "one_column": (2, None)}


def oracle_case(kind, rank):
    """(tensor, omega, factors, lambdas) of one oracle case on a 5 x 4 x 6 tensor.

    ``through_month`` is the simulator's pattern at month 3: the aggregate
    of every home through that month, three installed pairs revealed
    from the month after their install, and no later month.
    ``one_column`` observes one (appliance, month) column in two homes.
    """
    offset, coverage = ORACLE_MASKS[kind]
    rng = np.random.default_rng(100 * rank + offset)
    M, N, T = 5, 4, 6
    readings = rng.uniform(0.0, 50.0, size=(M, N, T))
    tensor = EnergyTensor(readings=readings, mask=np.ones((M, N, T), dtype=bool),
                          appliance_names=tuple(f"a{j}" for j in range(N)))
    if kind == "through_month":
        mask = np.zeros((M, N, T), dtype=bool)
        mask[:, 0, :4] = True
        for home, app, installed in ((0, 1, 0), (2, 3, 1), (4, 1, 2)):
            mask[home, app, installed + 1:4] = True
    elif kind == "one_column":
        mask = np.zeros((M, N, T), dtype=bool)
        mask[[1, 3], 2, 4] = True
    else:
        # one draw per cell, in C order, even where coverage is 0
        mask = np.ones((M, N, T), dtype=bool) if coverage == 1.0 \
            else rng.random((M, N, T)) < coverage
    omega = ObservationSet(mask)
    f = LatentFactors(H=rng.random((M, rank)), A=rng.random((N, rank)),
                      S=rng.random((T, rank)), rank=rank)
    return tensor, omega, f, (0.7, 1.9, 3.1)


class TestAccumulateStats:
    def test_empty_omega_regularizer_seed(self, tiny_tensor):
        cfg = ModelConfig(rank=2, lambda1=1.5, lambda2=2.5, lambda3=3.5)
        f = init_factors(tiny_tensor, cfg, resolve_caps(tiny_tensor, cfg))
        empty = ObservationSet.empty(tiny_tensor.readings.shape)
        stats = accumulate_stats(tiny_tensor, empty, f, cfg)
        _, home_rhs, _, _, season_precision, season_rhs = sweep_stats(
            tiny_tensor, empty, f, config_lams(cfg))
        np.testing.assert_array_equal(stats.home_precision,
                                      np.tile(1.5 * np.eye(2), (2, 1, 1)))
        np.testing.assert_array_equal(stats.app_precision,
                                      np.tile(2.5 * np.eye(2), (3, 1, 1)))
        np.testing.assert_array_equal(season_precision,
                                      np.tile(3.5 * np.eye(2), (3, 1, 1)))
        assert not home_rhs.any() and not season_rhs.any()

    def test_hand_rank_one_accumulation(self):
        readings = np.full((1, 1, 1), 6.0)
        tensor = EnergyTensor(readings=readings,
                              mask=np.ones((1, 1, 1), dtype=bool),
                              appliance_names=("aggregate",))
        f = LatentFactors(H=np.ones((1, 2)), A=np.ones((1, 2)),
                          S=np.ones((1, 2)), rank=2)  # a o s = [1, 1]
        cfg = ModelConfig(rank=2, lambda1=1.0, lambda2=1.0, lambda3=1.0)
        omega = ObservationSet(np.ones((1, 1, 1), dtype=bool))
        stats = accumulate_stats(tensor, omega, f, cfg)
        home_rhs = sweep_stats(tensor, omega, f, config_lams(cfg))[1]
        np.testing.assert_array_equal(stats.home_precision[0],
                                      [[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(home_rhs[0], [6.0, 6.0])

    def test_additivity_over_disjoint_sets(self, tiny_tensor):
        rng = np.random.default_rng(5)
        cfg = ModelConfig(rank=2, lambda1=0.7, lambda2=0.7, lambda3=0.7)
        f = LatentFactors(H=rng.random((2, 2)), A=rng.random((3, 2)),
                          S=rng.random((3, 2)), rank=2)
        cells = [(i, j, k) for i in range(2) for j in range(3) for k in range(3)]
        rng.shuffle(cells)
        part1, part2 = cells[:9], cells[9:]
        empty = ObservationSet.empty(tiny_tensor.readings.shape)
        s_all, s1, s2 = (accumulate_stats(tiny_tensor, empty.union(c), f, cfg)
                         for c in (cells, part1, part2))
        r_all, r1, r2 = (sweep_stats(tiny_tensor, empty.union(c), f, config_lams(cfg))[1]
                         for c in (cells, part1, part2))
        lam_seed = np.tile(0.7 * np.eye(2), (2, 1, 1))
        np.testing.assert_allclose(s_all.home_precision,
                                   s1.home_precision + s2.home_precision - lam_seed,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(r_all, r1 + r2, rtol=0, atol=1e-12)

    def test_out_of_range_rejected(self, tiny_tensor):
        cfg = ModelConfig(rank=2)
        f = init_factors(tiny_tensor, cfg, resolve_caps(tiny_tensor, cfg))
        # a cell past the tensor's last home needs a mask larger than the tensor
        beyond = ObservationSet.empty((10, 3, 3)).union([(9, 0, 0)])
        with pytest.raises(ValueError):
            accumulate_stats(tiny_tensor, beyond, f, cfg)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", list(ORACLE_MASKS))
    def test_dense_path_matches_scatter_oracle(self, rank, kind):
        tensor, omega, f, lams = oracle_case(kind, rank)
        cfg = ModelConfig(rank=rank, lambda1=lams[0], lambda2=lams[1], lambda3=lams[2])
        stats = accumulate_stats(tensor, omega, f, cfg)
        got = sweep_stats(tensor, omega, f, lams)
        np.testing.assert_array_equal(stats.home_precision, got[0])
        np.testing.assert_array_equal(stats.app_precision, got[2])
        for g, want in zip(got, scatter_stats(tensor, omega, f, lams)):
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)
        if kind == "empty":
            for g, lam in zip(got[::2], lams):
                np.testing.assert_array_equal(g, np.tile(lam * np.eye(rank),
                                                         (len(g), 1, 1)))
            for g in got[1::2]:
                np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", list(ORACLE_MASKS))
    @pytest.mark.parametrize("with_prior", [False, True], ids=["plain", "prior"])
    def test_objective_matches_einsum_oracle(self, rank, kind, with_prior):
        tensor, omega, f, lams = oracle_case(kind, rank)
        cfg = ModelConfig(rank=rank, lambda1=lams[0], lambda2=lams[1], lambda3=lams[2])
        prior = np.random.default_rng(rank).random(f.S.shape) if with_prior else None
        W = omega.mask.astype(float)
        resid = W * (np.einsum("ir,jr,kr->ijk", f.H, f.A, f.S) - tensor.readings)
        s_term = f.S if prior is None else f.S - prior
        want = (np.sum(resid ** 2) + lams[0] * np.sum(f.H ** 2)
                + lams[1] * np.sum(f.A ** 2) + lams[2] * np.sum(s_term ** 2))
        got = masked_objective(tensor, omega, f, cfg, season_prior=prior)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", list(ORACLE_MASKS))
    def test_precisions_bit_identical_to_the_rhs_building_path(self, rank, kind):
        # the precisions as the sweep builds them beside the home rhs
        # XW_(1) @ Z and U = H^T @ XW_(1), written out: accumulate_stats
        # builds neither and must still match them bit for bit
        tensor, omega, f, lams = oracle_case(kind, rank)
        cfg = ModelConfig(rank=rank, lambda1=lams[0], lambda2=lams[1], lambda3=lams[2])
        stats = accumulate_stats(tensor, omega, f, cfg)
        H, A, S = (m[:, None, :] for m in (f.H, f.A, f.S))
        ridges = als_engine._ridges(lams, np.ones((1, rank), dtype=bool))
        W, _, cols = masked_readings(tensor, omega)
        Z = support_rows(A, S, cols)
        home = (W @ als_engine._outer_rows(Z) + ridges[0]).reshape(-1, rank, rank)
        Ht = np.ascontiguousarray(H.transpose(1, 2, 0))
        V = np.zeros((rank * rank, len(A), len(S)))
        V.reshape(len(V), -1)[:, cols] = (Ht[:, :, None, :] * Ht[:, None, :, :]).reshape(
            -1, len(H)) @ W
        app = (np.einsum("qjk,kq->jq", V, als_engine._outer_rows(S))
               + ridges[1]).reshape(-1, rank, rank)
        assert np.array_equal(stats.home_precision, home)
        assert np.array_equal(stats.app_precision, app)

    def test_precisions_are_spd_with_ridge_seed(self, tiny_tensor, tiny_omega):
        rng = np.random.default_rng(6)
        cfg = ModelConfig(rank=3, lambda1=0.9, lambda2=1.3, lambda3=2.1)
        f = LatentFactors(H=rng.random((2, 3)), A=rng.random((3, 3)),
                          S=rng.random((3, 3)), rank=3)
        stats = accumulate_stats(tiny_tensor, tiny_omega, f, cfg)
        season_precision = sweep_stats(tiny_tensor, tiny_omega, f, config_lams(cfg))[4]
        for mats, lam in ((stats.home_precision, 0.9),
                          (stats.app_precision, 1.3),
                          (season_precision, 2.1)):
            np.testing.assert_allclose(mats, np.swapaxes(mats, 1, 2), atol=1e-12)
            eigs = np.linalg.eigvalsh(mats)
            assert (eigs >= lam - 1e-9).all()  # lam*I seed plus PSD accumulation


def solve_row(precision, rhs, lam):
    """One row's ridge update through the production family solve."""
    return _solve_family(np.asarray(precision, dtype=float)[None],
                         np.asarray(rhs, dtype=float)[None], lam)[0]


class TestSolveBlock:
    def test_identity_solve(self):
        np.testing.assert_allclose(solve_row(np.eye(2), [5.0, 7.0], 1.0), [5.0, 7.0])

    def test_hand_solved_system(self):
        x = solve_row(np.array([[2.0, 1.0], [1.0, 2.0]]), [6.0, 6.0], 1.0)
        np.testing.assert_allclose(x, [2.0, 2.0], rtol=1e-14)

    def test_prior_only_solve(self):
        # a prior enters the rhs as lambda * prior, as fit adds the season prior
        lam, prior = 2.0, np.array([1.0, 1.0])
        x = solve_row(lam * np.eye(2), np.zeros(2) + lam * prior, lam)
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)

    def test_singular_precision_rejected(self):
        with pytest.raises(NumericalError):
            solve_row(np.array([[1.0, 1.0], [1.0, 1.0]]), [1.0, 1.0], 0.0)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            r = int(rng.integers(1, 4))
            n = int(rng.integers(1, 21))
            lam = float(rng.uniform(0.1, 5.0))
            vecs = rng.normal(size=(n, r))
            vals = rng.normal(size=n)
            precision = lam * np.eye(r) + vecs.T @ vecs
            rhs = vecs.T @ vals
            np.testing.assert_allclose(solve_row(precision, rhs, lam),
                                       ridge_oracle(vecs, vals, lam),
                                       rtol=1e-8, atol=1e-8)

    def test_prior_mode_matches_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            r, n, lam = 3, 12, 2.0
            vecs = rng.normal(size=(n, r))
            vals = rng.normal(size=n)
            prior = rng.normal(size=r)
            precision = lam * np.eye(r) + vecs.T @ vecs
            rhs = vecs.T @ vals
            np.testing.assert_allclose(
                solve_row(precision, rhs + lam * prior, lam),
                ridge_oracle(vecs, vals, lam, prior=prior),
                rtol=1e-8, atol=1e-8)


class TestSolveFamily:
    def test_singular_unregularized_stack_rejected(self, cond_calls):
        stack = np.tile([[1.0, 1.0], [1.0, 1.0]], (3, 1, 1))
        with pytest.raises(NumericalError):
            _solve_family(stack, np.ones((3, 2)), 0.0)
        assert len(cond_calls) == 1

    def test_trace_bound_skips_the_exact_condition(self, cond_calls):
        rng = np.random.default_rng(11)
        vecs = rng.normal(size=(6, 8, 3))
        stack = 2.0 * np.eye(3) + np.einsum("nar,nas->nrs", vecs, vecs)
        rhs = rng.normal(size=(6, 3))
        x = _solve_family(stack, rhs, 2.0)
        assert cond_calls == []
        np.testing.assert_allclose(np.einsum("nrs,ns->nr", stack, x), rhs,
                                   rtol=1e-10, atol=1e-12)

    def test_loose_trace_bound_falls_back_and_solves(self, cond_calls):
        # cond is 1, but the bound (trace - (r-1) lam) / lam is 1.2e12 + 1
        lam, g = 1.0, 0.6 * CONDITION_LIMIT
        stack = np.tile((lam + g) * np.eye(2), (2, 1, 1))
        rhs = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = _solve_family(stack, rhs, lam)
        assert len(cond_calls) == 1
        np.testing.assert_allclose(x, rhs / (lam + g), rtol=1e-14)

    def test_ill_conditioned_stack_rejected_after_fallback(self, cond_calls):
        stack = np.diag([1.0 + 2.0 * CONDITION_LIMIT, 1.0])[None]
        with pytest.raises(NumericalError):
            _solve_family(stack, np.ones((1, 2)), 1.0)
        assert len(cond_calls) == 1

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("size", [1, 7, 30, 1000])
    def test_closed_form_matches_lapack(self, rank, size, cond_calls):
        rng = np.random.default_rng(10 * size + rank)
        vecs = rng.normal(size=(size, 5, rank))
        stack = 0.5 * np.eye(rank) + np.einsum("nar,nas->nrs", vecs, vecs)
        # solutions in [1, 2], away from zero, so rtol alone can compare them
        rhs = np.einsum("nrs,ns->nr", stack, rng.uniform(1.0, 2.0, size=(size, rank)))
        x = _solve_family(stack, rhs, 0.5)
        assert cond_calls == []
        np.testing.assert_allclose(x, np.linalg.solve(stack, rhs[..., None])[..., 0],
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("block", [[[0.0]], [[4.0, 2.0], [2.0, 1.0]]],
                             ids=["rank1", "rank2"])
    def test_singular_closed_form_stack_rejected(self, block, cond_calls):
        stack = np.tile(block, (3, 1, 1))
        with pytest.raises(NumericalError):
            _solve_family(stack, np.ones((3, len(block))), 0.0)
        assert len(cond_calls) == 1

    def test_padded_stack_guard_reads_each_members_own_block(self, cond_calls):
        # member 0 has rank 1, padded to 2 with lam; its own block is
        # [[lam + g]] (cond 1), but the padded block has cond (lam + g) / lam
        lam, g = 1.0, 1.5 * CONDITION_LIMIT
        stack = np.array([[[lam + g, 0.0], [0.0, lam]], 3.0 * np.eye(2)])
        rhs = np.array([[2.0, 0.0], [3.0, 6.0]])
        x = _solve_family(stack, rhs, lam, ranks=[1, 2])
        assert len(cond_calls) == 2
        np.testing.assert_allclose(x, [[2.0 / (lam + g), 0.0], [1.0, 2.0]], rtol=1e-14)
        assert x[0, 1] == 0.0
        with pytest.raises(NumericalError):
            _solve_family(stack, rhs, lam)

    def test_rank2_closed_form_is_the_written_out_adjugate_bit_for_bit(self):
        # general (not symmetric) blocks, so a swapped b and c would show;
        # beyond=False skips the guard
        rng = np.random.default_rng(12)
        for size in (1, 7, 30, 1000):
            stack = rng.normal(size=(size, 2, 2)) + 3.0 * np.eye(2)
            rhs = rng.normal(size=(size, 2))
            rhs[::3] = 0.0
            a, b = stack[:, 0, 0], stack[:, 0, 1]
            c, d = stack[:, 1, 0], stack[:, 1, 1]
            u, v = rhs[:, 0], rhs[:, 1]
            want = np.stack([d * u - b * v, a * v - c * u], axis=1) / (a * d - b * c)[:, None]
            assert np.array_equal(_solve_family(stack, rhs, 1.0, beyond=False), want)


class TestProject:
    def test_in_place_rescale_is_clamp_then_scale_bit_for_bit(self):
        rng = np.random.default_rng(13)
        cap = 5.0
        for size in (4, 30, 1000):
            mat = rng.normal(scale=4.0, size=(size, 2))
            mat[0] = 0.0                           # a zero row
            mat[1] = [3.0, 4.0]                    # on the cap: norm exactly 5
            mat[2] = [cap, -1.0]                   # on the cap once clamped
            mat[3] = [30.0, 40.0]                  # beyond it
            given = mat.copy()
            out = np.maximum(mat, 0.0)
            norms = np.sqrt(np.einsum("ij,ij->i", out, out))
            want = out * (cap / np.maximum(norms, cap))[:, None]
            got = _project_rows(mat, cap)
            assert np.array_equal(got, want)
            assert np.array_equal(got[:3], [[0.0, 0.0], [3.0, 4.0], [cap, 0.0]])
            assert np.array_equal(mat, given)      # the input is left as it is

    def test_already_feasible(self):
        np.testing.assert_array_equal(_project_rows(np.array([[3.0, 4.0]]), 10.0),
                                      [[3.0, 4.0]])

    def test_clamp_only(self):
        np.testing.assert_array_equal(_project_rows(np.array([[-1.0, 2.0]]), 10.0),
                                      [[0.0, 2.0]])

    def test_rescale(self):
        np.testing.assert_allclose(_project_rows(np.array([[3.0, 4.0]]), 1.0),
                                   [[0.6, 0.8]], rtol=1e-14)

    def test_rows_projected_independently(self):
        m = np.array([[3.0, 4.0], [-1.0, 2.0], [0.0, 0.0], [-3.0, -4.0]])
        np.testing.assert_allclose(_project_rows(m, 1.0),
                                   [[0.6, 0.8], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
                                   rtol=1e-14)


class TestCapsAndInit:
    def test_default_caps_from_peak(self, tiny_tensor):
        cfg = ModelConfig(rank=2)
        caps = resolve_caps(tiny_tensor, cfg)
        expected = 10.0 * float(tiny_tensor.readings.max()) ** (1 / 3)
        assert caps == (expected, expected, expected)

    def test_config_caps_win(self, tiny_tensor):
        cfg = ModelConfig(rank=2, norm_caps=(1.0, 2.0, 3.0))
        assert resolve_caps(tiny_tensor, cfg) == (1.0, 2.0, 3.0)

    def test_init_rows_at_half_cap(self, tiny_tensor):
        cfg = ModelConfig(rank=3, seed=4)
        caps = (2.0, 4.0, 6.0)
        f = init_factors(tiny_tensor, cfg, caps)
        np.testing.assert_allclose(np.linalg.norm(f.H, axis=1), 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(f.A, axis=1), 2.0, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(f.S, axis=1), 3.0, rtol=1e-12)
        assert (f.H > 0).all() and (f.A > 0).all() and (f.S > 0).all()
        f2 = init_factors(tiny_tensor, cfg, caps)
        np.testing.assert_array_equal(f.H, f2.H)


def _noiseless_instance(seed, M=10, N=4, T=12, rank=2):
    cfg = SyntheticConfig(num_homes=M, num_appliances=N, num_months=T,
                          true_rank=rank, noise_sigma=0.0, seed=seed)
    return generate_synthetic(cfg)


class TestFit:
    def test_empty_omega_shrinks_to_zero(self, tiny_tensor):
        cfg = ModelConfig(rank=2, lambda1=1.0, lambda2=1.0, lambda3=1.0,
                          max_sweeps=5, seed=0)
        factors, _, report = fit(tiny_tensor, ObservationSet.empty(tiny_tensor.readings.shape), cfg)
        assert np.linalg.norm(factors.H) == 0.0
        assert np.linalg.norm(factors.A) == 0.0
        trace = np.asarray(report.objective_trace)
        assert (np.diff(trace) <= 1e-12).all()

    def test_noiseless_rank2_recovery(self):
        tensor, _ = _noiseless_instance(seed=5)
        cfg = ModelConfig(rank=2, lambda1=1e-6, lambda2=1e-6, lambda3=1e-6,
                          max_sweeps=200, tol=1e-12, seed=1)
        factors, _, _ = fit(tensor, full_omega(tensor), cfg)
        rel = (np.linalg.norm(factors.reconstruct() - tensor.readings)
               / np.linalg.norm(tensor.readings))
        assert rel <= 1e-3

    def test_warm_start_at_truth_is_stable(self):
        tensor, truth = _noiseless_instance(seed=6)
        cfg = ModelConfig(rank=2, lambda1=1e-6, lambda2=1e-6, lambda3=1e-6,
                          max_sweeps=20, tol=1e-12, seed=2)
        factors, _, report = fit(tensor, full_omega(tensor), cfg, warm_start=truth)
        trace = np.asarray(report.objective_trace)
        assert (np.diff(trace) <= 1e-9 * trace[0]).all()
        reg_only = 1e-6 * sum(float(np.sum(m ** 2))
                              for m in (truth.H, truth.A, truth.S))
        assert trace[0] == pytest.approx(reg_only, rel=0.05)

    def test_emitted_factors_satisfy_invariants(self):
        tensor, _ = _noiseless_instance(seed=7)
        cfg = ModelConfig(rank=3, lambda1=0.5, lambda2=0.5, lambda3=0.5,
                          max_sweeps=30, seed=3)
        factors, _, _ = fit(tensor, full_omega(tensor), cfg)
        factors.validate(resolve_caps(tensor, cfg))

    def test_dead_component_revived_on_warm_start(self):
        tensor, truth = _noiseless_instance(seed=8)
        H = truth.H.copy()
        H[:, 1] = 0.0
        crippled = LatentFactors(H=H, A=truth.A, S=truth.S, rank=2)
        cfg = ModelConfig(rank=2, lambda1=1e-4, lambda2=1e-4, lambda3=1e-4,
                          max_sweeps=100, tol=1e-12, seed=4)
        factors, _, _ = fit(tensor, full_omega(tensor), cfg, warm_start=crippled)
        assert np.linalg.norm(factors.H[:, 1]) > 1e-6

    def test_seasonal_prior_limit(self):
        cfg_data = SyntheticConfig(num_homes=10, num_appliances=4, num_months=6,
                                   true_rank=2, noise_sigma=0.0, seed=9,
                                   mean_kwh=1.0)
        tensor, _ = generate_synthetic(cfg_data)
        rng = np.random.default_rng(12)
        caps = (50.0, 50.0, 50.0)
        prior = rng.uniform(0.5, 2.0, size=(6, 2))
        cfg = ModelConfig(rank=2, lambda1=1.0, lambda2=1.0, lambda3=1e8,
                          norm_caps=caps, max_sweeps=60, tol=1e-14, seed=5)
        factors, _, _ = fit(tensor, full_omega(tensor), cfg, season_prior=prior)
        rel = np.linalg.norm(factors.S - prior) / np.linalg.norm(prior)
        assert rel <= 1e-3

    def test_season_prior_shape_checked(self, tiny_tensor, tiny_omega):
        cfg = ModelConfig(rank=2)
        with pytest.raises(ValueError):
            fit(tiny_tensor, tiny_omega, cfg, season_prior=np.ones((1, 2)))

    def test_stop_at_the_cap_logs_one_info_line(self, tiny_tensor, tiny_omega, caplog):
        cfg = ModelConfig(rank=2, lambda1=1.0, lambda2=1.0, lambda3=1.0,
                          max_sweeps=3, tol=1e-15)
        with caplog.at_level(logging.INFO, logger="actsense.als_engine"):
            _, _, report = fit(tiny_tensor, tiny_omega, cfg)
        assert not report.converged and report.sweeps_run == 3
        records = [r for r in caplog.records if r.name == "actsense.als_engine"]
        assert [r.levelno for r in records] == [logging.INFO]
        prev, last = report.objective_trace[-2:]
        message = records[0].getMessage()
        assert "max_sweeps=3" in message
        assert f"{abs(prev - last) / abs(prev):.3e}" in message

    def test_converged_fit_logs_nothing(self, tiny_tensor, tiny_omega, caplog):
        cfg = ModelConfig(rank=2, lambda1=1.0, lambda2=1.0, lambda3=1.0,
                          max_sweeps=100, tol=0.5)
        with caplog.at_level(logging.INFO, logger="actsense.als_engine"):
            _, _, report = fit(tiny_tensor, tiny_omega, cfg)
        assert report.converged
        assert not [r for r in caplog.records if r.name == "actsense.als_engine"]


# The fit below as the earlier np.add.at scatter path (per-cell normal
# equations and objective) computed it.  The dense-mask path sums in
# another order, so the factors agree to rtol 1e-9 (observed: 1e-13), not
# bit for bit.
FROZEN_H = [[2.774000954838541, 0.19335274099023864], [2.585551292691836, 1.1910489980508445],
            [2.8490490397663155, 2.5651429526159077], [1.9291706957589454, 1.8773283140088481],
            [3.4527779084350265, 0.5578005821172298], [2.0865657230205796, 2.55608526821812],
            [0.8888983319312918, 3.499120377894794], [3.3814151913944563, 0.0]]
FROZEN_A = [[12.849884681921548, 11.46830384729285], [2.057569947422088, 1.862649770770479],
            [4.659010132343839, 4.230890789253386], [3.245411529186947, 3.7333104604919303],
            [2.9221728389037454, 1.5087784235651749]]
FROZEN_S = [[0.9444726271756553, 3.366472194285432], [3.430762300506072, 6.313184621310539],
            [6.904660938304115, 8.68166484438334], [9.986304580527264, 10.346739943588279],
            [12.646575482914919, 10.468641769451423], [13.70454610488957, 8.66625252977439]]
FROZEN_OBJECTIVE = 117598.64374399824


def test_100_sweep_fit_matches_frozen_factors():
    tensor, _ = generate_synthetic(SyntheticConfig(
        num_homes=8, num_appliances=4, num_months=6, true_rank=2,
        noise_sigma=0.05, seed=17))
    rng = np.random.default_rng(17)
    M, N, T = tensor.readings.shape
    omega = ObservationSet.empty((M, N, T)).union(
        (i, j, k) for i in range(M) for j in range(N) for k in range(T)
        if j == tensor.aggregate_index or rng.random() < 0.4)
    prior = rng.uniform(0.5, 3.0, size=(T, 2))
    cfg = ModelConfig(rank=2, lambda1=100.0, lambda2=100.0, lambda3=100.0,
                      max_sweeps=100, seed=3)
    factors, _, report = fit(tensor, omega, cfg, season_prior=prior)
    assert len(omega) == 122 and report.sweeps_run == 100
    for got, want in ((factors.H, FROZEN_H), (factors.A, FROZEN_A),
                      (factors.S, FROZEN_S)):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    assert report.objective_trace[-1] == pytest.approx(FROZEN_OBJECTIVE, rel=1e-9)


def _committee_instance():
    """A small instance on which a member sliced from the stack tracks its
    solo fit.  At lambda=1 the trace bound vouches for every family, so no
    member revives mid-fit: _revive_columns runs only on the three start
    stacks, and finds no dead column there."""
    tensor, _ = generate_synthetic(SyntheticConfig(
        num_homes=14, num_appliances=5, num_months=7, true_rank=2,
        noise_sigma=0.05, seed=1))
    rng = np.random.default_rng(1)
    M, N, T = tensor.readings.shape
    omega = ObservationSet.empty((M, N, T)).union(
        (i, j, k) for i in range(M) for j in range(N) for k in range(T - 2)
        if j == tensor.aggregate_index or rng.random() < 0.2)
    return tensor, omega


def _committee_configs():
    base = ModelConfig(lambda1=1.0, lambda2=1.0, lambda3=1.0, max_sweeps=150, tol=1e-3)
    return [replace(base, rank=r, seed=derived_seed(1, r)) for r in (1, 2, 3, 4)]


def _assert_matches_solo(member, solo_fit):
    """A member of a stacked fit against its own fit's (factors, stats, report)."""
    (factors, report), (solo, _, solo_report) = member, solo_fit
    assert factors.rank == solo.rank
    for got, want in ((factors.H, solo.H), (factors.A, solo.A), (factors.S, solo.S)):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    assert report.sweeps_run == solo_report.sweeps_run
    assert report.converged == solo_report.converged
    np.testing.assert_allclose(report.objective_trace, solo_report.objective_trace, rtol=1e-9)


@pytest.fixture
def revive_calls(monkeypatch):
    """The member list that each _revive_columns call returns, in order."""
    calls = []
    real_revive = als_engine._revive_columns

    def counted(mat, fresh_mat, active):
        calls.append(real_revive(mat, fresh_mat, active))
        return calls[-1]

    monkeypatch.setattr(als_engine, "_revive_columns", counted)
    return calls


def test_revives_mid_fit_only_where_the_trace_bound_cannot_vouch(revive_calls,
                                                                 monkeypatch):
    # lambda=100: the bound vouches for every family, so only the three
    # start stacks are revived
    tensor, omega = _committee_instance()
    cfg = ModelConfig(rank=2, lambda1=100.0, lambda2=100.0, lambda3=100.0,
                      max_sweeps=100, tol=1e-15, seed=3)
    assert fit(tensor, omega, cfg)[2].sweeps_run == 100
    assert len(revive_calls) == 3
    # c02's seed-2 instance: at lambda=1e-6 the exact condition guards the
    # solves, a column dies mid-fit, and its revival lets the fit finish
    tensor, _ = _noiseless_instance(seed=2)
    cfg = ModelConfig(rank=2, lambda1=1e-6, lambda2=1e-6, lambda3=1e-6,
                      max_sweeps=200, tol=1e-12, seed=102)
    revive_calls.clear()
    factors, _, _ = fit(tensor, full_omega(tensor), cfg)
    assert any(revive_calls[3:])
    rel = (np.linalg.norm(factors.reconstruct() - tensor.readings)
           / np.linalg.norm(tensor.readings))
    assert rel <= 1e-3
    # with the start stacks' revivals alone, the dead column fails the guard
    counted = als_engine._revive_columns
    monkeypatch.setattr(als_engine, "_revive_columns",
                        lambda *args: counted(*args) if len(revive_calls) < 3 else [])
    revive_calls.clear()
    with pytest.raises(NumericalError):
        fit(tensor, full_omega(tensor), cfg)


def _bound_worlds():
    """Three synthetic worlds of different shapes: home 0 sees every cell,
    the others about half."""
    worlds = []
    for seed, (M, N, T) in enumerate([(8, 4, 6), (14, 5, 7), (30, 7, 12)]):
        tensor, _ = generate_synthetic(SyntheticConfig(
            num_homes=M, num_appliances=N, num_months=T, true_rank=2,
            noise_sigma=0.05, seed=seed))
        seen = np.random.default_rng(seed).random(tensor.mask.shape) < 0.5
        seen[:, tensor.aggregate_index] = True
        seen[0] = True
        worlds.append((tensor, ObservationSet(seen & tensor.mask)))
    return worlds


@pytest.mark.parametrize("lam", [1e-6, 1.0, 100.0, 1e4])
@pytest.mark.parametrize("start", ["cold", "cold committee", "warm beyond the caps"])
def test_fit_start_trace_bound_holds_for_every_solve(lam, start, monkeypatch):
    real_bounds = als_engine._fit_trace_bounds
    real_solve = als_engine._solve_family
    real_beyond = als_engine._beyond_trace_bound
    bounds, solves, checks = [], [], []

    def solve(precision, rhs, lam, ranks=None, beyond=None):
        solves.append((precision, beyond))
        return real_solve(precision, rhs, lam, ranks, beyond)

    def check(precision, lam):
        checks.append(real_beyond(precision, lam))
        return checks[-1]

    monkeypatch.setattr(als_engine, "_fit_trace_bounds",
                        lambda *args: bounds.append(real_bounds(*args)) or bounds[-1])
    monkeypatch.setattr(als_engine, "_solve_family", solve)
    monkeypatch.setattr(als_engine, "_beyond_trace_bound", check)
    base = ModelConfig(rank=2, lambda1=lam, lambda2=lam, lambda3=lam, max_sweeps=20,
                       tol=1e-15, seed=5)
    for tensor, omega in _bound_worlds():
        for calls in (bounds, solves, checks):
            calls.clear()
        if start == "cold":
            fit_committee(tensor, omega, [base])
        elif start == "cold committee":
            fit_committee(tensor, omega, [replace(base, rank=r, seed=r) for r in (1, 2, 3)])
        else:
            # rank 1, where |o1 * o2| = |o1| |o2|, with every row three times
            # its cap: on home 0's first update the bound is near tight
            caps = (20.0, 30.0, 40.0)
            warm = LatentFactors(*(np.full((n, 1), 3.0 * cap)
                                   for n, cap in zip(tensor.readings.shape, caps)), rank=1)
            fit_committee(tensor, omega, [replace(base, rank=1, norm_caps=caps)],
                          warm_starts=[warm])
        (fit_bounds,) = bounds
        sweeps = len(solves) // 3
        assert len(solves) == 3 * sweeps > 0
        vouched = [bound <= CONDITION_LIMIT / 2 for bound in fit_bounds]
        for i, (precision, beyond) in enumerate(solves):
            # the ratio _beyond_trace_bound reads never exceeds the fit-start bound
            ratio = (np.einsum("nii->n", precision).max()
                     - (precision.shape[-1] - 1) * lam) / lam
            assert ratio <= fit_bounds[i % 3] * (1 + 1e-12)
            if vouched[i % 3]:
                assert beyond is False and not real_beyond(precision, lam)
            else:
                assert beyond == real_beyond(precision, lam)
        # the per-update check runs once per update of an unvouched family
        assert len(checks) == sweeps * vouched.count(False)
        if lam == 1e-6:
            assert checks
        else:
            assert vouched == [True] * 3


def test_fit_trace_bounds_by_hand():
    # 2 homes, 2 appliances, 3 months; observed columns j*3 + k = 0, 1, 4:
    # home 0 sees all three, home 1 the first and the last
    W = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    split = np.divmod(np.array([0, 1, 4]), 3)
    stacks = [np.array(m)[:, None, :] for m in (
        [[2.0, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 0.0]],
        [[3.0, 0.0], [0.0, 0.0], [1.0, 1.0]])]
    fresh = [np.array(m)[:, None, :] for m in (
        [[0.5, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 1.0]],
        [[1.5, 0.0], [0.0, 1.5], [1.5, 0.0]])]
    caps = (1.0, 2.0, 3.0)
    # rho^2: max(1, 4) + 0.25, max(4, 1) + 1, max(9, 9) + 2.25; the most
    # cells per row: 3 of home 0 (2 of home 1), 3 of appliance 0 (2 of
    # appliance 1), 3 of month 1 (2 of month 0, 0 of month 2)
    bounds = als_engine._fit_trace_bounds(W, split, stacks, fresh, caps, (2.0, 0.5, 4.0))
    assert bounds == [1.0 + 3 * 5.0 * 11.25 / 2.0, 1.0 + 3 * 11.25 * 4.25 / 0.5,
                      1.0 + 3 * 4.25 * 5.0 / 4.0]
    assert als_engine._fit_trace_bounds(W, split, stacks, fresh, caps,
                                        (0.0, 0.5, 4.0))[0] == np.inf


def _written_out_losses(W, XW, Z, H, A, S, config, season_prior):
    """masked_losses' objective written out: a (B, M, C) residual reduced
    by einsum, and each ridge term as lambda * |F|^2.  The same sums in
    another layout and summation order."""
    resid = np.matmul(H.transpose(1, 0, 2), Z.transpose(1, 2, 0))  # (B, M, C)
    resid *= W
    resid -= XW
    resid = resid.reshape(len(resid), -1)
    s_term = np.subtract(S, season_prior, out=np.empty_like(S))
    return (np.einsum("bi,bi->b", resid, resid)
            + config.lambda1 * np.einsum("nbr,nbr->b", H, H)
            + config.lambda2 * np.einsum("nbr,nbr->b", A, A)
            + config.lambda3 * np.einsum("nbr,nbr->b", s_term, s_term))


@pytest.mark.parametrize("ranks", [(3,), (1, 2, 3, 4, 2)], ids=["B1", "B5"])
@pytest.mark.parametrize("kind", ["empty", "one_column", "sparse", "full"])
@pytest.mark.parametrize("with_prior", [False, True], ids=["zero_prior", "prior"])
def test_masked_losses_match_the_written_out_residual(ranks, kind, with_prior):
    tensor, omega, _, lams = oracle_case(kind, 2)
    rng = np.random.default_rng(len(ranks))
    R = max(ranks) + 1   # every member padded by at least one zero column
    M, N, T = tensor.readings.shape
    H, A, S, prior = (als_engine._stack([rng.random((n, r)) for r in ranks], R)
                      for n in (M, N, T, T))
    if not with_prior:
        prior[:] = 0.0
    cfg = ModelConfig(lambda1=lams[0], lambda2=lams[1], lambda3=lams[2])
    W, XW, cols = masked_readings(tensor, omega)
    assert (len(cols) == 0) == (kind == "empty")
    Z = support_rows(A, S, cols)
    got = masked_losses(W, XW, Z, H, A, S, cfg, prior)
    assert got.shape == (len(ranks),)
    np.testing.assert_allclose(got, _written_out_losses(W, XW, Z, H, A, S, cfg, prior),
                               rtol=1e-13)


def test_objective_never_feeds_the_factors(monkeypatch):
    # the objective feeds only the convergence test and the trace: with the
    # written-out objective in its place, every factor bit, sweep count and
    # verdict stays, and the traces agree to rounding
    tensor, omega = _committee_instance()
    configs = _committee_configs()
    T = tensor.num_months
    prior = np.linspace(0.5, 2.0, 2 * T).reshape(T, 2)

    def both():
        return ([fit(tensor, omega, configs[1], season_prior=prior),
                 fit(tensor, omega, replace(configs[1], tol=1e-6, max_sweeps=100))],
                fit_committee(tensor, omega, configs))

    want_fits, want_committee = both()
    calls = []

    def written_out(*args):
        calls.append(1)
        return _written_out_losses(*args)

    monkeypatch.setattr(als_engine, "masked_losses", written_out)
    got_fits, got_committee = both()
    monkeypatch.undo()
    assert len(calls) == sum(report.sweeps_run for _, _, report in want_fits) + max(
        report.sweeps_run for _, report in want_committee)
    pairs = [((f, r), (g, q)) for (f, _, r), (g, _, q) in zip(want_fits, got_fits)]
    pairs += list(zip(want_committee, got_committee))
    for (want, want_report), (got, got_report) in pairs:
        for name in "HAS":
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got_report.sweeps_run == want_report.sweeps_run
        assert got_report.converged == want_report.converged
        np.testing.assert_allclose(got_report.objective_trace,
                                   want_report.objective_trace, rtol=1e-13)
    for (_, want_stats, _), (_, got_stats, _) in zip(want_fits, got_fits):
        assert np.array_equal(got_stats.home_precision, want_stats.home_precision)
        assert np.array_equal(got_stats.app_precision, want_stats.app_precision)
    # of the two fits, one stops on tol and one runs to its cap
    assert [report.converged for _, _, report in want_fits] == [True, False]


class TestFitCommittee:
    def test_members_match_their_solo_fits(self, revive_calls, monkeypatch):
        tensor, omega = _committee_instance()
        configs = _committee_configs()
        padding = np.arange(4) >= np.array([cfg.rank for cfg in configs])[:, None]
        projected = []
        real_project = als_engine._project_rows

        def checked_project(mat, cap):
            # every solved stack passes through here, as (n*B, R) rows
            assert (mat.reshape(-1, 4, 4)[:, padding] == 0.0).all()
            out = real_project(mat, cap)
            assert (out.reshape(-1, 4, 4)[:, padding] == 0.0).all()
            projected.append(len(out))
            return out

        monkeypatch.setattr(als_engine, "_project_rows", checked_project)
        members = fit_committee(tensor, omega, configs)
        monkeypatch.undo()
        assert padding.sum() == 6  # ranks 1, 2, 3 padded to 4
        assert len(projected) == 3 * max(report.sweeps_run for _, report in members)
        assert revive_calls == [[], [], []]  # the start stacks only
        for cfg, member in zip(configs, members):
            _assert_matches_solo(member, fit(tensor, omega, cfg))

    def test_warm_member_with_prior_matches_its_solo_fit(self):
        # the simulator's QBC month: the month's model, warm-started and
        # with a season prior, stacked beside the cold committee
        tensor, omega = _committee_instance()
        configs = _committee_configs()
        model = replace(configs[1], seed=99)
        earlier = ObservationSet(omega.mask & (np.arange(tensor.num_months) < 3))
        warm, _, _ = fit(tensor, earlier, model)
        T = tensor.num_months
        prior = np.linspace(0.5, 2.0, 2 * T).reshape(T, 2)
        cold = [None] * len(configs)
        members = fit_committee(tensor, omega, [model, *configs],
                                warm_starts=[warm, *cold], season_priors=[prior, *cold])
        _assert_matches_solo(members[0], fit(tensor, omega, model, season_prior=prior,
                                             warm_start=warm))
        for cfg, member in zip(configs, members[1:]):
            _assert_matches_solo(member, fit(tensor, omega, cfg))

    def test_zero_prior_is_no_prior_bit_for_bit(self):
        # a missing prior is a zero prior on the same numeric path
        tensor, omega = _committee_instance()
        configs = _committee_configs()
        T = tensor.num_months
        for cfg in configs:
            zero = np.zeros((T, cfg.rank))
            with_zero, _, zero_report = fit(tensor, omega, cfg, season_prior=zero)
            without, _, report = fit(tensor, omega, cfg)
            for name in "HAS":
                assert np.array_equal(getattr(with_zero, name), getattr(without, name))
            assert np.array_equal(zero_report.objective_trace, report.objective_trace)
            for f in (with_zero, without):
                assert (masked_objective(tensor, omega, f, cfg, season_prior=zero)
                        == masked_objective(tensor, omega, f, cfg))
        # one member given zeros, beside members given none
        wanted = fit_committee(tensor, omega, configs)
        for b, (want, want_report) in enumerate(wanted):
            priors = [None] * len(configs)
            priors[b] = np.zeros((T, configs[b].rank))
            got, got_report = fit_committee(tensor, omega, configs, season_priors=priors)[b]
            for name in "HAS":
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert np.array_equal(got_report.objective_trace, want_report.objective_trace)

    def test_batched_objective_matches_masked_objective(self):
        tensor, omega = _committee_instance()
        configs = _committee_configs()
        members = [factors for factors, _ in fit_committee(tensor, omega, configs)]
        T = tensor.num_months
        priors = [None, np.full((T, 2), 1.5), None, np.linspace(0.1, 1.0, 4 * T).reshape(T, 4)]
        H, A, S = (als_engine._stack([getattr(f, name) for f in members], 4)
                   for name in "HAS")
        prior = als_engine._stack([np.zeros((T, f.rank)) if p is None else p
                                   for f, p in zip(members, priors)], 4)
        W, XW, cols = masked_readings(tensor, omega)
        got = masked_losses(W, XW, support_rows(A, S, cols), H, A, S, configs[0], prior)
        want = [masked_objective(tensor, omega, f, configs[0], p)
                for f, p in zip(members, priors)]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_member_frozen_at_its_own_convergence(self):
        tensor, omega = _committee_instance()
        configs = _committee_configs()
        members = fit_committee(tensor, omega, configs)
        solo = [fit(tensor, omega, cfg)[2] for cfg in configs]
        sweeps = [report.sweeps_run for _, report in members]
        assert sweeps == [report.sweeps_run for report in solo]
        # each member stops at its own sweep, while its rows ride on the
        # stack until the last one stops
        assert len(set(sweeps)) == 4
        assert all(report.converged for _, report in members)

    def test_stack_keeps_every_rank_until_the_last_member_stops(self, monkeypatch):
        tensor, omega = _committee_instance()
        configs = _committee_configs()
        seen = []
        real_solve = als_engine._solve_family

        def spy(precision, rhs, lam, ranks=None, beyond=None):
            seen.append((list(ranks), precision.shape))
            return real_solve(precision, rhs, lam, ranks, beyond)

        monkeypatch.setattr(als_engine, "_solve_family", spy)
        members = fit_committee(tensor, omega, configs)
        monkeypatch.undo()
        sweeps = [report.sweeps_run for _, report in members]
        assert len(set(sweeps)) == 4
        assert len(seen) == 3 * max(sweeps)
        assert all(ranks == [1, 2, 3, 4] and shape[1:] == (4, 4) for ranks, shape in seen)

    def test_one_info_line_per_capped_member(self, caplog):
        tensor, omega = _committee_instance()
        configs = _committee_configs()
        solo = [fit(tensor, omega, cfg)[2].sweeps_run for cfg in configs]
        cap = sorted(solo)[1]  # the first two members to converge still do
        capped = [replace(cfg, max_sweeps=cap) for cfg in configs]
        with caplog.at_level(logging.INFO, logger="actsense.als_engine"):
            members = fit_committee(tensor, omega, capped)
        records = [r for r in caplog.records if r.name == "actsense.als_engine"]
        n_capped = sum(not report.converged for _, report in members)
        assert n_capped == sum(s > cap for s in solo) == 2
        assert len(records) == n_capped
        assert all(r.levelno == logging.INFO and f"max_sweeps={cap}" in r.getMessage()
                   for r in records)
        # each line names its member's rank, so the lines can be told apart
        assert sorted(r.getMessage().split()[0] for r in records) == sorted(
            f"rank-{cfg.rank}" for cfg, (_, report) in zip(capped, members)
            if not report.converged)

    @pytest.mark.parametrize("field, value", [("lambda2", 1.0), ("max_sweeps", 7),
                                              ("tol", 1e-3)],
                             ids=["lambda2", "max_sweeps", "tol"])
    def test_members_share_lambdas(self, field, value):
        tensor, omega = _committee_instance()
        configs = [ModelConfig(rank=1), replace(ModelConfig(rank=2), **{field: value})]
        with pytest.raises(ValueError, match=f"share {field}"):
            fit_committee(tensor, omega, configs)


def finite_difference_gradient(objective, row, h=1e-6):
    grad = np.zeros_like(row)
    for d in range(row.size):
        up, down = row.copy(), row.copy()
        up[d] += h
        down[d] -= h
        grad[d] = (objective(up) - objective(down)) / (2 * h)
    return grad


def block_gradient_ratio(seed):
    """Finite-difference gradient at the solved row, relative to 1 + |F|."""
    rng = np.random.default_rng(seed)
    M, N, T, r = 4, 3, 5, 2
    readings = rng.uniform(1.0, 10.0, size=(M, N, T))
    tensor = EnergyTensor(readings=readings, mask=np.ones_like(readings, dtype=bool),
                          appliance_names=tuple(["aggregate"] + [f"a{j}" for j in range(N - 1)]))
    cells = [(i, j, k) for i in range(M) for j in range(N) for k in range(T)]
    keep = rng.random(len(cells)) < 0.6
    omega = ObservationSet.empty((M, N, T)).union(
        [c for c, k in zip(cells, keep) if k] or [cells[0]])
    cfg = ModelConfig(rank=r, lambda1=0.8, lambda2=0.8, lambda3=0.8)
    factors = LatentFactors(H=rng.random((M, r)), A=rng.random((N, r)),
                            S=rng.random((T, r)), rank=r)
    stats = accumulate_stats(tensor, omega, factors, cfg)
    home_rhs = sweep_stats(tensor, omega, factors, config_lams(cfg))[1]
    i = int(rng.integers(0, M))
    solved = solve_row(stats.home_precision[i], home_rhs[i], cfg.lambda1)

    def objective(row):
        H = factors.H.copy()
        H[i] = row
        return masked_objective(tensor, omega,
                                LatentFactors(H=H, A=factors.A, S=factors.S, rank=r),
                                cfg)

    base = objective(factors.H[i])
    after = objective(solved)
    assert after <= base + 1e-9  # block solve never increases the objective
    grad = finite_difference_gradient(objective, solved)
    return float(np.linalg.norm(grad) / (1.0 + abs(after)))


def test_block_update_is_stationary():
    for seed in range(10):
        assert block_gradient_ratio(seed) <= 1e-4
