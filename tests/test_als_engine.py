import logging

import numpy as np
import pytest

from actsense import (EnergyTensor, LatentFactors, ModelConfig, NumericalError,
                      ObservationSet, SyntheticConfig, accumulate_stats, fit,
                      generate_synthetic, masked_objective, resolve_caps)
from actsense.als_engine import (CONDITION_LIMIT, _project_rows, _solve_family,
                                 init_factors)

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
    ii, jj, kk = omega.arrays()
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
    omega = ObservationSet.from_triples(np.argwhere(mask))
    f = LatentFactors(H=rng.random((M, rank)), A=rng.random((N, rank)),
                      S=rng.random((T, rank)), rank=rank)
    return tensor, omega, f, (0.7, 1.9, 3.1)


class TestAccumulateStats:
    def test_empty_omega_regularizer_seed(self, tiny_tensor):
        cfg = ModelConfig(rank=2, lambda1=1.5, lambda2=2.5, lambda3=3.5)
        f = init_factors(tiny_tensor, cfg, resolve_caps(tiny_tensor, cfg))
        stats = accumulate_stats(tiny_tensor, ObservationSet.empty(), f, cfg)
        np.testing.assert_array_equal(stats.home_precision,
                                      np.tile(1.5 * np.eye(2), (2, 1, 1)))
        np.testing.assert_array_equal(stats.app_precision,
                                      np.tile(2.5 * np.eye(2), (3, 1, 1)))
        np.testing.assert_array_equal(stats.season_precision,
                                      np.tile(3.5 * np.eye(2), (3, 1, 1)))
        assert not stats.home_rhs.any() and not stats.season_rhs.any()

    def test_hand_rank_one_accumulation(self):
        readings = np.full((1, 1, 1), 6.0)
        tensor = EnergyTensor(readings=readings,
                              mask=np.ones((1, 1, 1), dtype=bool),
                              appliance_names=("aggregate",))
        f = LatentFactors(H=np.ones((1, 2)), A=np.ones((1, 2)),
                          S=np.ones((1, 2)), rank=2)  # a o s = [1, 1]
        cfg = ModelConfig(rank=2, lambda1=1.0, lambda2=1.0, lambda3=1.0)
        stats = accumulate_stats(tensor, ObservationSet.from_triples([(0, 0, 0)]),
                                 f, cfg)
        np.testing.assert_array_equal(stats.home_precision[0],
                                      [[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(stats.home_rhs[0], [6.0, 6.0])

    def test_additivity_over_disjoint_sets(self, tiny_tensor):
        rng = np.random.default_rng(5)
        cfg = ModelConfig(rank=2, lambda1=0.7, lambda2=0.7, lambda3=0.7)
        f = LatentFactors(H=rng.random((2, 2)), A=rng.random((3, 2)),
                          S=rng.random((3, 2)), rank=2)
        cells = [(i, j, k) for i in range(2) for j in range(3) for k in range(3)]
        rng.shuffle(cells)
        part1, part2 = cells[:9], cells[9:]
        s_all = accumulate_stats(tiny_tensor, ObservationSet.from_triples(cells), f, cfg)
        s1 = accumulate_stats(tiny_tensor, ObservationSet.from_triples(part1), f, cfg)
        s2 = accumulate_stats(tiny_tensor, ObservationSet.from_triples(part2), f, cfg)
        lam_seed = np.tile(0.7 * np.eye(2), (2, 1, 1))
        np.testing.assert_allclose(s_all.home_precision,
                                   s1.home_precision + s2.home_precision - lam_seed,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(s_all.home_rhs, s1.home_rhs + s2.home_rhs,
                                   rtol=0, atol=1e-12)

    def test_out_of_range_rejected(self, tiny_tensor):
        cfg = ModelConfig(rank=2)
        f = init_factors(tiny_tensor, cfg, resolve_caps(tiny_tensor, cfg))
        with pytest.raises(ValueError):
            accumulate_stats(tiny_tensor, ObservationSet.from_triples([(9, 0, 0)]),
                             f, cfg)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", list(ORACLE_MASKS))
    def test_dense_path_matches_scatter_oracle(self, rank, kind):
        tensor, omega, f, lams = oracle_case(kind, rank)
        cfg = ModelConfig(rank=rank, lambda1=lams[0], lambda2=lams[1], lambda3=lams[2])
        stats = accumulate_stats(tensor, omega, f, cfg)
        got = (stats.home_precision, stats.home_rhs, stats.app_precision,
               stats.app_rhs, stats.season_precision, stats.season_rhs)
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
        W = omega.dense_mask(tensor.readings.shape)
        resid = W * (np.einsum("ir,jr,kr->ijk", f.H, f.A, f.S) - tensor.readings)
        s_term = f.S if prior is None else f.S - prior
        want = (np.sum(resid ** 2) + lams[0] * np.sum(f.H ** 2)
                + lams[1] * np.sum(f.A ** 2) + lams[2] * np.sum(s_term ** 2))
        got = masked_objective(tensor, omega, f, cfg, season_prior=prior)
        assert got == pytest.approx(want, rel=1e-12)

    def test_precisions_are_spd_with_ridge_seed(self, tiny_tensor, tiny_omega):
        rng = np.random.default_rng(6)
        cfg = ModelConfig(rank=3, lambda1=0.9, lambda2=1.3, lambda3=2.1)
        f = LatentFactors(H=rng.random((2, 3)), A=rng.random((3, 3)),
                          S=rng.random((3, 3)), rank=3)
        stats = accumulate_stats(tiny_tensor, tiny_omega, f, cfg)
        for mats, lam in ((stats.home_precision, 0.9),
                          (stats.app_precision, 1.3),
                          (stats.season_precision, 2.1)):
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


class TestProject:
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
        factors, _, report = fit(tiny_tensor, ObservationSet.empty(), cfg)
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
    omega = ObservationSet.from_triples(
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
    omega = ObservationSet.from_triples([c for c, k in zip(cells, keep) if k] or [cells[0]])
    cfg = ModelConfig(rank=r, lambda1=0.8, lambda2=0.8, lambda3=0.8)
    factors = LatentFactors(H=rng.random((M, r)), A=rng.random((N, r)),
                            S=rng.random((T, r)), rank=r)
    stats = accumulate_stats(tensor, omega, factors, cfg)
    i = int(rng.integers(0, M))
    solved = solve_row(stats.home_precision[i], stats.home_rhs[i], cfg.lambda1)

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
