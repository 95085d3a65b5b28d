"""Acceptance suite: one test per criterion, each printing a PASS line.

The simulation-based criteria share one experiment bank (module fixture)
so the directional, budget and ablation checks run off identical data
and seeds.  The Dataport reproduction criterion is dataset-gated: it
runs only when ACTSENSE_DATAPORT_DIR points at austin_<year>.csv files.
"""

import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from actsense import (KernelConfig, ModelConfig, ObservationSet,
                      SyntheticConfig, generate_synthetic, kfold_split,
                      load_csv, relative_improvement, run, run_all,
                      sherman_morrison_update, triangle_weight)
from actsense.als_engine import _solve_family

from test_als_engine import block_gradient_ratio, ridge_oracle


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. closed-form exactness


def test_c01_closed_form_matches_least_squares_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 25))
        lam = float(rng.uniform(0.1, 10.0))
        vecs = rng.normal(size=(n, r))
        vals = rng.normal(size=n) * rng.uniform(0.5, 50.0)
        precision = lam * np.eye(r) + vecs.T @ vecs
        rhs = vecs.T @ vals
        got = _solve_family(precision[None], rhs[None], lam)[0]
        want = ridge_oracle(vecs, vals, lam)
        worst = max(worst, float(np.max(np.abs(got - want))))
        assert np.allclose(got, want, rtol=1e-8, atol=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"1000 random solves match the dense oracle "
               f"(worst abs diff {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. ALS recovery


def test_c02_noiseless_rank2_recovery_over_20_seeds():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1, 21):
        cfg = SyntheticConfig(num_homes=10, num_appliances=4, num_months=12,
                              true_rank=2, noise_sigma=0.0, seed=seed)
        tensor, _ = generate_synthetic(cfg)
        omega = ObservationSet(np.ones((10, 5, 12), dtype=bool))
        mc = ModelConfig(rank=2, lambda1=1e-6, lambda2=1e-6, lambda3=1e-6,
                         max_sweeps=200, tol=1e-12, seed=seed + 100)
        from actsense import fit
        factors, _, report = fit(tensor, omega, mc)
        assert report.sweeps_run <= 200
        rel = (np.linalg.norm(factors.reconstruct() - tensor.readings)
               / np.linalg.norm(tensor.readings))
        worst = max(worst, rel)
        assert rel <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(2, f"20 seeds recover the generating tensor "
               f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. block optimality


def test_c03_block_updates_are_stationary_points():
    worst = 0.0
    for seed in range(100):
        ratio = block_gradient_ratio(seed)
        worst = max(worst, ratio)
        assert ratio <= 1e-4
    _passed(3, f"100 finite-difference checks at solved rows "
               f"(worst relative gradient {worst:.2e})")


# ---------------------------------------------------------------------------
# 4. rank-one update identities


def test_c04_sherman_morrison_and_uncertainty_shrink():
    rng = np.random.default_rng(104)
    total = 0
    for r in (1, 2, 3, 4):
        n = 2500
        B = rng.normal(size=(n, r, r))
        A = np.einsum("nij,nkj->nik", B, B) + np.tile(np.eye(r), (n, 1, 1))
        v = rng.normal(size=(n, r))
        inv_A = np.linalg.inv(A)
        updated = np.stack([sherman_morrison_update(inv_A[m], v[m])
                            for m in range(n)])
        direct = np.linalg.inv(A + np.einsum("ni,nj->nij", v, v))
        frob = np.sqrt(((updated - direct) ** 2).sum(axis=(1, 2)))
        assert float(frob.max()) <= 1e-8

        before = np.einsum("ni,nij,nj->n", v, inv_A, v)
        after = np.einsum("ni,nij,nj->n", v, direct, v)
        assert float(np.max(np.abs(after - before / (1.0 + before)))) <= 1e-10
        nonzero = np.linalg.norm(v, axis=1) > 0
        assert (after[nonzero] < before[nonzero]).all()
        total += n
    _passed(4, f"rank-one inverse identity and strict width shrink on "
               f"{total} SPD instances")


# ---------------------------------------------------------------------------
# 5. selection-dominance inequality


def test_c05_selection_dominance_inequality():
    rng = np.random.default_rng(105)
    n = 100_000
    a1 = rng.uniform(1e-3, 10.0, size=n)
    a2 = rng.uniform(1e-3, 10.0, size=n)
    G = rng.uniform(0.0, 10.0, size=n)
    H = rng.uniform(0.0, 10.0, size=n)
    M = G + rng.uniform(0.0, 10.0, size=n)
    N = H + rng.uniform(0.0, 10.0, size=n)
    assert (a1 * M + a2 * N >= a1 * G + a2 * H).all()

    def shrink(z):
        return z / np.sqrt(1.0 + z ** 2)

    lhs = a1 * shrink(M) + a2 * shrink(N) + a1 * G + a2 * H
    rhs = a1 * shrink(G) + a2 * shrink(H) + a1 * M + a2 * N
    violations = int((lhs > rhs + 1e-12).sum())
    assert violations == 0
    _passed(5, f"0 violations over {n} constrained tuples")


# ---------------------------------------------------------------------------
# 6. kernel exactness


def test_c06_triangle_kernel_exact_on_grid():
    checks = 0
    for sigma in (1, 3, 6, 12):
        kc = KernelConfig(sigma_window=sigma, horizon=12)
        for t in range(12):
            for t_prime in range(-13, 26):
                lag = abs(t_prime - t)
                expected = 1.0 - lag / sigma if lag <= sigma else 0.0
                assert triangle_weight(t_prime, t, kc) == expected
                checks += 1
    _passed(6, f"piecewise triangle weights exact on {checks} integer lags")


# ---------------------------------------------------------------------------
# shared simulation bank for criteria 7-9


BANK_LAMBDA = 100.0  # suits the ~100 kWh synthetic scale
BANK_SEEDS = range(1, 11)


def _bank_world(seed):
    cfg = SyntheticConfig(num_homes=30, num_appliances=6, num_months=12,
                          true_rank=2, noise_sigma=0.05, seed=seed)
    tensor, _ = generate_synthetic(cfg)
    splits = kfold_split(range(30), k=5, seed=seed)
    return tensor, splits


def _bank_spec(split, strategy, seed, L=3, mode="full"):
    """One bank run as a ``(split, strategy, kwargs)`` triple of ``run_all``."""
    mc = ModelConfig(rank=2, lambda1=BANK_LAMBDA, lambda2=BANK_LAMBDA,
                     lambda3=BANK_LAMBDA)
    return split, strategy, dict(L=L, T=12, model_config=mc, seed=seed,
                                 kernel_config_kwargs={"sigma_window": 3},
                                 uncertainty_mode=mode)


def _bank_run(tensor, split, strategy, seed, L=3, mode="full"):
    split, strategy, kwargs = _bank_spec(split, strategy, seed, L, mode)
    return run(tensor, split, strategy, **kwargs).year_rmse


def _nudged(tensor, scale=1 + 1e-13):
    """The tensor with every reading scaled by ``scale``."""
    return replace(tensor, readings=tensor.readings * scale)


def test_bank_run_is_stable_under_a_reading_nudge():
    # world 3's early fits hold dead columns, where a mid-fit reseed would
    # let float summation order steer the run
    tensor, splits = _bank_world(3)
    base = _bank_run(tensor, splits[0], "random", 300)
    nudged = _bank_run(_nudged(tensor), splits[0], "random", 300)
    assert abs(nudged - base) / base < 1e-9


@pytest.fixture(scope="module")
def bank():
    # each world's 24 runs make one run_all call; a list named in ``slots``
    # receives the year RMSE of the run at the same position
    start = time.perf_counter()
    jobs = min(4, os.cpu_count() or 1)
    directional = {s: [] for s in ("random", "actsense", "qbc")}
    budget = {s: {L: [] for L in (1, 5, 10)} for s in ("random", "actsense")}
    ablation = {"random": [], "current": [], "full": []}
    for seed in BANK_SEEDS:
        tensor, splits = _bank_world(seed)
        slots, runs = [], []
        for f in range(5):
            for strategy in directional:
                slots.append(directional[strategy])
                runs.append(_bank_spec(splits[f], strategy, seed * 100 + f))
        for strategy in budget:
            for L in (1, 5, 10):
                slots.append(budget[strategy][L])
                runs.append(_bank_spec(splits[0], strategy, seed * 100, L=L))
        slots.append(ablation["random"])
        runs.append(_bank_spec(splits[0], "random", seed * 100))
        for mode in ("current", "full"):
            slots.append(ablation[mode])
            runs.append(_bank_spec(splits[0], "actsense", seed * 100, mode=mode))
        for slot, result in zip(slots, run_all(tensor, runs, jobs)):
            if isinstance(result, Exception):
                raise result
            slot.append(result[0].year_rmse)
    return {"directional": directional, "budget": budget, "ablation": ablation,
            "elapsed": time.perf_counter() - start}


def _mean_improvement(baselines, methods):
    return float(np.mean([relative_improvement(b, m)
                          for b, m in zip(baselines, methods)]))


# ---------------------------------------------------------------------------
# 7. directional result


def test_c07_actsense_beats_random_and_qbc_on_mean_improvement(bank):
    d = bank["directional"]
    act = _mean_improvement(d["random"], d["actsense"])
    qbc = _mean_improvement(d["random"], d["qbc"])
    assert act > 0.0
    assert act >= qbc
    assert bank["elapsed"] < 600.0
    _passed(7, f"mean year-RMSE improvement over random: actsense {act:+.2f}%, "
               f"qbc {qbc:+.2f}% over 5 folds x 10 seeds "
               f"({bank['elapsed']:.0f}s)")


# ---------------------------------------------------------------------------
# 8. budget-sweep shape


def test_c08_budget_sweep_monotone_and_crossing(bank):
    curves = {s: {L: float(np.mean(v)) for L, v in d.items()}
              for s, d in bank["budget"].items()}
    grid = (1, 5, 10)
    for strategy, curve in curves.items():
        assert curve[10] <= curve[1], f"{strategy} worsened with budget: {curve}"
    for L in grid:
        target = curves["random"][L]
        reaching = [Lp for Lp in grid if curves["actsense"][Lp] <= target]
        assert reaching, f"actsense never reaches random's RMSE at L={L}"
        assert min(reaching) <= L
    _passed(8, "year RMSE shrinks with budget and actsense reaches every "
               f"random target at no larger L (actsense {curves['actsense']}, "
               f"random {curves['random']})")


# ---------------------------------------------------------------------------
# 9. ablation ordering


def test_c09_full_uncertainty_at_least_current_only(bank):
    abl = bank["ablation"]
    full = _mean_improvement(abl["random"], abl["full"])
    current = _mean_improvement(abl["random"], abl["current"])
    assert full >= current - 1.0  # ties allowed within 1% absolute
    _passed(9, f"mean improvement full {full:+.2f}% vs current-only "
               f"{current:+.2f}% (ties within 1 point allowed)")


# ---------------------------------------------------------------------------
# 10. dataset-gated reproduction


PUBLISHED_MAX_IMPROVEMENT = {2014: 29.71, 2015: 35.06, 2016: 29.84, 2017: 28.76}


def test_c10_dataport_reproduction_when_dataset_present():
    root = os.environ.get("ACTSENSE_DATAPORT_DIR")
    if not root:
        pytest.skip("set ACTSENSE_DATAPORT_DIR to a directory of Dataport-"
                    "derived austin_<year>.csv files to run the reproduction")
    years = {y: Path(root) / f"austin_{y}.csv" for y in PUBLISHED_MAX_IMPROVEMENT}
    present = {y: p for y, p in years.items() if p.exists()}
    if not present:
        pytest.skip(f"no austin_<year>.csv files found under {root}")

    mc = ModelConfig(rank=2, lambda1=5000.0, lambda2=5000.0, lambda3=5000.0)
    for year, path in present.items():
        tensor, _ = load_csv(path)
        splits = kfold_split(range(tensor.num_homes), k=5, seed=1)
        monthly = {}
        for strategy in ("random", "actsense", "qbc"):
            per_fold = []
            for f in range(5):
                rep = run(tensor, splits[f], strategy, L=5, T=12,
                          model_config=mc, seed=100 + f,
                          kernel_config_kwargs={"sigma_window": 3})
                per_fold.append(rep.mean_rmse)
            monthly[strategy] = np.mean(per_fold, axis=0)
        imps = {s: [relative_improvement(b, m) for b, m in
                    zip(monthly["random"], monthly[s])]
                for s in ("actsense", "qbc")}
        act_max = max(imps["actsense"])
        assert np.mean(imps["actsense"]) > np.mean(imps["qbc"]) > 0.0
        assert abs(act_max - PUBLISHED_MAX_IMPROVEMENT[year]) <= 10.0
        _passed(10, f"{year}: actsense max improvement {act_max:.2f}% within "
                    f"10 points of {PUBLISHED_MAX_IMPROVEMENT[year]}%")
