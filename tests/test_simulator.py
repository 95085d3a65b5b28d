import json

import numpy as np
import pytest

from actsense import (ConfidenceParams, FoldSplit, KernelConfig, ModelConfig,
                      SyntheticConfig, generate_synthetic, kfold_split, run,
                      run_with_state, write_report)
from actsense import NumericalError, als_engine, simulator
from actsense.simulator import SimState, reveal, run_all, step_month


@pytest.fixture(scope="module")
def small_world():
    cfg = SyntheticConfig(num_homes=8, num_appliances=3, num_months=6,
                          true_rank=2, noise_sigma=0.05, seed=17)
    tensor, _ = generate_synthetic(cfg)
    split = FoldSplit(train_homes=(0, 1, 2, 3, 4, 5), validation_homes=(),
                      test_homes=(6, 7))
    lam = 100.0
    mc = ModelConfig(rank=2, lambda1=lam, lambda2=lam, lambda3=lam)
    return tensor, split, mc


def _cp_kc():
    return ConfidenceParams(), KernelConfig(sigma_window=3, horizon=6)


class TestReveal:
    def test_first_month_adds_every_bill(self, small_world):
        tensor, split, mc = small_world
        state = SimState.initial(tensor.readings.shape, seed=0)
        omega = reveal(state, tensor, 0)
        assert len(omega) == tensor.num_homes
        assert omega.mask[:, tensor.aggregate_index, 0].all()

    def test_installed_pair_reading_arrives_next_month(self, small_world):
        tensor, split, mc = small_world
        state = SimState(month=0,
                         omega=reveal(SimState.initial(tensor.readings.shape), tensor, 0),
                         installed={(2, 1): 0}, seed=0)
        omega = reveal(state, tensor, 1)
        assert omega.mask[2, 1, 1]
        assert not omega.mask[2, 1, 0]

    def test_two_installations_accumulate(self, small_world):
        tensor, split, mc = small_world
        omega0 = reveal(SimState.initial(tensor.readings.shape), tensor, 0)
        state = SimState(month=0, omega=omega0, installed={(0, 1): 0}, seed=0)
        omega1 = reveal(state, tensor, 1)
        state = SimState(month=1, omega=omega1, installed={(0, 1): 0, (3, 2): 1},
                         seed=0)
        omega2 = reveal(state, tensor, 2)
        added = omega2.mask & ~omega1.mask
        assert set(zip(*np.nonzero(added))) == ({(i, 0, 2) for i in range(8)}
                                                | {(0, 1, 2), (3, 2, 2)})

    def test_missing_ground_truth_skipped(self, small_world):
        tensor, split, mc = small_world
        readings = tensor.readings.copy()
        mask = tensor.mask.copy()
        mask[1, 2, 1] = False
        from actsense import EnergyTensor
        gappy = EnergyTensor(readings=readings, mask=mask,
                             appliance_names=tensor.appliance_names)
        state = SimState(month=0,
                         omega=reveal(SimState.initial(gappy.readings.shape), gappy, 0),
                         installed={(1, 2): 0}, seed=0)
        omega = reveal(state, gappy, 1)
        assert not omega.mask[1, 2, 1]

    def test_wrong_month_rejected(self, small_world):
        tensor, split, mc = small_world
        with pytest.raises(ValueError):
            reveal(SimState.initial(tensor.readings.shape), tensor, 3)


class TestStepMonth:
    def test_zero_budget_stays_passive(self, small_world):
        tensor, split, mc = small_world
        cp, kc = _cp_kc()
        state = SimState.initial(tensor.readings.shape, seed=1)
        for _ in range(3):
            state, log = step_month(state, tensor, "random", 0, mc, cp, kc, split)
            assert log["pairs"] == []
        assert state.installed == {}
        _, jj, _ = np.nonzero(state.omega.mask)
        assert (jj == tensor.aggregate_index).all()

    def test_fresh_selection_not_observed_same_month(self, small_world):
        tensor, split, mc = small_world
        cp, kc = _cp_kc()
        state, log = step_month(SimState.initial(tensor.readings.shape, seed=2), tensor,
                                "actsense", 2, mc, cp, kc, split)
        for i, j in state.installed:
            assert not state.omega.mask[i, j, 0]

    def test_unknown_strategy_rejected(self, small_world):
        tensor, split, mc = small_world
        cp, kc = _cp_kc()
        with pytest.raises(ValueError):
            step_month(SimState.initial(tensor.readings.shape), tensor, "vbv", 1,
                       mc, cp, kc, split)

    def test_qbc_selection_month_builds_no_precisions(self, small_world, monkeypatch):
        tensor, split, mc = small_world
        cp, kc = _cp_kc()

        def no_stats(*args, **kwargs):
            raise AssertionError("a QBC month built precisions")

        monkeypatch.setattr(als_engine, "accumulate_stats", no_stats)
        state = SimState.initial(tensor.readings.shape, seed=3)
        for _ in range(2):
            state, log = step_month(state, tensor, "qbc", 2, mc, cp, kc, split,
                                    committee_ranks=(1, 2))
            assert len(log["pairs"]) == 2
            assert state.stats is None


class TestRun:
    @pytest.mark.parametrize("strategy", ["actsense", "random", "qbc"])
    def test_deterministic_reports(self, small_world, tmp_path, strategy):
        tensor, split, mc = small_world
        kwargs = dict(model_config=mc, seed=11,
                      kernel_config_kwargs={"sigma_window": 3, "horizon": 6})
        r1 = run(tensor, split, strategy, L=2, T=6, **kwargs)
        r2 = run(tensor, split, strategy, L=2, T=6, **kwargs)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(r1, p1)
        write_report(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_budget_parity_across_strategies(self, small_world):
        tensor, split, mc = small_world
        kwargs = dict(model_config=mc, seed=5,
                      kernel_config_kwargs={"sigma_window": 3, "horizon": 6})
        rep_a = run(tensor, split, "actsense", L=2, T=6, **kwargs)
        rep_r = run(tensor, split, "random", L=2, T=6, **kwargs)
        assert rep_a.omega_sizes == rep_r.omega_sizes
        assert all(len(s["pairs"]) == 2 for s in rep_a.selections)
        assert all(len(s["pairs"]) == 2 for s in rep_r.selections)

    def test_budget_accounting_with_exhaustion(self, small_world):
        tensor, split, mc = small_world
        pool_size = len(split.train_homes) * 3  # 3 breakdown appliances
        _, state = run_with_state(tensor, split, "random", L=4, T=6,
                                  model_config=mc, seed=3,
                                  kernel_config_kwargs={"sigma_window": 3,
                                                        "horizon": 6})
        assert len(state.installed) == min(6 * 4, pool_size)

    def test_omega_monotone_and_reveal_schedule(self, small_world):
        tensor, split, mc = small_world
        cp, kc = _cp_kc()
        state = SimState.initial(tensor.readings.shape, seed=9)
        snapshots = []
        for _ in range(6):
            state, _ = step_month(state, tensor, "actsense", 1, mc, cp, kc, split)
            snapshots.append((state.month, state.omega, dict(state.installed)))
        for (m1, o1, _), (m2, o2, _) in zip(snapshots, snapshots[1:]):
            assert not (o1.mask & ~o2.mask).any()
        final_month, final_omega, installed = snapshots[-1]
        for (x, y), m in installed.items():
            got = np.count_nonzero(final_omega.mask[x, y, :final_month + 1])
            assert got == max(0, final_month - m)

    def test_test_home_breakdown_cells_never_observed(self, small_world):
        tensor, split, mc = small_world
        _, state = run_with_state(tensor, split, "actsense", L=3, T=6,
                                  model_config=mc, seed=13,
                                  kernel_config_kwargs={"sigma_window": 3,
                                                        "horizon": 6})
        ii, jj, kk = np.nonzero(state.omega.mask)
        test_set = set(split.test_homes)
        for i, j in zip(ii, jj):
            if i in test_set:
                assert j == tensor.aggregate_index
        assert all(i not in test_set for i, _ in state.installed)

    def test_single_month_horizon(self, small_world):
        tensor, split, mc = small_world
        rep = run(tensor, split, "actsense", L=2, T=1, model_config=mc, seed=4,
                  kernel_config_kwargs={"sigma_window": 3, "horizon": 6})
        assert len(rep.mean_rmse) == 1 and len(rep.selections) == 1
        assert rep.omega_sizes == [tensor.num_homes]

    def test_report_shapes_and_echo(self, small_world):
        tensor, split, mc = small_world
        rep = run(tensor, split, "qbc", L=1, T=4, model_config=mc, seed=8,
                  committee_ranks=(1, 2), extra_config={"data": "x.csv"})
        assert set(rep.rmse_table) == {"app01", "app02", "app03"}
        assert all(len(v) == 4 for v in rep.rmse_table.values())
        assert rep.config_echo["strategy"] == "qbc"
        assert rep.config_echo["data"] == "x.csv"
        assert json.dumps(rep.config_echo)  # JSON-native

    def test_validation_metrics_present_when_requested(self, small_world):
        tensor, _, mc = small_world
        split = FoldSplit(train_homes=(0, 1, 2, 3), validation_homes=(4, 5),
                          test_homes=(6, 7))
        rep = run(tensor, split, "random", L=1, T=3, model_config=mc, seed=2)
        assert rep.val_mean_rmse is not None and len(rep.val_mean_rmse) == 3
        assert rep.val_year_rmse == pytest.approx(np.mean(rep.val_mean_rmse))

    def test_bad_horizon_rejected(self, small_world):
        tensor, split, mc = small_world
        with pytest.raises(ValueError):
            run(tensor, split, "random", L=1, T=12, model_config=mc)


def test_kfold_split_feeds_run(small_world):
    tensor, _, mc = small_world
    folds = kfold_split(range(tensor.num_homes), k=4, val_fraction=0.25, seed=3)
    rep = run(tensor, folds[0], "random", L=1, T=2, model_config=mc, seed=1)
    assert len(rep.omega_sizes) == 2


class TestRunAll:
    """``run_all``, the runner of every CLI command."""

    @staticmethod
    def _runs(small_world):
        _, split, mc = small_world
        kw = dict(T=3, model_config=mc, committee_ranks=(1, 2),
                  kernel_config_kwargs={"sigma_window": 3, "horizon": 6})
        return [(split, strategy, {**kw, "L": L, "seed": seed})
                for strategy, L, seed in (("actsense", 2, 1), ("random", 1, 2),
                                          ("qbc", 1, 3))]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_equal_solo_runs_in_run_order(self, small_world, jobs):
        tensor = small_world[0]
        runs = self._runs(small_world)
        results = run_all(tensor, runs, jobs)
        assert len(results) == len(runs)
        for (split, strategy, kwargs), (report, state) in zip(runs, results):
            want_report, want_state = run_with_state(tensor, split, strategy, **kwargs)
            assert report == want_report
            for name in ("H", "A", "S"):
                assert np.array_equal(getattr(state.factors, name),
                                      getattr(want_state.factors, name))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_value_error_fills_its_slot(self, small_world, jobs):
        tensor = small_world[0]
        first, second, _ = self._runs(small_world)
        past_the_data = (first[0], first[1], {**first[2], "T": 99})
        results = run_all(tensor, [past_the_data, second], jobs)
        assert isinstance(results[0], ValueError)
        assert str(results[0]) == "T must be in [1, 6]"
        assert results[1][0] == run_with_state(tensor, second[0], second[1],
                                               **second[2])[0]

    def test_a_numerical_error_fills_its_slot(self, small_world, monkeypatch):
        tensor = small_world[0]
        runs = self._runs(small_world)
        real = simulator.run_with_state

        def failing_random(tensor, split, strategy, **kwargs):
            if strategy == "random":
                raise NumericalError("synthetic breakdown")
            return real(tensor, split, strategy, **kwargs)

        monkeypatch.setattr(simulator, "run_with_state", failing_random)
        results = run_all(tensor, runs, 1)
        assert isinstance(results[1], NumericalError)
        assert [r[0].config_echo["strategy"] for r in (results[0], results[2])] == [
            "actsense", "qbc"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_other_errors_propagate(self, small_world, jobs):
        tensor = small_world[0]
        split, strategy, kwargs = self._runs(small_world)[1]
        with pytest.raises(TypeError, match="bogus"):
            run_all(tensor, [(split, strategy, {**kwargs, "bogus": 1})] * 2, jobs)

    def test_states_from_workers_stay_frozen(self, small_world):
        tensor, runs = small_world[0], self._runs(small_world)
        for _, state in run_all(tensor, runs[:2], jobs=2):
            assert not state.omega.mask.flags.writeable
            assert not state.factors.H.flags.writeable

    def test_workers_never_outnumber_the_runs(self, small_world, monkeypatch):
        sizes = []

        class InProcessPool:
            """Records the pool's size and starts no process."""

            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", InProcessPool)
        tensor, runs = small_world[0], self._runs(small_world)
        assert len(run_all(tensor, runs[:2], jobs=8)) == 2
        assert len(run_all(tensor, runs[:1], jobs=8)) == 1  # in this process
        assert len(run_all(tensor, [], jobs=8)) == 0
        assert sizes == [2]
