import numpy as np
import pytest

from actsense import (EnergyTensor, GridSpec, ModelConfig, NumericalError,
                      SyntheticConfig, generate_synthetic, grid_search,
                      kfold_split, mean_rmse,
                      relative_improvement, rmse_appliance_month, year_rmse)
from actsense.evaluation import FoldSplit, map_tasks


def _truth(values):
    values = np.asarray(values, dtype=float)
    M, N, T = values.shape
    names = tuple(["aggregate"] + [f"a{j}" for j in range(N - 1)])
    return EnergyTensor(readings=values, mask=np.ones_like(values, dtype=bool),
                        appliance_names=names)


class TestRmse:
    def test_perfect_predictions(self):
        truth = _truth(np.ones((3, 2, 2)))
        assert rmse_appliance_month(truth.readings.copy(), truth, 1, 0, [0, 1, 2]) == 0.0

    def test_single_home_error(self):
        truth = _truth(np.ones((1, 2, 1)))
        pred = truth.readings + 3.0
        assert rmse_appliance_month(pred, truth, 1, 0, [0]) == 3.0

    def test_two_home_errors(self):
        truth = _truth(np.ones((2, 2, 1)))
        pred = truth.readings.copy()
        pred[0, 1, 0] += 3.0
        pred[1, 1, 0] += 4.0
        assert rmse_appliance_month(pred, truth, 1, 0, [0, 1]) == pytest.approx(
            np.sqrt(25.0 / 2.0))

    def test_empty_test_set_rejected(self):
        truth = _truth(np.ones((1, 2, 1)))
        with pytest.raises(ValueError):
            rmse_appliance_month(truth.readings.copy(), truth, 1, 0, [])

    def test_missing_cells_excluded(self):
        readings = np.ones((2, 2, 1))
        mask = np.ones((2, 2, 1), dtype=bool)
        mask[1, 1, 0] = False
        truth = EnergyTensor(readings=readings, mask=mask,
                             appliance_names=("aggregate", "a0"))
        pred = readings.copy()
        pred[0, 1, 0] += 2.0
        pred[1, 1, 0] += 99.0  # unobserved; must not count
        assert rmse_appliance_month(pred, truth, 1, 0, [0, 1]) == 2.0


class TestAggregates:
    def test_mean_rmse(self):
        assert mean_rmse([0.0, 0.0]) == 0.0
        assert mean_rmse([10.0]) == 10.0
        assert mean_rmse([10.0, 20.0, 30.0]) == 20.0
        # an appliance with no test-home ground truth that month reads NaN
        assert mean_rmse([1.0, np.nan, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean_rmse([])

    def test_year_rmse(self):
        assert year_rmse([3.0] * 12) == 3.0
        assert year_rmse([0.0] * 11 + [12.0]) == 1.0
        series = list(np.linspace(1, 5, 12))
        assert year_rmse(series) == mean_rmse(series)
        assert year_rmse([2.0]) == 2.0 and year_rmse([1.0, 2.0, 6.0]) == 3.0
        with pytest.raises(ValueError):
            year_rmse([])

    def test_relative_improvement(self):
        assert relative_improvement(100.0, 80.0) == 20.0
        assert relative_improvement(100.0, 100.0) == 0.0
        assert relative_improvement(100.0, 120.0) == -20.0
        with pytest.raises(ValueError):
            relative_improvement(0.0, 1.0)


class TestKfold:
    def test_five_homes_five_folds(self):
        folds = kfold_split(range(5), k=5, val_fraction=0.0, seed=0)
        assert all(len(f.test_homes) == 1 for f in folds)

    def test_partition_property(self):
        folds = kfold_split(range(23), k=5, seed=3)
        tests = [h for f in folds for h in f.test_homes]
        assert sorted(tests) == list(range(23))
        for f in folds:
            combined = set(f.train_homes) | set(f.validation_homes) | set(f.test_homes)
            assert combined == set(range(23))

    def test_93_homes_balanced(self):
        folds = kfold_split(range(93), k=5, seed=1)
        sizes = sorted(len(f.test_homes) for f in folds)
        assert sizes == [18, 18, 19, 19, 19]

    def test_validation_is_fifth_of_train_portion(self):
        folds = kfold_split(range(93), k=5, val_fraction=0.2, seed=1)
        for f in folds:
            portion = len(f.train_homes) + len(f.validation_homes)
            assert len(f.validation_homes) == int(portion * 0.2)

    def test_too_few_homes(self):
        with pytest.raises(ValueError):
            kfold_split(range(3), k=5)

    def test_deterministic(self):
        a = kfold_split(range(20), k=4, seed=7)
        b = kfold_split(range(20), k=4, seed=7)
        assert a == b

    def test_pinned_folds(self):
        # every result depends on the split: these folds must not drift
        assert kfold_split(range(11), k=3, val_fraction=0.25, seed=4) == [
            FoldSplit(train_homes=(10, 9, 7, 6, 4, 3), validation_homes=(5,),
                      test_homes=(1, 0, 8, 2)),
            FoldSplit(train_homes=(1, 0, 8, 2, 4, 3), validation_homes=(5,),
                      test_homes=(10, 9, 7, 6)),
            FoldSplit(train_homes=(1, 0, 8, 2, 10, 9), validation_homes=(7, 6),
                      test_homes=(4, 3, 5)),
        ]

    @pytest.mark.parametrize("val_fraction", [1.0, 1.5, -0.5])
    def test_val_fraction_outside_unit_interval_rejected(self, val_fraction):
        with pytest.raises(ValueError, match="val_fraction"):
            kfold_split(range(10), k=2, val_fraction=val_fraction)


@pytest.fixture(scope="module")
def world():
    cfg = SyntheticConfig(num_homes=10, num_appliances=3, num_months=4,
                          true_rank=2, noise_sigma=0.05, seed=30)
    tensor, _ = generate_synthetic(cfg)
    splits = kfold_split(range(10), k=2, val_fraction=0.3, seed=2)
    base = ModelConfig(rank=2, lambda1=50.0, lambda2=50.0, lambda3=50.0,
                       max_sweeps=40)
    return tensor, splits, base


class TestGridSearch:
    def test_default_grid_has_48_points(self):
        assert len(GridSpec.default().points()) == 48

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(ranks=(), lambdas=(1.0,), sigmas=(1,), L_values=(1,))

    @pytest.mark.parametrize("axis, bad", [("ranks", 0), ("lambdas", -5.0),
                                           ("sigmas", 0), ("L_values", -1)])
    def test_out_of_range_axis_rejected(self, axis, bad):
        axes = dict(ranks=(1,), lambdas=(0.0,), sigmas=(1,), L_values=(0,))
        GridSpec(**axes)  # the lowest allowed values
        with pytest.raises(ValueError, match=f"GridSpec.{axis} must be >="):
            GridSpec(**{**axes, axis: (*axes[axis], bad)})

    def test_single_point_grid(self, world):
        tensor, splits, base = world
        grid = GridSpec(ranks=(2,), lambdas=(50.0,), sigmas=(2,), L_values=(1,))
        best, rows = grid_search(tensor, splits, grid, "random", base, T=4, seed=1)
        assert best["rank"] == 2 and best["L"] == 1
        assert len(rows) == 2  # one per fold

    def test_lower_validation_score_wins(self, world):
        tensor, splits, base = world
        grid = GridSpec(ranks=(1, 2), lambdas=(50.0,), sigmas=(2,), L_values=(1,))
        best, rows = grid_search(tensor, splits, grid, "random", base, T=4, seed=1)
        by_rank = {}
        for row in rows:
            by_rank.setdefault(row["rank"], []).append(row["year_rmse_val"])
        means = {r: np.mean(v) for r, v in by_rank.items()}
        assert best["rank"] == min(means, key=means.get)
        assert best["year_rmse_val"] == pytest.approx(min(means.values()))

    def test_result_invariant_to_grid_order(self, world):
        tensor, splits, base = world
        fwd = GridSpec(ranks=(1, 2), lambdas=(50.0, 200.0), sigmas=(2,), L_values=(1,))
        rev = GridSpec(ranks=(2, 1), lambdas=(200.0, 50.0), sigmas=(2,), L_values=(1,))
        best_f, _ = grid_search(tensor, splits, fwd, "random", base, T=4, seed=1)
        best_r, _ = grid_search(tensor, splits, rev, "random", base, T=4, seed=1)
        picked_f = (best_f["rank"], best_f["lambda"])
        picked_r = (best_r["rank"], best_r["lambda"])
        assert picked_f == picked_r

    def test_failed_points_recorded_not_fatal(self, world, monkeypatch):
        tensor, splits, base = world
        grid = GridSpec(ranks=(1, 2), lambdas=(50.0,), sigmas=(2,), L_values=(1,))
        from actsense import simulator
        real_run = simulator.run

        def flaky_run(t, split, strategy, L, T, model_config, **kw):
            if model_config.rank == 1:
                raise NumericalError("synthetic failure")
            return real_run(t, split, strategy, L=L, T=T,
                            model_config=model_config, **kw)

        monkeypatch.setattr("actsense.simulator.run", flaky_run)
        best, rows = grid_search(tensor, splits, grid, "random", base, T=4, seed=1)
        assert best["rank"] == 2
        failed = [r for r in rows if r["error"]]
        assert len(failed) == 2 and all(r["rank"] == 1 for r in failed)
        assert all(r["error"] == "synthetic failure" for r in failed)

    def test_unexpected_errors_propagate(self, world, monkeypatch):
        tensor, splits, base = world
        grid = GridSpec(ranks=(2,), lambdas=(50.0,), sigmas=(2,), L_values=(1,))

        def broken_run(*args, **kwargs):
            raise TypeError("a bug, not a failed grid point")

        monkeypatch.setattr("actsense.simulator.run", broken_run)
        with pytest.raises(TypeError, match="a bug"):
            grid_search(tensor, splits, grid, "random", base, T=4, seed=1)


class TestMapTasks:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_keep_task_order(self, jobs):
        assert map_tasks(abs, [-3, 1, -2, 0, -5], jobs) == [3, 1, 2, 0, 5]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_errors_propagate(self, jobs):
        with pytest.raises(ValueError):
            map_tasks(int, ["1", "not a number"], jobs)
