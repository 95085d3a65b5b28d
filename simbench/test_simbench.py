"""Tests of the benchmark's own checks, tracer and clock.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q simbench

Each check must pass on a real simulation and fail once the output it
guards is corrupted; the tracer must record nested spans and give back
every call it wrapped; the clock must leave its calibration rounds out
of the time and stop its timer.
"""

import copy
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import clock  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from actsense import als_engine, data_io, evaluation, simulator  # noqa: E402
from actsense.tensor_core import LatentFactors  # noqa: E402

HOMES, MONTHS, L = 10, 4, 2


@pytest.fixture(scope="module")
def world():
    tensor, _ = data_io.generate_synthetic(data_io.SyntheticConfig(
        num_homes=HOMES, num_appliances=3, num_months=MONTHS, true_rank=2,
        noise_sigma=0.05, seed=3))
    split = evaluation.kfold_split(range(HOMES), k=5, seed=3)[0]
    return tensor, split


def _simulate(tensor, split, strategy, tmp_path):
    captured = []
    with wl._capture(captured):
        simulator.run_with_state(
            tensor, split, strategy, L=L, T=MONTHS, model_config=wl.model_config(),
            kernel_config_kwargs={"sigma_window": 2, "horizon": MONTHS}, seed=1)
    (report, state, scorings), = captured
    sim = wl.Simulation(strategy, 0, split, report, state, scorings=scorings)
    sim.report_path = tmp_path / f"{strategy}.json"
    data_io.write_report(report, sim.report_path)
    return sim


def _problems(sim, tensor):
    return checks.check_simulation(sim, tensor, wl.model_config(), L, MONTHS,
                                   wl.KernelConfig(sigma_window=2, horizon=MONTHS),
                                   sim.report_path)


@pytest.mark.parametrize("strategy", ["actsense", "random"])
def test_checks_pass_on_real_output(world, tmp_path, strategy):
    tensor, split = world
    assert _problems(_simulate(tensor, split, strategy, tmp_path), tensor) == []


def _corrupt_rmse(sim):
    name = next(iter(sim.report.rmse_table))
    sim.report.rmse_table[name][-1] *= 1.001


def _corrupt_score(sim):
    sim.report.selections[-1]["scores"][0] *= 1.001


def _corrupt_early_score(sim):
    # month 1 of 4 weights months 2 and 3 of the season prior
    sim.report.selections[1]["scores"][0] *= 1.001


def _lost_scoring(sim):
    del sim.scorings[1]


def _reinstall(sim):
    sim.report.selections[-1]["pairs"][0] = list(sim.report.selections[0]["pairs"][0])


def _omega(sim):
    sim.report.omega_sizes[-1] += 1


def _negative_factor(sim):
    f = sim.state.factors
    H = f.H.copy()
    H[0, 0] = -1e-3
    sim.state = simulator.SimState(month=sim.state.month, omega=sim.state.omega,
                                   installed=sim.state.installed,
                                   factors=LatentFactors(H=H, A=f.A, S=f.S, rank=f.rank),
                                   stats=sim.state.stats)


def _stale_file(sim):
    report = copy.deepcopy(sim.report)
    report.omega_sizes = report.omega_sizes[:-1]
    data_io.write_report(report, sim.report_path)


@pytest.mark.parametrize("corrupt", [_corrupt_rmse, _corrupt_score, _corrupt_early_score,
                                     _lost_scoring, _reinstall, _omega,
                                     _negative_factor, _stale_file])
def test_checks_catch_corrupted_output(world, tmp_path, corrupt):
    tensor, split = world
    sim = _simulate(tensor, split, "actsense", tmp_path)
    corrupt(sim)
    assert _problems(sim, tensor)


def test_compare_check_recomputes_improvement(tmp_path):
    def report(monthly):
        return simulator.SimReport(config_echo={}, selections=[], rmse_table={},
                                   mean_rmse=monthly, year_rmse=float(np.mean(monthly)),
                                   omega_sizes=[])
    reports = {"random": [report([10.0, 8.0])], "actsense": [report([9.0, 6.0])]}
    path = tmp_path / "compare.csv"
    rows = ["strategy,month,mean_rmse,improvement_pct",
            "actsense,0,9.0,10.0", "actsense,1,6.0,25.0",
            "random,0,10.0,0.0", "random,1,8.0,0.0"]
    path.write_text("\n".join(rows) + "\n")
    assert checks.check_compare_csv(path, reports, "random") == []
    path.write_text("\n".join(rows).replace("25.0", "24.0") + "\n")
    assert checks.check_compare_csv(path, reports, "random")
    assert checks.check_beats_random(reports) == []
    assert checks.check_beats_random({"random": reports["actsense"],
                                      "actsense": reports["random"]})


def test_tracer_records_nested_spans_and_restores(world):
    tensor, split = world
    original = als_engine.fit
    with tracing.Tracer() as tracer:
        simulator.run_with_state(tensor, split, "actsense", L=L, T=2,
                                 model_config=wl.model_config(), seed=1)
    assert als_engine.fit is original
    summary = tracing.Summary(tracer)
    assert summary.count("als_engine.fits") == 2
    assert summary.ms("als_engine.fit") >= summary.ms("kernels.accumulate_outer") > 0
    fits = [i for i in range(len(tracer))
            if tracer.names[tracer.name_id[i]] == "als_engine.fit"]
    for i in fits:
        parent = tracer.parent[i]
        assert tracer.names[tracer.name_id[parent]] == "simulator.step_month"
        assert tracer.run[i] == tracer.run[fits[0]]
    metrics, absent = tracing.per_layer(summary)
    assert set(metrics) == {m[0] for m in tracing.PER_LAYER}
    assert absent["strategies.qbc_committee_fit_ms"] == "not used by this workload"


def test_tracer_reports_a_removed_function_as_absent():
    gone = tracing.Target("actsense.als_engine:no_such_function", "als_engine.gone")
    tracer = tracing.Tracer(targets=(gone,)).install()
    tracer.remove()
    assert tracer.absent == ["als_engine.gone"]


def test_clock_rounds_leave_the_timed_time_out_and_stop_ticking():
    c = clock.CalibratedClock(tick=0.01)
    start = time.perf_counter()
    with c:
        while time.perf_counter() < start + 0.2:
            pass
    elapsed = time.perf_counter() - start
    assert c.rounds >= 5                     # the ticks cut the interval
    assert 0.0 < c.wall < elapsed            # the rounds are not counted
    assert c.scaled > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    rounds = c.rounds
    signal.getsignal(signal.SIGALRM)(signal.SIGALRM, None)   # a tick queued at stop()
    assert c.rounds == rounds
