"""The benchmark's workloads: how their inputs are built, what one pass
runs, and the loop of timed passes, set-ups and checks around them.

Every workload replays the 12-month deployment loop on a synthetic world
of rank 2, noise 0.05 and 6 appliances plus the aggregate, built the way
the acceptance bank builds its worlds, with lambda = 100 and sigma = 3.

The world, the fold splits and the simulation seed are fixed.  The
benchmark seed permutes the rows of the world's long-format CSV, which
``load_csv`` must read back into the same tensor.  Year RMSE differs
between worlds far more than any regression bound could absorb
(7 to 28 kWh over world seeds 0-15 for ``bank30``), while the work a pass
does is set by the shapes alone, since every fit runs to its sweep cap.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing
from clock import CalibratedClock
from actsense import cli, data_io, evaluation, simulator, strategies
from actsense.tensor_core import ModelConfig
from actsense.uncertainty import ConfidenceParams, KernelConfig

WORLD_SEED = 1          # the acceptance bank's first world
SIM_SEED = 1            # the CLI --seed: folds, initial factors, random draws
APPLIANCES = 6
MONTHS = 12
RANK = 2
NOISE = 0.05
LAMBDA = 100.0
SIGMA = 3
FOLDS = 5
COMMITTEE = (1, 2, 3, 4)

# Set-up is timed in bursts: one before the first pass (at least SETUPS
# set-ups) and one after every pass (at least one), each lasting at least
# SETUP_SECONDS.  The machine's speed flips between states within a
# second, so a single burst would report whichever state it fell in.
SETUPS = 5
SETUP_SECONDS = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    homes: int
    strategies: tuple
    L: int
    folds: tuple
    via_cli: bool


# Why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {w.name: w for w in (
    Workload("bank30", 30, ("actsense", "random"), 5, tuple(range(FOLDS)), True),
    Workload("qbc30", 30, ("qbc",), 5, tuple(range(FOLDS)), False),
    Workload("scale1000", 1000, ("actsense",), 50, (0,), False),
)}


def model_config() -> ModelConfig:
    """The fit settings the CLI resolves from the flags the benchmark passes."""
    return ModelConfig(rank=RANK, lambda1=LAMBDA, lambda2=LAMBDA, lambda3=LAMBDA,
                       seed=SIM_SEED)


def kernel_config() -> KernelConfig:
    return KernelConfig(sigma_window=SIGMA, horizon=MONTHS)


@dataclass
class Inputs:
    tensor: object
    splits: list
    csv_path: Path


class SetupError(RuntimeError):
    """The CSV round trip did not give back the generated world."""


def _permute_rows(path: Path, seed: int) -> None:
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    path.write_text(header + "".join(rows), encoding="utf-8")


def build_inputs(workload: Workload, seed: int, workdir: Path):
    """Build the world, its CSV round trip and the folds.

    Returns (inputs, clock); the clock has timed the program's calls only
    (generating, saving, loading and splitting), not the benchmark's row
    permutation.
    """
    csv_path = workdir / f"{workload.name}.csv"
    clock = CalibratedClock()
    with clock:
        world, _ = data_io.generate_synthetic(data_io.SyntheticConfig(
            num_homes=workload.homes, num_appliances=APPLIANCES, num_months=MONTHS,
            true_rank=RANK, noise_sigma=NOISE, seed=WORLD_SEED))
    with clock:
        data_io.save_csv(world, csv_path)
    _permute_rows(csv_path, seed)
    with clock:
        tensor, _ = data_io.load_csv(csv_path)
    with clock:
        splits = evaluation.kfold_split(range(tensor.num_homes), k=FOLDS, seed=SIM_SEED)

    if (tensor.appliance_names != world.appliance_names
            or not np.array_equal(tensor.readings, world.readings)
            or not np.array_equal(tensor.mask, world.mask)):
        raise SetupError(f"{csv_path}: load_csv did not give back the saved world")
    return Inputs(tensor, splits, csv_path), clock


@dataclass(frozen=True)
class Scoring:
    """The inputs of one month's ``select_actsense`` call."""

    month: int
    factors: object
    stats: object
    season_prior: object


@dataclass
class Simulation:
    """One operation: one strategy on one fold."""

    strategy: str
    fold: int
    split: object
    report: object = None
    state: object = None
    report_path: Path | None = None
    scorings: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.report is None or bool(self.problems)


@dataclass
class PassResult:
    simulations: list
    clock: CalibratedClock | None = None   # timed the pass
    compare_csv: Path | None = None
    problems: list = field(default_factory=list)   # pass-level output faults


@contextlib.contextmanager
def _capture(sink):
    """Keep what the checks need and the program does not hand back: each
    simulation's final state (the CLI writes only the report) and the
    inputs of its monthly actsense scorings.  Appends one
    (report, state, scorings) per simulation that returns."""
    run, select = simulator.run_with_state, strategies.select_actsense
    signature = inspect.signature(select)
    scorings = []

    def capturing_run(*args, **kwargs):
        scorings.clear()
        report, state = run(*args, **kwargs)
        sink.append((report, state, list(scorings)))
        return report, state

    def capturing_select(*args, **kwargs):
        a = signature.bind(*args, **kwargs).arguments
        scorings.append(Scoring(a["t"], a["factors"], a["stats"], a["season_prior"]))
        return select(*args, **kwargs)

    simulator.run_with_state = capturing_run
    strategies.select_actsense = capturing_select
    try:
        yield
    finally:
        simulator.run_with_state = run
        strategies.select_actsense = select


def _api_pass(workload: Workload, inputs: Inputs, clock) -> PassResult:
    sims, captured = [], []
    with clock, _capture(captured):
        for fold in workload.folds:
            for strategy in workload.strategies:
                sim = Simulation(strategy, fold, inputs.splits[fold])
                try:
                    simulator.run_with_state(
                        inputs.tensor, sim.split, strategy, L=workload.L, T=MONTHS,
                        model_config=model_config(), confidence=ConfidenceParams(),
                        kernel_config_kwargs={"sigma_window": SIGMA, "horizon": MONTHS},
                        seed=SIM_SEED, committee_ranks=COMMITTEE,
                        extra_config={"fold": fold, "folds": FOLDS})
                    sim.report, sim.state, sim.scorings = captured.pop()
                except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                    sim.problems.append(traceback.format_exc())
                sims.append(sim)
    return PassResult(sims)


def write_reports(result: PassResult, outdir: Path) -> None:
    """Write the reports the CLI did not write, for the round-trip check."""
    outdir.mkdir(parents=True, exist_ok=True)
    for sim in result.simulations:
        if sim.report is not None and sim.report_path is None:
            sim.report_path = outdir / f"report_{sim.strategy}_fold{sim.fold}.json"
            data_io.write_report(sim.report, sim.report_path)


def _cli_pass(workload: Workload, inputs: Inputs, clock, outdir: Path) -> PassResult:
    common = ["--data", str(inputs.csv_path), "--L", str(workload.L),
              "--T", str(MONTHS), "--lambda", str(LAMBDA), "--sigma", str(SIGMA),
              "--horizon", str(MONTHS), "--folds", str(FOLDS), "--seed", str(SIM_SEED),
              "--jobs", "1"]
    calls = [["simulate", "--strategy", s, *common, "-o", str(outdir / s)]
             for s in workload.strategies]
    compare_csv = outdir / "compare.csv"
    calls.append(["compare", *(str(outdir / s) for s in workload.strategies),
                  "--baseline", "random", "-o", str(compare_csv)])
    captured, codes = [], []
    console = io.StringIO()
    with clock, _capture(captured), contextlib.redirect_stdout(console):
        for argv in calls:
            codes.append(cli.main(argv))

    result = PassResult([], compare_csv=compare_csv)
    by_key = {(r.config_echo.get("strategy"), r.config_echo.get("fold")): (r, s, sc)
              for r, s, sc in captured}
    for strategy, code in zip(workload.strategies, codes):
        for fold in workload.folds:
            sim = Simulation(strategy, fold, inputs.splits[fold])
            if code != 0:
                sim.problems.append(f"actsense simulate --strategy {strategy} "
                                    f"exited {code}")
            elif (strategy, fold) not in by_key:
                sim.problems.append(f"no simulation of {strategy} fold {fold} ran")
            else:
                sim.report, sim.state, sim.scorings = by_key[(strategy, fold)]
                sim.report_path = outdir / strategy / f"report_{strategy}_fold{fold}.json"
                echoed = sim.report.config_echo["split"]
                if [tuple(echoed[k]) for k in ("train", "validation", "test")] != \
                        [sim.split.train_homes, sim.split.validation_homes,
                         sim.split.test_homes]:
                    sim.problems.append(f"the CLI's fold {fold} differs from kfold_split's")
            result.simulations.append(sim)
    if codes[-1] != 0:
        result.problems.append(f"actsense compare exited {codes[-1]}")
    return result


def run_pass(workload: Workload, inputs: Inputs, outdir: Path,
             clock: CalibratedClock) -> PassResult:
    """One pass timed by ``clock``; outputs land in ``outdir`` and are
    checked later."""
    if workload.via_cli:
        result = _cli_pass(workload, inputs, clock, outdir)
    else:
        result = _api_pass(workload, inputs, clock)
    result.clock = clock
    return result


def check_pass(result, outdir, first, workload, inputs):
    """Run every output check on one pass; compare it with the first pass."""
    write_reports(result, outdir)
    mc, kc = model_config(), kernel_config()
    for sim in result.simulations:
        if sim.report is None:
            continue
        sim.problems += checks.check_simulation(sim, inputs.tensor, mc, workload.L,
                                                MONTHS, kc, sim.report_path)
        if first is not None:
            twin = first.get((sim.strategy, sim.fold))
            if twin is None or twin.report != sim.report:
                sim.problems.append("report differs from the first pass's")
    if workload.via_cli:
        reports = {s: [sim.report for sim in result.simulations
                       if sim.strategy == s and sim.report is not None]
                   for s in workload.strategies}
        if all(len(r) == len(workload.folds) for r in reports.values()):
            result.problems += checks.check_compare_csv(result.compare_csv, reports,
                                                        "random")
            result.problems += checks.check_beats_random(reports)
        else:
            result.problems.append("too few reports to check compare and c07")


def _drop_states(result):
    """Free the final states and scorings once checked, so peak memory
    does not grow with the number of passes."""
    for sim in result.simulations:
        sim.state, sim.scorings = None, []


def months_per_s(result: PassResult, rescaled: bool = True) -> float:
    """Month steps per second of the pass, rescaled (see clock.py) or wall."""
    done = sum(1 for sim in result.simulations if sim.report is not None)
    return done * MONTHS / (result.clock.scaled if rescaled else result.clock.wall)


def set_up(workload, seed, work, times, count):
    """A burst of set-ups; appends each one's clock to ``times``."""
    spent, done = 0.0, 0
    while done < count or spent < SETUP_SECONDS:
        inputs, clock = build_inputs(workload, seed, work)
        times.append(clock)
        spent += clock.wall
        done += 1
    return inputs


def untraced_passes(workload, inputs, seed, seconds, work, setup_times):
    """Whole passes until the next would end more than half a pass past
    ``seconds``; every pass is checked once its timer has stopped, and
    followed by a burst of set-ups."""
    passes, first, elapsed = [], None, 0.0
    while True:
        outdir = work / f"pass{len(passes)}"
        result = run_pass(workload, inputs, outdir, CalibratedClock())
        check_pass(result, outdir, first, workload, inputs)
        _drop_states(result)
        set_up(workload, seed, work, setup_times, 1)
        passes.append(result)
        if first is None:
            first = {(s.strategy, s.fold): s for s in result.simulations
                     if s.report is not None}
        elapsed += result.clock.wall
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes, first


def traced_pass(workload, inputs, first, work, trace_path):
    """One pass with every layer wrapped, checked afterwards; the spans are
    written to ``trace_path``.  Returns (pass, span summary, span count)."""
    tracer = tracing.Tracer()
    with tracer:
        # no rounds inside the traced pass, where they would sit in its spans
        traced = run_pass(workload, inputs, work / "traced", CalibratedClock(tick=None))
    check_pass(traced, work / "traced", first, workload, inputs)
    tracer.write(trace_path)
    return traced, tracing.Summary(tracer), len(tracer)
