"""Output checks, run outside the timed region.

Each check recomputes a result from the simulation's own outputs by a
route the program does not take (a plain einsum, the scalar uncertainty
oracle, the observation-count formula), or asserts a property the method
must have.  None compares against a stored copy of earlier output.
Every function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from actsense import als_engine, data_io, uncertainty
from actsense.tensor_core import ModelConfig
from actsense.uncertainty import ConfidenceParams, KernelConfig

RMSE_RTOL = 1e-9      # a change of summation order moves the last bits only
SCORE_RTOL = 1e-12    # score_pairs against the scalar integrated_uncertainty
IMPROVEMENT_ATOL = 1e-9


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


def check_simulation(sim, tensor, model_config: ModelConfig, L: int, T: int,
                     kernel: KernelConfig, report_path) -> list:
    """Every per-simulation check; ``report_path`` is where the report was
    written (by the CLI, or by the benchmark for API-driven runs)."""
    report, state, split = sim.report, sim.state, sim.split
    problems = []
    M = tensor.num_homes
    agg = tensor.aggregate_index
    breakdown = tensor.breakdown_indices()
    names = [tensor.appliance_names[j] for j in breakdown]
    factors = state.factors

    # final-month test RMSE per appliance, from the final factors
    t = T - 1
    test = np.asarray(split.test_homes, dtype=np.int64)
    pred = np.einsum("ir,jr,r->ij", factors.H[test], factors.A, factors.S[t])
    for j, name in zip(breakdown, names):
        want = math.sqrt(float(np.mean((pred[:, j] - tensor.readings[test, j, t]) ** 2)))
        got = report.rmse_table[name][t]
        if not _close(got, want, RMSE_RTOL):
            problems.append(f"month {t} {name}: reported RMSE {got!r}, recomputed {want!r}")

    # the summary figures are the means the report says they are
    for month in range(T):
        want = float(np.mean([report.rmse_table[n][month] for n in names]))
        if not _close(report.mean_rmse[month], want, 1e-12):
            problems.append(f"month {month}: mean RMSE {report.mean_rmse[month]!r} "
                            f"is not the appliance mean {want!r}")
    if not _close(report.year_rmse, float(np.mean(report.mean_rmse)), 1e-12):
        problems.append(f"year RMSE {report.year_rmse!r} is not the monthly mean")

    # every month's actsense scores, by the scalar oracle, from the factors,
    # statistics and season prior that month's selection was given; before
    # the last month the kernel also weights future months of the prior
    if sim.strategy == "actsense":
        if [s.month for s in sim.scorings] != list(range(T)):
            problems.append(f"scorings captured for months "
                            f"{[s.month for s in sim.scorings]}, expected 0..{T - 1}")
        cp = ConfidenceParams()
        for s in sim.scorings:
            # with no season prior given, the program tiles the month's row
            if not np.array_equal(s.season_prior,
                                  np.tile(s.factors.S[s.month], (kernel.horizon, 1))):
                problems.append(f"month {s.month}: season prior is not the tiled "
                                "season row")
            sel = report.selections[s.month]
            for (x, y), score in zip(sel["pairs"], sel["scores"]):
                want = uncertainty.integrated_uncertainty(
                    x, y, s.month, s.factors, s.stats, s.season_prior, cp, kernel, "full")
                if not _close(score, want, SCORE_RTOL):
                    problems.append(f"month {s.month} pair ({x}, {y}): score {score!r}, "
                                    f"scalar oracle {want!r}")

    # selections: distinct, train homes only, never the aggregate, never
    # re-installed, min(L, pool) each month, scores that do not increase
    train = set(split.train_homes)
    pool_total = sum(1 for i in train for j in breakdown if tensor.mask[i, j, :].any())
    installed = {}
    for month, sel in enumerate(report.selections):
        pairs = [tuple(p) for p in sel["pairs"]]
        scores = sel["scores"]
        if sel["month"] != month:
            problems.append(f"selection {month} is labelled month {sel['month']}")
        want_count = min(L, pool_total - len(installed))
        if len(pairs) != want_count:
            problems.append(f"month {month}: {len(pairs)} installs, expected {want_count}")
        if len(scores) != len(pairs):
            problems.append(f"month {month}: {len(scores)} scores for {len(pairs)} pairs")
        for x, y in pairs:
            if x not in train:
                problems.append(f"month {month}: home {x} is not a train home")
            if y == agg or y not in breakdown:
                problems.append(f"month {month}: appliance {y} is not a breakdown appliance")
            if (x, y) in installed:
                problems.append(f"month {month}: pair ({x}, {y}) installed again")
            installed[(x, y)] = month
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"month {month}: scores increase: {scores}")
    if dict(state.installed) != installed:
        problems.append("final state's installs differ from the reported selections")

    # observation count on the fully masked world: every bill each month,
    # plus one reading per month for each pair installed before it
    if not tensor.mask.all():
        problems.append("world is not fully masked; the omega formula does not apply")
    installs = [len(sel["pairs"]) for sel in report.selections]
    for month in range(T):
        want = M * (month + 1) + sum(installs[k] * (month - k) for k in range(month))
        if report.omega_sizes[month] != want:
            problems.append(f"month {month}: omega size {report.omega_sizes[month]}, "
                            f"expected {want}")
    if len(state.omega) != report.omega_sizes[-1]:
        problems.append("final state's observation set differs from the last omega size")

    # final factors are feasible: nonnegative and inside the norm caps
    caps = als_engine.resolve_caps(tensor, model_config)
    for label, mat, cap in (("H", factors.H, caps[0]), ("A", factors.A, caps[1]),
                            ("S", factors.S, caps[2])):
        if mat.min() < 0.0:
            problems.append(f"{label} has a negative entry {mat.min()!r}")
        worst = float(np.linalg.norm(mat, axis=1).max())
        if worst > cap * (1.0 + 1e-12):
            problems.append(f"{label} row norm {worst!r} exceeds cap {cap!r}")

    # the report file reads back equal
    if data_io.read_report(report_path) != report:
        problems.append(f"{report_path} does not read back equal to the report")
    return problems


def check_compare_csv(path, reports_by_strategy, baseline: str) -> list:
    """``actsense compare`` rows against 100*(b-m)/b from the fold reports."""
    monthly = {s: np.mean([r.mean_rmse for r in rs], axis=0)
               for s, rs in reports_by_strategy.items()}
    base = monthly[baseline]
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    seen = set()
    for row in rows:
        strategy, month = row["strategy"], int(row["month"])
        seen.add((strategy, month))
        if strategy not in monthly:
            problems.append(f"compare row for unknown strategy {strategy!r}")
            continue
        m, b = float(monthly[strategy][month]), float(base[month])
        want = 100.0 * (b - m) / b
        if not _close(float(row["mean_rmse"]), m, 1e-12):
            problems.append(f"compare {strategy} month {month}: mean RMSE "
                            f"{row['mean_rmse']}, reports give {m!r}")
        if abs(float(row["improvement_pct"]) - want) > IMPROVEMENT_ATOL:
            problems.append(f"compare {strategy} month {month}: improvement "
                            f"{row['improvement_pct']}, reports give {want!r}")
    want_rows = {(s, t) for s in monthly for t in range(len(base))}
    if seen != want_rows or len(rows) != len(want_rows):
        problems.append(f"compare CSV has {len(rows)} rows, expected {len(want_rows)}")
    return problems


def check_beats_random(reports_by_strategy) -> list:
    """Mean year RMSE of actsense below random's, as acceptance test c07 asserts."""
    act = float(np.mean([r.year_rmse for r in reports_by_strategy["actsense"]]))
    rnd = float(np.mean([r.year_rmse for r in reports_by_strategy["random"]]))
    if act < rnd:
        return []
    return [f"actsense mean year RMSE {act:.4f} is not below random's {rnd:.4f}"]
