"""Command-line front end.

Subcommands: ``generate`` (synthetic CSV), ``simulate`` (deployment
runs), ``compare`` (strategy tables), ``sweep`` (budget curves) and
``gridsearch`` (hyperparameter search).  Option precedence is flags >
config file > defaults, with ``ACTSENSE_SEED`` as the only environment
input.  ``--log-level``, given before the subcommand, sets the threshold
of the package's log lines (WARNING by default).  Exit codes: 0 success,
1 usage, 2 runtime/numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data_io, evaluation, simulator
from .errors import DataFormatError, NumericalError
from .evaluation import GridSpec, kfold_split, map_tasks, relative_improvement
from .tensor_core import ModelConfig
from .uncertainty import ConfidenceParams

log = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad flag values or config keys; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_list(text: str) -> list:
    """Parse "1,3,5" and "1..20" (inclusive) forms, mixed by commas."""
    out = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo, hi = token.split("..", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(token))
    if not out:
        raise UsageError(f"empty integer list {text!r}")
    return out


def _float_list(text: str) -> list:
    out = [float(tok) for tok in str(text).split(",") if tok.strip()]
    if not out:
        raise UsageError(f"empty number list {text!r}")
    return out


_CONFIG_FIELDS = {
    "strategy": str, "rank": int, "lambda": float, "lambda1": float,
    "lambda2": float, "lambda3": float, "sigma": int, "horizon": int,
    "alpha": float, "alpha_home": float, "alpha_app": float, "L": int,
    "T": int, "folds": int, "val_fraction": float, "seed": int,
    "mode": str, "committee": str, "min_coverage": float,
    "max_sweeps": int, "tol": float, "sequential": bool,
}

_DEFAULTS = {
    "strategy": "actsense", "rank": 2, "lambda": 5000.0, "lambda1": None,
    "lambda2": None, "lambda3": None, "sigma": 3, "horizon": 12,
    "alpha": 0.1, "alpha_home": None, "alpha_app": None, "L": 5, "T": 12,
    "folds": 5, "val_fraction": 0.2, "seed": None, "mode": "full",
    "committee": "1,2,3,4", "min_coverage": 0.8, "max_sweeps": 100,
    "tol": 1e-6, "sequential": False,
}


def _parse_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            caster = _CONFIG_FIELDS[key]
            try:
                values[key] = raw.lower() in ("1", "true", "yes") if caster is bool \
                    else caster(raw)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from None
    return values


@dataclass(frozen=True)
class CliConfig:
    """Fully resolved run options (flags > config file > defaults)."""

    strategy: str
    rank: int
    lambda1: float
    lambda2: float
    lambda3: float
    sigma: int
    horizon: int
    alpha_home: float
    alpha_app: float
    L: int
    T: int
    folds: int
    val_fraction: float
    seed: int
    mode: str
    committee: tuple
    min_coverage: float
    max_sweeps: int
    tol: float
    sequential: bool

    @classmethod
    def resolve(cls, args) -> "CliConfig":
        merged = dict(_DEFAULTS)
        config_path = getattr(args, "config", None)
        if config_path:
            merged.update(_parse_config_file(config_path))
        for key in _CONFIG_FIELDS:
            flag = getattr(args, key, None)
            if flag is not None and flag is not False:
                merged[key] = flag
        if merged["seed"] is None:
            env = os.environ.get("ACTSENSE_SEED")
            merged["seed"] = int(env) if env else 0
        lam = merged["lambda"]
        resolved = cls(
            strategy=merged["strategy"],
            rank=int(merged["rank"]),
            lambda1=float(lam if merged["lambda1"] is None else merged["lambda1"]),
            lambda2=float(lam if merged["lambda2"] is None else merged["lambda2"]),
            lambda3=float(lam if merged["lambda3"] is None else merged["lambda3"]),
            sigma=int(merged["sigma"]),
            horizon=int(merged["horizon"]),
            alpha_home=float(merged["alpha"] if merged["alpha_home"] is None
                             else merged["alpha_home"]),
            alpha_app=float(merged["alpha"] if merged["alpha_app"] is None
                            else merged["alpha_app"]),
            L=int(merged["L"]),
            T=int(merged["T"]),
            folds=int(merged["folds"]),
            val_fraction=float(merged["val_fraction"]),
            seed=int(merged["seed"]),
            mode=merged["mode"],
            committee=tuple(_int_list(merged["committee"])),
            min_coverage=float(merged["min_coverage"]),
            max_sweeps=int(merged["max_sweeps"]),
            tol=float(merged["tol"]),
            sequential=bool(merged["sequential"]),
        )
        if resolved.L < 0 or resolved.T < 1 or resolved.folds < 2:
            raise UsageError("need L >= 0, T >= 1 and folds >= 2")
        if resolved.mode not in ("full", "current", "current_future"):
            raise UsageError(f"unknown uncertainty mode {resolved.mode!r}")
        return resolved

    def model_config(self) -> ModelConfig:
        return ModelConfig(rank=self.rank, lambda1=self.lambda1,
                           lambda2=self.lambda2, lambda3=self.lambda3,
                           max_sweeps=self.max_sweeps, tol=self.tol,
                           seed=self.seed)

    def confidence(self) -> ConfidenceParams:
        return ConfidenceParams(alpha_home=self.alpha_home, alpha_app=self.alpha_app)


def _write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n",
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def _report_label(config_echo: dict) -> str:
    strategy = config_echo["strategy"]
    mode = config_echo.get("uncertainty_mode", "full")
    if strategy == "actsense" and mode != "full":
        return f"{strategy}-{mode}"
    return strategy


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    for name in ("homes", "appliances", "months", "rank"):
        if getattr(args, name) < 1:
            raise UsageError(f"--{name} must be >= 1")
    if args.noise < 0:
        raise UsageError("--noise must be >= 0")
    cfg = data_io.SyntheticConfig(
        num_homes=args.homes, num_appliances=args.appliances,
        num_months=args.months, true_rank=args.rank, noise_sigma=args.noise,
        season_shape=args.season, seed=args.seed if args.seed is not None
        else int(os.environ.get("ACTSENSE_SEED", "0") or 0),
        season_file=args.season_file)
    tensor, _ = data_io.generate_synthetic(cfg)
    months = data_io.month_labels(args.months, start=args.start_month)
    out = Path(args.output)
    data_io.save_csv(tensor, out, months=months)
    manifest = data_io.build_manifest(tensor, "synthetic", months)
    data_io.write_manifest(manifest, out.with_suffix(".manifest.json"))
    print(f"wrote {out} ({tensor.num_homes} homes x {tensor.num_appliances} "
          f"appliance slices x {tensor.num_months} months, "
          f"checksum {manifest.checksum[:12]})")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _simulate_fold(payload):
    """(report, fitted season factors of the last month) of one fold."""
    (tensor, split, cfg, fold_index, extra, season_prior) = payload
    report, state = simulator.run_with_state(
        tensor, split, cfg.strategy, L=cfg.L, T=cfg.T,
        model_config=cfg.model_config(), confidence=cfg.confidence(),
        kernel_config_kwargs={"sigma_window": cfg.sigma, "horizon": cfg.horizon},
        seed=cfg.seed, season_prior=season_prior, uncertainty_mode=cfg.mode,
        committee_ranks=cfg.committee, sequential=cfg.sequential,
        extra_config=extra)
    return report, state.factors.S


def cmd_simulate(args) -> int:
    cfg = CliConfig.resolve(args)
    tensor, manifest = data_io.load_csv(args.data, min_coverage=cfg.min_coverage)
    if cfg.T > tensor.num_months:
        raise UsageError(f"--T {cfg.T} exceeds the {tensor.num_months} months in the data")
    splits = kfold_split(range(tensor.num_homes), k=cfg.folds,
                         val_fraction=cfg.val_fraction, seed=cfg.seed)
    fold_ids = [args.fold] if args.fold is not None else list(range(cfg.folds))
    if any(f < 0 or f >= cfg.folds for f in fold_ids):
        raise UsageError(f"--fold must be in [0, {cfg.folds})")
    season_prior = None
    if args.season_prior:
        season_prior = np.loadtxt(args.season_prior, delimiter=",", ndmin=2)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    payloads = []
    for f in fold_ids:
        extra = {"data": str(args.data), "checksum": manifest.checksum,
                 "fold": f, "folds": cfg.folds}
        payloads.append((tensor, splits[f], cfg, f, extra, season_prior))

    results = map_tasks(_simulate_fold, payloads, args.jobs)

    label = _report_label({"strategy": cfg.strategy, "uncertainty_mode": cfg.mode})
    for f, (report, _) in zip(fold_ids, results):
        path = outdir / f"report_{label}_fold{f}.json"
        data_io.write_report(report, path)
        print(f"fold {f}: year RMSE {report.year_rmse:.4f} -> {path}")

    if args.save_season:
        np.savetxt(args.save_season, results[0][1], delimiter=",")
        print(f"wrote fitted season factors of fold {fold_ids[0]} -> "
              f"{args.save_season}")
    return 0


# ---------------------------------------------------------------------------
# compare


def _collect_reports(paths):
    files = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.glob("*.json")))
        else:
            files.append(p)
    reports = [data_io.read_report(p) for p in files]
    if not reports:
        raise UsageError("no report files found")
    return reports


def cmd_compare(args) -> int:
    reports = _collect_reports(args.reports)
    keys = [(r.config_echo.get("checksum"), r.config_echo.get("seed"),
             r.config_echo.get("T"), r.config_echo.get("L")) for r in reports]
    if len(set(keys)) != 1:
        raise ValueError("reports mix datasets, seeds, horizons or budgets; "
                         "comparisons must share data/splits/seeds")
    groups = {}
    for r in reports:
        groups.setdefault(_report_label(r.config_echo), []).append(r)
    fold_sets = {label: tuple(sorted(r.config_echo.get("fold", 0) for r in rs))
                 for label, rs in groups.items()}
    if len(set(fold_sets.values())) != 1:
        raise ValueError(f"report groups cover different folds: {fold_sets}")
    if args.baseline not in groups:
        raise UsageError(f"baseline {args.baseline!r} not among reports "
                         f"({sorted(groups)})")

    monthly = {label: np.mean([r.mean_rmse for r in rs], axis=0)
               for label, rs in groups.items()}
    base = monthly[args.baseline]
    T = len(base)
    rows = []
    summary = []
    for label in sorted(groups):
        imps = [relative_improvement(base[t], monthly[label][t]) for t in range(T)]
        for t in range(T):
            rows.append({"strategy": label, "month": t,
                         "mean_rmse": monthly[label][t],
                         "improvement_pct": imps[t]})
        summary.append({"strategy": label,
                        "max_improvement_pct": max(imps),
                        "mean_improvement_pct": float(np.mean(imps))})
        print(f"{label}: max improvement {max(imps):.2f}%, "
              f"mean {np.mean(imps):.2f}% vs {args.baseline}")
    if args.output:
        _write_csv(args.output, ["strategy", "month", "mean_rmse",
                                 "improvement_pct"], rows)
    if args.summary_out:
        _write_csv(args.summary_out, ["strategy", "max_improvement_pct",
                                      "mean_improvement_pct"], summary)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_one(payload):
    (tensor, split, cfg, strategy, L, fold, seed) = payload
    report = simulator.run(
        tensor, split, strategy, L=L, T=cfg.T, model_config=cfg.model_config(),
        confidence=cfg.confidence(),
        kernel_config_kwargs={"sigma_window": cfg.sigma, "horizon": cfg.horizon},
        seed=seed, uncertainty_mode=cfg.mode, committee_ranks=cfg.committee)
    return {"strategy": strategy, "L": L, "fold": fold, "seed": seed,
            "year_rmse": report.year_rmse}


def cmd_sweep(args) -> int:
    cfg = CliConfig.resolve(args)
    tensor, _ = data_io.load_csv(args.data, min_coverage=cfg.min_coverage)
    strategies_list = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for s in strategies_list:
        if s not in ("actsense", "random", "qbc"):
            raise UsageError(f"unknown strategy {s!r}")
    L_values = _int_list(args.L_list)
    seeds = _int_list(args.seeds) if args.seeds else [cfg.seed]

    payloads = []
    for seed in seeds:
        splits = kfold_split(range(tensor.num_homes), k=cfg.folds,
                             val_fraction=cfg.val_fraction, seed=seed)
        for strategy in strategies_list:
            for L in L_values:
                for fold in range(cfg.folds):
                    payloads.append((tensor, splits[fold], cfg, strategy, L,
                                     fold, seed))
    rows = map_tasks(_sweep_one, payloads, args.jobs)

    _write_csv(args.output, ["strategy", "L", "fold", "seed", "year_rmse"], rows)
    print(f"wrote {len(rows)} sweep rows -> {args.output}")

    for strategy in strategies_list:
        by_L = {}
        for row in rows:
            if row["strategy"] == strategy:
                by_L.setdefault(row["L"], []).append(row["year_rmse"])
        means = {L: float(np.mean(v)) for L, v in by_L.items()}
        lo, hi = min(means), max(means)
        if len(means) > 1 and means[hi] > means[lo]:
            print(f"warning: {strategy}: mean year RMSE at L={hi} "
                  f"({means[hi]:.4f}) exceeds L={lo} ({means[lo]:.4f})")
    return 0


# ---------------------------------------------------------------------------
# gridsearch


def cmd_gridsearch(args) -> int:
    cfg = CliConfig.resolve(args)
    tensor, _ = data_io.load_csv(args.data, min_coverage=cfg.min_coverage)
    grid = GridSpec(ranks=tuple(_int_list(args.ranks)),
                    lambdas=tuple(_float_list(args.lambdas)),
                    sigmas=tuple(_int_list(args.sigmas)),
                    L_values=tuple(_int_list(args.L_list)))
    splits = kfold_split(range(tensor.num_homes), k=cfg.folds,
                         val_fraction=cfg.val_fraction, seed=cfg.seed)
    best, rows = evaluation.grid_search(
        tensor, splits, grid, cfg.strategy, cfg.model_config(), T=cfg.T,
        seed=cfg.seed, confidence=cfg.confidence(), uncertainty_mode=cfg.mode,
        committee_ranks=cfg.committee, horizon=cfg.horizon, jobs=args.jobs)
    _write_csv(args.output, ["strategy", "rank", "lambda", "sigma", "L",
                             "fold", "year_rmse_val", "year_rmse_test"], rows)
    if best is None:
        print("every grid point failed; see the table for errors", file=sys.stderr)
        return 2
    print(f"best: rank={best['rank']} lambda={best['lambda']} "
          f"sigma={best['sigma']} L={best['L']} "
          f"(validation year RMSE {best['year_rmse_val']:.4f})")
    if args.best_out:
        with open(args.best_out, "w", encoding="utf-8") as fh:
            fh.write(f"strategy={best['strategy']}\nrank={best['rank']}\n"
                     f"lambda={best['lambda']}\nsigma={best['sigma']}\n"
                     f"L={best['L']}\n")
        print(f"wrote winning config -> {args.best_out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="actsense",
                     description="Active sensor deployment simulator for "
                                 "monthly energy breakdown")
    parser.add_argument("--log-level", default="WARNING",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="threshold of the package's log lines on stderr")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a synthetic dataset CSV")
    gen.add_argument("--homes", type=int, required=True)
    gen.add_argument("--appliances", type=int, required=True)
    gen.add_argument("--months", type=int, required=True)
    gen.add_argument("--rank", type=int, default=2)
    gen.add_argument("--noise", type=float, default=0.05)
    gen.add_argument("--season", choices=("sinusoidal", "flat", "from_file"),
                     default="sinusoidal")
    gen.add_argument("--season-file", default=None)
    gen.add_argument("--start-month", default="2015-01")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    def _shared(p):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--rank", type=int, default=None)
        p.add_argument("--lambda", dest="lambda", type=float, default=None)
        p.add_argument("--sigma", type=int, default=None)
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--T", type=int, default=None)
        p.add_argument("--folds", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=("full", "current", "current_future"),
                       default=None)
        p.add_argument("--committee", default=None)
        p.add_argument("--min-coverage", dest="min_coverage", type=float,
                       default=None)
        p.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--jobs", type=int, default=1)

    sim = sub.add_parser("simulate", help="run the monthly deployment loop")
    sim.add_argument("--data", required=True)
    sim.add_argument("--strategy", choices=("actsense", "random", "qbc"),
                     default=None)
    sim.add_argument("--L", type=int, default=None)
    sim.add_argument("--fold", type=int, default=None,
                     help="run a single fold instead of all")
    sim.add_argument("--sequential", action="store_true", default=False)
    sim.add_argument("--season-prior", default=None,
                     help="CSV of season factor rows from an earlier year")
    sim.add_argument("--save-season", default=None,
                     help="write the fitted season factors of the first fold")
    sim.add_argument("-o", "--output", required=True, help="report directory")
    _shared(sim)
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="tabulate strategies against a baseline")
    cmp_.add_argument("reports", nargs="+", help="report files or directories")
    cmp_.add_argument("--baseline", default="random")
    cmp_.add_argument("-o", "--output", default=None)
    cmp_.add_argument("--summary-out", default=None)
    cmp_.set_defaults(func=cmd_compare)

    swp = sub.add_parser("sweep", help="year RMSE versus monthly budget L")
    swp.add_argument("--data", required=True)
    swp.add_argument("--strategies", default="actsense,random")
    swp.add_argument("--L", dest="L_list", required=True,
                     help='budgets, e.g. "1..20" or "1,5,10"')
    swp.add_argument("--seeds", default=None, help='e.g. "1,2,3"')
    swp.add_argument("-o", "--output", required=True)
    _shared(swp)
    swp.set_defaults(func=cmd_sweep)

    grd = sub.add_parser("gridsearch", help="exhaustive hyperparameter search")
    grd.add_argument("--data", required=True)
    grd.add_argument("--strategy", choices=("actsense", "random", "qbc"),
                     default=None)
    grd.add_argument("--ranks", default="1,2,3,4")
    grd.add_argument("--lambdas", default="5000,8000,10000")
    grd.add_argument("--sigmas", default="1,3,6,12")
    grd.add_argument("--L", dest="L_list", default="5")
    grd.add_argument("--best-out", default=None)
    grd.add_argument("-o", "--output", required=True)
    _shared(grd)
    grd.set_defaults(func=cmd_gridsearch)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    package_log = logging.getLogger("actsense")
    previous_level = package_log.level
    package_log.setLevel(args.log_level)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, DataFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        package_log.setLevel(previous_level)


if __name__ == "__main__":
    sys.exit(main())
