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
import inspect
import logging
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data_io, evaluation, simulator
from .errors import DataFormatError, NumericalError
from .evaluation import GridSpec, kfold_split, map_tasks, relative_improvement
from .strategies import STRATEGY_NAMES, committee_configs
from .tensor_core import ModelConfig
from .uncertainty import MODES, ConfidenceParams, KernelConfig

class UsageError(Exception):
    """Bad flag values or config keys; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _defaults(fn) -> dict:
    """Parameter defaults of ``fn``, so that the CLI restates none."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


def _list_of(item):
    """Parser of comma-separated ``item`` values; an integer token may also
    be an inclusive range such as "1..20"."""
    def parse(text):
        out = []
        for token in filter(None, (t.strip() for t in str(text).split(","))):
            if item is int and ".." in token:
                lo, hi = token.split("..", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(item(token))
        if not out:
            raise ValueError(f"empty list {text!r}")
        return tuple(out)
    parse.__name__ = f"{item.__name__} list"
    return parse


def _one_of(choices):
    def parse(text):
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not one of {', '.join(choices)}")
        return text
    parse.__name__, parse.metavar = "name", "{" + ",".join(choices) + "}"
    return parse


def _yes_no(text) -> bool:
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected yes or no, got {text!r}")
    return word in ("1", "true", "yes")


_MODEL, _KERNEL, _CONFIDENCE = ModelConfig(), KernelConfig(), ConfidenceParams()
_SPLIT, _LOAD, _RUN = (_defaults(fn) for fn in (kfold_split, data_io.load_csv,
                                                 simulator.run_with_state))

# Every run option: key -> (parser, default).  Config-file values and the
# matching flags go through the same parser.  Unset lambda1..3 and
# alpha_home/alpha_app take the value of lambda and alpha.
_OPTIONS = {
    "strategy": (_one_of(STRATEGY_NAMES), "actsense"),
    "rank": (int, _MODEL.rank),
    "lambda": (float, _MODEL.lambda1),
    "lambda1": (float, None), "lambda2": (float, None), "lambda3": (float, None),
    "sigma": (int, _KERNEL.sigma_window),
    "horizon": (int, _KERNEL.horizon),
    "alpha": (float, _CONFIDENCE.alpha_home),
    "alpha_home": (float, None), "alpha_app": (float, None),
    "L": (int, 5),
    "T": (int, 12),
    "folds": (int, _SPLIT["k"]),
    "val_fraction": (float, _SPLIT["val_fraction"]),
    "seed": (int, None),
    "mode": (_one_of(MODES), _RUN["uncertainty_mode"]),
    "committee": (_list_of(int), _RUN["committee_ranks"]),
    "min_coverage": (float, _LOAD["min_coverage"]),
    "max_sweeps": (int, _MODEL.max_sweeps),
    "tol": (float, _MODEL.tol),
    "sequential": (_yes_no, _RUN["sequential"]),
}


def _checked_seed(seed: int, source: str) -> int:
    """``seed``, which numpy needs nonnegative; a negative one is a usage error."""
    if seed < 0:
        raise UsageError(f"{source} must be >= 0, got {seed}")
    return seed


def _env_seed() -> int:
    """The seed in ``ACTSENSE_SEED``; 0 when it is unset or empty."""
    raw = os.environ.get("ACTSENSE_SEED") or "0"
    try:
        seed = int(raw)
    except ValueError:
        raise UsageError(f"ACTSENSE_SEED must be an integer, got {raw!r}") from None
    return _checked_seed(seed, "ACTSENSE_SEED")


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
            if key not in _OPTIONS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _OPTIONS[key][0](raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
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
    def resolve(cls, args, strategies=None) -> "CliConfig":
        """The options of ``args``; an out-of-range value is a usage error.

        ``strategies`` are the strategies the command runs (by default the
        resolved ``strategy``): the committee is checked only when QBC is
        among them.
        """
        merged = {key: default for key, (_, default) in _OPTIONS.items()}
        if getattr(args, "config", None):
            merged.update(_parse_config_file(args.config))
        merged.update({key: getattr(args, key) for key in _OPTIONS
                       if getattr(args, key, None) is not None})
        if merged["seed"] is None:
            merged["seed"] = _env_seed()
        _checked_seed(merged["seed"], "seed")
        lam, alpha = merged.pop("lambda"), merged.pop("alpha")
        for key in ("lambda1", "lambda2", "lambda3"):
            merged[key] = lam if merged[key] is None else merged[key]
        for key in ("alpha_home", "alpha_app"):
            merged[key] = alpha if merged[key] is None else merged[key]
        resolved = cls(**merged)
        if (resolved.L < 0 or resolved.T < 1 or resolved.folds < 2
                or not 0.0 <= resolved.val_fraction < 1.0):
            raise UsageError("need L >= 0, T >= 1, folds >= 2 and 0 <= val_fraction < 1")
        try:
            model = resolved.model_config()
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if "qbc" in (strategies or (resolved.strategy,)):
            try:
                committee_configs(model, resolved.committee, resolved.seed)
            except ValueError as exc:
                raise UsageError(f"committee {list(resolved.committee)}: {exc}") from None
        return resolved

    def model_config(self) -> ModelConfig:
        return ModelConfig(rank=self.rank, lambda1=self.lambda1,
                           lambda2=self.lambda2, lambda3=self.lambda3,
                           max_sweeps=self.max_sweeps, tol=self.tol, seed=self.seed)

    def run_kwargs(self) -> dict:
        """Keyword arguments of ``simulator.run``/``run_with_state``."""
        return dict(
            L=self.L, T=self.T, model_config=self.model_config(), seed=self.seed,
            confidence=ConfidenceParams(alpha_home=self.alpha_home,
                                        alpha_app=self.alpha_app),
            kernel_config_kwargs={"sigma_window": self.sigma, "horizon": self.horizon},
            uncertainty_mode=self.mode, committee_ranks=self.committee,
            sequential=self.sequential)


def _load_data(args, cfg: CliConfig):
    """(tensor, manifest) of ``--data``; a ``--T`` past its months is a
    usage error."""
    tensor, manifest = data_io.load_csv(args.data, min_coverage=cfg.min_coverage)
    if cfg.T > tensor.num_months:
        raise UsageError(f"--T {cfg.T} exceeds the {tensor.num_months} months in the data")
    return tensor, manifest


def _write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
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
    seed = _checked_seed(args.seed, "seed") if args.seed is not None else _env_seed()
    try:
        cfg = data_io.SyntheticConfig(
            num_homes=args.homes, num_appliances=args.appliances,
            num_months=args.months, true_rank=args.rank, noise_sigma=args.noise,
            season_shape=args.season, seed=seed, season_file=args.season_file)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
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
    (tensor, split, cfg, extra, season_prior) = payload
    report, state = simulator.run_with_state(
        tensor, split, cfg.strategy, season_prior=season_prior,
        extra_config=extra, **cfg.run_kwargs())
    return report, state.factors.S


def cmd_simulate(args) -> int:
    cfg = CliConfig.resolve(args)
    tensor, manifest = _load_data(args, cfg)
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
        payloads.append((tensor, splits[f], cfg, extra, season_prior))

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
    (tensor, split, cfg, strategy, fold, seed) = payload
    report = simulator.run(tensor, split, strategy,
                           **{**cfg.run_kwargs(), "seed": seed})
    return {"strategy": strategy, "L": cfg.L, "fold": fold, "seed": seed,
            "year_rmse": report.year_rmse}


_SWEEP_STRATEGIES = ("actsense", "random")


def cmd_sweep(args) -> int:
    strategies = args.strategies
    if strategies is None and not (args.config
                                   and "strategy" in _parse_config_file(args.config)):
        strategies = _SWEEP_STRATEGIES
    cfg = CliConfig.resolve(args, strategies)
    strategies = strategies or (cfg.strategy,)
    if min(args.L_list) < 0:
        raise UsageError("need L >= 0")
    for seed in args.seeds or ():
        _checked_seed(seed, "--seeds entry")
    tensor, _ = _load_data(args, cfg)

    payloads = []
    for seed in args.seeds or [cfg.seed]:
        splits = kfold_split(range(tensor.num_homes), k=cfg.folds,
                             val_fraction=cfg.val_fraction, seed=seed)
        for strategy in strategies:
            for L in args.L_list:
                for fold in range(cfg.folds):
                    payloads.append((tensor, splits[fold], replace(cfg, L=L),
                                     strategy, fold, seed))
    rows = map_tasks(_sweep_one, payloads, args.jobs)

    _write_csv(args.output, ["strategy", "L", "fold", "seed", "year_rmse"], rows)
    print(f"wrote {len(rows)} sweep rows -> {args.output}")

    for strategy in strategies:
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
    try:
        grid = GridSpec(ranks=args.ranks, lambdas=args.lambdas, sigmas=args.sigmas,
                        L_values=args.L_list)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    tensor, _ = _load_data(args, cfg)
    splits = kfold_split(range(tensor.num_homes), k=cfg.folds,
                         val_fraction=cfg.val_fraction, seed=cfg.seed)
    if not all(split.validation_homes for split in splits):
        raise UsageError("gridsearch scores grid points on validation homes; "
                         "set val_fraction > 0")
    run_kwargs = cfg.run_kwargs()
    del run_kwargs["L"]  # each grid point sets its own budget
    best, rows = evaluation.grid_search(
        tensor, splits, grid, cfg.strategy, run_kwargs.pop("model_config"),
        jobs=args.jobs, **run_kwargs)
    _write_csv(args.output, ["strategy", "rank", "lambda", "sigma", "L",
                             "fold", "year_rmse_val", "year_rmse_test", "error"], rows)
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

    def _option(p, *keys):
        """Flags for run options; unset flags stay None, so the config file
        and the defaults in _OPTIONS fill them."""
        for key in keys:
            parse = _OPTIONS[key][0]
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=parse,
                           metavar=getattr(parse, "metavar", None))

    def _shared(p):
        p.add_argument("--config", default=None, help="key=value config file")
        _option(p, "rank", "lambda", "sigma", "horizon", "alpha", "T", "folds",
                "seed", "mode", "committee", "min_coverage", "max_sweeps", "tol")
        p.add_argument("--jobs", type=int, default=1)

    sim = sub.add_parser("simulate", help="run the monthly deployment loop")
    sim.add_argument("--data", required=True)
    _option(sim, "strategy", "L")
    sim.add_argument("--fold", type=int, default=None,
                     help="run a single fold instead of all")
    sim.add_argument("--sequential", action="store_true", default=None)
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
    swp.add_argument("--strategies", type=_list_of(_OPTIONS["strategy"][0]),
                     default=None,
                     help="default: the config file's strategy, else "
                          + ",".join(_SWEEP_STRATEGIES))
    swp.add_argument("--L", dest="L_list", type=_list_of(int), required=True,
                     help='budgets, e.g. "1..20" or "1,5,10"')
    swp.add_argument("--seeds", type=_list_of(int), default=None,
                     help='e.g. "1,2,3"')
    swp.add_argument("-o", "--output", required=True)
    _shared(swp)
    swp.set_defaults(func=cmd_sweep)

    grd = sub.add_parser("gridsearch", help="exhaustive hyperparameter search")
    grd.add_argument("--data", required=True)
    _option(grd, "strategy")
    axes = GridSpec.default()
    grd.add_argument("--ranks", type=_list_of(int), default=axes.ranks)
    grd.add_argument("--lambdas", type=_list_of(float), default=axes.lambdas)
    grd.add_argument("--sigmas", type=_list_of(int), default=axes.sigmas)
    grd.add_argument("--L", dest="L_list", type=_list_of(int),
                     default=axes.L_values)
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
