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
import itertools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import data_io, simulator
from .errors import DataFormatError, NumericalError
from .evaluation import GridSpec, kfold_split, relative_improvement
from .strategies import STRATEGY_NAMES, committee_configs
from .tensor_core import ModelConfig
from .uncertainty import MODES, ConfidenceParams, KernelConfig

log = logging.getLogger(__name__)


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


def _jobs(text) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


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


def _resolve(args, strategies=None) -> dict:
    """The run options of ``args`` (flags > config file > defaults), with
    unset lambda1..3 and alpha_home/alpha_app filled from lambda and alpha,
    which are dropped; an out-of-range value is a usage error.

    ``strategies`` are the strategies the command runs (by default the
    resolved ``strategy``): the committee is checked only when QBC is
    among them.
    """
    opts = {key: default for key, (_, default) in _OPTIONS.items()}
    if getattr(args, "config", None):
        opts.update(_parse_config_file(args.config))
    opts.update({key: getattr(args, key) for key in _OPTIONS
                 if getattr(args, key, None) is not None})
    if opts["seed"] is None:
        opts["seed"] = _env_seed()
    _checked_seed(opts["seed"], "seed")
    lam, alpha = opts.pop("lambda"), opts.pop("alpha")
    for key in ("lambda1", "lambda2", "lambda3"):
        opts[key] = lam if opts[key] is None else opts[key]
    for key in ("alpha_home", "alpha_app"):
        opts[key] = alpha if opts[key] is None else opts[key]
    if (opts["L"] < 0 or opts["T"] < 1 or opts["folds"] < 2
            or not 0.0 <= opts["val_fraction"] < 1.0
            or not 0.0 <= opts["min_coverage"] <= 1.0):
        raise UsageError("need L >= 0, T >= 1, folds >= 2, 0 <= val_fraction < 1 "
                         "and 0 <= min_coverage <= 1")
    try:
        run = _run_kwargs(opts)   # builds the model config and alphas
        KernelConfig(**run["kernel_config_kwargs"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if "qbc" in (strategies or (opts["strategy"],)):
        try:
            committee_configs(run["model_config"], opts["committee"], opts["seed"])
        except ValueError as exc:
            raise UsageError(f"committee {list(opts['committee'])}: {exc}") from None
    return opts


def _run_kwargs(opts) -> dict:
    """Keyword arguments of ``simulator.run_with_state`` for the resolved
    ``opts``; the model seed is the run seed."""
    model = ModelConfig(rank=opts["rank"], lambda1=opts["lambda1"],
                        lambda2=opts["lambda2"], lambda3=opts["lambda3"],
                        max_sweeps=opts["max_sweeps"], tol=opts["tol"], seed=opts["seed"])
    return dict(
        L=opts["L"], T=opts["T"], model_config=model, seed=opts["seed"],
        confidence=ConfidenceParams(alpha_home=opts["alpha_home"],
                                    alpha_app=opts["alpha_app"]),
        kernel_config_kwargs={"sigma_window": opts["sigma"], "horizon": opts["horizon"]},
        uncertainty_mode=opts["mode"], committee_ranks=opts["committee"],
        sequential=opts["sequential"])


def _load_data(args, opts):
    """(tensor, manifest) of ``--data``; a ``--T`` past its months is a
    usage error."""
    tensor, manifest = data_io.load_csv(args.data, min_coverage=opts["min_coverage"])
    if opts["T"] > tensor.num_months:
        raise UsageError(f"--T {opts['T']} exceeds the {tensor.num_months} months "
                         "in the data")
    return tensor, manifest


def _run_all(tensor, runs, jobs):
    """``simulator.run_all``'s (report, state) pairs; the first run that
    failed raises its error."""
    results = simulator.run_all(tensor, runs, jobs)
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


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


def cmd_simulate(args) -> int:
    opts = _resolve(args)
    folds = opts["folds"]
    fold_ids = [args.fold] if args.fold is not None else list(range(folds))
    if any(f < 0 or f >= folds for f in fold_ids):
        raise UsageError(f"--fold must be in [0, {folds})")
    tensor, manifest = _load_data(args, opts)
    splits = kfold_split(range(tensor.num_homes), k=folds,
                         val_fraction=opts["val_fraction"], seed=opts["seed"])
    season_prior = None
    if args.season_prior:
        season_prior = np.loadtxt(args.season_prior, delimiter=",", ndmin=2)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    run_kwargs = _run_kwargs(opts)
    runs = [(splits[f], opts["strategy"],
             {**run_kwargs, "season_prior": season_prior,
              "extra_config": {"data": str(args.data), "checksum": manifest.checksum,
                               "fold": f, "folds": folds}})
            for f in fold_ids]
    results = _run_all(tensor, runs, args.jobs)

    label = _report_label({"strategy": opts["strategy"], "uncertainty_mode": opts["mode"]})
    for f, (report, _) in zip(fold_ids, results):
        path = outdir / f"report_{label}_fold{f}.json"
        data_io.write_report(report, path)
        print(f"fold {f}: year RMSE {report.year_rmse:.4f} -> {path}")

    if args.save_season:
        np.savetxt(args.save_season, results[0][1].factors.S, delimiter=",")
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


_SWEEP_STRATEGIES = ("actsense", "random")


def cmd_sweep(args) -> int:
    strategies = args.strategies
    if strategies is None and not (args.config
                                   and "strategy" in _parse_config_file(args.config)):
        strategies = _SWEEP_STRATEGIES
    opts = _resolve(args, strategies)
    strategies = strategies or (opts["strategy"],)
    if min(args.L_list) < 0:
        raise UsageError("need L >= 0")
    for seed in args.seeds or ():
        _checked_seed(seed, "--seeds entry")
    tensor, _ = _load_data(args, opts)

    seeds = args.seeds or [opts["seed"]]
    splits = {seed: kfold_split(range(tensor.num_homes), k=opts["folds"],
                                val_fraction=opts["val_fraction"], seed=seed)
              for seed in seeds}
    keys = list(itertools.product(seeds, strategies, args.L_list, range(opts["folds"])))
    runs = [(splits[seed][fold], strategy, _run_kwargs({**opts, "L": L, "seed": seed}))
            for seed, strategy, L, fold in keys]
    rows = [{"strategy": strategy, "L": L, "fold": fold, "seed": seed,
             "year_rmse": report.year_rmse}
            for (seed, strategy, L, fold), (report, _) in
            zip(keys, _run_all(tensor, runs, args.jobs))]

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
    opts = _resolve(args)
    if opts["val_fraction"] == 0:  # above 0, kfold_split gives every fold a validation home
        raise UsageError("gridsearch scores grid points on validation homes; "
                         "set val_fraction > 0")
    try:
        grid = GridSpec(ranks=args.ranks, lambdas=args.lambdas, sigmas=args.sigmas,
                        L_values=args.L_list)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    tensor, _ = _load_data(args, opts)
    splits = kfold_split(range(tensor.num_homes), k=opts["folds"],
                         val_fraction=opts["val_fraction"], seed=opts["seed"])
    strategy, points, k = opts["strategy"], grid.points(), len(splits)
    runs = [(split, strategy,
             _run_kwargs({**opts, "rank": rank, "lambda1": lam, "lambda2": lam,
                          "lambda3": lam, "sigma": sigma, "L": L}))
            for rank, lam, sigma, L in points for split in splits]
    rows = []
    for n, result in enumerate(simulator.run_all(tensor, runs, args.jobs)):
        p, f = divmod(n, k)
        if isinstance(result, Exception):
            log.warning("grid point %d fold %d failed: %s", p, f, result)
            val_yr, test_yr, error = float("nan"), float("nan"), str(result)
        else:
            val_yr, test_yr, error = result[0].val_year_rmse, result[0].year_rmse, None
        rank, lam, sigma, L = points[p]
        rows.append({"strategy": strategy, "rank": rank, "lambda": lam, "sigma": sigma,
                     "L": L, "fold": f, "year_rmse_val": val_yr,
                     "year_rmse_test": test_yr, "error": error})
    _write_csv(args.output, ["strategy", "rank", "lambda", "sigma", "L",
                             "fold", "year_rmse_val", "year_rmse_test", "error"], rows)

    # a point scores its fold-mean validation RMSE; NaN when a fold failed
    means = [float(np.mean([row["year_rmse_val"] for row in rows[p * k:(p + 1) * k]]))
             for p in range(len(points))]
    scored = [p for p, mean in enumerate(means) if not np.isnan(mean)]
    if not scored:
        print("every grid point failed; see the table for errors", file=sys.stderr)
        return 2
    p_best = min(scored, key=means.__getitem__)  # the first point on ties
    rank, lam, sigma, L = points[p_best]
    print(f"best: rank={rank} lambda={lam} sigma={sigma} L={L} "
          f"(validation year RMSE {means[p_best]:.4f})")
    if args.best_out:
        with open(args.best_out, "w", encoding="utf-8") as fh:
            fh.write(f"strategy={strategy}\nrank={rank}\nlambda={lam}\n"
                     f"sigma={sigma}\nL={L}\n")
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
        p.add_argument("--jobs", type=_jobs, default=1)

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
    logging.basicConfig(level=logging.WARNING, format=simulator.LOG_FORMAT)
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
