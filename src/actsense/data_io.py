"""Dataset ingestion, synthetic data generation and report files.

CSV schema (long format, UTF-8, LF or CRLF):

    home_id,appliance,month,kwh

with ``month`` as YYYY-MM and one row per observed cell.  The aggregate
pseudo-appliance is never part of the file; ingestion reconstructs it at
index 0 as the per-(home, month) sum of the listed appliances.  A cell
absent from the file is treated as never-observable ground truth.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .simulator import SimReport
from .tensor_core import EnergyTensor, LatentFactors

log = logging.getLogger(__name__)

AGGREGATE_NAME = "aggregate"
CSV_HEADER = ["home_id", "appliance", "month", "kwh"]
_MONTH_RE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])$")


@dataclass(frozen=True)
class SyntheticConfig:
    """Low-rank generator settings; appliance count excludes the aggregate."""

    num_homes: int
    num_appliances: int
    num_months: int
    true_rank: int
    noise_sigma: float = 0.05
    season_shape: str = "sinusoidal"
    seed: int = 0
    season_file: str | None = None
    mean_kwh: float = 100.0

    def __post_init__(self):
        if min(self.num_homes, self.num_appliances, self.num_months) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.true_rank < 1:
            raise ValueError("true_rank must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.season_shape not in ("sinusoidal", "flat", "from_file"):
            raise ValueError(f"unknown season_shape {self.season_shape!r}")
        if self.season_shape == "from_file" and not self.season_file:
            raise ValueError("season_shape 'from_file' requires season_file")


@dataclass(frozen=True)
class DatasetManifest:
    source: str
    appliances: tuple
    home_count: int
    month_range: tuple
    checksum: str


def tensor_checksum(tensor: EnergyTensor) -> str:
    digest = hashlib.sha256()
    digest.update(tensor.readings.tobytes())
    digest.update(tensor.mask.tobytes())
    return digest.hexdigest()


def month_labels(T: int, start: str = "2015-01") -> list:
    """T consecutive YYYY-MM labels beginning at ``start``."""
    if not _MONTH_RE.match(start):
        raise ValueError(f"start month {start!r} is not YYYY-MM")
    year, month = int(start[:4]), int(start[5:7])
    out = []
    for _ in range(T):
        out.append(f"{year:04d}-{month:02d}")
        month += 1
        if month > 12:
            month = 1
            year += 1
    return out


def load_csv(path, min_coverage: float = 0.8):
    """Read a long-format CSV into (EnergyTensor, DatasetManifest).

    Appliances observed in fewer than ``min_coverage`` of home-months
    are dropped before the aggregate is reconstructed.
    """
    cells = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if [c.strip() for c in header] != CSV_HEADER:
            raise DataFormatError(f"{path}: header must be {','.join(CSV_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            home, appliance, month, kwh_text = (c.strip() for c in row)
            if appliance == AGGREGATE_NAME:
                raise DataFormatError(
                    f"{path}:{lineno}: appliance label {AGGREGATE_NAME!r} is reserved")
            if not _MONTH_RE.match(month):
                raise DataFormatError(f"{path}:{lineno}: month {month!r} is not YYYY-MM")
            try:
                kwh = float(kwh_text)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad kwh value {kwh_text!r}") from None
            if not np.isfinite(kwh):
                raise DataFormatError(f"{path}:{lineno}: kwh must be finite")
            if kwh < 0:
                raise DataFormatError(f"{path}:{lineno}: negative kwh {kwh}")
            key = (home, appliance, month)
            if key in cells:
                raise DataFormatError(
                    f"{path}:{lineno}: duplicate cell {home}/{appliance}/{month}")
            cells[key] = kwh
    if not cells:
        raise DataFormatError(f"{path}: no data rows")

    homes = sorted({k[0] for k in cells})
    counts = Counter(k[1] for k in cells)
    months = sorted({k[2] for k in cells})
    M, T = len(homes), len(months)

    kept = []
    for label in sorted(counts):
        coverage = counts[label] / (M * T)
        if coverage >= min_coverage:
            kept.append(label)
        else:
            log.info("dropping appliance %r: coverage %.2f below %.2f",
                     label, coverage, min_coverage)
    if not kept:
        raise DataFormatError(f"{path}: no appliance meets coverage {min_coverage}")

    home_idx = {h: i for i, h in enumerate(homes)}
    app_idx = {a: j + 1 for j, a in enumerate(kept)}
    month_idx = {m: k for k, m in enumerate(months)}
    readings = np.zeros((M, len(kept) + 1, T))
    mask = np.zeros((M, len(kept) + 1, T), dtype=bool)
    for (h, a, m), kwh in cells.items():
        if a not in app_idx:
            continue
        readings[home_idx[h], app_idx[a], month_idx[m]] = kwh
        mask[home_idx[h], app_idx[a], month_idx[m]] = True
    readings[:, 0, :] = readings[:, 1:, :].sum(axis=1)
    mask[:, 0, :] = True

    tensor = EnergyTensor(readings=readings, mask=mask,
                          appliance_names=(AGGREGATE_NAME, *kept),
                          aggregate_index=0)
    return tensor, build_manifest(tensor, "csv", months)


def save_csv(tensor: EnergyTensor, path, home_ids=None, months=None) -> None:
    """Write the observed breakdown cells back to the long-format schema."""
    M, _, T = tensor.readings.shape
    if home_ids is None:
        home_ids = [f"h{i:04d}" for i in range(M)]
    if months is None:
        months = month_labels(T)
    if len(home_ids) != M or len(months) != T:
        raise ValueError("home_ids/months lengths must match the tensor")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for i in range(M):
            for j in tensor.breakdown_indices():
                for k in range(T):
                    if tensor.mask[i, j, k]:
                        writer.writerow([home_ids[i], tensor.appliance_names[j],
                                         months[k], repr(float(tensor.readings[i, j, k]))])


def _season_matrix(cfg: SyntheticConfig, rng) -> np.ndarray:
    T, r = cfg.num_months, cfg.true_rank
    if cfg.season_shape == "flat":
        return np.ones((T, r))
    if cfg.season_shape == "from_file":
        S = np.loadtxt(cfg.season_file, delimiter=",", ndmin=2)
        if S.shape != (T, r):
            raise ValueError(f"season file must be {T}x{r}, got {S.shape}")
        if np.any(S < 0):
            raise ValueError("season file entries must be nonnegative")
        return S
    phases = rng.uniform(0.0, 12.0, size=r)
    k = np.arange(T)[:, None]
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * (k + phases[None, :]) / 12.0)


def generate_synthetic(cfg: SyntheticConfig):
    """Sample a low-rank energy tensor; returns (tensor, generating factors).

    The returned factors include the aggregate appliance row (the column
    sum of the breakdown rows), so the noiseless tensor is exactly their
    triple-product reconstruction.  Noise is zero-mean Gaussian with
    standard deviation ``noise_sigma`` times the mean breakdown cell,
    clipped at zero; the aggregate is then re-summed from the noisy
    slices so bills stay consistent with consumption.
    """
    rng = np.random.default_rng(cfg.seed)
    H = 1.0 - rng.random((cfg.num_homes, cfg.true_rank))
    A_break = 1.0 - rng.random((cfg.num_appliances, cfg.true_rank))
    S = _season_matrix(cfg, rng)

    A_full = np.vstack([A_break.sum(axis=0), A_break])
    clean = LatentFactors(H=H, A=A_full, S=S, rank=cfg.true_rank).reconstruct()
    mean_cell = float(clean[:, 1:, :].mean())
    scale = (cfg.mean_kwh / mean_cell) ** (1.0 / 3.0)
    truth = LatentFactors(H=H * scale, A=A_full * scale, S=S * scale,
                          rank=cfg.true_rank)
    clean = truth.reconstruct()

    readings = clean
    if cfg.noise_sigma > 0:
        sd = cfg.noise_sigma * float(clean[:, 1:, :].mean())
        noisy = clean[:, 1:, :] + rng.normal(0.0, sd, size=clean[:, 1:, :].shape)
        noisy = np.maximum(noisy, 0.0)
        readings = np.concatenate([noisy.sum(axis=1, keepdims=True), noisy], axis=1)

    names = (AGGREGATE_NAME, *(f"app{j + 1:02d}" for j in range(cfg.num_appliances)))
    tensor = EnergyTensor(readings=readings,
                          mask=np.ones_like(readings, dtype=bool),
                          appliance_names=names, aggregate_index=0)
    return tensor, truth


def build_manifest(tensor: EnergyTensor, source: str, months=None) -> DatasetManifest:
    if months is None:
        months = month_labels(tensor.num_months)
    return DatasetManifest(source=source, appliances=tensor.appliance_names,
                           home_count=tensor.num_homes,
                           month_range=(months[0], months[-1]),
                           checksum=tensor_checksum(tensor))


def write_manifest(manifest: DatasetManifest, path) -> None:
    payload = {"source": manifest.source, "appliances": list(manifest.appliances),
               "home_count": manifest.home_count,
               "month_range": list(manifest.month_range),
               "checksum": manifest.checksum}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_report(report: SimReport, path) -> None:
    """Serialize a simulation report as JSON (lossless float round-trip)."""
    payload = {
        "config": report.config_echo,
        "selections": report.selections,
        "rmse": report.rmse_table,
        "mean_rmse": report.mean_rmse,
        "year_rmse": report.year_rmse,
        "omega_sizes": report.omega_sizes,
    }
    if report.val_mean_rmse is not None:
        payload["val_mean_rmse"] = report.val_mean_rmse
        payload["val_year_rmse"] = report.val_year_rmse
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def read_report(path) -> SimReport:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    try:
        return SimReport(
            config_echo=payload["config"],
            selections=payload["selections"],
            rmse_table=payload["rmse"],
            mean_rmse=payload["mean_rmse"],
            year_rmse=payload["year_rmse"],
            omega_sizes=payload["omega_sizes"],
            val_mean_rmse=payload.get("val_mean_rmse"),
            val_year_rmse=payload.get("val_year_rmse"),
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing report key {exc}") from exc
