"""Dataset ingestion, synthetic data generation and report files.

CSV schema (long format, UTF-8, LF or CRLF):

    home_id,appliance,month,kwh

with ``month`` as YYYY-MM, the months consecutive, and one row per
observed cell.  The aggregate pseudo-appliance is never part of the file;
ingestion reconstructs it at index 0 as the per-(home, month) sum of the
listed appliances.  A cell absent from the file is treated as
never-observable ground truth.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import re
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .simulator import SimReport
from .tensor_core import EnergyTensor, LatentFactors

log = logging.getLogger(__name__)

AGGREGATE_NAME = "aggregate"
CSV_HEADER = ["home_id", "appliance", "month", "kwh"]
_MONTH_RE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])$", re.ASCII)
# save_csv's record: three labels quoted by _csv_fields, then repr(kWh),
# which never needs quoting
_ROW = "{},{},{},{!r}\n"
# Records parsed by one step of load_csv and written by one of save_csv
CHUNK_RECORDS = 8192


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


class _LabelCoder:
    """One label column's stripped labels, coded as integers in order of
    first appearance.  Each field as read is stripped and looked up once;
    ``check`` runs once per distinct stripped label, and ``faulty`` turns
    True when one fails it."""

    def __init__(self, check=None):
        self.labels = []          # code -> stripped label
        self.faulty = False
        self._check = check
        self._codes = {}          # stripped label -> code
        self._fields = {}         # field as read -> code

    def __call__(self, fields) -> np.ndarray:
        for field in dict.fromkeys(fields):
            if field not in self._fields:
                self._fields[field] = self._code(field.strip())
        return np.fromiter(map(self._fields.__getitem__, fields), np.int64, len(fields))

    def _code(self, label: str) -> int:
        code = self._codes.get(label)
        if code is None:
            code = self._codes[label] = len(self.labels)
            self.labels.append(label)
            self.faulty |= self._check is not None and not self._check(label)
        return code

    def sorted_ranks(self):
        """(labels in sorted order, each code's position among them)."""
        order = sorted(range(len(self.labels)), key=self.labels.__getitem__)
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = np.arange(len(order))
        return [self.labels[c] for c in order], ranks


def _check_record(path, lineno: int, row) -> tuple:
    """One nonblank record's stripped (home, appliance, month), or the
    DataFormatError its first failing check raises.  Duplicates are the
    caller's to find."""
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
    return home, appliance, month


_NO_RECORDS = (*(np.zeros(0, dtype=np.int64),) * 3, np.zeros(0), np.zeros(0, dtype=np.int64))


def _coded_chunk(rows, first_lineno: int, coders):
    """A chunk of records as (home, appliance and month codes, kwh, line
    numbers), the blank records left out; None when a record fails a check
    (duplicates aside)."""
    lengths = set(map(len, rows))
    lines = np.arange(first_lineno, first_lineno + len(rows))
    if 0 in lengths:   # blank records count as lines but hold no cell
        kept = [i for i, row in enumerate(rows) if row]
        rows, lines = [rows[i] for i in kept], lines[kept]
        lengths.discard(0)
    if not rows:
        return _NO_RECORDS
    if lengths != {4}:
        return None
    *fields, kwh_text = zip(*rows)
    codes = [coder(column) for coder, column in zip(coders, fields)]
    try:
        kwh = np.fromiter(map(float, kwh_text), float, len(kwh_text))
    except ValueError:
        return None
    if any(coder.faulty for coder in coders) or not np.isfinite(kwh).all() \
            or (kwh < 0).any():
        return None
    return (*codes, kwh, lines)


def _raise_first_fault(path, coders, columns, rows=(), first_lineno=0):
    """Raise the error of the first faulty record in file order, if any:
    a record of the coded ``columns`` (see :func:`_joined`) whose cell an
    earlier one holds, else the first of ``rows``, the chunk read after
    them and numbered from ``first_lineno``, that fails a check or repeats
    an earlier cell."""
    codes, lines = columns[:3], columns[4]
    sizes = [len(coder.labels) for coder in coders]
    pair = codes[0] * sizes[1] + codes[1]
    if sizes[0] * sizes[1] * sizes[2] >= 2 ** 63:   # renumber the pairs to fit int64
        pair = np.unique(pair, return_inverse=True)[1]
    keys = pair * sizes[2] + codes[2]
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        seen = set()
        for index, key in enumerate(keys.tolist()):
            if key in seen:
                cell = "/".join(c.labels[k[index]] for c, k in zip(coders, codes))
                raise DataFormatError(f"{path}:{lines[index]}: duplicate cell {cell}")
            seen.add(key)
    if not rows:
        return
    seen = set(zip(*(map(c.labels.__getitem__, k.tolist()) for c, k in zip(coders, codes))))
    for lineno, row in enumerate(rows, start=first_lineno):
        if not row:
            continue
        cell = _check_record(path, lineno, row)
        if cell in seen:
            raise DataFormatError(f"{path}:{lineno}: duplicate cell {'/'.join(cell)}")
        seen.add(cell)


def _joined(parts) -> list:
    """The coded chunks' columns, each as one array: home, appliance and
    month codes, kwh, line numbers."""
    return [np.concatenate(column) for column in zip(_NO_RECORDS, *parts)]


def load_csv(path, min_coverage: float = 0.8):
    """Read a long-format CSV into (EnergyTensor, DatasetManifest).

    Records are parsed CHUNK_RECORDS at a time, each check running on a
    chunk's whole columns; when one fails, the first faulty record in file
    order is found again record by record, so the error and its line
    number (records counted from the header as 1, blank ones included)
    are those of a record-at-a-time reader.  Months must be consecutive.
    Appliances observed in fewer than ``min_coverage`` of home-months are
    dropped before the aggregate is reconstructed; a home-month with no
    reading of a kept appliance gets a bill of 0 kWh, logged at INFO.
    """
    if not 0.0 <= min_coverage <= 1.0:
        raise ValueError(f"min_coverage must lie in [0, 1], got {min_coverage}")
    coders = (_LabelCoder(), _LabelCoder(lambda label: label != AGGREGATE_NAME),
              _LabelCoder(_MONTH_RE.match))
    parts = []   # per chunk, as _coded_chunk returns it
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if [c.strip() for c in header] != CSV_HEADER:
            raise DataFormatError(f"{path}: header must be {','.join(CSV_HEADER)}")
        lineno = 2
        while True:
            rows, unreadable = [], None
            try:
                rows.extend(itertools.islice(reader, CHUNK_RECORDS))
            except (csv.Error, UnicodeDecodeError) as exc:
                unreadable = exc   # raised once the records read before it pass
            part = _coded_chunk(rows, lineno, coders)
            if part is None:
                _raise_first_fault(path, coders, _joined(parts), rows, lineno)
            parts.append(part)
            lineno += len(rows)
            if unreadable is not None:
                _raise_first_fault(path, coders, _joined(parts))
                raise unreadable
            if len(rows) < CHUNK_RECORDS:
                break
    columns = _joined(parts)
    del parts
    if not len(columns[3]):
        raise DataFormatError(f"{path}: no data rows")
    _raise_first_fault(path, coders, columns)
    home, appliance, month, kwh, _ = columns

    homes, home_rank = coders[0].sorted_ranks()
    months, month_rank = coders[2].sorted_ranks()
    M, T = len(homes), len(months)
    calendar = month_labels(T, start=months[0])
    if months != calendar:
        missing = next(want for got, want in zip(months, calendar) if got != want)
        raise DataFormatError(
            f"{path}: no rows for month {missing}; months must be consecutive")

    counts = np.bincount(appliance, minlength=len(coders[1].labels)).tolist()
    column = np.zeros(len(counts), dtype=np.int64)   # 0: dropped
    kept = []
    for label, code in sorted(zip(coders[1].labels, range(len(counts)))):
        coverage = counts[code] / (M * T)
        if coverage >= min_coverage:
            kept.append(label)
            column[code] = len(kept)
        else:
            log.info("dropping appliance %r: coverage %.2f below %.2f",
                     label, coverage, min_coverage)
    if not kept:
        raise DataFormatError(f"{path}: no appliance meets coverage {min_coverage}")

    cells = column[appliance] > 0
    index = (home_rank[home[cells]], column[appliance[cells]], month_rank[month[cells]])
    readings = np.zeros((M, len(kept) + 1, T))
    mask = np.zeros((M, len(kept) + 1, T), dtype=bool)
    readings[index] = kwh[cells]
    mask[index] = True
    readings[:, 0, :] = readings[:, 1:, :].sum(axis=1)
    mask[:, 0, :] = True
    unbilled = int(M * T - mask[:, 1:, :].any(axis=1).sum())
    if unbilled:
        log.info("%d home-months have no reading of a kept appliance; "
                 "their aggregate bill reads 0 kWh", unbilled)

    tensor = EnergyTensor(readings=readings, mask=mask,
                          appliance_names=(AGGREGATE_NAME, *kept),
                          aggregate_index=0)
    return tensor, build_manifest(tensor, "csv", months)


def _csv_fields(labels) -> list:
    """Each label as ``csv.writer`` writes it among other fields of a row."""
    out = []
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for label in labels:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow([label, ""])
        out.append(buffer.getvalue()[:-2])   # less the "," and "\n" of the row
    return out


def save_csv(tensor: EnergyTensor, path, home_ids=None, months=None) -> None:
    """Write the observed breakdown cells back to the long-format schema,
    one row per cell in (home, appliance, month) order, CHUNK_RECORDS
    rows at a time."""
    M, _, T = tensor.readings.shape
    if home_ids is None:
        home_ids = [f"h{i:04d}" for i in range(M)]
    if months is None:
        months = month_labels(T)
    if len(home_ids) != M or len(months) != T:
        raise ValueError("home_ids/months lengths must match the tensor")
    breakdown = list(tensor.breakdown_indices())
    fields = [np.array(_csv_fields(labels), dtype=object) for labels in
              (home_ids, [tensor.appliance_names[j] for j in breakdown], months)]
    cells = np.nonzero(tensor.mask[:, breakdown, :])
    kwh = tensor.readings[:, breakdown, :][cells]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for start in range(0, len(kwh), CHUNK_RECORDS):
            chunk = slice(start, start + CHUNK_RECORDS)
            columns = [f[c[chunk]].tolist() for f, c in zip(fields, cells)]
            fh.write("".join(map(_ROW.format, *columns, kwh[chunk].tolist())))


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
    if not isinstance(payload, dict) or not isinstance(payload.get("config", {}), dict):
        raise DataFormatError(f"{path}: a report and its config must be JSON objects")
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
