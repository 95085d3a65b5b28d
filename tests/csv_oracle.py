"""The record-at-a-time CSV loader and writer that ``actsense.data_io``
used before it read and wrote a chunk of records at a time, kept as the
oracle its tests compare against: ``data_io.save_csv`` must write the same
bytes, and ``data_io.load_csv`` must give the same tensor and manifest or
raise the same error.  The oracle knows nothing of calendar gaps: a file
that skips a month loads here as a shorter tensor.
"""

from __future__ import annotations

import csv
import logging
from collections import Counter

import numpy as np

from actsense.data_io import (AGGREGATE_NAME, CSV_HEADER, _MONTH_RE, build_manifest,
                              month_labels)
from actsense.errors import DataFormatError
from actsense.tensor_core import EnergyTensor

log = logging.getLogger(__name__)


def load_csv(path, min_coverage: float = 0.8):
    """Read a long-format CSV into (EnergyTensor, DatasetManifest).

    Appliances observed in fewer than ``min_coverage`` of home-months
    are dropped before the aggregate is reconstructed.
    """
    if not 0.0 <= min_coverage <= 1.0:
        raise ValueError(f"min_coverage must lie in [0, 1], got {min_coverage}")
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
