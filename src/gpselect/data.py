"""CSV reading and writing, and the in-memory dataset container.

Columns are min-max standardized to [0, 1] at ingestion (the analysis scale);
the per-column (min, max) pairs are retained so new prediction sites can be
mapped with the training statistics instead of being refit.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError

logger = logging.getLogger(__name__)


@dataclass
class Dataset:
    """Design matrix and response on the analysis scale.

    X holds the standardized columns when ``standardization`` is set, raw
    columns otherwise. X_raw always holds the as-ingested values so exports
    round-trip exactly.
    """

    X: np.ndarray
    y: np.ndarray
    column_names: list[str]
    response_name: str = "y"
    X_raw: np.ndarray | None = None
    standardization: list[tuple[float, float]] | None = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.shape[0] != self.y.shape[0]:
            raise DimensionMismatchError(
                f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}"
            )
        if self.X_raw is None:
            self.X_raw = self.X.copy()

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def subset(self, rows) -> "Dataset":
        """Row subset sharing the parent's standardization statistics."""
        rows = np.asarray(rows, dtype=int)
        return Dataset(
            X=self.X[rows],
            y=self.y[rows],
            column_names=list(self.column_names),
            response_name=self.response_name,
            X_raw=self.X_raw[rows],
            standardization=self.standardization,
        )

    def transform_sites(self, X_new_raw: np.ndarray) -> np.ndarray:
        """Map new sites onto the analysis scale with the stored (min, max).

        Sites outside the training range are allowed (extrapolation) but
        logged as a warning.
        """
        X_new_raw = np.atleast_2d(np.asarray(X_new_raw, dtype=float))
        if X_new_raw.shape[1] != self.p:
            raise DimensionMismatchError(
                f"sites have {X_new_raw.shape[1]} columns, training data has {self.p}"
            )
        if self.standardization is None:
            return X_new_raw.copy()
        lo = np.array([s[0] for s in self.standardization])
        hi = np.array([s[1] for s in self.standardization])
        X_new = (X_new_raw - lo) / (hi - lo)
        if np.any((X_new < 0.0) | (X_new > 1.0)):
            logger.warning(
                "prediction sites fall outside the training range; extrapolating"
            )
        return X_new


def _parse_cell(text: str, row: int, col_name: str, path) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"{path}: row {row}, column '{col_name}': non-numeric cell {text!r}"
        ) from None
    if not np.isfinite(value):
        raise ValidationError(
            f"{path}: row {row}, column '{col_name}': non-finite cell {text!r}"
        )
    return value


def _read_columns(path, pick) -> tuple[list[str], np.ndarray]:
    """The stripped header, and the cells of the columns pick(header) indexes
    as finite floats; a name may not repeat, blank rows are skipped, and
    others need one cell per name."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValidationError(f"{path}: empty file, expected a header row") from None
        repeated = sorted({h for h in header if header.count(h) > 1})
        if repeated:
            raise ValidationError(f"{path}: repeated column name(s) in the header: {repeated}")
        idx = pick(header)
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record or (len(record) == 1 and record[0].strip() == ""):
                continue
            if len(record) != len(header):
                raise ValidationError(
                    f"{path}: row {lineno}: expected {len(header)} cells, got {len(record)}"
                )
            rows.append([_parse_cell(record[j], lineno, header[j], path) for j in idx])
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=float)


def minmax_scale(X_raw: np.ndarray, column_names, source) -> tuple[np.ndarray, list]:
    """Columns mapped to [0, 1] by their (min, max), and those pairs; a constant
    column is rejected (source names the data) because the map is undefined."""
    lo = X_raw.min(axis=0)
    hi = X_raw.max(axis=0)
    constant = np.where(hi <= lo)[0]
    if constant.size:
        bad = ", ".join(column_names[int(j)] for j in constant)
        raise ValidationError(f"{source}: constant column(s) under standardization: {bad}")
    return (X_raw - lo) / (hi - lo), [(float(a), float(b)) for a, b in zip(lo, hi)]


def ingest(path, response_column: str, standardize: bool = True) -> Dataset:
    """Read a headered CSV into a Dataset.

    Every cell must parse as a finite float. With ``standardize`` on, feature
    columns go through `minmax_scale`.
    """

    def every_column(header):
        if response_column not in header:
            raise ValidationError(
                f"{path}: response column '{response_column}' not found in header {header}"
            )
        return range(len(header))

    header, table = _read_columns(path, every_column)
    resp_idx = header.index(response_column)
    feature_names = [h for i, h in enumerate(header) if i != resp_idx]
    X_raw = np.delete(table, resp_idx, axis=1)
    X, standardization = (minmax_scale(X_raw, feature_names, path) if standardize
                          else (X_raw, None))
    return Dataset(
        X=X,
        y=table[:, resp_idx],
        column_names=feature_names,
        response_name=response_column,
        X_raw=X_raw,
        standardization=standardization,
    )


def write_csv(header, rows, path) -> None:
    """Write a header row, then rows, as CSV; every CSV output goes through here."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def export_csv(data: Dataset, path) -> None:
    """Write the raw (pre-standardization) table back to CSV.

    Floats are written with repr so ingest(export(d)) reproduces d exactly.
    """
    write_csv([*data.column_names, data.response_name],
              ([repr(float(v)) for v in (*x, y)] for x, y in zip(data.X_raw, data.y)), path)


def read_sites_csv(path, feature_names) -> np.ndarray:
    """Read prediction sites, selecting the named feature columns by header."""

    def named_columns(header):
        missing = [name for name in feature_names if name not in header]
        if missing:
            raise ValidationError(f"{path}: missing feature column(s): {missing}")
        return [header.index(name) for name in feature_names]

    return _read_columns(path, named_columns)[1]


def split_rows(n: int, holdout_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random train/holdout row split (no stratification claimed)."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValidationError("holdout_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_hold = max(1, int(round(holdout_fraction * n)))
    if n_hold >= n:
        raise ValidationError("holdout would leave no training rows")
    return np.sort(perm[n_hold:]), np.sort(perm[:n_hold])
