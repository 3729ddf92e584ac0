"""Synthetic data generation and CSV dataset ingestion.

All randomness flows through numpy's Philox counter-based bit generator so
that a given seed produces the same dataset on every platform.  Draw order
is fixed: all of X first, then all noise terms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, MalformedCsv, NonNumericCell, RaggedRow

__all__ = ["Dataset", "SimConfig", "simulate_linear", "load_csv", "save_csv", "make_rng"]


SEED_BOUND = 2**128  # Philox takes keys below this


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """The package-wide RNG: Philox (counter-based), keyed by the seed (< ``SEED_BOUND``),
    or given a ``stream`` of keys by ``SeedSequence([seed, *stream])``, one for each (seed, *stream)."""
    bits = np.random.Philox(np.random.SeedSequence([seed, *stream])) if stream else np.random.Philox(key=seed)
    return np.random.Generator(bits)


@dataclass(frozen=True)
class Dataset:
    """Named numeric columns of equal length; immutable once constructed."""

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.columns:
            raise DataError("dataset has no columns")
        frozen: dict[str, np.ndarray] = {}
        length = None
        for name, values in self.columns.items():
            arr = np.array(values, dtype=float)
            if arr.ndim != 1:
                raise DataError(f"column {name!r} is not one-dimensional")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise DataError(
                    f"column {name!r} has {arr.shape[0]} rows, expected {length}"
                )
            if not np.all(np.isfinite(arr)):
                raise DataError(f"column {name!r} contains non-finite entries")
            arr.flags.writeable = False
            frozen[name] = arr
        if length < 1:
            raise DataError("dataset needs at least one row")
        object.__setattr__(self, "columns", frozen)

    @property
    def n_rows(self) -> int:
        return next(iter(self.columns.values())).shape[0]

    def column_names(self) -> list[str]:
        return list(self.columns)


@dataclass(frozen=True)
class SimConfig:
    """Configuration for the linear-model data generator y = alpha + beta*x + noise."""

    alpha: float
    beta: float
    sigma: float
    n: int
    x_low: float = 0.0
    x_high: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise DataError(f"sigma must be >= 0, got {self.sigma}")
        if self.n < 1:
            raise DataError(f"n must be >= 1, got {self.n}")
        if not self.x_low < self.x_high:
            raise DataError(f"x_low must be < x_high, got [{self.x_low}, {self.x_high}]")
        if not 0 <= self.seed < SEED_BOUND:
            raise DataError(f"seed must be a non-negative integer below 2**128, got {self.seed}")


def simulate_linear(cfg: SimConfig) -> Dataset:
    """Draw X ~ Uniform(x_low, x_high) and y = alpha + beta*X + Normal(0, sigma)."""
    rng = make_rng(cfg.seed)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # Dataset rejects a non-finite column
            x = cfg.x_low + (cfg.x_high - cfg.x_low) * rng.random(cfg.n)
            noise = cfg.sigma * rng.standard_normal(cfg.n)
            y = cfg.alpha + cfg.beta * x + noise
    except ValueError:  # numpy refuses an array of n doubles before allocating it
        raise DataError(f"n = {cfg.n} rows is more than an array can hold") from None
    return Dataset({"X": x, "y": y})


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset as header + numeric rows; floats keep full precision."""
    names = dataset.column_names()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        cols = [dataset.columns[name] for name in names]
        for row in zip(*cols):
            writer.writerow([repr(float(v)) for v in row])


def load_csv(path) -> Dataset:
    """Read a header-plus-numeric-rows CSV into a Dataset.

    Errors carry 1-based line numbers.  Ragged rows and non-numeric cells
    are rejected; so are duplicate or empty header names.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # spreadsheets may write a byte-order mark
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv(1, "file is empty") from None
        header = [h.strip() for h in header]
        if any(not h for h in header):
            raise MalformedCsv(1, "empty column name in header")
        if len(set(header)) != len(header):
            raise MalformedCsv(1, f"duplicate column names in header: {header}")

        values: list[list[float]] = [[] for _ in header]
        line = 1
        for row in reader:
            line += 1
            if not row:
                continue  # tolerate blank lines
            if len(row) != len(header):
                raise RaggedRow(line, expected=len(header), got=len(row))
            for name, col, cell in zip(header, values, row):
                try:
                    col.append(float(cell))
                except ValueError:
                    raise NonNumericCell(line, name, cell) from None
    if not values[0]:
        raise MalformedCsv(line, "no data rows")
    return Dataset({name: np.array(col) for name, col in zip(header, values)})
