"""Ingestion, validation, and truncation of citation-count datasets.

Counts are per-article citation tallies: positive integers below 2**63,
unordered beyond their file order. Zero counts (uncited articles) are
dropped at load time but tallied, so reports can state how many were
excluded.

A dataset is held as one sorted histogram, built once: the distinct
values and their multiplicities, as read-only ``int64`` arrays. Every
statistic the package computes depends only on the multiset, so the
fitters, tests and scans read the histogram, and a truncation is an
offset into it (a ``searchsorted``), never a copy. The per-row views,
``counts`` and ``retained`` in file order, are built only when a caller
reads them. Datasets are immutable after construction and safe to share.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyDatasetError, EmptyTailError, ParseError, UsageError

PLAIN = "plain"
CSV = "csv"
CSV_COLUMN = "citations"

#: Counts must be below this bound to be held as ``int64``.
COUNT_LIMIT = 2**63


class CountDataset:
    """A multiset of positive citation counts with provenance metadata.

    ``counts`` may be any one-dimensional sequence or array of integers
    (integral floats are accepted); it is copied. ``values`` and
    ``multiplicities`` are the sorted histogram the library reads;
    ``counts`` gives the rows back in their original order.
    """

    def __init__(self, counts, source_label: str = "", zeros_dropped: int = 0):
        rows = _as_int64(counts)
        if rows.size == 0:
            raise EmptyDatasetError("dataset has no counts")
        values, multiplicities = np.unique(rows, return_counts=True)
        if values[0] < 1:
            raise UsageError("counts must be positive integers")
        multiplicities = multiplicities.astype(np.int64, copy=False)
        for arr in (rows, values, multiplicities):
            arr.flags.writeable = False
        self._rows = rows
        self.values = values
        self.multiplicities = multiplicities
        self.source_label = source_label
        self.zeros_dropped = zeros_dropped

    @property
    def n(self) -> int:
        return self._rows.size

    @cached_property
    def counts(self) -> tuple[int, ...]:
        """The counts as Python ints, in their original order."""
        return tuple(self._rows.tolist())


def _as_int64(counts) -> np.ndarray:
    """A copy of ``counts`` as ``int64``; UsageError for anything but integers below 2**63."""
    arr = np.array(counts)
    if arr.ndim != 1:
        raise UsageError("counts must be a one-dimensional sequence")
    kind = arr.dtype.kind
    if kind == "f":
        if not np.all(np.isfinite(arr) & (np.floor(arr) == arr)):
            raise UsageError("counts must be integers, got a non-integral value")
        if arr.size and arr.max() >= float(COUNT_LIMIT):
            raise UsageError(f"counts must be below 2**63, got {arr.max():.6g}")
    elif kind not in "biu":  # Python ints beyond int64 give an object array
        raise UsageError("counts must be integers below 2**63")
    # uint64 values >= 2**63 wrap to negative here and fail the positivity check
    return arr.astype(np.int64)


@dataclass(frozen=True)
class TruncatedView:
    """The sub-multiset of a dataset at or above a truncation point.

    ``values`` and ``multiplicities`` are slices of the dataset's
    histogram starting at the first value ``>= x_min``.
    """

    base: CountDataset
    x_min: int
    start: int = field(init=False, repr=False)
    n_tail: int = field(init=False)

    def __post_init__(self):
        if self.x_min < 1:
            raise UsageError(f"x_min must be >= 1, got {self.x_min}")
        start = int(np.searchsorted(self.base.values, self.x_min, side="left"))
        if start == self.base.values.size:
            raise EmptyTailError(
                f"no counts >= {self.x_min} (max observed {self.base.values[-1]})"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "n_tail", int(self.base.multiplicities[start:].sum()))

    @property
    def values(self) -> np.ndarray:
        """Distinct retained values, ascending."""
        return self.base.values[self.start:]

    @property
    def multiplicities(self) -> np.ndarray:
        """How often each of ``values`` occurs."""
        return self.base.multiplicities[self.start:]

    @cached_property
    def retained(self) -> tuple[int, ...]:
        """The retained counts as Python ints, in the dataset's order."""
        rows = self.base._rows
        return tuple(rows[rows >= self.x_min].tolist())


def load_counts(path, fmt: str = PLAIN, source_label: str | None = None) -> CountDataset:
    """Load a count dataset from a file.

    Parameters
    ----------
    path : str or path-like
        File to read.
    fmt : {"plain", "csv"}
        ``plain``: one nonnegative base-10 integer per line, optional
        trailing newline. ``csv``: RFC-4180 with a header row and a
        column named ``citations``. A line is read as Python's ``int()``
        reads it.
    source_label : str, optional
        Provenance label; defaults to the file's base name.

    Returns
    -------
    CountDataset
        Zeros removed (and counted in ``zeros_dropped``), order preserved.

    Raises
    ------
    ParseError
        Non-integer, negative or too large (>= 2**63) entry, naming the
        offending line.
    EmptyDatasetError
        File contains no positive counts.
    """
    label = source_label if source_label is not None else os.path.basename(str(path))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if fmt == PLAIN:
        raw = _parse_plain(text)
    elif fmt == CSV:
        raw = np.array(_parse_csv(text), dtype=np.int64)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    counts = raw[raw > 0]
    zeros = raw.size - counts.size
    if counts.size == 0:
        raise EmptyDatasetError(f"{label}: no positive counts after dropping {zeros} zero(s)")
    return CountDataset(counts, source_label=label, zeros_dropped=zeros)


def _parse_plain(text: str) -> np.ndarray:
    lines = text.split("\n")
    tokens = list(filter(str.strip, lines))  # blank lines (incl. trailing newline) carry no value
    if not tokens:
        raise EmptyDatasetError("file contains no values")
    try:
        # one cast: numpy converts each token with int(), so the grammar is int()'s
        values = np.array(tokens, dtype=object).astype(np.int64)
    except (ValueError, OverflowError):
        values = None
    if values is None or values.min() < 0:
        # a bad token: parse line by line to name the first offending line
        values = np.array(
            [_parse_count(line, lineno)
             for lineno, line in enumerate(lines, start=1) if line.strip()],
            dtype=np.int64,
        )
    return values


def _parse_csv(text: str) -> list[int]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or CSV_COLUMN not in reader.fieldnames:
        raise ParseError(f"missing required column {CSV_COLUMN!r}", line_number=1)
    values = []
    for lineno, row in enumerate(reader, start=2):
        values.append(_parse_count(row[CSV_COLUMN] or "", lineno))
    if not values:
        raise EmptyDatasetError("file contains no data rows")
    return values


def _parse_count(token: str, lineno: int) -> int:
    try:
        value = int(token.strip())
    except ValueError:
        raise ParseError(f"not an integer: {token.strip()!r}", line_number=lineno) from None
    if value < 0:
        raise ParseError(f"negative count: {value}", line_number=lineno)
    if value >= COUNT_LIMIT:
        raise ParseError(f"count too large (>= 2**63): {value}", line_number=lineno)
    return value


def truncate(data: CountDataset, x_min: int) -> TruncatedView:
    """Keep only counts >= ``x_min``; raises EmptyTailError if none survive."""
    return TruncatedView(base=data, x_min=x_min)


def tail_ccdf(view: TruncatedView) -> list[tuple[int, float]]:
    """Empirical complementary CDF of the retained counts.

    Returns (value, P(X >= value)) pairs over the distinct retained values
    in ascending order; the first pair has probability 1 and the
    probabilities are non-increasing.
    """
    n = view.n_tail
    below = np.cumsum(view.multiplicities) - view.multiplicities
    return list(zip(view.values.tolist(), ((n - below) / n).tolist()))
