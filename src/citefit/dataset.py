"""Ingestion, validation, and truncation of citation-count datasets.

Counts are per-article citation tallies: positive integers below 2**63.
Zero counts (uncited articles) are dropped at load time but tallied, so
reports can state how many were excluded.

A dataset is its sorted histogram, built once: the distinct values and
their multiplicities, as read-only ``int64`` arrays. Every statistic the
package computes depends only on the multiset, so file order is not
kept, and memory grows with the number of distinct values, not rows.
Counts no larger than the row count (or 2**16) are tallied by value in
one pass; larger ones are sorted. A truncation is an offset into the
histogram (a ``searchsorted``), never a copy. Datasets are immutable
after construction and safe to share.

A plain file whose every byte is an ASCII digit or a line end (``\\n`` or
``\\r\\n``), with at most 18 digits a line, is parsed from its bytes by
numpy, in blocks of about 32 KiB cut after a newline, into one array:
every such line is a count below 2**63. Any other file is decoded as
UTF-8 and read line by line: ``int()`` over the lines straight into an
array, and a second pass that names the first bad line only when that
fails. A CSV file is read row by row. Both paths read a line as
``int()`` reads it, but a line of ASCII digits (and a sign) by its
significant digits, whatever the Python's limit on ``int()``'s digits.
A 10^6-row plain file (2.5 MB, a tenth of it zeros) loads in 22-47 ms
in a fresh process with a traced peak of 11 MB; with a space after each
count it is read line by line, in 0.22-0.26 s with a peak of 83 MB
(2 cores, numpy 2.4).
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDatasetError, EmptyTailError, ParseError, UsageError

PLAIN = "plain"
CSV = "csv"
CSV_COLUMN = "citations"

#: Counts must be below this bound to be held as ``int64``.
COUNT_LIMIT = 2**63
#: A histogram is tallied by value when its largest count is at most this
#: or the row count, whichever is larger; otherwise it is sorted.
_DENSE_BINS = 2**16
#: The most characters of a bad line that an error message quotes.
_QUOTED_CHARS = 40


class CountDataset:
    """A multiset of positive citation counts with provenance metadata.

    ``counts`` may be any one-dimensional sequence or array of integers
    (integral floats are accepted). Only its sorted histogram is kept:
    ``values`` and ``multiplicities``, with ``n`` counts in all. Its
    ``source_label`` and ``zeros_dropped`` are "" and 0 unless ``load_counts`` read a file.
    """

    def __init__(self, counts):
        rows = _as_int64(counts)
        if rows.size == 0:
            raise EmptyDatasetError("dataset has no counts")
        values, multiplicities = _histogram(rows)
        if values[0] < 1:
            raise UsageError("counts must be positive integers")
        self._hold(values, multiplicities, "", 0)

    @classmethod
    def _of_histogram(cls, values, multiplicities, source_label, zeros_dropped):
        """The dataset of a histogram of positive counts built by ``_histogram``."""
        data = cls.__new__(cls)
        data._hold(values, multiplicities, source_label, zeros_dropped)
        return data

    def _hold(self, values, multiplicities, source_label, zeros_dropped):
        values.flags.writeable = multiplicities.flags.writeable = False
        self.values = values
        self.multiplicities = multiplicities
        self.n = int(multiplicities.sum())
        self.source_label = source_label
        self.zeros_dropped = zeros_dropped


def _histogram(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``int64`` ``rows``, ascending, and how often each occurs.

    Counts no larger than the row count (or 2**16) are tallied by value in
    a table of ``top + 1`` bins, one pass and no sort, with memory at most
    8 bytes a row; larger or negative ones are sorted (``np.unique``),
    which serves any ``int64``. Both give the same arrays, as ``int64``.
    """
    top = rows.max()
    if rows.min() >= 0 and top <= max(rows.size, _DENSE_BINS):
        table = np.bincount(rows)
        values = np.flatnonzero(table)
        multiplicities = table[values]  # a copy: no view of the table outlives the call
    else:
        values, multiplicities = np.unique(rows, return_counts=True)
    return values.astype(np.int64, copy=False), multiplicities.astype(np.int64, copy=False)


def _as_int64(counts) -> np.ndarray:
    """``counts`` as ``int64``; UsageError for anything but integers below 2**63."""
    arr = np.asarray(counts)
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
    return arr.astype(np.int64, copy=False)


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


def load_counts(path, fmt: str = PLAIN) -> CountDataset:
    """Load a count dataset from a file.

    Parameters
    ----------
    path : str or path-like
        File to read.
    fmt : {"plain", "csv"}
        ``plain``: one nonnegative base-10 integer per line, optional
        trailing newline. ``csv``: RFC-4180 with a header row and a
        column named ``citations``. A line is read as Python's ``int()``
        reads it. A plain file of ASCII digit lines of at most 18
        digits, ending in ``\\n`` or ``\\r\\n``, is parsed from its bytes
        by numpy (22-47 ms per 10^6 rows); any other file is decoded and
        parsed line by line, with the same grammar.

    Returns
    -------
    CountDataset
        The histogram of the positive counts, labelled with the file's base
        name; zeros are counted in ``zeros_dropped``, read from the histogram.

    Raises
    ------
    ParseError
        Non-integer, negative or too large (>= 2**63) entry, a file that
        is not UTF-8, or a malformed CSV row, naming the offending line.
    EmptyDatasetError
        File contains no positive counts.
    """
    label = os.path.basename(str(path))
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == PLAIN:
        raw = _parse_digit_lines(data)
        if raw is None:
            raw = _parse_plain(_decode(data))
    elif fmt == CSV:
        raw = np.array(_parse_csv(_decode(data)), dtype=np.int64)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    values, multiplicities = _histogram(raw)
    zeros = int(multiplicities[0]) if values[0] == 0 else 0
    if zeros:
        values, multiplicities = values[1:], multiplicities[1:]
    if values.size == 0:
        raise EmptyDatasetError(f"{label}: no positive counts after dropping {zeros} zero(s)")
    return CountDataset._of_histogram(values, multiplicities, label, zeros)


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text; ParseError naming the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: byte 0x{data[exc.start]:02x}",
                         line_number=lineno) from None


#: Bytes per block of the digit-line parser, cut after a newline. Small, so
#: that a block's per-line arrays stay in cache and their memory is reused
#: by the next block instead of being mapped (and faulted in) afresh.
_BLOCK_BYTES = 1 << 15
#: The longest line the digit-line parser reads: 10**18 - 1 < 2**63.
_MAX_DIGITS = 18
_LF, _CR, _ZERO, _NINE = ord("\n"), ord("\r"), ord("0"), ord("9")


def _parse_digit_lines(data: bytes) -> np.ndarray | None:
    """The counts of a file of ASCII digit lines, or None if it is any other file.

    Lines end in ``\\n`` or ``\\r\\n``; the last may lack its end, blank
    lines carry no value, and no line holds more than 18 digits, so
    every line is a count ``int()`` accepts and below 2**63. The file
    goes through in blocks of about ``_BLOCK_BYTES`` cut after a newline.
    """
    counts = np.empty(data.count(b"\n") + 1, np.int64)  # a count a line at most
    size = start = 0
    while start < len(data):
        end = len(data)
        if end - start > _BLOCK_BYTES:
            end = data.rfind(b"\n", start, start + _BLOCK_BYTES) + 1
            if end == 0:  # no newline in a whole block: not a line of digits
                return None
        found = _digit_block(np.frombuffer(data, np.uint8, end - start, start), counts[size:])
        if found is None:
            return None
        size += found
        start = end
    return counts[:size] if size else None  # no value at all: the fallback names the error


def _digit_block(b: np.ndarray, out: np.ndarray) -> int | None:
    """``_parse_digit_lines`` on one block that ends a line (or ends the file).

    Writes the block's counts to the head of ``out`` and returns how many.
    """
    if b.max() > _NINE:
        return None  # a byte past "9": not a digit nor a line end
    ends = np.flatnonzero(b < _ZERO)  # each must end a line: a \n, or a \r before one
    marks = b[ends]
    cr = np.flatnonzero(marks == _CR)
    if np.count_nonzero(marks == _LF) + cr.size != ends.size:
        return None  # a byte that is neither a digit nor a line end
    cr = ends[cr]
    if cr.size and (cr[-1] + 1 == b.size or not np.all(b[cr + 1] == _LF)):
        return None  # a \r not followed by \n
    if b[-1] != _LF:
        ends = np.append(ends, b.size)  # the file's last line, without its newline
    lengths = ends.copy()
    lengths[1:] -= ends[:-1]
    lengths[1:] -= 1
    longest = int(lengths.max())
    if longest > _MAX_DIGITS:
        return None
    if lengths.min() == 0:  # blank lines carry no value
        keep = lengths > 0
        ends, lengths = ends[keep], lengths[keep]
    # the last digit of every line, then each column leftward over the lines that reach it
    values = out[:ends.size]
    ends -= 1
    values[...] = b[ends]
    values -= _ZERO
    rows = np.flatnonzero(lengths > 1)
    for column in range(1, longest):
        digits = b[ends[rows] - column].astype(np.int64)
        digits -= _ZERO
        digits *= 10**column
        values[rows] += digits
        rows = rows[lengths[rows] > column + 1]
    return values.size


def _parse_plain(text: str) -> np.ndarray:
    """The counts of a plain file's text; ParseError naming the first bad line.

    The lines go straight through ``int``, which skips the whitespace
    ``str.strip`` removes (all but U+001C..U+001F), into the array. Only
    when that fails (a ``ValueError``, an ``OverflowError`` at 2**63, or a
    negative count) does ``_parse_count`` read the lines one by one: it
    names the first bad line, or reads the lines ``int`` alone rejects.
    """
    # blank lines (incl. a trailing newline) carry no value
    tokens = [line for line in text.split("\n") if line and not line.isspace()]
    if not tokens:
        raise EmptyDatasetError("file contains no values")
    try:
        values = np.array(list(map(int, tokens)), dtype=np.int64)
        if values.min() >= 0:
            return values
    except (ValueError, OverflowError):
        pass
    return np.array([_parse_count(line, lineno)
                     for lineno, line in enumerate(text.split("\n"), start=1) if line.strip()],
                    dtype=np.int64)


def _parse_csv(text: str) -> list[int]:
    reader = csv.DictReader(io.StringIO(text))
    try:
        if reader.fieldnames is None or CSV_COLUMN not in reader.fieldnames:
            raise ParseError(f"missing required column {CSV_COLUMN!r}", line_number=1)
        # line_num counts the blank lines skipped and the line breaks inside quotes
        values = [_parse_count(row[CSV_COLUMN] or "", reader.line_num) for row in reader]
    except csv.Error as exc:  # e.g. a lone \r inside an unquoted field
        raise ParseError(f"malformed CSV: {exc}", line_number=reader.reader.line_num) from None
    if not values:
        raise EmptyDatasetError("file contains no data rows")
    return values


def _parse_count(token: str, lineno: int) -> int:
    token = token.strip()
    digits = token[1:] if token[:1] in ("+", "-") else token
    if digits.isascii() and digits.isdigit():
        # by its significant digits: int() refuses over 4,300 digits on newer Pythons.
        # A token longer than the quote is shown quoted, so its value need not be exact.
        significant = digits.lstrip("0")
        value = int(significant or "0") if len(significant) <= _QUOTED_CHARS else COUNT_LIMIT
        value = -value if token[0] == "-" else value
    else:
        try:
            value = int(token)
        except ValueError:
            raise ParseError(f"not an integer: {_quoted(token)}", line_number=lineno) from None
    if value < 0 or value >= COUNT_LIMIT:
        what = "negative count" if value < 0 else "count too large (>= 2**63)"
        shown = value if len(token) <= _QUOTED_CHARS else _quoted(token)
        raise ParseError(f"{what}: {shown}", line_number=lineno)
    return value


def _quoted(token: str) -> str:
    """``repr(token)`` for an error message: of its first 40 characters only, and its length."""
    if len(token) <= _QUOTED_CHARS:
        return repr(token)
    return f"{token[:_QUOTED_CHARS]!r}... ({len(token):,} characters)"


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
