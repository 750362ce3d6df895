"""Terminal-value sample sets: grid snapping, cell counts, CSV ingestion."""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IngestError
from .torus import TorusGrid


def snap_index(values, grid: TorusGrid) -> np.ndarray:
    """Nearest grid node for values in [lower, upper); half ties round down.

    A value exactly between two nodes is assigned the lower index (the
    wrap pair upper-most/0 counts the upper-most node as lower).
    """
    # one float and one int array, worked in place
    u = np.array(values, dtype=float)
    u -= grid.lower
    u /= grid.h
    u -= 0.5
    np.ceil(u, out=u)
    index = u.astype(int)
    index %= grid.n
    # a scalar or 0-d input gives a numpy integer, not a 0-d array
    return index if index.ndim else index[()]


@dataclass
class SampleSet:
    """Samples on the torus together with their snapped grid cells.

    cell_counts[i] is the number of samples whose nearest node is x_i, so
    cell_counts.sum() == len(values).
    """

    values: np.ndarray
    cell_counts: np.ndarray
    grid: TorusGrid

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values, grid: TorusGrid) -> "SampleSet":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("need a non-empty 1-d array of samples")
        # NaN fails both comparisons, so it is refused here too
        if not np.all((values >= grid.lower) & (values < grid.upper)):
            raise ValueError("samples must be finite and lie in "
                             "[lower, upper); wrap first")
        counts = np.bincount(snap_index(values, grid), minlength=grid.n)
        return cls(values=values, cell_counts=counts, grid=grid)


@contextlib.contextmanager
def open_text(path):
    """A user's text file, open for reading as UTF-8.  An OSError or a
    decoding error raised by the open or inside the block becomes an
    IngestError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise IngestError(
            f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None


def ingest_samples(path) -> np.ndarray:
    """Read raw sample values from a CSV file: one decimal per line, '#' comments.

    Returns the unwrapped values; projection onto a grid happens later.
    nan and inf are refused: projection would put them in cell 0.  numpy's
    C reader parses the common layout (leading '#' lines, then one number
    per line); a file it refuses is read again line by line, which accepts
    whatever float() accepts and names the first bad line.
    """
    with open_text(path) as fh:
        values = _read_column(fh, path)
        if values is None:
            fh.seek(0)
            values = _read_lines(fh, path)
    return values


# numpy opens a path through its DataSource, which decompresses a file by
# these suffixes and would take a relative "scheme://host/..." for a URL:
# such names go to the line reader, and numpy gets the absolute path
_NUMPY_OPENER_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_column(fh, path) -> np.ndarray | None:
    """The finite values of one number per line after the leading blank and
    '#' lines of `fh`, or None where the line reader must decide."""
    name = os.path.abspath(path)
    if name.endswith(_NUMPY_OPENER_SUFFIXES):
        return None
    skip = 0
    for line in fh:
        text = line.strip()
        if text and not text.startswith("#"):
            break
        skip += 1
    else:
        return None
    try:
        # ndmin=2 keeps a single line "1 2" a row of two values, refused below
        table = np.loadtxt(name, comments=None, skiprows=skip, ndmin=2,
                           encoding="utf-8")
    except ValueError:
        return None
    if table.shape[1] != 1 or not np.isfinite(table).all():
        return None
    return table.ravel()


def _read_lines(fh, path) -> np.ndarray:
    """float() of each line of `fh` that is not blank or '#'; an
    IngestError names `path` and the first line it refuses."""
    values = []
    for lineno, line in enumerate(fh, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError:
            raise IngestError(
                f"{path}: malformed value {text!r} at line {lineno}") from None
        if not math.isfinite(value):
            raise IngestError(
                f"{path}: non-finite value {text!r} at line {lineno}")
        values.append(value)
    if not values:
        raise IngestError(f"{path}: no sample values found")
    return np.asarray(values, dtype=float)


def write_samples_csv(path, values, metadata: dict | None = None) -> None:
    """Write one value per line after one '# key = value' header line per
    metadata entry.  A key or value with a line break would put a line
    outside the header, so it is a ConfigError, raised before the file is
    opened."""
    metadata = {str(k): str(v) for k, v in (metadata or {}).items()}
    for key, val in metadata.items():
        if any(c in key + val for c in "\n\r"):
            raise ConfigError("a sample file header cannot hold a line "
                              f"break: {key!r} = {val!r}")
    text = "\n".join(map(repr, np.asarray(values, dtype=float).tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in metadata.items():
            fh.write(f"# {key} = {val}\n")
        if text:
            fh.write(text + "\n")
