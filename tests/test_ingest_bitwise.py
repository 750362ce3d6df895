"""ingest_samples against the line-by-line reader it replaced.  numpy's C
reader and float() share one string-to-double conversion, so on every file
the two must return the same bits or raise the same IngestError text."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyfit import samples
from levyfit.errors import IngestError
from levyfit.samples import ingest_samples, write_samples_csv


def line_by_line_ingest(path) -> np.ndarray:
    """The reader as it was: one float() per stripped line."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
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


WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]
# line ends for the file reader, then characters that only look like one
ENDS = ["\n", "\r", "\r\n"]
BREAKS = [*ENDS, "\x0b", "\x1c", "\u2028", " "]
PAD = st.text(st.sampled_from([" ", "\t", *WHITESPACE]), max_size=2)
NUMBER = st.tuples(PAD, st.floats().map(repr), PAD).map("".join)
FINITE = st.tuples(PAD, st.floats(allow_nan=False, allow_infinity=False)
                   .map(repr), PAD).map("".join)
COMMENT = st.lists(st.sampled_from(["#", " ", "x", "1", *BREAKS]),
                   max_size=4).map(lambda parts: "#" + "".join(parts))
PIECES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["0", "1", "9", ".", "-", "+", "_", "e", "E", "inf",
                     "-inf", "Infinity", "nan", "#", " ", "1_000", "1e999",
                     "0x1p3", "\u0661", "\ufeff", "\x00", *WHITESPACE]))
JUNK = st.lists(PIECES, max_size=4).map("".join)


def files(body, ends):
    """(leading lines, body lines, line ends, final line end?)"""
    return st.tuples(st.lists(st.one_of(COMMENT, PAD), max_size=3),
                     st.lists(body, max_size=12),
                     st.lists(st.sampled_from(ends), min_size=15,
                              max_size=15),
                     st.booleans())


# files the C reader takes, and files with every kind of line mixed in
FILES = st.one_of(files(st.one_of(FINITE, PAD), ENDS),
                  files(st.one_of(NUMBER, FINITE, COMMENT, PAD, JUNK), BREAKS))


def build(leading, body, breaks, final_break) -> str:
    text = "".join(line + brk for line, brk in zip(leading + body, breaks))
    return text if final_break else text[:-1]


def outcome(read, path):
    try:
        return read(path).tobytes()
    except IngestError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(parts=FILES)
def test_same_values_or_same_error_as_the_line_reader(parts):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "wb") as fh:
            fh.write(build(*parts).encode("utf-8"))
        assert outcome(ingest_samples, path) == outcome(line_by_line_ingest,
                                                        path)


@pytest.mark.parametrize("text", [
    "1 2\n", "1\x0b2\n", "1\n2 3\n", "1\n# later\n2\n", "# a\n#b\n",
    "# a\n\n \x1c\n", "1_5\n", "\u0661\n", "\ufeff1\n", "1\r2\r", "1e999\n",
    "1 # note\n", "-0.0\n0.0\n"])
def test_pitfalls_of_the_c_reader(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(ingest_samples, path) == outcome(line_by_line_ingest, path)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_names_numpy_would_decompress_are_read_as_text(tmp_path, suffix):
    path = tmp_path / f"s.csv{suffix}"
    path.write_text("# plain text\n0.25\n-1.5\n")
    assert ingest_samples(path).tolist() == [0.25, -1.5]


@pytest.mark.parametrize("tail", [b"1.0\xa0\n", b"1.0\x85\n"])
@pytest.mark.parametrize("lines", [1, 4096])
def test_bytes_that_are_not_utf8_are_refused(tmp_path, tail, lines):
    # a lone 0xa0 or 0x85 would be whitespace in latin-1; 4096 lines put it
    # past the first chunk that reading the leading lines decodes
    path = tmp_path / "s.csv"
    path.write_bytes(b"0.5\n" * lines + tail)
    with pytest.raises(IngestError, match="not UTF-8"):
        ingest_samples(path)


def per_line_write(path, values, metadata=None):
    """The writer as it was: one write per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in (metadata or {}).items():
            fh.write(f"# {key} = {val}\n")
        for v in np.asarray(values, dtype=float):
            fh.write(f"{float(v)!r}\n")


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e300, -1e300,
     1.7976931348623157e308, 0.1, 1 / 3, -np.pi, 1e16, 123456789.0],
    np.random.default_rng(7).normal(scale=1e-3, size=1000),
    np.float32([0.1, -2.5]), [3], []])
def test_writer_equals_per_line_writer(tmp_path, values):
    metadata = {"source": "raw.csv", "n": len(values)}
    write_samples_csv(tmp_path / "new.csv", values, metadata=metadata)
    per_line_write(tmp_path / "old.csv", values, metadata=metadata)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "old.csv").read_bytes())


def test_round_trip_of_200k_values_is_bit_exact(tmp_path, rng, monkeypatch):
    values = np.concatenate([
        rng.standard_t(4, 199_990) * 6e-3,
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
         1e-300, -1e300, 0.1, 1 / 3, np.pi]])
    path = tmp_path / "big.csv"
    write_samples_csv(path, values, metadata={"source": "raw.csv", "n": 200_000})
    # what the writer writes takes the C reader, header and all
    monkeypatch.setattr(samples, "_read_lines", None)
    assert ingest_samples(path).tobytes() == values.tobytes()
