"""Delay files that span several 64 KB chunks of lines: bad rows named
by their exact line across chunk boundaries, a second column that first
appears in a later chunk, CRLF and lone-CR line ends, and the parser's
peak memory."""

import re
import tracemalloc

import numpy as np
import pytest

from powruin.ingest import load_delays

ROWS = 50_000


def _rows(n=ROWS, seed=1):
    """Delays as ``np.savetxt`` writes them: about 19 characters a line."""
    rng = np.random.default_rng(seed)
    return [f"{x:.17g}" for x in rng.lognormal(np.log(6.5), 1.15, n)]


def _write(tmp_path, lines, name="delays.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _first_chunk_lines(path):
    """How many lines a reader of 64 KB chunks of lines takes as its first
    chunk of ``path``: the line positions that straddle a chunk boundary."""
    with open(path, encoding="utf-8") as fh:
        return len(fh.readlines(65_536))


@pytest.fixture(scope="module")
def rows():
    return _rows()


@pytest.mark.parametrize("where", ["last of the first chunk",
                                   "first of the second chunk",
                                   "line 49 999"])
@pytest.mark.parametrize("bad, message", [
    ("abc, 2024-01-01", "cannot parse delay 'abc'"),
    ("-0.5", r"invalid delay -0\.5"),
    ("nan", "invalid delay nan"),
])
def test_bad_row_is_named_by_its_exact_line(tmp_path, rows, where, bad,
                                            message):
    lines = ["# delays"] + rows[:ROWS - 1]
    n1 = _first_chunk_lines(_write(tmp_path, lines))
    assert 1 < n1 < ROWS // 2  # the file spans several chunks
    lineno = {"last of the first chunk": n1,
              "first of the second chunk": n1 + 1,
              "line 49 999": 49_999}[where]
    lines[lineno - 1] = bad
    lines[-1] = "inf"  # a later bad row is not the one reported
    path = _write(tmp_path, lines)
    prefix = re.escape(f"{path}:{lineno}: ")
    with pytest.raises(ValueError, match=prefix + message):
        load_delays(path)


def test_bad_row_after_blank_and_comment_lines_in_a_later_chunk(tmp_path,
                                                                rows):
    lines = rows[:30_000]
    lines[20_000:20_000] = ["", "# a comment", "   ", "1.5, x", "oops"]
    path = _write(tmp_path, lines)
    with pytest.raises(ValueError, match=r":20005: cannot parse delay 'oops'"):
        load_delays(path)


def test_second_column_first_seen_after_the_first_chunk(tmp_path, rows):
    lines = list(rows[:20_000])
    n1 = _first_chunk_lines(_write(tmp_path, lines))
    later = [n1 + 5, 15_000]
    for i in later:
        lines[i] += ", 2024-01-01"
    ds = load_delays(_write(tmp_path, lines))
    assert np.array_equal(ds.delays, np.sort(np.array(rows[:20_000],
                                                      dtype=float)))
    lines[15_000] = " 7x , 2024-01-01"
    path = _write(tmp_path, lines)
    with pytest.raises(ValueError, match=r":15001: cannot parse delay '7x'"):
        load_delays(path)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_lone_cr_end_a_line(tmp_path, rows, end):
    lines = ["# delays", ""] + rows[:10_000]
    path = tmp_path / "delays.txt"
    path.write_bytes(end.join(lines).encode() + end.encode())
    ds = load_delays(path)
    assert np.array_equal(ds.delays, np.sort(np.array(rows[:10_000],
                                                      dtype=float)))
    lines[7_000] = "bad"
    path.write_bytes(end.join(lines).encode() + end.encode())
    with pytest.raises(ValueError, match=r":7001: cannot parse delay 'bad'"):
        load_delays(path)


def test_load_delays_peak_memory_is_about_three_copies_of_the_result(
        tmp_path, rows):
    # NumPy's C reader parses into one array that is sorted in place and
    # kept by DelayDataset without a copy: about 0.5 MB for the 0.4 MB
    # result, where a float per line in 64 KB chunks of lines took 1.3 MB
    path = _write(tmp_path, rows)
    tracemalloc.start()
    try:
        ds = load_delays(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == ROWS
    assert peak < 1.0e6
