"""Property tests of ``load_delays``'s two paths: NumPy's C reader and the
line scan that runs when that reader fails.  Generated delay files carry
blank lines, comment lines and trailing comments, second and third columns,
surrounding whitespace, LF, CRLF or lone-CR line ends and an optional
byte-order mark.  A valid file parses to the sorted delays of a plain
line-by-line ``float`` reference, by either path; a file with bad rows
raises the ``path:line:`` error of its first bad row."""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powruin import ingest
from powruin.ingest import _rows, load_delays

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# text within one line: no surrogates and no character that ends a line
# when the file is read with universal newlines
inline_text = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters="\n\r"),
                      max_size=12)
space = st.sampled_from(["", " ", "  ", "\t", " \t ", "\u00a0"])
delay_text = st.one_of(
    st.floats(0.0, 1e300).map(repr),
    st.floats(0.0, 1e4).map(lambda x: f"{x:.6e}"),
    st.floats(0.0, 1e4).map(lambda x: f"{x:g}"),
    st.integers(0, 10 ** 9).map(str),
    st.sampled_from(["0", "0.0", ".5", "5.", "+2", "1E3", "2.5e-4", "-0.0",
                     "0.0005"]))
columns = st.lists(inline_text, max_size=2).map(
    lambda cols: "".join("," + c for c in cols))
comment = st.one_of(st.just(""), inline_text.map(lambda t: "#" + t))


@st.composite
def data_line(draw, field=delay_text):
    return (draw(space) + draw(field) + draw(space) + draw(columns)
            + draw(space) + draw(comment))


@st.composite
def file_lines(draw):
    """Data lines among blank and comment lines, which only some files
    indent: NumPy's reader refuses a line of whitespace before a comment,
    so only those files take the line scan."""
    pad = draw(st.sampled_from([st.just(""), space]))
    filler = st.one_of(pad, st.tuples(pad, inline_text).map(
        lambda pair: pair[0] + "#" + pair[1]))
    return draw(st.lists(st.one_of(data_line(), filler), max_size=30))


def _indented(lines):
    """Whether a line of ``lines`` holds whitespace only before a comment."""
    return any((text := line.split("#", 1)[0]) and not text.strip()
               for line in lines)

# (row, message) of rows the reader refuses; in every one the first
# column, stripped, is the text the message quotes
BAD_ROWS = [
    ("abc", "cannot parse delay 'abc'"),
    ("1_000", "cannot parse delay '1_000'"),
    ("\u0661\u0662", "cannot parse delay '\u0661\u0662'"),
    ("0x10", "cannot parse delay '0x10'"),
    ("1.5 2", "cannot parse delay '1.5 2'"),
    (",x", "cannot parse delay ''"),
    ("-0.5", "invalid delay -0.5"),
    ("nan", "invalid delay nan"),
    ("inf", "invalid delay inf"),
    ("1e400", "invalid delay inf"),
]


def _reference(text):
    """The delays of ``text`` by a plain line-by-line ``float`` parse."""
    delays = []
    for line in re.split(r"\r\n|\r|\n", text.removeprefix("\ufeff")):
        content = line.split("#", 1)[0]
        if content.strip():
            delays.append(float(content.split(",", 1)[0]))
    return np.sort(np.array(delays, dtype=float))


@st.composite
def delay_file(draw, lines):
    """The text of a file of ``lines`` with its line ends and BOM drawn."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


def _write(tmp_path, text):
    path = tmp_path / "delays.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


@PROPERTY
@given(data=st.data(), lines=file_lines())
def test_a_valid_file_parses_to_the_float_reference(tmp_path, data, lines):
    text = data.draw(delay_file(lines))
    path = _write(tmp_path, text)
    expected = _reference(text)
    # the line scan alone, the path a failed read takes
    assert np.array_equal(np.sort(np.fromiter(_rows(path), float)), expected)
    if not len(expected):
        with pytest.raises(ValueError, match="no delay rows found"):
            load_delays(path)
        return
    with mock.patch.object(ingest, "_rows", wraps=_rows) as scan:
        ds = load_delays(path)
    assert np.array_equal(ds.delays, expected)
    assert not ds.delays.flags.writeable
    assert scan.called == _indented(lines)


@PROPERTY
@given(data=st.data(), lines=file_lines(),
       bad=st.lists(st.sampled_from(BAD_ROWS), min_size=1, max_size=3))
def test_the_first_bad_row_is_named_by_its_line(tmp_path, data, lines, bad):
    lines = list(lines)
    numbers = []
    for row, _ in bad:
        at = data.draw(st.integers(0, len(lines)))
        numbers = [n + (n >= at) for n in numbers] + [at]
        lines.insert(at, data.draw(data_line(st.just(row))))
    first = min(range(len(bad)), key=numbers.__getitem__)
    path = _write(tmp_path, data.draw(delay_file(lines)))
    message = re.escape(f"{path}:{numbers[first] + 1}: {bad[first][1]}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_delays(path)


@pytest.mark.parametrize("text", ["", "# delay_s\n", "\n\n", "\ufeff  \n"])
def test_a_file_without_rows_raises_and_warns_nothing(tmp_path, text):
    path = _write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no delay rows found"):
            load_delays(path)
