"""Property-based fuzzing of the input parsers: delay files, profile tables
and config files.  Each input either parses or fails with a documented exit
code or ValueError; no other exception escapes.  No example builds a CME:
ingest builds no ME model and the config runs use the zero model."""

import contextlib
import io
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from powruin.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_UNSTABLE, main
from powruin.delaymodel import HashrateProfile

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# one line of text: no surrogates, no line breaks
line_text = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\n\r\x0b\x0c\x1c\x1d"
                                                       "\x1e\x85\u2028\u2029"),
                    max_size=20)
numbers = st.one_of(st.floats(), st.integers(-10, 10 ** 6).map(float),
                    st.floats(0.0, 1.0))
number_text = numbers.map(repr)


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


delay_lines = st.one_of(
    st.lists(st.one_of(number_text, line_text,
                       line_text.map(lambda t: "#" + t),
                       st.tuples(number_text, line_text).map(",".join)),
             max_size=30),
    # mostly parseable files, with a sub-millisecond atom
    st.lists(st.one_of(st.floats(0.0, 1e4).map(repr), st.just("0.0005")),
             min_size=4, max_size=30))


@FUZZ
@given(lines=delay_lines, bins=st.integers(1, 4),
       epsilon=st.sampled_from(["0", "0.01", "0.5"]))
def test_ingest_delay_file_exits_0_or_3(tmp_path, lines, bins, epsilon):
    path = tmp_path / "delays.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = quiet_main(["ingest", "--data", str(path), "--bins", str(bins),
                       "--epsilon", epsilon])
    assert code in (0, EXIT_INPUT)


def _rows(pairs):
    return [f"{t},{f}" for t, f in pairs]


profile_texts = st.one_of(
    st.lists(line_text, max_size=8).map("\n".join),
    st.builds(
        lambda rate, pairs, junk: "\n".join(
            [f"# fullrate_bps = {rate}", "threshold_s,cum_fraction",
             *_rows(pairs), *junk]),
        number_text,
        st.lists(st.tuples(number_text, number_text), max_size=4),
        st.lists(st.one_of(line_text, st.sampled_from(
            ["# fullrate_bps", "# fullrate_bps =", "1.0", "1,2,3"])),
            max_size=2)),
    # sorted thresholds and fractions: mostly valid tables
    st.builds(
        lambda rate, thr, fr: "\n".join(
            [f"# fullrate_bps = {rate!r}",
             *_rows(zip(sorted(thr), sorted(fr)))]),
        st.floats(1e-6, 10.0),
        st.lists(st.floats(1e-3, 1e4), max_size=5, unique=True),
        st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5)),
)


@settings(max_examples=150, deadline=None)
@given(text=profile_texts)
def test_profile_table_raises_or_roundtrips(text):
    try:
        profile = HashrateProfile.from_table(text)
    except ValueError:
        return
    assert HashrateProfile.from_table(profile.to_table()) == profile
    assert all(math.isfinite(t) for t in profile.thresholds)


KEYS = ["beta-fraction", "block-interval", "delta-conf", "cme-order",
        "delay", "delay-mean", "delay-order", "epsilon", "bins", "k-max",
        "strict", "model", "rel-tol"]
config_values = st.one_of(number_text, line_text,
                          st.integers(-3, 40).map(str))
# no "out" key: it would write the sweep CSV to a generated path
config_lines = st.lists(st.one_of(
    st.tuples(st.one_of(st.sampled_from(KEYS),
                        line_text.filter(lambda k: "=" not in k)),
              config_values).filter(
        lambda kv: kv[0].strip().replace("-", "_") != "out")
      .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    line_text.filter(lambda t: "=" not in t),
    line_text.map(lambda t: "#" + t)), max_size=6)


@FUZZ
@given(lines=config_lines)
def test_config_file_exits_with_documented_code(tmp_path, monkeypatch, lines):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        code = quiet_main(["--config", str(path), "sweep", "--model", "zero",
                           "--k-max", "1"])
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, EXIT_INPUT, EXIT_NUMERIC, EXIT_UNSTABLE)
