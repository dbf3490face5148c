import numpy as np
import pytest
from numpy.testing import assert_allclose

from powruin.ingest import (BITCOIN_LIKE, BinningResult, DelayDataset,
                            SynthSpec, apply_cutoff, bin_delays, load_delays, synth_delays,
                            to_profile)


def write(tmp_path, text, name="delays.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_basic(tmp_path):
    p = write(tmp_path, "# header\n1.5\n0.25, 2024-01-01\n\n3.0\n")
    ds = load_delays(p)
    assert_allclose(ds.delays, [0.25, 1.5, 3.0])


def test_load_reports_line_numbers(tmp_path):
    p = write(tmp_path, "1.0\nnot-a-number\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_delays(p)
    p2 = write(tmp_path, "1.0\n2.0\n-3.0\n", name="neg.csv")
    with pytest.raises(ValueError, match=r":3:"):
        load_delays(p2)


def test_load_skips_a_utf8_byte_order_mark(tmp_path):
    p = tmp_path / "bom.txt"
    p.write_bytes(b"\xef\xbb\xbf1.5\n0.25, 2024-01-01\n")
    assert_allclose(load_delays(p).delays, [0.25, 1.5])
    p.write_bytes(b"\xef\xbb\xbf# delay_s\n1.5\nbad\n")
    with pytest.raises(ValueError,
                       match=r"bom\.txt:3: cannot parse delay 'bad'"):
        load_delays(p)


@pytest.mark.parametrize("bad, message", [
    ("abc, 2024-01-01", r":49999: cannot parse delay 'abc'"),
    ("-0.5", r":49999: invalid delay -0\.5"),
    ("nan", r":49999: invalid delay nan"),
])
def test_load_reports_a_bad_row_deep_in_a_large_file(tmp_path, bad, message):
    # rows are parsed as one array; the first bad one is mapped back to its
    # line, past comments, blank lines and a second column
    lines = ["# delays", ""] + [f"{i % 97 + 0.5}" for i in range(49_997)]
    lines[10] += ", 2024-01-01"
    lines += ["inf"]  # a later bad row is not the one reported
    lines[49_998] = bad
    p = write(tmp_path, "\n".join(lines) + "\n")
    assert len(lines) == 50_000
    with pytest.raises(ValueError, match=message):
        load_delays(p)
    lines[49_998] = "7.25"
    lines[49_999] = "1e3"
    ds = load_delays(write(tmp_path, "\n".join(lines) + "\n"))
    assert len(ds) == 49_998 and ds.delays[-1] == 1e3


def test_load_rejects_empty(tmp_path):
    p = write(tmp_path, "# only comments\n")
    with pytest.raises(ValueError, match="no delay rows"):
        load_delays(p)


def test_dataset_sorts_and_validates():
    ds = DelayDataset(np.array([3.0, 1.0, 2.0]))
    assert_allclose(ds.delays, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        DelayDataset(np.array([]))
    with pytest.raises(ValueError):
        DelayDataset(np.array([-1.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite delay"):
            DelayDataset(np.array([1.0, bad]))


def test_cutoff_nearest_rank():
    ds = DelayDataset(np.arange(1.0, 101.0))  # 1..100
    kept, cutoff = apply_cutoff(ds, 0.1)
    assert cutoff == 90.0
    assert len(kept) == 90
    assert kept.delays[-1] == 90.0
    # ties: rank ceil(0.5 * 7) = 4 keeps four delays, not every copy of
    # the cutoff delay 2.0
    tied = DelayDataset(np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0]))
    kept, cutoff = apply_cutoff(tied, 0.5)
    assert cutoff == 2.0
    assert kept.delays.tolist() == [1.0, 2.0, 2.0, 2.0]


def test_cutoff_epsilon_zero_keeps_all():
    ds = DelayDataset(np.array([1.0, 5.0, 2.0]))
    kept, cutoff = apply_cutoff(ds, 0.0)
    assert len(kept) == 3
    assert cutoff == 5.0


def test_cutoff_rejects_bad_epsilon():
    ds = DelayDataset(np.array([1.0]))
    with pytest.raises(ValueError):
        apply_cutoff(ds, 1.0)
    with pytest.raises(ValueError):
        apply_cutoff(ds, -0.1)


def test_bin_hand_example():
    # one sub-ms report + four delays in two equal-count bins
    ds = DelayDataset(np.array([0.0005, 1.0, 2.0, 3.0, 4.0]))
    b = bin_delays(ds, 2)
    assert b.sub_ms_fraction == pytest.approx(0.2)
    assert_allclose(b.bin_means, [0.001, 1.5, 3.5])
    assert list(b.counts) == [1, 2, 2]
    assert (b.M, b.M_prime, b.N) == (5, 4, 3)


def test_bin_leftover_goes_to_extra_bin():
    ds = DelayDataset(np.array([1.0, 2.0, 3.0, 4.0, 10.0]))
    b = bin_delays(ds, 2)
    # floor(5/2)=2 per bin, one leftover delay in its own bin
    assert list(b.counts) == [0, 2, 2, 1]
    assert_allclose(b.bin_means, [0.001, 1.5, 3.5, 10.0])


@pytest.mark.parametrize("seed", [6, 7])
@pytest.mark.parametrize("n_bins", [1, 7, 128, 661])
def test_bin_means_equal_a_per_bin_loop(seed, n_bins):
    # the equal-count bins are averaged as rows of one array; the means
    # are bit for bit each bin's own mean
    kept, _ = apply_cutoff(synth_delays(BITCOIN_LIKE, 5_000, seed=seed), 0.01)
    rest = kept.delays[kept.delays >= 1e-3]
    per_bin = len(rest) // n_bins
    loop = [rest[i * per_bin:(i + 1) * per_bin].mean() for i in range(n_bins)]
    b = bin_delays(kept, n_bins)
    assert b.bin_means[1:n_bins + 1].tolist() == loop
    assert list(b.counts[1:n_bins + 1]) == [per_bin] * n_bins


def test_bin_rejects_bad_args():
    ds = DelayDataset(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        bin_delays(ds, 0)
    with pytest.raises(ValueError):
        bin_delays(ds, 3)
    with pytest.raises(ValueError):
        bin_delays(DelayDataset(np.array([0.0001])), 1)


def test_to_profile_hand_example():
    ds = DelayDataset(np.array([0.0005, 1.0, 2.0, 3.0, 4.0]))
    prof = to_profile(bin_delays(ds, 2), 1 / 600)
    assert prof.thresholds == (0.0, 0.001, 1.5, 3.5)
    assert_allclose(prof.fractions, (0.0, 0.2, 0.6))
    assert prof.fullrate == 1 / 600


def test_to_profile_reads_the_cumulative_counts_of_unequal_bins():
    # segment i mines at the share of the delays in bins 0..i-1, one
    # division of the cumulative count, whatever the bins' sizes
    means = [0.001, 1.0, 2.0, 3.0]
    prof = to_profile(BinningResult(means, [1, 3, 5, 1]), 1.0)
    assert prof.fractions == (0.0, 0.1, 0.4, 0.9)
    prof = to_profile(BinningResult(means, [1, 6, 1, 1]), 1.0)
    assert prof.fractions == (0.0, 1 / 9, 7 / 9, 8 / 9)


def test_pipeline_fractions_bounded():
    ds = synth_delays(BITCOIN_LIKE, 5_000, seed=11)
    kept, _ = apply_cutoff(ds, 0.01)
    prof = to_profile(bin_delays(kept, 32), 1.0)
    f = np.array(prof.fractions)
    assert np.all(np.diff(f) >= 0)
    assert f[-1] <= 1.0


def test_synth_reproducible():
    a = synth_delays(BITCOIN_LIKE, 1000, seed=42)
    b = synth_delays(BITCOIN_LIKE, 1000, seed=42)
    c = synth_delays(BITCOIN_LIKE, 1000, seed=43)
    assert_allclose(a.delays, b.delays)
    assert not np.allclose(a.delays, c.delays)


def test_synth_statistics():
    ds = synth_delays(BITCOIN_LIKE, 200_000, seed=0)
    assert np.median(ds.delays) == pytest.approx(6.5, rel=0.1)
    assert ds.delays.mean() == pytest.approx(12.6, rel=0.1)
    sub = np.mean(ds.delays < 1e-3)
    assert sub == pytest.approx(0.01, rel=0.25)


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(atom_weight=0.5, components=((0.4, 1.0, 1.0),))
    with pytest.raises(ValueError):
        SynthSpec(atom_weight=0.5, components=((0.5, -1.0, 1.0),))


def _binning(**fields):
    base = dict(bin_means=[0.001, 1.0], counts=[1, 9])
    return BinningResult(**{**base, **fields})


@pytest.mark.parametrize("call, message", [
    (lambda: _binning(counts=[1, -1]), "bin counts must be nonnegative"),
    (lambda: _binning(counts=[1, 8, 1]),
     "bin counts and means differ in length"),
    (lambda: _binning(counts=[0.5, 9.7]), "whole numbers"),
    (lambda: _binning(counts=[1, np.inf]), "whole numbers"),
    (lambda: _binning(bin_means=[1.0, 0.001]), "strictly increasing"),
    (lambda: _binning(bin_means=[1.0, 1.0]), "strictly increasing"),
    (lambda: SynthSpec(atom_weight=-0.5, components=((1.5, 1.0, 1.0),)),
     "negative mixture weight"),
    (lambda: synth_delays(BITCOIN_LIKE, 0), "n must be >= 1"),
], ids=["negative-count", "length-mismatch", "fractional-count",
        "infinite-count", "falling-means", "equal-means", "negative-weight",
        "no-delays"])
def test_binning_and_synthesis_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_binning_derives_its_sizes_as_python_numbers():
    # Python int and float: `powruin ingest` prints them, and a NumPy 2
    # scalar would print as np.float64(...)
    b = BinningResult([0.001, 1.5, 3.5], [1, 2, 2])
    sizes = (b.N, b.M, b.M_prime, b.sub_ms_fraction)
    assert sizes == (3, 5, 4, 0.2)
    assert [type(x) for x in sizes] == [int, int, int, float]
    with pytest.raises(ValueError, match="not all 0"):
        BinningResult([0.001, 1.0], [0, 0])
