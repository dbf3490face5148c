"""Tied delays and the arrays ingest shares.

Delays recorded to the whole second tie, and equal-count bins of them give
runs of equal means; ``bin_delays`` merges each run into one bin, which
leaves the profile unchanged.  The cutoff and the bins are views of the
one sorted array a delay file becomes; a caller's writable array is
copied, never aliased."""

import numpy as np
import pytest

from powruin.cli import main
from powruin.ingest import (BITCOIN_LIKE, DelayDataset, apply_cutoff,
                            bin_delays, load_delays, synth_delays, to_profile)


def _write(path, delays):
    path.write_text("".join(f"{float(x)!r}\n" for x in delays),
                    encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def whole_seconds():
    """50 000 lognormal delays rounded to whole seconds, sorted."""
    rng = np.random.default_rng(5)
    return np.sort(np.round(rng.lognormal(np.log(6.5), 1.15, 50_000)))


def _sweep(capsys, path, *flags):
    code = main(["sweep", "--model", "variable", "--data", str(path),
                 "--k-max", "20", *flags])
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    return code, np.array([float(row.split(",")[1]) for row in rows])


def test_whole_second_delays_merge_into_fewer_bins(tmp_path, whole_seconds,
                                                   capsys):
    kept, _ = apply_cutoff(DelayDataset(whole_seconds), 0.01)
    binning = bin_delays(kept, 128)
    rest = kept.delays[kept.delays >= 1e-3]
    per_bin = len(rest) // 128
    means = rest[:128 * per_bin].reshape(128, per_bin).mean(axis=1)
    distinct = np.unique(np.r_[1e-3, means, rest[128 * per_bin:].mean()])
    assert binning.bin_means.tolist() == distinct.tolist()
    assert binning.N < 100 and binning.M == len(kept)
    path = _write(tmp_path / "seconds.txt", whole_seconds)
    assert main(["ingest", "--data", str(path)]) == 0
    capsys.readouterr()
    code, q = _sweep(capsys, path)
    assert code == 0 and len(q) == 20


def test_merged_q_matches_the_data_jittered_apart(tmp_path, whole_seconds,
                                                  capsys):
    # 1e-9 s per rank breaks every tie: no bin mean repeats, and the
    # zero-length segments the merge drops come back with lengths below
    # 1e-4 s.  --epsilon 0 keeps every delay in both files; at the default
    # 0.01 both keep the nearest rank's 49 500 delays, which holds only
    # because the cutoff drops the tied copies of the cutoff delay past it.
    jittered = whole_seconds + 1e-9 * np.arange(len(whole_seconds))
    paths = (_write(tmp_path / "s.txt", whole_seconds),
             _write(tmp_path / "j.txt", jittered))
    for epsilon in ("0", "0.01"):
        code, q = _sweep(capsys, paths[0], "--epsilon", epsilon)
        assert code == 0
        code, q_jittered = _sweep(capsys, paths[1], "--epsilon", epsilon)
        assert code == 0
        tolerance = np.minimum(1e-6, 1e-10 + 1e-4 * np.abs(q_jittered))
        assert np.all(np.abs(q - q_jittered) <= tolerance), epsilon


def test_equal_means_merge_into_the_first_bin_of_their_run():
    ds = DelayDataset(np.array([0.0005, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0]))
    b = bin_delays(ds, 3)  # bins (1, 1), (1, 1), (2, 2)
    assert b.bin_means.tolist() == [0.001, 1.0, 2.0]
    assert b.counts.tolist() == [1, 4, 2]
    # the dropped segment [1, 1) has zero length: the profile mines at
    # 1/7 up to 1 s and at 5/7 from 1 s to 2 s, as it would unmerged
    prof = to_profile(b, 1.0)
    assert prof.thresholds == (0.0, 0.001, 1.0, 2.0)
    assert prof.fractions == (0.0, 1 / 7, 5 / 7)


def test_a_mean_rounding_puts_below_an_earlier_one_merges():
    # three copies of 0.1 average to 0.1 + 1 ulp; the lone leftover 0.1
    # averages to 0.1, below the bins before it
    b = bin_delays(DelayDataset(np.full(7, 0.1)), 2)
    assert b.bin_means.tolist() == [0.001, np.full(3, 0.1).mean()]
    assert b.counts.tolist() == [0, 7]


@pytest.mark.parametrize("n_bins", [1, 7, 128, 661])
def test_bins_without_ties_are_not_merged(n_bins):
    kept, _ = apply_cutoff(synth_delays(BITCOIN_LIKE, 5_000, seed=3), 0.01)
    n_sub = int(np.sum(kept.delays < 1e-3))
    rest = kept.delays[n_sub:]
    per_bin = len(rest) // n_bins
    full = rest[:n_bins * per_bin].reshape(n_bins, per_bin)
    leftover = rest[n_bins * per_bin:]
    last = [(leftover.mean(), len(leftover))] if len(leftover) else []
    b = bin_delays(kept, n_bins)
    assert b.bin_means.tolist() == ([0.001] + full.mean(axis=1).tolist()
                                    + [mean for mean, _ in last])
    assert b.counts.tolist() == ([n_sub] + [per_bin] * n_bins
                                 + [count for _, count in last])


def test_a_delay_file_becomes_one_read_only_array_shared_by_views(tmp_path):
    path = _write(tmp_path / "d.txt", [3.0, 0.0005, 1.0, 2.0, 5.0, 4.0])
    ds = load_delays(path)
    assert ds.delays.tolist() == [0.0005, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert not ds.delays.flags.writeable
    kept, cutoff = apply_cutoff(ds, 0.2)
    assert cutoff == 4.0 and kept.delays.tolist() == [0.0005, 1, 2, 3, 4]
    assert np.shares_memory(kept.delays, ds.delays)
    with pytest.raises(ValueError, match="read-only"):
        kept.delays[0] = 1.0


def test_a_callers_array_is_copied_and_sorted():
    ordered = np.array([1.0, 2.0, 3.0])
    frozen_view = ordered[:]
    frozen_view.flags.writeable = False  # its owner stays writable
    reversed_frozen = np.array([3.0, 2.0, 1.0])
    reversed_frozen.flags.writeable = False
    for given in (np.array([3.0, 1.0, 2.0]), ordered, frozen_view,
                  reversed_frozen):
        ds = DelayDataset(given)
        assert ds.delays.tolist() == [1.0, 2.0, 3.0]
        assert not ds.delays.flags.writeable
        assert not np.shares_memory(ds.delays, given)
    # sorted and read-only down to its owner: nothing can write it, so it
    # is kept as it is
    ordered.flags.writeable = False
    assert DelayDataset(ordered).delays is ordered
