"""Block propagation delay datasets and their reduction to hashrate profiles.

Processing follows three steps: drop the largest delays beyond the
100(1-epsilon)-th percentile (assumed to be non-mining echo nodes), split
off sub-millisecond reports (the mining node itself, pinned to exactly one
millisecond), then partition the rest into equal-count bins whose sample
means become the hashrate thresholds.  The cumulative fraction of reports
at or below each threshold becomes the mining-rate fraction of the segment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .delaymodel import HashrateProfile

__all__ = [
    "DelayDataset", "BinningResult", "SynthSpec", "BITCOIN_LIKE",
    "load_delays", "apply_cutoff", "bin_delays", "to_profile", "synth_delays",
]

_SUB_MS = 1e-3


@dataclass(frozen=True, eq=False)
class DelayDataset:
    """Delays in seconds, sorted ascending in a read-only array.

    The delays must be nonempty, nonnegative and finite.  A sorted array
    that neither it nor the array owning its data can write, as ingest
    leaves its arrays (``load_delays``'s, or a prefix of a dataset's), is
    kept as it is; any other input is copied and sorted into a read-only
    array, so no caller's writable array is aliased.
    """

    delays: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        if len(d) == 0:
            raise ValueError("empty delay dataset")
        if not np.all((d >= 0) & (d < np.inf)):
            raise ValueError("negative or non-finite delay in dataset")
        if (d.flags.writeable or _owner_flags(d).writeable or d.ndim != 1
                or not np.all(d[1:] >= d[:-1])):
            d = np.sort(d)
            d.flags.writeable = False
        object.__setattr__(self, "delays", d)

    def __len__(self):
        return len(self.delays)


def _owner_flags(a: np.ndarray):
    """The flags of the array that owns ``a``'s data: a view's ``base``."""
    return getattr(a.base, "flags", a.flags)


@dataclass(frozen=True, eq=False)
class BinningResult:
    """Bin means and the number of delays in each bin, the first bin being
    the sub-ms reports; the sizes and the sub-ms fraction derive from them."""

    bin_means: np.ndarray  # b_0 .. b_{N-1}, strictly increasing
    counts: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.bin_means, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if np.any(np.diff(means) <= 0):
            raise ValueError("bin means must be strictly increasing")
        if counts.shape != means.shape:
            raise ValueError("bin counts and means differ in length")
        if not (np.all((counts >= 0) & (counts == np.floor(counts))
                       & (counts < np.inf)) and counts.sum()):
            raise ValueError(
                "bin counts must be nonnegative whole numbers, not all 0")
        object.__setattr__(self, "bin_means", means)
        object.__setattr__(self, "counts", counts.astype(int))

    @property
    def N(self) -> int:
        return len(self.bin_means)

    @property
    def M(self) -> int:
        return int(self.counts.sum())

    @property
    def M_prime(self) -> int:
        return self.M - int(self.counts[0])

    @property
    def sub_ms_fraction(self) -> float:
        return int(self.counts[0]) / self.M


def load_delays(path) -> DelayDataset:
    """Parse a delay file: one delay in seconds per line.

    A '#' anywhere starts a comment; blank lines and comment lines are
    ignored; the first comma-separated column is the delay and any later
    ones (e.g. a date) are dropped; '\\n', '\\r\\n' and a lone '\\r' each
    end a line, and a leading UTF-8 byte-order mark is skipped.  NumPy's C
    reader (``np.loadtxt``) parses the file into one float array, which is
    checked, sorted in place and made read-only; no Python object is built
    per line.  That reader refuses some rows ``float`` accepts, such as
    ``1_000`` or non-ASCII digits, and so does this function.

    Only when the reader fails, or a delay is negative or not finite, does
    one streaming scan of the lines run: it names the first refused row by
    its line number, or parses the file row by row if that reader refused
    only lines that hold nothing but whitespace before any comment.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows
            delays = np.loadtxt(path, comments="#", delimiter=",", usecols=0,
                                ndmin=1, encoding="utf-8-sig")
        if not 0 <= delays.min(initial=0) <= delays.max(initial=0) < np.inf:
            raise ValueError("negative or non-finite delay")
    except ValueError:
        delays = np.fromiter(_rows(path), float)
    if not len(delays):
        raise ValueError(f"{path}: no delay rows found")
    delays.sort()
    # read-only down to the owner of its data, DelayDataset keeps it
    delays.flags.writeable = _owner_flags(delays).writeable = False
    return DelayDataset(delays)


def _rows(path):
    """The delays of ``path`` parsed line by line as ``load_delays``'s
    reader parses them, up to the first refused row: one that does not
    parse, or whose delay is negative or not finite.  That row raises the
    error naming it by its line number."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not (text := line.partition("#")[0]).strip():
                continue
            row = text.partition(",")[0].strip()
            try:  # the reader refuses underscores and non-ASCII digits
                delay = float(row if row.isascii() and "_" not in row else "?")
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cannot parse delay "
                                 f"{row!r}") from None
            if not 0 <= delay < math.inf:
                raise ValueError(f"{path}:{lineno}: invalid delay {delay}")
            yield delay


def apply_cutoff(ds: DelayDataset, epsilon: float):
    """Drop delays above the 100(1-epsilon)-th percentile.

    Nearest-rank percentile: the value at 1-based index ceil((1-eps) * n)
    of the sorted data.  Returns the retained dataset and the cutoff delay;
    epsilon = 0 gives rank n, so the cutoff is the largest delay and every
    delay is kept.  The retained delays are the sorted prefix up to the
    last copy of the cutoff, found by ``searchsorted``: a view of ``ds``'s
    array, not a copy.
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    rank = max(math.ceil((1.0 - epsilon) * len(ds)), 1)
    cutoff = float(ds.delays[rank - 1])
    kept = ds.delays[:np.searchsorted(ds.delays, cutoff, side="right")]
    return DelayDataset(kept), cutoff


def bin_delays(ds: DelayDataset, N_prime: int) -> BinningResult:
    """Split sub-millisecond reports, then bin the rest by equal counts.

    The sub-ms bin pins each report to exactly one millisecond.  The
    remaining delays, a view of the sorted array past the sub-ms prefix
    that ``searchsorted`` finds, form N' bins of floor(M'/N') entries in
    ascending order, the rows of one N'-row array whose row means are the
    bin means, with any leftover largest delays in one final bin.

    Tied delays (say, recorded to the whole second) can give runs of equal
    bin means.  Such a run holds one value only, so the segments between
    its thresholds have zero length and mine nothing: the run merges into
    its first bin, which takes the run's counts, and the profile is
    unchanged.  A mean that rounding puts below an earlier one merges
    alike, and bins of delays of exactly one millisecond merge into the
    sub-ms bin.  Data without ties gives strictly increasing means, and no
    merge touches them.
    """
    if N_prime < 1:
        raise ValueError("N_prime must be >= 1")
    n_sub = int(np.searchsorted(ds.delays, _SUB_MS))
    rest = ds.delays[n_sub:]
    M_prime = len(rest)
    if M_prime == 0:
        raise ValueError("all delays are sub-millisecond; nothing to bin")
    if N_prime > M_prime:
        raise ValueError(f"N_prime={N_prime} exceeds {M_prime} binnable delays")

    per_bin = M_prime // N_prime
    counts = [n_sub] + [per_bin] * N_prime
    means = [_SUB_MS] + rest[:N_prime * per_bin].reshape(
        N_prime, per_bin).mean(axis=1).tolist()
    leftover = rest[N_prime * per_bin:]
    if len(leftover):
        counts.append(len(leftover))
        means.append(float(leftover.mean()))
    # keep the first bin of each run of means that do not rise past it
    first = np.flatnonzero(np.diff(np.maximum.accumulate(means), prepend=0) > 0)
    return BinningResult(np.array(means)[first], np.add.reduceat(counts, first))


def to_profile(binning: BinningResult, fullrate_seed: float) -> HashrateProfile:
    """Hashrate profile with thresholds at the bin means.

    Segment i runs from threshold b_{i-1} (from 0 for i = 0) up to b_i
    and mines at the cumulative share of the delays in bins 0..i-1: the
    first segment at fraction 0, the second at the sub-ms fraction.  The
    rule reads the counts, so it holds for bins of any sizes.
    """
    shares = np.cumsum(np.concatenate([[0], binning.counts[:-1]]))
    return HashrateProfile(np.concatenate([[0.0], binning.bin_means]),
                           shares / binning.M, fullrate_seed)


@dataclass(frozen=True)
class SynthSpec:
    """Mixture of a sub-ms atom and right-skewed lognormal components.

    components: tuples (weight, median_seconds, sigma) of lognormals.
    """

    atom_weight: float
    components: tuple

    def __post_init__(self):
        total = self.atom_weight + sum(w for w, _, _ in self.components)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        if self.atom_weight < 0 or any(w < 0 for w, _, _ in self.components):
            raise ValueError("negative mixture weight")
        if any(med <= 0 or sig <= 0 for _, med, sig in self.components):
            raise ValueError("component medians and sigmas must be positive")


# Tuned so the sample median/mean land near 6.5 s / 12.6 s.
BITCOIN_LIKE = SynthSpec(
    atom_weight=0.01,
    components=((0.99, 6.5, math.sqrt(2.0 * math.log(12.6 / 6.5))),),
)


def synth_delays(spec: SynthSpec, n: int, seed: int = 0) -> DelayDataset:
    """Reproducible synthetic delay dataset for a mixture spec."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    weights = [spec.atom_weight] + [w for w, _, _ in spec.components]
    choices = rng.choice(len(weights), size=n, p=weights)
    out = np.empty(n)
    out[choices == 0] = 0.5 * _SUB_MS
    for ci, (_, median, sigma) in enumerate(spec.components, start=1):
        mask = choices == ci
        out[mask] = rng.lognormal(math.log(median), sigma, size=int(mask.sum()))
    return DelayDataset(out)
