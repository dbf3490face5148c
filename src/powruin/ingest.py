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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .delaymodel import HashrateProfile

__all__ = [
    "DelayDataset", "BinningResult", "SynthSpec", "BITCOIN_LIKE",
    "load_delays", "apply_cutoff", "bin_delays", "to_profile", "synth_delays",
]

_SUB_MS = 1e-3
_CHUNK_BYTES = 1 << 16  # load_delays reads about this much text at a time


@dataclass(frozen=True, eq=False)
class DelayDataset:
    delays: np.ndarray  # seconds, sorted ascending

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=float)
        if len(d) == 0:
            raise ValueError("empty delay dataset")
        if not np.all((d >= 0) & (d < np.inf)):
            raise ValueError("negative or non-finite delay in dataset")
        object.__setattr__(self, "delays", np.sort(d))

    def __len__(self):
        return len(self.delays)


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

    Blank lines and lines starting with '#' are ignored; an optional second
    comma-separated column (e.g. a date) is dropped; '\\n', '\\r\\n' and a
    lone '\\r' each end a line, and a leading UTF-8 byte-order mark is
    skipped.  The file is read in chunks of about 64 KB of lines, and each
    chunk's rows are parsed by ``float`` and checked as one array, so no
    more than a chunk of text is held at once.  The first
    malformed, negative or non-finite row is reported with its line number,
    which is counted only for the chunk that holds it.
    """
    path = Path(path)
    parts = []
    first = 1  # line number of the chunk's first line
    with open(path, encoding="utf-8-sig") as fh:
        while lines := fh.readlines(_CHUNK_BYTES):
            rows = [s for line in lines if (s := line.strip()) and s[0] != "#"]
            if "," in "".join(rows):
                rows = [row.split(",", 1)[0] for row in rows]
            try:
                delays = np.fromiter(map(float, rows), float, len(rows))
                ok = (delays.min(initial=0.0) >= 0
                      and delays.max(initial=0.0) < np.inf)
            except ValueError:
                ok = False
            if not ok:
                raise _bad_row(path, lines, first, rows)
            parts.append(delays)
            first += len(lines)
    if not any(map(len, parts)):
        raise ValueError(f"{path}: no delay rows found")
    return DelayDataset(np.concatenate(parts))


def _bad_row(path, lines, first, rows) -> ValueError:
    """The error naming a chunk's first row that ``float`` refuses or whose
    delay is negative or not finite, by its line number."""
    for i, row in enumerate(rows):
        try:
            delay = float(row)
        except ValueError:
            problem = f"cannot parse delay {row.strip()!r}"
            break
        if not 0 <= delay < math.inf:
            problem = f"invalid delay {delay}"
            break
    lineno = [n for n, line in enumerate(lines, start=first)
              if (s := line.strip()) and s[0] != "#"][i]
    return ValueError(f"{path}:{lineno}: {problem}")


def apply_cutoff(ds: DelayDataset, epsilon: float):
    """Drop delays above the 100(1-epsilon)-th percentile.

    Nearest-rank percentile: the value at 1-based index ceil((1-eps) * n)
    of the sorted data.  Returns the retained dataset and the cutoff delay;
    epsilon = 0 gives rank n, so the cutoff is the largest delay and every
    delay is kept.
    """
    if not 0 <= epsilon < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    n = len(ds)
    rank = max(math.ceil((1.0 - epsilon) * n), 1)
    cutoff = float(ds.delays[rank - 1])
    kept = ds.delays[ds.delays <= cutoff]
    return DelayDataset(kept), cutoff


def bin_delays(ds: DelayDataset, N_prime: int) -> BinningResult:
    """Split sub-millisecond reports, then bin the rest by equal counts.

    The sub-ms bin pins each report to exactly one millisecond.  The
    remaining delays form N' bins of floor(M'/N') entries in ascending
    order, the rows of one N'-row array whose row means are the bin means,
    with any leftover largest delays in one final bin.
    """
    if N_prime < 1:
        raise ValueError("N_prime must be >= 1")
    sub = ds.delays < _SUB_MS
    rest = ds.delays[~sub]
    M_prime = len(rest)
    if M_prime == 0:
        raise ValueError("all delays are sub-millisecond; nothing to bin")
    if N_prime > M_prime:
        raise ValueError(f"N_prime={N_prime} exceeds {M_prime} binnable delays")

    per_bin = M_prime // N_prime
    counts = [int(sub.sum())] + [per_bin] * N_prime
    means = [_SUB_MS] + rest[:N_prime * per_bin].reshape(
        N_prime, per_bin).mean(axis=1).tolist()
    leftover = rest[N_prime * per_bin:]
    if len(leftover):
        counts.append(len(leftover))
        means.append(float(leftover.mean()))
    return BinningResult(np.array(means), np.array(counts))


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
