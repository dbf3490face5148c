import numpy as np
import pytest

from powruin.ingest import BinningResult, DelayDataset
from powruin.medist import erlang_me
from powruin.phi import PhiDistribution
from powruin.ruinlindley import LeadDistribution, RuinTable


@pytest.mark.parametrize("make", [
    lambda: PhiDistribution(np.array([0.5, 0.2]), 0.4),
    lambda: LeadDistribution(np.array([0.5, 0.2])),
    lambda: RuinTable(np.array([0.5, 0.2])),
    lambda: DelayDataset(np.array([1.0, 2.0])),
    lambda: BinningResult(np.array([0.001, 1.0]), np.array([1, 9])),
    lambda: erlang_me(2, 1.0),
    lambda: PhiDistribution(masses=np.array([0.5, 0.2]), mean=0.4),
    lambda: LeadDistribution(masses=np.array([0.5, 0.2])),
    lambda: RuinTable(psi=np.array([0.5, 0.2])),
    lambda: DelayDataset(delays=np.array([1.0, 2.0])),
    lambda: BinningResult(bin_means=np.array([0.001, 1.0]),
                          counts=np.array([1, 9])),
], ids=["phi", "lead", "ruin", "dataset", "binning", "theta", "phi-keyword",
        "lead-keyword", "ruin-keyword", "dataset-keyword", "binning-keyword"])
def test_array_holding_values_compare_by_identity(make):
    # NumPy fields have no single truth value, so these values compare and
    # hash by identity: equal content is not equality
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
