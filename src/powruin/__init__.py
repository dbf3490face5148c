"""Double-spend probability analysis for proof-of-work longest-chain
protocols with time-varying honest mining rates.

The analytic pipeline models honest inter-mining times as matrix-exponential
distributions, derives the per-interval adversary block count, and applies
discrete-time ruin theory under the k-deep confirmation rule.  A Monte Carlo
simulator provides an independent estimate of the same probability.
"""

from .delaymodel import (CalibrationResult, HashrateProfile, assemble_theta,
                         calibrate_alpha, fixed_delay_theta,
                         random_delay_theta, zero_delay_theta)
from .doublespend import (DelayModel, DoubleSpendResult, analyze,
                          adversary_lead_pmf, compute_q, honest_lead_pmf,
                          poisson_partial_pgf, truncated_product)
from .medist import MEDistribution, cme, erlang_me, make_me
from .phi import PhiDistribution, phi_from_theta
from .ruinlindley import (LeadDistribution, RuinTable, UnstableRegimeError,
                          lead_pmf, ruin_recursive, ruin_via_lindley)
from .simulate import SimConfig, SimEstimate, simulate_attack_sweep

__version__ = "0.1.0"
