"""Generate ``src/powruin/_cmetable.py``, the unit-rate CME parameters.

    PYTHONPATH=src python3 tools/make_cme_table.py

For K = 1, 3, 5, ... it searches the frequency and phases of the order-K
concentrated ME density exp(-x) prod_i cos^2((omega x - phi_i)/2) that
minimize its squared coefficient of variation: a coarse grid over
frequency and linearly spaced phases, then a Nelder-Mead polish with all
phases free.  It stops at the first K whose CME fails ``make_me`` or
exceeds scv = 2.5/K^2, and writes the rows before it, each value with
``repr`` so that it reads back bit for bit.  The search is deterministic
and takes a few minutes.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from powruin.medist import (MEValidationError, _cme_from_params,
                            _cosine_harmonics, make_me)

TABLE = Path(__file__).resolve().parents[1] / "src" / "powruin" / "_cmetable.py"


def cosine_moments(omega, phases, orders=(0, 1, 2)):
    """Raw moments of exp(-x) prod_i cos^2((omega x - phi_i)/2), x >= 0."""
    n = len(phases)
    coeffs = _cosine_harmonics(phases)
    js = np.arange(-n, n + 1)
    out = []
    for k in orders:
        vals = math.factorial(k) / (1.0 - 1j * js * omega) ** (k + 1)
        out.append(float((coeffs * vals).sum().real) / 2**n)
    return out


def cosine_scv(params, n):
    omega = params[0]
    phases = params[1:]
    m0, m1, m2 = cosine_moments(omega, phases)
    if m0 <= 1e-12 or m1 <= 0:
        return 10.0
    mean = m1 / m0
    return (m2 / m0 - mean**2) / mean**2


def search(K: int):
    """Optimized (omega, phases) for order K at unit decay rate."""
    n = (K - 1) // 2
    best_p, best_v = None, np.inf
    for omega in np.linspace(0.2, 4.0, 40):
        for phi0 in np.linspace(0.0, 2 * np.pi, 24, endpoint=False):
            for dphi in np.linspace(0.0, 1.0, 20):
                params = np.r_[omega, phi0 + dphi * np.arange(n)]
                val = cosine_scv(params, n)
                if val < best_v:
                    best_p, best_v = params, val
    res = minimize(cosine_scv, best_p, args=(n,), method="Nelder-Mead",
                   options=dict(xatol=1e-12, fatol=1e-16,
                                maxiter=20000, maxfev=40000))
    return float(res.x[0]), tuple(float(p) for p in res.x[1:])


def supported_rows():
    """Rows (K, omega, phases) up to the first K the search gets wrong."""
    rows = []
    for K in itertools.count(1, 2):
        omega, phases = search(K)
        try:
            d = _cme_from_params(omega, phases)
            scv = make_me(d.init, d.subgen).scv()
        except MEValidationError as exc:
            print(f"K={K}: stop, {exc}")
            return rows
        if not scv <= 2.5 / K**2:
            print(f"K={K}: stop, scv*K^2 = {scv * K**2:.3f} > 2.5")
            return rows
        print(f"K={K}: scv*K^2 = {scv * K**2:.3f}")
        rows.append((K, omega, phases))


def render(rows) -> str:
    lines = ['"""Unit-rate concentrated ME parameters (omega, phases) by odd '
             'order K.', "",
             "Generated by tools/make_cme_table.py; do not edit.", '"""', "",
             "CME_UNIT = {"]
    for K, omega, phases in rows:
        lines.append(f"    {K}: ({omega!r}, (")
        for i in range(0, len(phases), 3):
            lines.append("        " + " ".join(f"{p!r}," for p in phases[i:i + 3]))
        lines.append("    )),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main():
    TABLE.write_text(render(supported_rows()), encoding="utf-8")
    print(f"wrote {TABLE}")


if __name__ == "__main__":
    main()
