"""Record the q(k) reference table the benchmark's output check uses.

    PYTHONPATH=src python3 perfbench/record_reference.py

At full and tiny size it covers:

- the zero and fixed-delay columns of grid-deep;
- the analytic q of the criterion 5/8 profile that mc-variable checks its
  Monte Carlo estimates against, and the zero-delay q of mc-variable's cold
  sweep;
- the variable cells of variable-k20 and grid-deep on fixed reference
  delays (each spec's ``reference_seed``), with the SHA-256 of each
  reference delay file, so the check knows it sees the same inputs.

Re-record only when q is meant to change.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workload import (BLOCK_INTERVAL, CRITERION_PROFILE, SPECS,  # noqa: E402
                      TINY, betas_of, cell_label, ref_key,
                      reference_delays_key, reference_label, write_delays)

from powruin import ingest  # noqa: E402
from powruin.delaymodel import HashrateProfile  # noqa: E402
from powruin.doublespend import DelayModel, analyze  # noqa: E402


def q_table(model, beta, spec):
    return [r.q for r in analyze(model, beta, BLOCK_INTERVAL, spec["k_max"],
                                 K=spec["K"])]


def record_reference_cells(spec, table, inputs, tmp):
    path = Path(tmp) / "reference_delays.txt"
    inputs[reference_delays_key(spec)] = write_delays(
        path, spec["n_delays"], spec["reference_seed"])
    kept, _ = ingest.apply_cutoff(ingest.load_delays(path), spec["epsilon"])
    profile = ingest.to_profile(ingest.bin_delays(kept, spec["bins"]),
                                1.0 / BLOCK_INTERVAL)
    model = DelayModel("variable", profile=profile)
    for beta in betas_of(spec):
        key = ref_key(reference_label(spec, beta), spec["K"], spec["k_max"])
        table[key] = q_table(model, beta, spec)


def main():
    table, inputs = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for specs in (SPECS, TINY):
            grid = specs["grid-deep"]
            delay = grid["fixed_delay"]
            for beta in grid["betas"]:
                for kind, model in (("zero", DelayModel("zero")),
                                    (f"fixed{delay:g}",
                                     DelayModel("fixed", delay=delay))):
                    key = ref_key(cell_label(kind, beta), grid["K"],
                                  grid["k_max"])
                    table[key] = q_table(model, beta, grid)
            mc = specs["mc-variable"]
            profile = HashrateProfile(*CRITERION_PROFILE, 1.0)
            key = ref_key(cell_label("criterion", mc["beta"]), mc["K"],
                          mc["k_max"])
            table[key] = q_table(DelayModel("variable", profile=profile),
                                 mc["beta"], mc)
            key = ref_key(cell_label("zero", mc["beta"]), mc["K"],
                          mc["k_max"])
            table[key] = q_table(DelayModel("zero"), mc["beta"], mc)
            for name in ("variable-k20", "grid-deep"):
                record_reference_cells(specs[name], table, inputs, tmp)
    out = HERE / "reference_q.json"
    out.write_text(json.dumps({"inputs": inputs, "q": table}, indent=0,
                              sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} reference rows to {out}")


if __name__ == "__main__":
    main()
