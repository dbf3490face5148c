"""Smoke test of the benchmark itself.

Runs every workload at tiny size in both modes and checks that the last
line has the contract's keys and every declared metric with its unit, and
that the report file carries every metric the benchmark documents.  Then it
feeds deliberately corrupted q values through the output check and expects
each to be caught.  From the root of a checkout:

    python3 perfbench/smoke.py

Exits 0 when every check passes; takes a couple of minutes.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
from run import UNDECLARED_UNITS, units_of  # noqa: E402
from workload import SPECS, TINY, Workload, cell_label, load_reference  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
UNITS = units_of(DECLARED)
PLAIN = ({m["name"] for m in DECLARED["end_to_end"]}
         | {"latency_mean_s", "fail_ratio"})
TRACED = ({m["name"] for m in DECLARED["per_layer"]}
          | {name for name in UNDECLARED_UNITS if "." in name})


def run_tiny(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=175)
    assert proc.returncode == 0, proc.stderr[-2000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}, final
    assert final["attempted"] >= 1 and 0 <= final["failed"] <= final["attempted"]
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in section}
    for m in section:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"]), m
    tag = f"{workload}-seed1-trace{trace}-tiny"
    report = json.loads((HERE / "out" / tag / "report.json").read_text())
    expected = TRACED if trace else PLAIN | (
        {"trials_per_s"} if workload == "mc-variable" else {"q_per_s"})
    missing = expected - set(report["metrics"])
    assert not missing, f"{workload} trace={trace}: missing {missing}"
    for name in expected:
        assert report["units"][name] == UNITS[name]
    return final


def corrupted_q_is_caught():
    sys.path.insert(0, str(ROOT / "src"))
    from workload import _Powruin
    pr = _Powruin()
    reference = load_reference()
    spec = TINY["grid-deep"]
    wl = Workload("grid-deep", spec, 1, ROOT, pr)
    label = cell_label("zero", spec["betas"][0])
    wl.models[label] = ("zero", None, spec["betas"][0])
    qs = wl._analyze(label)
    assert wl.op_violations(label, qs) == []
    assert wl.deep_violations(label, qs, reference) == []
    for k, bad in ((2, qs[2] + 1e-3), (0, float("nan")), (1, 1.5),
                   (len(qs) // 2, qs[len(qs) // 2] * 1.01)):
        corrupt = list(qs)
        corrupt[k] = bad
        assert wl.deep_violations(label, corrupt, reference), (k, bad)

    # The variable cells on the reference delays catch a wrong layer even
    # where analyze and the recomputation would share it: here Phi is built
    # for a 0.1% stronger adversary.
    inputs = HERE / "out" / "grid-deep-seed1-trace0-tiny"
    assert Workload("grid-deep", spec, 1, inputs,
                    pr).reference_violations(reference) == []
    phi_from_theta = pr.phi.phi_from_theta
    pr.phi.phi_from_theta = (
        lambda theta, beta, k_max: phi_from_theta(theta, beta * 1.001, k_max))
    try:
        assert Workload("grid-deep", spec, 1, inputs,
                        pr).reference_violations(reference)
    finally:
        pr.phi.phi_from_theta = phi_from_theta

    mc = Workload("mc-variable", TINY["mc-variable"], 1, ROOT, pr)
    mc.analytic = next(q for k, q in reference["q"].items()
                       if k.startswith("criterion/") and "K=9" in k)
    assert mc.op_violations("chunk", list(mc.analytic)) == []
    assert mc.op_violations("chunk", [q + 0.2 for q in mc.analytic])


def main():
    assert set(TINY) == set(SPECS)
    for workload in sorted(SPECS):
        for trace in (0, 1):
            final = run_tiny(workload, trace)
            print(f"ok  {workload} trace={trace}: attempted "
                  f"{final['attempted']}, failed {final['failed']}")
    corrupted_q_is_caught()
    print("ok  corrupted q values are caught by the output check")
    return 0


if __name__ == "__main__":
    sys.exit(main())
