"""powruin benchmark: one workload, one seed, end-to-end or traced metrics.

Run from the root of a powruin checkout:

    python3 perfbench/run.py --workload variable-k20 --seed 1 --seconds 15 \
        --trace 0

The seed makes the inputs (delay files, Monte Carlo chunk seeds); the
library sees only those inputs.  Each workload runs in its own process with
BLAS pinned to one thread in that process's environment.  ``--seconds``
fixes the number of operations (see ``pass_counts`` in workload.py).  With
``--trace 0`` that process also times two more cold set-ups and cold CLI
``sweep`` processes between segments of its timed passes; with
``--trace 1`` it reports per-layer metrics from spans recorded around the
library's public functions, and the tracing overhead.  Human-readable lines
come first; the last line of standard output is one JSON object.  Result
files go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workload import (CRITERION_PROFILE, SPECS, delay_files,  # noqa: E402
                      pass_counts, spec_for, write_delays)

RUN_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# Units of the metrics that are printed and reported but not declared in
# BENCHMARK.json; the declared ones take their unit from there.
UNDECLARED_UNITS = {
    "latency_mean_s": "s", "q_per_s": "1/s", "trials_per_s": "1/s",
    "fail_ratio": "ratio",
    "ingest.s": "s", "simulate.warmup_s": "s", "simulate.race_s": "s",
    "simulate.sample_s": "s",
}


def units_of(declared):
    units = dict(UNDECLARED_UNITS)
    for section in ("end_to_end", "per_layer"):
        units.update((m["name"], m["unit"]) for m in declared[section])
    return units


class BenchError(RuntimeError):
    pass


def write_inputs(workload, spec, seed, dest, n_ops):
    if workload == "mc-variable":
        thresholds, fractions = CRITERION_PROFILE
        rows = [f"{t!r},{f!r}" for t, f in zip(thresholds[1:], fractions)]
        text = "\n".join(["# fullrate_bps = 1.0", "threshold_s,cum_fraction",
                          *rows]) + "\n"
        (dest / "profile.csv").write_text(text, encoding="utf-8")
        return
    for name, file_seed in delay_files(workload, seed, n_ops):
        write_delays(dest / name, spec["n_delays"], file_seed)
    write_delays(dest / "reference_delays.txt", spec["n_delays"],
                 spec["reference_seed"])


def _stop_on_sigterm(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def _run_child(cmd, env, cwd, deadline):
    """Run the workload process in its own process group, so a timeout, a
    SIGTERM or an interrupt also stops the cold processes it starts."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    previous = signal.signal(signal.SIGTERM, _stop_on_sigterm)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("the workload process ran out of time") from None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    if proc.returncode != 0:
        raise BenchError(f"the workload process exited {proc.returncode}:\n"
                         f"{err[-2000:]}")


def tail_latency(values):
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  Below 20 samples no
    percentile at or above the median has 10 samples beyond it; there the
    upper quartile (inclusive method) is reported, since the maximum of a
    handful of samples moves with every slow spell of a shared machine.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        if n < 2:
            return xs[-1], 100.0, 0
        q3 = statistics.quantiles(xs, n=4, method="inclusive")[2]
        return q3, 75.0, sum(x > q3 for x in xs)
    j = n - 10  # 1-based rank with exactly 10 samples above it
    return xs[j - 1], 100.0 * j / n, 10


def source_identity(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "powruin").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=20).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def op_outcomes(res):
    """Output-check findings and the number of failed operations."""
    violations = list(res["check_violations"])
    for op in res["ops"]:
        violations += op["violations"]
    failed = sum(1 for op in res["ops"] if op["error"] or op["violations"])
    return violations, failed


def summarize_plain(workload, res, setups):
    ops = res["ops"]
    durations = [op["dt"] for op in ops]
    tail, pct, beyond = tail_latency(durations)
    violations, failed = op_outcomes(res)
    cold = res["cold"]
    for sweep in cold:
        violations += sweep["violations"]
        failed += bool(sweep["exit"] or sweep["violations"])
    attempted = len(ops) + len(cold)
    op_time = sum(durations)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_s": statistics.median(durations),
        "latency_mean_s": op_time / len(ops),
        "latency_tail_s": tail,
        "cold_sweep_s": statistics.median(c["seconds"] for c in cold),
        "peak_rss_mb": res["peak_rss_mb"],
        "fail_ratio": failed / attempted,
    }
    if workload == "mc-variable":
        metrics["trials_per_s"] = res["trials_per_op"] * len(ops) / op_time
    else:
        metrics["q_per_s"] = sum(op["n_q"] for op in ops
                                 if not (op["error"] or op["violations"])
                                 ) / op_time
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups "
                   f"{[round(s, 3) for s in setups]}",
        "latency_p50_s": f"median of {len(ops)} operations",
        "latency_mean_s": f"mean of {len(ops)} operations",
        "latency_tail_s": f"p{pct:.1f} of {len(ops)} operations, "
                          f"{beyond} beyond",
        "cold_sweep_s": f"median of {len(cold)}, exit codes "
                        f"{[c['exit'] for c in cold]}",
        "fail_ratio": f"{failed} of {attempted} operations failed "
                      "(raised, or failed the output check)",
    }
    extra = {"latency_tail_percentile": pct, "latency_tail_beyond": beyond,
             "latency_samples": len(ops), "setup_samples": setups,
             "cold_sweeps": cold}
    return metrics, notes, extra, attempted, failed, violations


def summarize_traced(res):
    violations, failed = op_outcomes(res)
    metrics = dict(res["per_layer"])
    notes = {"trace.overhead_pct": "median traced pass against median "
                                   "untraced pass in the same process"}
    extra = {"counts_repeat_across_passes": res["counts_repeat"],
             "spans": res["spans"],
             "pass_seconds": res["pass_times"]}
    return metrics, notes, extra, len(res["ops"]), failed, violations


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs and K=9, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "powruin" / "__init__.py").is_file():
        print("error: src/powruin not found; run from the root of a powruin "
              "checkout", file=sys.stderr)
        return 2
    try:
        declared = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(str(root / "src" / "powruin"), quiet=1)

    spec = spec_for(args.workload, args.tiny)
    tag = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
           + ("-tiny" if args.tiny else ""))
    work = root / "perfbench" / "out" / tag
    work.mkdir(parents=True, exist_ok=True)
    write_inputs(args.workload, spec, args.seed, work,
                 sum(pass_counts(spec, args.seconds, bool(args.trace))))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)

    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--inputs", str(work), "--result", str(work / "workload.json"),
           *(["--tiny"] if args.tiny else [])]
    t0 = time.time()
    try:
        _run_child(cmd, env, root, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads((work / "workload.json").read_text(encoding="utf-8"))
    if args.trace:
        summary, section = summarize_traced(res), "per_layer"
    else:
        setups = [res["setup_done_wall"] - t0] + res["setups"]
        summary = summarize_plain(args.workload, res, setups)
        section = "end_to_end"

    metrics, notes, extra, attempted, failed, violations = summary
    units = units_of(declared)
    errors = {}
    for op in res["ops"]:
        if op["error"]:
            errors[op["error"]] = errors.get(op["error"], 0) + 1
    env_info = dict(res["env"], **source_identity(root), seed=args.seed,
                    seconds=args.seconds, operations=len(res["ops"]),
                    passes=len(res["pass_times"]))
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "tiny": args.tiny, "metrics": metrics,
              "units": {k: units[k] for k in metrics}, "notes": notes,
              **extra, "attempted": attempted, "failed": failed,
              "errors": errors, "violations": violations,
              "environment": env_info}
    (work / "report.json").write_text(json.dumps(report, indent=1),
                                      encoding="utf-8")

    print(f"# powruin benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, value in metrics.items():
        line = f"{name:38s} {value:>14.6g} {units[name]}"
        if name in notes:
            line += f"   ({notes[name]})"
        print(line)
    for msg, count in sorted(errors.items()):
        print(f"# failed operation x{count}: {msg}")
    for msg in sorted(set(violations)):
        print(f"# output check: {msg}")

    missing = [m["name"] for m in declared[section]
               if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    final = {"correct": not violations, "attempted": attempted,
             "failed": failed,
             "metrics": {m["name"]: {"value": metrics[m["name"]],
                                     "unit": m["unit"]}
                         for m in declared[section]}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
