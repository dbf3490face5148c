"""One workload in one process: set-up, timed operations, output checks.

Started by ``run.py`` with BLAS threads pinned in this process's
environment.  Inputs are files the parent generated from the seed; this
process hands the library only those files and fixed parameters.  It writes
one JSON result file and prints nothing on success.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --inputs DIR --result FILE [--setup-only] [--tiny]

Only the standard library is imported before ``import powruin.cli``, so
``import_s`` is the cold import a command-line user pays.

The number of passes is fixed by ``--seconds`` and the workload's nominal
pass time (``pass_s``), not by the clock, so a seed always attempts the same
operations and a slow spell of the machine cannot change how many fail.
Without tracing, the passes are split into the workload's segments.  After
a segment this process may wait, idle, for cold processes: a set-up
(``--setup-only``) after two segments spread over the run, and the cold CLI
sweep after each of the last ``cold_sweeps``.  Operations and cold starts
are thereby sampled across the whole run rather than in one window.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer, layer_metrics  # noqa: E402

BLOCK_INTERVAL = 600.0
# Mirrors powruin.ingest.BITCOIN_LIKE: a 1% atom of sub-millisecond reports
# (the miner itself) and a lognormal with median 6.5 s and mean 12.6 s.
# The atom count is fixed rather than drawn so every seed ingests to the
# same number of segments.
ATOM_WEIGHT, ATOM_S = 0.01, 0.5e-3
LOGN_MEDIAN, LOGN_SIGMA = 6.5, math.sqrt(2.0 * math.log(12.6 / 6.5))
# Criterion 5/8 hashrate profile: 0% of honest power for 0-2 s, 40% for
# 2-5 s, 80% for 5-10 s, then full rate.
CRITERION_PROFILE = ((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8))
MC_Z_LIMIT = 5.0
SETUP_SAMPLES = 3
INTERLUDE_TIMEOUT_S = 120.0

SPECS = {
    # pass_s: nominal seconds of one pass on 2 vCPUs; a run makes
    # round(seconds / pass_s) passes, at least min_passes and one a segment.
    # segments: the untraced passes are split into these, with two cold
    # set-ups and cold_sweeps cold sweeps between them.  The variable-k20
    # sweep repeats the ~6 s CME search, so it runs once.  Each variable-k20
    # operation reads its own delays (see delay_files), so one rare input
    # cannot set every sample of a run.
    # reference_seed: the seed of fixed delays whose variable cells are
    # checked against reference_q.json (see record_reference.py).
    "variable-k20": dict(n_delays=50_000, epsilon=0.01, bins=128, K=27,
                         beta=0.2, k_max=20, pass_s=3.0, min_passes=1,
                         segments=3, cold_sweeps=1, reference_seed=1000),
    # Not in BENCHMARK.json (see README.md); runnable by name.
    "grid-deep": dict(n_delays=2_100, epsilon=0.01, bins=4, K=27,
                      betas=(0.3, 0.35, 0.4, 0.45), fixed_delay=10.0,
                      k_max=200, pass_s=4.5, min_passes=3, segments=3,
                      cold_sweeps=3, reference_seed=1007),
    "mc-variable": dict(K=27, beta=0.2, k_max=6, warmup=2_000, stop_lead=64,
                        chunk=1_500, pass_s=0.25, min_passes=1, segments=7,
                        cold_sweeps=7),
}
# Same shapes at a size that runs in seconds; used by smoke.py.
TINY = {
    "variable-k20": dict(SPECS["variable-k20"], n_delays=3_000, bins=16, K=9,
                         k_max=5, pass_s=1.0),
    "grid-deep": dict(SPECS["grid-deep"], K=9, betas=(0.3, 0.45), k_max=20,
                      pass_s=1.0, min_passes=1),
    "mc-variable": dict(SPECS["mc-variable"], K=9, k_max=3, warmup=1_000,
                        chunk=500, pass_s=0.1, segments=3, cold_sweeps=3),
}


def probe_segments(segments):
    """Segments after which a cold set-up runs, spread over the run."""
    return {round(j * segments / SETUP_SAMPLES) - 1
            for j in range(1, SETUP_SAMPLES)}


def pass_counts(spec, seconds, traced):
    """Passes per segment: fixed by the run length, not measured."""
    segments = 1 if traced else spec["segments"]
    n = max(round(seconds / spec["pass_s"]), spec["min_passes"],
            2 if traced else segments)
    return [n // segments + (i < n % segments) for i in range(segments)]


OP_DELAYS = "delays-{}.txt"


def delay_files(workload, seed, n_ops):
    """Delay files of a run, each with the seed it is drawn from.

    variable-k20 draws one file per operation from (seed, operation), so a
    run's median covers several inputs: whether an input fails, and how
    early, depends on it.  grid-deep's cells share one file.
    """
    if workload == "variable-k20":
        return [(OP_DELAYS.format(i), [seed, i]) for i in range(n_ops)]
    return [("delays.txt", seed)]


def write_delays(path, n, seed):
    """Synthetic delays drawn from ``seed`` (an int or a list of ints), one
    per line; returns the file's SHA-256."""
    import numpy as np
    rng = np.random.default_rng(seed)
    n_atom = round(ATOM_WEIGHT * n)
    delays = np.concatenate([
        np.full(n_atom, ATOM_S),
        rng.lognormal(math.log(LOGN_MEDIAN), LOGN_SIGMA, n - n_atom)])
    rng.shuffle(delays)
    np.savetxt(path, delays, fmt="%.17g")
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cell_label(kind, beta):
    return f"{kind}/beta={beta:g}"


def spec_for(workload, tiny=False):
    return (TINY if tiny else SPECS)[workload]


def ref_key(label, K, k_max):
    return f"{label}|K={K}|T={BLOCK_INTERVAL:g}|kmax={k_max}"


def betas_of(spec):
    return spec.get("betas", (spec.get("beta"),))


def reference_delays_key(spec):
    return f"n={spec['n_delays']}|seed={spec['reference_seed']}"


def reference_label(spec, beta):
    """Label of a variable cell on the reference delays."""
    return cell_label(f"reference-{spec['n_delays']}x{spec['bins']}", beta)


def cold_sweep_args(workload, spec, inputs, j):
    """Cell label and CLI arguments of the workload's ``j``-th cold
    ``sweep``; on variable-k20 it reads operation j's delays."""
    common = ["--k-max", str(spec["k_max"]), "--cme-order", str(spec["K"]),
              "--block-interval", f"{BLOCK_INTERVAL:g}",
              "--out", str(Path(inputs) / "cold_q.csv")]
    if workload == "variable-k20":
        return variable_label(j, spec), [
            "--model", "variable", "--data",
            str(Path(inputs) / OP_DELAYS.format(j)),
            "--epsilon", f"{spec['epsilon']:g}", "--bins", str(spec["bins"]),
            "--beta-fraction", f"{spec['beta']:g}", *common]
    beta = spec["betas"][-1] if workload == "grid-deep" else spec["beta"]
    return cell_label("zero", beta), [
        "--model", "zero", "--beta-fraction", f"{beta:g}", *common]


def variable_label(i, spec):
    """Label of variable-k20's operation ``i``, on its own delays."""
    return cell_label(f"variable{i}", spec["beta"])


def q_close(q, ref):
    """Tolerance built from the acceptance criteria's: 1e-6 absolute
    (criterion 5), 1e-4 relative (criterion 7), with a 1e-10 absolute floor
    (criteria 1 and 3) for the cancellation in q = 1 - sum at deep k."""
    return abs(q - ref) <= min(1e-6, 1e-10 + 1e-4 * abs(ref))


def q_violations(label, qs, reference=None):
    """Cheap checks on one q(1..k) vector, plus the reference table."""
    out = []
    if not all(isinstance(q, float) and math.isfinite(q) and 0.0 <= q <= 1.0
               for q in qs):
        out.append(f"{label}: q not finite in [0, 1]")
    elif any(b > a + 1e-12 for a, b in zip(qs, qs[1:])):
        out.append(f"{label}: q increases with k")
    if reference is not None:
        if len(reference) != len(qs):
            out.append(f"{label}: {len(qs)} q values, reference has "
                       f"{len(reference)}")
        bad = [k for k, (q, r) in enumerate(zip(qs, reference), 1)
               if not q_close(q, r)]
        if bad:
            out.append(f"{label}: q off the reference table at k={bad[:5]}")
    return out


def load_reference():
    path = Path(__file__).with_name("reference_q.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def ingest_profile(pr, path, spec):
    ing = pr.ingest
    kept, _ = ing.apply_cutoff(ing.load_delays(path), spec["epsilon"])
    binning = ing.bin_delays(kept, spec["bins"])
    return ing.to_profile(binning, 1.0 / BLOCK_INTERVAL)


# -- the workloads -------------------------------------------------------------

class Workload:
    """Cells of one pass, the models behind them, and their checks."""

    def __init__(self, name, spec, seed, inputs, pr):
        self.name, self.spec, self.seed, self.pr = name, spec, seed, pr
        self.inputs = Path(inputs)
        self.models = {}   # label -> (kind, model argument, beta fraction)
        self.analytic = self.analytic_error = None
        self._thetas = {}  # id(profile) -> (profile, calibrated rate, theta)

    # set-up beyond the CME search: only the MC workload calibrates
    def setup(self):
        if self.name != "mc-variable":
            return
        dm = self.pr.delaymodel
        text = (self.inputs / "profile.csv").read_text(encoding="utf-8")
        self.profile = dm.HashrateProfile.from_table(text)
        cal = dm.calibrate_alpha(self.profile, BLOCK_INTERVAL, self.spec["K"],
                                 rel_tol=1e-6)
        self.rate = cal.calibrated_rate
        self.cal_profile = self.profile.with_fullrate(self.rate)

    def prepare(self, n_passes):
        """Input preparation; returns a function from the pass index to
        the cells of that pass."""
        s = self.spec
        if self.name == "variable-k20":
            for i, (name, _) in enumerate(
                    delay_files(self.name, self.seed, n_passes)):
                profile = ingest_profile(self.pr, self.inputs / name, s)
                self.models[variable_label(i, s)] = (
                    "variable", profile, s["beta"])

            def one_op(p):
                label = variable_label(p, s)
                return [(label, lambda p: self._analyze(label))]
            return one_op
        if self.name == "grid-deep":
            (name, _), = delay_files(self.name, self.seed, 1)
            profile = ingest_profile(self.pr, self.inputs / name, s)
            for kind, arg in (("zero", None),
                              (f"fixed{s['fixed_delay']:g}", s["fixed_delay"]),
                              ("variable", profile)):
                for beta in s["betas"]:
                    self.models[cell_label(kind, beta)] = (kind, arg, beta)
        else:
            label = cell_label("criterion", s["beta"])
            self.models[label] = ("variable", self.profile, s["beta"])
            try:
                self.analytic = self._analyze(label)
            except Exception as exc:  # reported by the output check
                self.analytic_error = f"{type(exc).__name__}: {exc}"
            return lambda p: [("chunk", self._mc_chunk)]
        cells = [(label, lambda p, label=label: self._analyze(label))
                 for label in self.models]
        return lambda p: cells

    def _delay_model(self, kind, arg):
        ds = self.pr.doublespend
        if kind == "zero":
            return ds.DelayModel("zero")
        if kind.startswith("fixed"):
            return ds.DelayModel("fixed", delay=arg)
        return ds.DelayModel("variable", profile=arg)

    def _analyze(self, label):
        kind, arg, beta = self.models[label]
        res = self.pr.doublespend.analyze(
            self._delay_model(kind, arg), beta, BLOCK_INTERVAL,
            self.spec["k_max"], K=self.spec["K"])
        return [float(r.q) for r in res]

    def _mc_chunk(self, pass_index):
        import numpy as np
        s, sim = self.spec, self.pr.simulate
        chunk_seed = int(np.random.SeedSequence(
            [self.seed, pass_index]).generate_state(1)[0])
        config = sim.SimConfig(
            profile=self.cal_profile, beta=s["beta"] * self.rate, k=s["k_max"],
            delta_conf=self.cal_profile.max_delay, warmup_blocks=s["warmup"],
            stop_lead=s["stop_lead"], trials=s["chunk"], seed=chunk_seed)
        ests = sim.simulate_attack_sweep(config, range(1, s["k_max"] + 1))
        return [float(ests[k].q_hat) for k in range(1, s["k_max"] + 1)]

    # -- checks ----------------------------------------------------------------

    def op_violations(self, label, out):
        if self.name != "mc-variable":
            return q_violations(label, out)
        if self.analytic is None:
            return ["MC chunk has no analytic q to compare with"]
        n = self.spec["chunk"]
        bad = []
        for k, (qh, q) in enumerate(zip(out, self.analytic), start=1):
            se = math.sqrt(q * (1.0 - q) / n)
            if se == 0.0 or abs(qh - q) / se > MC_Z_LIMIT:
                bad.append(k)
        return [f"MC q_hat off the analytic q by |z| > {MC_Z_LIMIT:g} at "
                f"k={bad}"] if bad else []

    def deep_check(self, outputs, reference):
        """Violations per operation label, from the checks made once per
        distinct input after the timed passes."""
        if self.name != "mc-variable":
            found = {label: self.deep_violations(label, qs, reference)
                     for label, qs in outputs.items()}
            found["reference"] = self.reference_violations(reference)
            return found
        # the chunks rest on the analytic q, which is checked here
        if self.analytic is None:
            return {"chunk": [f"analytic q raised {self.analytic_error}"]}
        (label,) = self.models
        return {"chunk": self.deep_violations(label, self.analytic,
                                              reference)}

    def deep_violations(self, label, qs, reference):
        """Recompute q through the public layer functions, compare the two
        ruin routes on that Phi (criterion 3's 1e-10) and the reference."""
        out = q_violations(label, qs, reference["q"].get(
            ref_key(label, self.spec["K"], self.spec["k_max"])))
        try:
            gap, again = self._recompute(*self.models[label])
        except Exception as exc:  # the check itself must not abort the run
            return out + [f"{label}: recomputation raised "
                          f"{type(exc).__name__}: {exc}"]
        if gap > 1e-10:
            out.append(f"{label}: ruin routes differ by {gap:.2e} > 1e-10")
        bad = [k for k, (q, r) in enumerate(zip(qs, again), 1)
               if not q_close(q, r)]
        if bad or len(again) != len(qs):
            out.append(f"{label}: analyze disagrees with its layers at k="
                       f"{bad[:5]}")
        return out

    def reference_violations(self, reference):
        """Recompute the variable cells on the fixed reference delays through
        the layers and compare them with the reference table, so that a
        wrong change in calibration, assembly or Phi cannot pass merely
        because analyze and its recomputation share that code."""
        s = self.spec
        path = self.inputs / "reference_delays.txt"
        recorded = reference["inputs"].get(reference_delays_key(s))
        if hashlib.sha256(path.read_bytes()).hexdigest() != recorded:
            return [f"reference delays ({reference_delays_key(s)}) differ "
                    "from the ones reference_q.json was recorded on"]
        profile = ingest_profile(self.pr, path, s)
        out = []
        for beta in betas_of(s):
            label = reference_label(s, beta)
            try:
                gap, qs = self._recompute("variable", profile, beta)
            except Exception as exc:
                out.append(f"{label}: raised {type(exc).__name__}: {exc}")
                continue
            if gap > 1e-10:
                out.append(f"{label}: ruin routes differ by {gap:.2e} > 1e-10")
            expected = reference["q"].get(ref_key(label, s["K"], s["k_max"]))
            if expected is None:
                out.append(f"{label}: not in the reference table")
            else:
                out += q_violations(label, qs, expected)
        return out

    def _calibrated(self, profile):
        """Calibrated rate and theta, once per profile: calibration does not
        depend on beta."""
        cached = self._thetas.get(id(profile))
        if cached is None or cached[0] is not profile:
            dm, K = self.pr.delaymodel, self.spec["K"]
            rate = dm.calibrate_alpha(profile, BLOCK_INTERVAL, K,
                                      rel_tol=1e-6).calibrated_rate
            cached = (profile, rate,
                      dm.assemble_theta(profile.with_fullrate(rate), K))
            self._thetas[id(profile)] = cached
        return cached[1:]

    def _recompute(self, kind, arg, beta_frac):
        pr, s = self.pr, self.spec
        K, k_max = s["K"], s["k_max"]
        if kind == "zero":
            rate = 1.0 / BLOCK_INTERVAL
            theta, dconf = pr.delaymodel.zero_delay_theta(rate), 0.0
        elif kind.startswith("fixed"):
            rate = 1.0 / (BLOCK_INTERVAL - arg)
            theta, dconf = pr.delaymodel.fixed_delay_theta(arg, rate, K), arg
        else:
            rate, theta = self._calibrated(arg)
            dconf = arg.max_delay
        beta = beta_frac * rate
        phi_d = pr.phi.phi_from_theta(theta, beta, k_max)
        rl = pr.ruinlindley
        psi_r = rl.ruin_recursive(phi_d, k_max).psi
        psi_l = rl.ruin_via_lindley(phi_d, k_max).psi
        lead = rl.lead_pmf(phi_d, k_max)
        qs = []
        for k in range(1, k_max + 1):
            p_v = pr.doublespend.adversary_lead_pmf(
                rl.LeadDistribution(lead.masses[:k].copy()),
                pr.phi.PhiDistribution(phi_d.masses[:k].copy(), phi_d.mean),
                dconf, beta, k)
            p_z, deficit = pr.doublespend.honest_lead_pmf(p_v, k)
            qs.append(float(pr.doublespend.compute_q(
                p_z, deficit, rl.RuinTable(psi_l[:k].copy())).q))
        return float(max(abs(psi_r - psi_l))), qs


# -- the process -----------------------------------------------------------------

class _Powruin:
    """The library's layer modules, imported after the import timer."""

    def __init__(self):
        from powruin import (delaymodel, doublespend, ingest, medist, phi,
                             ruinlindley, simulate)
        self.delaymodel, self.doublespend, self.ingest = (
            delaymodel, doublespend, ingest)
        self.medist, self.phi, self.ruinlindley, self.simulate = (
            medist, phi, ruinlindley, simulate)


def _environment():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info is not stable
        blas = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _setup_probe(args, i):
    """Seconds from starting a cold ``--setup-only`` process to its set-up
    being done."""
    result = args.result.with_name(f"setup{i}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--inputs", str(args.inputs), "--result", str(result),
           "--setup-only", *(["--tiny"] if args.tiny else [])]
    t0 = time.time()
    subprocess.run(cmd, check=True, capture_output=True,
                   timeout=INTERLUDE_TIMEOUT_S)
    return json.loads(result.read_text("utf-8"))["setup_done_wall"] - t0


def _cold_sweep(args, spec, outputs, reference, j):
    """Time the ``j``-th cold ``python -m powruin.cli sweep`` and check its
    q."""
    label, sweep_args = cold_sweep_args(args.workload, spec, args.inputs, j)
    cmd = [sys.executable, "-m", "powruin.cli", "sweep", *sweep_args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=INTERLUDE_TIMEOUT_S)
    seconds = time.perf_counter() - t0
    expected = outputs.get(label) or reference["q"].get(
        ref_key(label, spec["K"], spec["k_max"]))
    violations = []
    if proc.returncode == 0:
        rows = (args.inputs / "cold_q.csv").read_text("utf-8").splitlines()
        got = [float(row.split(",")[1]) for row in rows[1:] if row.strip()]
        if expected is None or len(got) != len(expected) or not all(
                q_close(a, b) for a, b in zip(got, expected)):
            violations.append(f"cold sweep q differs from analyze on {label}")
    return {"seconds": seconds, "exit": proc.returncode,
            "violations": violations, "stderr": proc.stderr[-500:]}


def run(args):
    t0 = time.perf_counter()
    import powruin.cli  # noqa: F401  the cold import of the CLI
    import_s = time.perf_counter() - t0
    pr = _Powruin()
    spec = spec_for(args.workload, args.tiny)
    t0 = time.perf_counter()
    pr.medist.cme(spec["K"], 1.0)
    cme_search_s = time.perf_counter() - t0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = Workload(args.workload, spec, args.seed, args.inputs, pr)
    wl.setup()
    result = {"setup_done_wall": time.time(), "import_s": import_s,
              "cme_search_s": cme_search_s}
    if args.setup_only:
        return result

    if tracer:
        tracer.op = "prep"
    counts = pass_counts(spec, args.seconds, tracer is not None)
    cells = wl.prepare(sum(counts))
    reference = load_reference()
    # traced runs measure layers only: one segment, no cold processes
    ops, outputs, pass_times, setups, cold = [], {}, [], [], []
    probes = probe_segments(len(counts))
    p = 0
    for seg, seg_passes in enumerate(counts):
        for _ in range(seg_passes):
            traced = tracer is not None and p % 2 == 0
            if tracer and traced != tracer.installed:
                tracer.install() if traced else tracer.uninstall()
            tp = time.perf_counter()
            for c, (label, fn) in enumerate(cells(p)):
                if tracer:
                    tracer.op = f"p{p}.{c}"
                t = time.perf_counter()
                try:
                    out, error = fn(p), None
                except Exception as exc:  # a failed operation, counted below
                    out, error = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t
                op = {"label": label, "pass": p, "dt": dt, "error": error,
                      "n_q": 0 if out is None else len(out), "violations": []}
                if out is not None:
                    op["violations"] = wl.op_violations(label, out)
                    first = outputs.setdefault(label, out)
                    if out != first and wl.name != "mc-variable":
                        op["violations"].append(f"{label}: q differs between "
                                                "passes on the same input")
                ops.append(op)
            pass_times.append((traced, time.perf_counter() - tp))
            p += 1
        if tracer:
            continue
        if seg in probes:
            setups.append(_setup_probe(args, len(setups) + 1))
        if seg >= len(counts) - spec["cold_sweeps"]:
            cold.append(_cold_sweep(args, spec, outputs, reference,
                                    len(cold)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    deep = wl.deep_check(outputs, reference)
    for op in ops:
        op["violations"] += deep.get(op["label"], [])

    result.update(
        ops=ops, outputs=outputs, peak_rss_mb=peak_rss_mb, setups=setups,
        cold=cold, check_violations=sorted(
            {v for vs in deep.values() for v in vs}),
        trials_per_op=spec.get("chunk"), env=_environment(),
        pass_times=pass_times)
    if tracer:
        traced_passes = [f"p{i}" for i, (tr, _) in enumerate(pass_times)
                         if tr]
        per_layer, exact = layer_metrics(tracer.spans, traced_passes)
        t_on = statistics.median(t for tr, t in pass_times if tr)
        t_off = statistics.median(t for tr, t in pass_times if not tr)
        per_layer["cli.import_s"] = import_s
        per_layer["medist.cme_search_s"] = cme_search_s
        per_layer["trace.overhead_pct"] = 100.0 * (t_on / t_off - 1.0)
        if wl.name == "variable-k20":
            exact = None  # each pass reads its own delays
        result.update(per_layer=per_layer, counts_repeat=exact,
                      spans=len(tracer.spans))
        tracer.write_csv(args.result.with_suffix(".spans.csv"))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
