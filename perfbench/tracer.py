"""Spans around powruin's public functions, for the traced run only.

The tracer wraps each layer's public functions from outside the library:
every module namespace under ``powruin`` that holds a reference to a
wrapped function gets the wrapper, and :meth:`Tracer.uninstall` puts the
originals back.  Spans live in memory as
``[span_id, parent_id, op_id, name, start_ns, end_ns, value]`` and are
written out once, at the end of the run.  ``value`` carries the one number
a few spans need for counts (see ``VALUES``); it is only recorded when the
call returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

LAYERS = ("ingest", "medist", "delaymodel", "phi", "ruinlindley",
          "doublespend", "simulate")
# Wrapped besides the functions in each layer's __all__.
METHODS = (("medist", "MEDistribution", "mean"),
           ("simulate", "ThetaSampler", "sample"))
PRIVATE = (("simulate", "_race"),)
# Span name -> number recorded from the return value.
VALUES = {
    "ingest.load_delays": len,
    "delaymodel.calibrate_alpha": lambda out: out.iterations,
    "delaymodel.assemble_theta": lambda out: out.order,
    "simulate.sample": len,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = "setup"
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, value = self.spans, self._stack, VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.op, name,
                   0, 0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter_ns()
                stack.pop()
            if value is not None:
                rec[6] = int(value(out))
            return out
        return wrapper

    @property
    def installed(self):
        return bool(self._patches)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "powruin" or n.startswith("powruin.")]
        functions = [(layer, attr) for layer in LAYERS for attr in
                     importlib.import_module("powruin." + layer).__all__]
        for layer, attr in functions + list(PRIVATE):
            orig = getattr(sys.modules["powruin." + layer], attr)
            if not inspect.isfunction(orig):
                continue
            wrapped = self._wrap(f"{layer}.{attr}", orig)
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules["powruin." + layer], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,op_id,name,start_ns,end_ns,value\n")
            for s in self.spans:
                fh.write(",".join("" if v is None else str(v) for v in s))
                fh.write("\n")


# -- per-layer metrics -------------------------------------------------------

def _totals(spans):
    """Inclusive seconds, self seconds, call counts and value sums per name."""
    incl, self_s, calls, value, vmax = {}, {}, {}, {}, {}
    for sid, parent, _, name, t0, t1, v in spans:
        dur = (t1 - t0) / 1e9
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if v is not None:
            value[name] = value.get(name, 0) + v
            vmax[name] = max(vmax.get(name, 0), v)
    by_id = {s[0]: s for s in spans}
    for sid, parent, _, name, t0, t1, _ in spans:
        if parent in by_id:
            pname = by_id[parent][3]
            self_s[pname] -= (t1 - t0) / 1e9
    return incl, self_s, calls, value, vmax


def _layer_values(spans):
    incl, self_s, calls, value, vmax = _totals(spans)

    def s(*names):
        return sum(incl.get(n, 0.0) for n in names)

    order = vmax.get("delaymodel.assemble_theta", 0)
    return {
        "ingest.s": s("ingest.load_delays", "ingest.apply_cutoff",
                      "ingest.bin_delays", "ingest.to_profile"),
        "ingest.delays": value.get("ingest.load_delays", 0),
        "medist.cme_s": s("medist.cme"),
        "medist.cme_calls": calls.get("medist.cme", 0),
        "medist.make_me_s": s("medist.make_me"),
        "medist.make_me_calls": calls.get("medist.make_me", 0),
        "medist.mean_s": s("medist.mean"),
        "delaymodel.calibrate_s": s("delaymodel.calibrate_alpha"),
        "delaymodel.calibrate_iterations":
            value.get("delaymodel.calibrate_alpha", 0),
        "delaymodel.assemble_s": s("delaymodel.assemble_theta"),
        "delaymodel.assemble_calls": calls.get("delaymodel.assemble_theta", 0),
        "delaymodel.theta_order": order,
        "phi.phi_from_theta_s": s("phi.phi_from_theta"),
        "ruinlindley.lead_pmf_s": s("ruinlindley.lead_pmf"),
        "ruinlindley.ruin_s": s("ruinlindley.ruin_via_lindley",
                                "ruinlindley.ruin_recursive"),
        "doublespend.pgf_s": s("doublespend.adversary_lead_pmf",
                               "doublespend.honest_lead_pmf",
                               "doublespend.compute_q"),
        "doublespend.truncated_product_calls":
            calls.get("doublespend.truncated_product", 0),
        "doublespend.analyze_self_s": self_s.get("doublespend.analyze", 0.0),
        "simulate.warmup_s": s("simulate.simulate_attack_sweep")
                             - s("simulate._race"),
        "simulate.race_s": s("simulate._race"),
        "simulate.sample_s": s("simulate.sample"),
        "simulate.draws": value.get("simulate.sample", 0),
    }


COUNTS = ("ingest.delays", "medist.cme_calls", "medist.make_me_calls",
          "delaymodel.calibrate_iterations", "delaymodel.assemble_calls",
          "delaymodel.theta_order", "doublespend.truncated_product_calls",
          "simulate.draws")


def layer_metrics(spans, traced_passes):
    """Per-layer cost of the traced set-up plus one pass.

    Spans whose op id has no pass prefix (set-up, input preparation) are
    summed once; spans of the traced passes are summed per pass and the
    median pass is added.  Counts must agree across passes; the second
    return value says whether they did.
    """
    fixed = [s for s in spans if "." not in s[2]]
    per_pass = {p: [] for p in traced_passes}
    for s in spans:
        if "." in s[2]:
            per_pass[s[2].split(".")[0]].append(s)
    base = _layer_values(fixed)
    passes = [_layer_values(v) for v in per_pass.values()]
    out, exact = {}, True
    for name, v0 in base.items():
        vals = [p[name] for p in passes] or [0]
        if name in COUNTS:
            # Each Monte Carlo chunk has its own seed, so draws differ
            # between passes; pass 0's draws still repeat across runs.
            if name != "simulate.draws":
                exact &= len(set(vals)) == 1
            v = max(v0, vals[0]) if name == "delaymodel.theta_order" \
                else v0 + vals[0]
        else:
            v = v0 + statistics.median(vals)
        out[name] = v
    out["delaymodel.dense_mb"] = 8.0 * out["delaymodel.theta_order"] ** 2 / 1e6
    return out, exact
