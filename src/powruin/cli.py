"""Command-line front end.

Subcommands: ingest (delay data -> hashrate profile), calibrate, sweep
(q vs k CSV), density (inter-mining pdf CSV), simulate (Monte Carlo CSV).
All outputs are plain CSV and deterministic given the flags and seed.

Each command takes only the flags it reads; a model flag that the model
does not read, or a config-file key that no command takes, is refused.

Exit codes: 0 success, 2 flag errors (argparse), 3 input/parse errors,
4 numerical failures, 5 unstable regime under --strict.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import doublespend, ingest, simulate
from .delaymodel import HashrateProfile
from .medist import erlang_me

EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_UNSTABLE = 5

_BLOCK_INTERVAL = 600.0  # s, the default --block-interval of every command
# density forms theta's dense T and its expm, at O(order^3) cost: order 1783
# took 8-11 s and 312 MB on 2 vCPUs, and this bound about 1.5 times that
_DENSITY_MAX_ORDER = 2000

# model flag -> (type, default, the models that read it, help); "variable
# --data" is the variable model built from a delay file.  A flag given, on
# the command line or in a config file, to any other model is refused.
_MODEL_FLAGS = {
    "data": (str, None, ("variable",), "delay dataset file"),
    "profile": (str, None, ("variable",), "hashrate profile table file"),
    "epsilon": (float, 0.01, ("variable --data",), "delay cutoff fraction"),
    "bins": (int, 128, ("variable --data",), "equal-count delay bins"),
    "delay": (float, 10.0, ("fixed",), "propagation delay, s"),
    "delay_mean": (float, 1.0, ("expdelay", "medelay"), "mean delay, s"),
    "delay_order": (int, 2, ("medelay",), "Erlang order of the delay"),
}


def _add_model_flags(p):
    p.add_argument("--model", default="zero",
                   choices=["zero", "fixed", "expdelay", "medelay", "variable"])
    p.add_argument("--cme-order", type=int, default=27, dest="cme_order")
    p.add_argument("--block-interval", type=float, default=_BLOCK_INTERVAL)
    for dest, (kind, default, readers, text) in _MODEL_FLAGS.items():
        default = "" if default is None else f"; default {default:g}"
        p.add_argument(f"--{dest.replace('_', '-')}", type=kind,
                       help=f"{text} (--model {' or '.join(readers)}{default})")


def _ingested(args):
    """The profile of ``--data``, with its cutoff delay and binning."""
    if not 0 < args.block_interval < np.inf:
        raise ValueError(f"--block-interval must be positive and finite, "
                         f"got {args.block_interval:g}")
    ds = ingest.load_delays(args.data)
    ds, cutoff = ingest.apply_cutoff(ds, args.epsilon)
    binning = ingest.bin_delays(ds, args.bins)
    profile = ingest.to_profile(binning, 1.0 / args.block_interval)
    return profile, cutoff, binning


def _load_profile(args) -> HashrateProfile:
    if (args.data is None) == (args.profile is None):
        raise ValueError("variable model needs --data or --profile, not both")
    if args.profile is not None:
        with open(args.profile, "r", encoding="utf-8-sig") as fh:
            return HashrateProfile.from_table(fh.read())
    return _ingested(args)[0]


def _build_model(args) -> doublespend.DelayModel:
    source = args.model + (" --data" if args.data is not None else "")
    for dest, (_, default, readers, _) in _MODEL_FLAGS.items():
        if args.model in readers or source in readers:
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        elif getattr(args, dest) is not None:
            raise ValueError(f"--{dest.replace('_', '-')} is not read by "
                             f"--model {args.model}; it would need --model "
                             f"{' or '.join(readers)}")
    if args.model == "zero":
        return doublespend.DelayModel("zero")
    if args.model == "fixed":
        return doublespend.DelayModel("fixed", delay=args.delay)
    if args.model in ("expdelay", "medelay"):
        order = 1 if args.model == "expdelay" else args.delay_order
        return doublespend.DelayModel(
            "random", delay_dist=erlang_me(order, args.delay_mean))
    return doublespend.DelayModel("variable", profile=_load_profile(args))


def _profile_law(args, command, delta_conf=None):
    """The calibrated law of a profile model; a random delay has none."""
    law = doublespend._calibrated_law(_build_model(args), args.block_interval,
                                      args.cme_order, delta_conf)
    if law.profile is None:
        raise ValueError(f"model {args.model!r} is not supported by {command}")
    return law


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_ingest(args) -> int:
    profile, cutoff, binning = _ingested(args)
    _write(args.out, profile.to_table())
    print(f"# cutoff_delay_s = {cutoff!r}", file=sys.stderr)
    print(f"# sub_ms_fraction = {binning.sub_ms_fraction!r}", file=sys.stderr)
    print(f"# M = {binning.M}  M_prime = {binning.M_prime}  "
          f"N = {binning.N}", file=sys.stderr)
    return 0


def cmd_calibrate(args) -> int:
    cal = _profile_law(args, "calibrate").calibration
    rel_err = abs(cal.achieved_mean - args.block_interval) / args.block_interval
    print(f"calibrated_rate_bps = {cal.calibrated_rate!r}")
    print(f"achieved_mean_s = {cal.achieved_mean!r}")
    print(f"iterations = {cal.iterations}")
    print(f"rel_error = {rel_err:.3e}")
    return 0


def cmd_sweep(args) -> int:
    model = _build_model(args)
    results = doublespend.analyze(
        model, args.beta_fraction, args.block_interval, args.k_max,
        K=args.cme_order, delta_conf=args.delta_conf)
    lines = ["k,q,deficit,model"]
    unstable = False
    for k, res in enumerate(results, start=1):
        tag = res.model_tag + (",UNSTABLE" if res.unstable_regime else "")
        unstable |= res.unstable_regime
        lines.append(f"{k},{res.q!r},{res.deficit_mass!r},{tag}")
    _write(args.out, "\n".join(lines) + "\n")
    if unstable and args.strict:
        print("unstable regime: mean adversary blocks per interval >= 1",
              file=sys.stderr)
        return EXIT_UNSTABLE
    return 0


def cmd_density(args) -> int:
    theta = doublespend._calibrated_law(
        _build_model(args), args.block_interval, args.cme_order).theta
    if theta.order > _DENSITY_MAX_ORDER:
        raise ValueError(
            f"theta has order {theta.order}, above density's bound of "
            f"{_DENSITY_MAX_ORDER}: its dense T and expm cost O(order^3); "
            f"lower --cme-order, --bins or --delay-order")
    xs = np.linspace(0.0, 5.0 * args.block_interval, args.points)
    fs = theta.pdf_grid(xs)
    lines = ["x,f"] + [f"{float(x)!r},{float(f)!r}" for x, f in zip(xs, fs)]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args) -> int:
    doublespend._check_attack(args.beta_fraction, args.delta_conf)
    law = _profile_law(args, "simulate", args.delta_conf)
    config = simulate.SimConfig(
        profile=law.profile, beta=args.beta_fraction * law.fullrate,
        k=args.k_max, delta_conf=law.delta_conf, trials=args.trials,
        seed=args.seed)
    ests = simulate.simulate_attack_sweep(config, range(1, args.k_max + 1))
    lines = ["k,q_hat,std_err,trials"]
    for k in sorted(ests):
        e = ests[k]
        lines.append(f"{k},{e.q_hat!r},{e.std_err!r},{e.trials}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _apply_config_file(parser, path):
    """key=value file, UTF-8 with or without a byte-order mark; flag values
    still override.

    String defaults are type-converted by argparse, so values can be set
    on every subparser that knows the key.  A boolean flag takes true or
    false (any case).  A key that no command takes, or another value for a
    boolean flag, is refused.
    """
    dests = [{a.dest for a in t._actions} for t in parser._config_targets]
    flags = {a.dest for t in parser._config_targets for a in t._actions
             if isinstance(a, argparse._StoreTrueAction)}
    defaults = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (t.strip() for t in line.split("=", 1))
            dest = key.replace("-", "_")
            if not any(dest in known for known in dests):
                raise ValueError(f"{path}:{lineno}: no command takes {key!r}")
            if dest in flags:
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"{path}:{lineno}: {key} takes true or "
                                     f"false, got {value!r}")
                value = value.lower() == "true"
            defaults[dest] = value
    for target, known in zip(parser._config_targets, dests):
        target.set_defaults(**{k: v for k, v in defaults.items() if k in known})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powruin",
        description="Double-spend probability analysis for PoW chains "
                    "with time-varying honest mining rates.")
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="delay data -> hashrate profile")
    p.add_argument("--data", required=True)
    for dest in ("epsilon", "bins"):  # the defaults of variable --data
        kind, default, _, _ = _MODEL_FLAGS[dest]
        p.add_argument(f"--{dest}", type=kind, default=default)
    p.add_argument("--block-interval", type=float, default=_BLOCK_INTERVAL)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("calibrate", help="calibrate the full mining rate")
    _add_model_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sweep", help="q as a function of k")
    _add_model_flags(p)
    p.add_argument("--beta-fraction", type=float, default=0.2)
    p.add_argument("--delta-conf", type=float)
    p.add_argument("--k-max", type=int, default=20)
    p.add_argument("--out", default="-")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("density", help="inter-mining time pdf grid")
    _add_model_flags(p)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="Monte Carlo attack estimate")
    _add_model_flags(p)
    p.add_argument("--beta-fraction", type=float, default=0.2)
    p.add_argument("--delta-conf", type=float)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    parser._config_targets = [parser] + list(sub.choices.values())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # peek at --config before the real parse so file values become defaults
    pre, _ = parser.parse_known_args(argv)
    if getattr(pre, "config", None):
        try:
            _apply_config_file(parser, pre.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
