import os
import subprocess
import sys
import time

import numpy as np
import pytest

import powruin
from powruin import delaymodel, simulate
from powruin.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_UNSTABLE, main
from powruin.delaymodel import HashrateProfile, calibrate_alpha
from powruin.ingest import BITCOIN_LIKE, synth_delays

# the criterion-5/8 profile
VAR_PROFILE = HashrateProfile((0.0, 2.0, 5.0, 10.0), (0.0, 0.4, 0.8), 1.0)


@pytest.fixture
def delay_file(tmp_path):
    ds = synth_delays(BITCOIN_LIKE, 3_000, seed=9)
    p = tmp_path / "delays.csv"
    p.write_text("\n".join(repr(float(d)) for d in ds.delays) + "\n")
    return p


@pytest.fixture
def profile_file(tmp_path):
    p = tmp_path / "profile.csv"
    p.write_text(VAR_PROFILE.to_table())
    return p


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


MODEL_COMMANDS = {
    "sweep": ["sweep", "--k-max", "2"],
    "calibrate": ["calibrate"],
    "density": ["density", "--points", "11"],
    "simulate": ["simulate", "--k-max", "1", "--trials", "2000"],
}


def test_sweep_zero_model(capsys):
    code, out = run(capsys, "sweep", "--model", "zero", "--k-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,q,deficit,model"
    assert len(lines) == 4
    q1 = float(lines[1].split(",")[1])
    assert q1 == pytest.approx(0.36, rel=1e-9)


def test_sweep_q_decreasing(capsys):
    code, out = run(capsys, "sweep", "--model", "fixed", "--delay", "10",
                    "--k-max", "5")
    assert code == 0
    qs = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_sweep_writes_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _ = run(capsys, "sweep", "--model", "zero", "--k-max", "2",
                  "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("k,q,deficit,model")


def test_sweep_variable_from_data(delay_file, capsys):
    code, out = run(capsys, "sweep", "--model", "variable",
                    "--data", str(delay_file), "--bins", "16",
                    "--cme-order", "5", "--k-max", "3")
    assert code == 0
    qs = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
    assert all(0 < q < 1 for q in qs)


def test_sweep_strict_unstable_exit(tmp_path, capsys):
    prof = tmp_path / "congested.csv"
    prof.write_text("# fullrate_bps = 1.0\n"
                    "threshold_s,cum_fraction\n"
                    "200.0,0.0\n500.0,0.1\n900.0,0.3\n")
    code, _ = run(capsys, "sweep", "--model", "variable",
                  "--profile", str(prof), "--cme-order", "5",
                  "--k-max", "2", "--strict")
    assert code == EXIT_UNSTABLE


def test_ingest_roundtrip(delay_file, tmp_path, capsys):
    out_path = tmp_path / "profile.csv"
    code, _ = run(capsys, "ingest", "--data", str(delay_file),
                  "--bins", "8", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# fullrate_bps")
    assert "threshold_s,cum_fraction" in text


def test_ingest_missing_file(capsys):
    code, _ = run(capsys, "ingest", "--data", "/nonexistent/never.csv")
    assert code == EXIT_INPUT


def test_calibrate_fixed(capsys):
    code, out = run(capsys, "calibrate", "--model", "fixed", "--delay", "10")
    assert code == 0
    rate = float(out.splitlines()[0].split("=")[1])
    assert rate == pytest.approx(1 / 590, rel=1e-6)


def test_density_csv(capsys):
    code, out = run(capsys, "density", "--model", "zero", "--points", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,f"
    assert len(lines) == 51
    x0, f0 = (float(t) for t in lines[1].split(","))
    assert x0 == 0.0
    assert f0 == pytest.approx(1 / 600, rel=1e-9)


def test_simulate_deterministic(capsys):
    argv = ["simulate", "--model", "zero", "--k-max", "2", "--trials", "5000",
            "--seed", "3"]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "k,q_hat,std_err,trials"


def test_simulate_at_a_large_beta_t_N_agrees_with_sweep(capsys):
    # beta t_N = 12 000, where e^-beta t_N underflows to 0: the model is
    # unstable, so every depth violates, as sweep's q = 1 says
    flags = ["--model", "fixed", "--delay", "599.99", "--delta-conf", "0",
             "--k-max", "3"]
    code, out = run(capsys, "simulate", *flags, "--trials", "1000")
    assert code == 0
    assert [line.split(",")[1] for line in out.split()[1:]] == ["1.0"] * 3
    code, out = run(capsys, "sweep", *flags)
    assert code == 0
    assert [line.split(",")[1] for line in out.split()[1:]] == ["1.0"] * 3


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k-max = 2\nbeta-fraction = 0.1\n")
    code, out = run(capsys, "--config", str(cfg), "sweep", "--model", "zero")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # k-max honored
    q1 = float(lines[1].split(",")[1])
    # rho = 0.1: q(1) = 2 rho/(1+rho) - (rho/(1+rho))^2 ... check via library
    from powruin.doublespend import DelayModel, analyze
    ref = analyze(DelayModel("zero"), 0.1, 600.0, 1)[0].q
    assert q1 == pytest.approx(ref, rel=1e-12)


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a pair\n")
    code, _ = run(capsys, "--config", str(cfg), "sweep", "--model", "zero")
    assert code == EXIT_INPUT


def test_profile_file_may_start_with_a_byte_order_mark(tmp_path,
                                                      profile_file, capsys):
    # as Windows tools often write them
    sweep = ["sweep", "--model", "variable", "--cme-order", "9",
             "--k-max", "2"]
    plain = run(capsys, *sweep, "--profile", str(profile_file))
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + profile_file.read_bytes())
    assert plain[0] == 0
    assert run(capsys, *sweep, "--profile", str(bom)) == plain


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    plain = run(capsys, "sweep", "--model", "zero", "--k-max", "2")
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfk-max = 2\n")
    assert plain[0] == 0
    assert run(capsys, "--config", str(cfg), "sweep",
               "--model", "zero") == plain


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
def test_fixed_zero_delay_runs_on_every_command(command, capsys):
    code, out = run(capsys, *MODEL_COMMANDS[command], "--model", "fixed",
                    "--delay", "0")
    assert code == 0
    if command == "calibrate":
        assert float(out.splitlines()[0].split("=")[1]) == 1 / 600


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
def test_fixed_delay_close_below_interval_runs_on_every_command(command,
                                                                capsys):
    attack = (("--beta-fraction", "0.01") if command in ("sweep", "simulate")
              else ())
    code, out = run(capsys, *MODEL_COMMANDS[command], "--model", "fixed",
                    "--delay", "590", "--cme-order", "5", *attack)
    assert code == 0
    if command == "calibrate":
        assert float(out.splitlines()[0].split("=")[1]) == 1 / 10


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@pytest.mark.parametrize("flag", ["--profile", "--data"])
def test_profile_flags_need_variable_model(command, flag, tmp_path, capsys):
    prof = tmp_path / "p.csv"
    prof.write_text("# fullrate_bps = 1.0\n10.0,0.0\n20.0,0.5\n")
    code, err = run_err(capsys, *MODEL_COMMANDS[command], flag, str(prof))
    assert code == EXIT_INPUT
    assert "need --model variable" in err


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@pytest.mark.parametrize("model, flag", [("zero", "--delay"),
                                         ("fixed", "--delay-mean"),
                                         ("expdelay", "--delay-order")])
def test_delay_flags_need_the_model_that_reads_them(command, model, flag,
                                                     capsys):
    code, err = run_err(capsys, *MODEL_COMMANDS[command], "--model", model,
                        flag, "3")
    assert code == EXIT_INPUT
    assert f"{flag} is not read by --model {model}" in err


def test_config_file_delay_counts_as_given(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delay = 300\n")
    code, err = run_err(capsys, "--config", str(cfg), "sweep", "--model",
                        "zero", "--k-max", "2")
    assert code == EXIT_INPUT
    assert "--delay is not read by --model zero" in err
    code, out = run(capsys, "--config", str(cfg), "calibrate", "--model",
                    "fixed")
    assert code == 0
    assert float(out.splitlines()[0].split("=")[1]) == 1 / 300


def test_delay_flag_defaults_apply_to_the_model_that_reads_them(capsys):
    code, out = run(capsys, "calibrate", "--model", "fixed")
    assert code == 0
    assert float(out.splitlines()[0].split("=")[1]) == 1 / 590
    sweep = ("sweep", "--model", "medelay", "--delta-conf", "1",
             "--k-max", "2")
    assert run(capsys, *sweep) == run(capsys, *sweep, "--delay-mean", "1",
                                      "--delay-order", "2")


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
def test_delay_at_or_above_interval_is_input_error(command, capsys):
    code, err = run_err(capsys, *MODEL_COMMANDS[command], "--model", "fixed",
                        "--delay", "700")
    assert code == EXIT_INPUT
    assert err.strip() == ("error: no mining before 700 s, which is not "
                           "below the block interval 600 s")


def test_profile_mining_after_interval_is_input_error(tmp_path, capsys):
    prof = tmp_path / "late.csv"
    prof.write_text("# fullrate_bps = 1.0\n"
                    "threshold_s,cum_fraction\n"
                    "700.0,0.0\n800.0,0.5\n")
    code, err = run_err(capsys, "sweep", "--model", "variable",
                        "--profile", str(prof), "--cme-order", "5",
                        "--k-max", "2")
    assert code == EXIT_INPUT
    assert "no mining before 700 s" in err


@pytest.mark.parametrize("order", ["4", "53", "65", "201"])
def test_sweep_refuses_untabled_cme_order(order, capsys):
    t0 = time.perf_counter()
    code, err = run_err(capsys, "sweep", "--model", "fixed", "--cme-order",
                        order, "--k-max", "2")
    assert time.perf_counter() - t0 < 2.0
    assert code == EXIT_INPUT
    assert "odd integer from 1 to 51" in err


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize("model", ["zero", "fixed", "expdelay"])
@pytest.mark.parametrize("order", ["4", "200"])
def test_untabled_cme_order_is_refused_on_every_model(command, model, order,
                                                      capsys):
    code, err = run_err(capsys, *MODEL_COMMANDS[command], "--model", model,
                        "--cme-order", order, "--delta-conf", "1")
    assert code == EXIT_INPUT
    assert f"K must be an odd integer from 1 to 51, got {order}" in err


def test_sweep_writes_nothing_to_stderr():
    src = os.path.dirname(os.path.dirname(powruin.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "powruin.cli", "sweep", "--model", "fixed",
         "--cme-order", "1", "--k-max", "2"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,q,deficit,model")
    assert proc.stderr == ""


def test_calibrate_zero_builds_no_cme(monkeypatch, capsys):
    def no_cme(*args):
        raise AssertionError("the zero model builds no CME")
    monkeypatch.setattr("powruin.medist.cme", no_cme)
    monkeypatch.setattr("powruin.delaymodel.cme", no_cme)
    code, out = run(capsys, "calibrate", "--model", "zero")
    assert code == 0
    assert "rel_error = 0.000e+00" in out.splitlines()


@pytest.mark.parametrize("row, field", [("nan,0.5", "thresholds"),
                                        ("2.0,nan", "fractions"),
                                        ("inf,0.5", "thresholds")])
def test_non_finite_profile_row_is_input_error(row, field, tmp_path, capsys):
    prof = tmp_path / "bad.csv"
    prof.write_text(f"# fullrate_bps = 1.0\n1.0,0.0\n{row}\n")
    code, err = run_err(capsys, "sweep", "--model", "variable",
                        "--profile", str(prof), "--cme-order", "5",
                        "--k-max", "2")
    assert code == EXIT_INPUT
    assert field in err


@pytest.mark.parametrize("flags, field", [
    (("--model", "fixed", "--delay", "nan"), "delay"),
    (("--model", "fixed", "--delay", "inf"), "delay"),
    (("--model", "zero", "--block-interval", "nan"), "block_interval"),
    (("--model", "zero", "--block-interval", "inf"), "block_interval"),
    (("--model", "zero", "--delta-conf", "nan"), "delta_conf"),
    (("--model", "expdelay", "--delay-mean", "700", "--delta-conf", "1"),
     "block_interval must be finite and above the mean delay"),
])
def test_non_finite_flag_is_input_error(flags, field, capsys):
    code, err = run_err(capsys, "sweep", "--k-max", "2", *flags)
    assert code == EXIT_INPUT
    assert field in err


def test_simulate_answers_a_depth_past_64_with_default_flags(capsys):
    code, out = run(capsys, "simulate", "--model", "zero", "--k-max", "100",
                    "--trials", "100")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 101 and lines[-1].startswith("100,")


def test_simulate_refuses_random_delays(capsys):
    code, err = run_err(capsys, "simulate", "--model", "expdelay",
                        "--k-max", "1", "--trials", "100")
    assert code == EXIT_INPUT
    assert "'expdelay' is not supported by simulate" in err


@pytest.mark.parametrize("command", ["calibrate", "sweep"])
def test_numerical_failure_exits_4(command, profile_file, capsys,
                                   monkeypatch):
    # the criterion-5/8 profile needs more than one calibration iterate
    monkeypatch.setattr(delaymodel, "_MAX_ITER", 1)
    code, err = run_err(capsys, command, "--model", "variable", "--profile",
                        str(profile_file), "--cme-order", "9")
    assert code == EXIT_NUMERIC == 4
    assert err.startswith("numerical failure: calibration did not converge")


def test_calibrate_a_profile_with_little_early_mining(tmp_path, capsys):
    # a 10 s dead time, then 0.1% of the full rate until 590 s: fixed-point
    # steps did not converge in 200 iterates here (exit 4)
    prof = tmp_path / "sparse.csv"
    prof.write_text(HashrateProfile((0.0, 10.0, 590.0), (0.0, 0.001),
                                    1.0).to_table())
    code, out = run(capsys, "calibrate", "--model", "variable", "--profile",
                    str(prof))
    assert code == 0
    assert int(out.splitlines()[2].partition(" = ")[2]) <= 20


def test_calibrate_prints_the_rate_simulate_uses(profile_file, capsys,
                                                 monkeypatch):
    flags = ("--model", "variable", "--profile", str(profile_file),
             "--cme-order", "9")
    code, out = run(capsys, "calibrate", *flags)
    assert code == 0
    rate = calibrate_alpha(VAR_PROFILE, 600.0, 9).calibrated_rate
    assert out.splitlines()[0] == f"calibrated_rate_bps = {rate!r}"
    used = []
    monkeypatch.setattr(simulate, "simulate_attack_sweep",
                        lambda config, ks: used.append(config.profile.fullrate)
                        or {})
    code, _ = run(capsys, "simulate", *flags, "--k-max", "1", "--trials", "10")
    assert code == 0
    assert used == [rate]


@pytest.mark.parametrize("argv", [("calibrate", "--rel-tol", "1e-8"),
                                  ("calibrate", "--beta-fraction", "0.3"),
                                  ("density", "--delta-conf", "1"),
                                  ("simulate", "--warmup", "1000"),
                                  ("simulate", "--stop-lead", "64")])
def test_flag_the_command_does_not_read_is_flag_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@pytest.mark.parametrize("model", ["zero", "fixed", "variable"])
@pytest.mark.parametrize("flag", ["--epsilon", "--bins"])
def test_binning_flags_need_data(command, model, flag, profile_file, capsys):
    source = ("--profile", str(profile_file)) if model == "variable" else ()
    code, err = run_err(capsys, *MODEL_COMMANDS[command], "--model", model,
                        *source, "--cme-order", "5", flag, "3")
    assert code == EXIT_INPUT
    assert (f"{flag} is not read by --model {model}; it would need --model "
            f"variable --data") in err


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
def test_binning_flags_with_data_run(command, delay_file, capsys):
    code, _ = run(capsys, *MODEL_COMMANDS[command], "--model", "variable",
                  "--data", str(delay_file), "--epsilon", "0.02", "--bins",
                  "16", "--cme-order", "5")
    assert code == 0


def test_data_and_profile_together_is_input_error(delay_file, profile_file,
                                                  capsys):
    code, err = run_err(capsys, "sweep", "--model", "variable", "--data",
                        str(delay_file), "--profile", str(profile_file),
                        "--k-max", "1")
    assert code == EXIT_INPUT
    assert "--data or --profile, not both" in err


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize("flags, message", [
    (("--beta-fraction", "1.5"), "beta_fraction must lie in (0, 1)"),
    (("--beta-fraction", "0"), "beta_fraction must lie in (0, 1)"),
    (("--beta-fraction", "nan"), "beta_fraction must lie in (0, 1)"),
    (("--delta-conf", "-1"), "delta_conf must be nonnegative and finite"),
    (("--delta-conf", "nan"), "delta_conf must be nonnegative and finite"),
])
def test_attack_flags_are_checked_alike(command, flags, message, capsys):
    code, err = run_err(capsys, *MODEL_COMMANDS[command], "--model", "zero",
                        *flags)
    assert code == EXIT_INPUT
    assert message in err


@pytest.mark.parametrize("key", ["beta-fracton", "rel-tol", "warmup",
                                 "stop-lead"])
def test_config_key_no_command_takes_is_input_error(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k-max = 2\n{key} = 0.4\n")
    code, err = run_err(capsys, "--config", str(cfg), "sweep")
    assert code == EXIT_INPUT
    assert f"run.cfg:2: no command takes {key!r}" in err


@pytest.mark.parametrize("value, code", [
    ("false", 0), ("False", 0), ("TRUE", EXIT_UNSTABLE)])
def test_config_file_boolean_flag(value, code, tmp_path, capsys):
    # beta = 0.9 alpha is unstable, so only --strict turns it into exit 5
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"strict = {value}\n")
    got, _ = run_err(capsys, "--config", str(cfg), "sweep", "--model",
                     "fixed", "--delay", "300", "--beta-fraction", "0.9",
                     "--k-max", "2")
    assert got == code


@pytest.mark.parametrize("value", ["no", "1", ""])
def test_config_file_boolean_flag_refuses_other_values(value, tmp_path,
                                                       capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k-max = 2\nstrict = {value}\n")
    code, err = run_err(capsys, "--config", str(cfg), "sweep")
    assert code == EXIT_INPUT
    assert f"run.cfg:2: strict takes true or false, got {value!r}" in err


def test_config_key_another_command_takes_is_allowed(tmp_path, capsys):
    # one config file serves every command
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta-fraction = 0.3\npoints = 11\n")
    code, out = run(capsys, "--config", str(cfg), "calibrate")
    assert code == 0
    assert out.splitlines()[0] == f"calibrated_rate_bps = {1 / 600!r}"
