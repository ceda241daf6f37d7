import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from ucp_lab import carleman
from ucp_lab.cli import SUITES, _write_csv, build_options, main, parse_config_text


def run_cli(*args):
    return main(list(args))


def test_list_prints_all_suites_and_keys(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for name, (description, defaults, _) in SUITES.items():
        assert name in out
        for key in defaults:
            assert key in out
    assert "seed" in out
    assert "jobs" not in out
    assert "    N = 4  (>= 1)\n" in out
    assert "    trials = 5  (>= 1)\n" in out
    assert "    perturbation = 'none'  (in {none, pointwise, rank-one})\n" in out
    assert "    T = 0.1  (in [1e-150, 1e150])\n" in out


def test_unknown_suite_exits_2(tmp_path):
    assert run_cli("run", "--suite", "nope", "--out", str(tmp_path)) == 2


def test_config_parsing_types():
    parsed = parse_config_text(
        "a = 1\nb = 2.5\nc = true\nd = hello\ne = 'quoted'\n# note\n")
    assert parsed == {"a": 1, "b": 2.5, "c": "true", "d": "hello", "e": "quoted"}


def test_config_parse_errors():
    with pytest.raises(ValueError):
        parse_config_text("novalue\n")
    with pytest.raises(ValueError):
        parse_config_text("= 3\n")


def test_undecodable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"N = \xff\n")
    code = run_cli("run", "--suite", "observables", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert "decode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_key_exits_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("not_a_key = 1\n")
    code = run_cli("run", "--suite", "counterexample", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert code == 2


@pytest.mark.parametrize("line, key", [("N = 4.7", "N"), ('N = "abc"', "N"),
                                       ("trials = -3", "trials"), ('seed = "x"', "seed")])
def test_ill_typed_config_value_exits_2_naming_key(tmp_path, capsys, line, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    code = run_cli("run", "--suite", "observables", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_value_types_follow_defaults(tmp_path, capsys):
    """A float key takes an int, a str key only a str, and a number key no
    bare string such as true."""
    cfg = tmp_path / "c.cfg"
    for text, code in (("amplitude = 1\ntrials = 2\nseed = 0\n", 0),
                       ("T = abc\n", 2), ("perturbation = 3\n", 2),
                       ("samples = true\n", 2), ("r_min = true\n", 2)):
        cfg.write_text(text)
        suite = "observables" if "trials" in text else "carleman"
        assert run_cli("run", "--suite", suite, "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == code, text
        if "true" in text:
            assert "got 'true'" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["carleman", "decay"])
def test_unknown_perturbation_exits_2_naming_key(tmp_path, capsys, suite):
    cfg = tmp_path / "c.cfg"
    for value in ('"bogus"', "[none]"):
        cfg.write_text(f"perturbation = {value}\n")
        code = run_cli("run", "--suite", suite, "--config", str(cfg),
                       "--out", str(tmp_path / "out"))
        assert code == 2, value
        assert "'perturbation'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite, line, key", [
    ("sw-flow", "N = 0", "N"), ("sw-flow", "dt = 0.0", "dt"), ("sw-flow", "dt = -1", "dt"),
    ("decay", "n_t = 2", "n_t"), ("carleman", "r_min = 0", "r_min"),
    ("carleman", "r_min = nan", "r_min"), ("carleman", "samples = 0", "samples"),
    ("carleman", "r_points = 0", "r_points"), ("decay", "r_points = 0", "r_points"),
    ("carleman", "r_max = 5", "r_max"), ("decay", "r_max = 5", "r_max"),
    ("carleman", "r_max = nan", "r_max"), ("carleman", "r_max = inf", "r_max"),
    ("sw-flow", "amplitude = -inf", "amplitude"),
    pytest.param("sw-flow", "amplitude = 1" + "0" * 400, "amplitude",
                 id="sw-flow-amplitude = 10**400-amplitude"),
    ("sw-gradcheck", "configs = 0", "configs"),
    ("sw-gradcheck", "adjoint_pairs = 0", "adjoint_pairs"),
    ("observables", "trials = 0", "trials"), ("sw-flow", "trials = 0", "trials"),
    ("carleman", "appendix_samples = 0", "appendix_samples"),
    ("carleman", "T = 0", "T"), ("carleman", "T = -1", "T"),
    ("decay", "T = 0", "T"), ("decay", "T = -1", "T"),
    ("carleman", "T = 1e300", "T"), ("carleman", "T = 1e-300", "T"),
    ("decay", "T = 1e300", "T"), ("decay", "T = 1e-300", "T"),
    ("carleman", "T = 1e150\nr_max = 1e10", "r_max"),
    ("decay", "T = 1e150\nr_max = 1e10", "r_max")])
def test_out_of_range_config_value_exits_2_naming_key(tmp_path, capsys, suite, line, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    code = run_cli("run", "--suite", suite, "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite", ["carleman", "decay"])
@pytest.mark.parametrize("T", ["1e150", "1e-150"])
def test_both_ends_of_the_T_range_run_to_a_report(tmp_path, suite, T):
    """The sampler and the weight stay finite at both bounds of T: the run
    ends in a report.json, with no RuntimeWarning."""
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    small = "samples = 2\nappendix_samples = 1\n" if suite == "carleman" else ""
    cfg.write_text(f"T = {T}\nn_t = 257\n{small}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("run", "--suite", suite, "--config", str(cfg), "--out", str(out))
    assert code in (0, 1)
    assert json.loads((out / "report.json").read_text())["config"]["T"] == float(T)


@pytest.mark.parametrize("T", ["1e4", "1e150"])
def test_decay_march_overflow_is_suite_error(tmp_path, T):
    """A zero-data march that overflows ends the decay run in a suite-error
    naming the overflow, with no RuntimeWarning, not in NaN constants and an
    exit 0."""
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"T = {T}\nn_t = 257\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("run", "--suite", "decay", "--config", str(cfg), "--out", str(out))
    assert code == 1
    [assertion] = json.loads((out / "report.json").read_text())["assertions"]
    assert assertion["name"] == "suite-error"
    assert "zero-data march overflows" in assertion["note"]


@pytest.mark.parametrize("suite, line", [
    ("carleman", "bounded_factor = 40"), ("decay", "slope_tol = 0.5"),
    ("sw-gradcheck", "min_order = -5.0"), ("sw-gradcheck", "adjoint_tol = 1e9"),
    ("sw-flow", "residual_target = 1.0"), ("sw-flow", "psi_bound = 1.0")])
def test_gate_threshold_is_not_a_config_key(tmp_path, capsys, suite, line):
    """A gate's threshold is fixed in code: a config key for it exits 2."""
    key = line.split(" =")[0]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    code = run_cli("run", "--suite", suite, "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_int_for_float_key_is_stored_as_float(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("N = 2\ntrials = 1\namplitude = 1\n")
    assert run_cli("run", "--suite", "observables", "--config", str(cfg),
                   "--out", str(out)) == 0
    assert '"amplitude": 1.0' in (out / "report.json").read_text()


def test_decay_slope_needs_two_distinct_R(tmp_path):
    """One repeated R carries no slope: the fit is NaN and its gate fails."""
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_t = 1025\nr_min = 1e6\nr_max = 1e6\n")
    assert run_cli("run", "--suite", "decay", "--config", str(cfg), "--out", str(out)) == 1
    report = json.loads((out / "report.json").read_text())
    [gate] = [a for a in report["assertions"] if a["name"] == "decay-slope-deviation"]
    assert not gate["passed"] and math.isnan(gate["value"])
    assert math.isnan(report["summary"]["slope"])


def test_negative_seed_flag_exits_2_naming_seed(tmp_path, capsys):
    code = run_cli("run", "--suite", "observables", "--seed", "-1",
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg = tmp_path / "c.cfg"
    cfg.write_text("seed = 3\n")
    assert run_cli("run", "--suite", "observables", "--config", str(cfg), "--seed", "-1",
                   "--out", str(tmp_path / "out")) == 2


def test_seed_from_flag_or_config_not_both(tmp_path, capsys):
    """The seed comes from --seed or the config file, else 42; both exit 2."""
    cfg = tmp_path / "c.cfg"
    seeds = {}
    for name, text, flag in (("default", "N = 2\ntrials = 1\n", ()),
                             ("config", "N = 2\ntrials = 1\nseed = 3\n", ()),
                             ("flag", "N = 2\ntrials = 1\n", ("--seed", "5"))):
        cfg.write_text(text)
        out = tmp_path / name
        assert run_cli("run", "--suite", "observables", "--config", str(cfg), *flag,
                       "--out", str(out)) == 0
        seeds[name] = json.loads((out / "report.json").read_text())["seed"]
    assert seeds == {"default": 42, "config": 3, "flag": 5}
    capsys.readouterr()
    cfg.write_text("N = 2\ntrials = 1\nseed = 3\n")
    code = run_cli("run", "--suite", "observables", "--config", str(cfg), "--seed", "5",
                   "--out", str(tmp_path / "both"))
    assert code == 2
    assert "'seed'" in capsys.readouterr().err
    assert not (tmp_path / "both").exists()


def test_overflowing_observables_fail_their_gates(tmp_path):
    """At amplitude 1e300 the zeta values are NaN; the gates must fail, not
    report a worst value of 0."""
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("N = 2\ntrials = 2\namplitude = 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = run_cli("run", "--suite", "observables", "--config", str(cfg),
                       "--out", str(out))
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    gates = {a["name"]: a for a in report["assertions"]}
    for name in ("zeta-gauge-invariance", "zeta-real-valued"):
        assert not gates[name]["passed"], name


def test_nan_gradient_order_fails_its_gate(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "polyfit", lambda *args, **kwargs: np.array([math.nan, 0.0]))
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("N = 2\nconfigs = 1\nadjoint_pairs = 1\n")
    code = run_cli("run", "--suite", "sw-gradcheck", "--config", str(cfg),
                   "--out", str(out))
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    [gate] = [a for a in report["assertions"] if a["name"] == "gradient-convergence-order"]
    assert not gate["passed"] and math.isnan(gate["value"])


def test_jobs_option_is_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--suite", "counterexample", "--jobs", "2",
                "--out", str(tmp_path / "flag"))
    assert exc.value.code == 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text("jobs = 2\n")
    assert run_cli("run", "--suite", "counterexample", "--config", str(cfg),
                   "--out", str(tmp_path / "key")) == 2


@pytest.mark.parametrize("perturbation", ["none", "pointwise", "rank-one"])
def test_decay_suite_passes_for_each_perturbation(tmp_path, perturbation):
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"n_t = 1025\nperturbation = {perturbation}\n")
    code = run_cli("run", "--suite", "decay", "--config", str(cfg), "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    assert report["config"]["perturbation"] == perturbation


@pytest.mark.parametrize("line, key", [("peano_n = 16", "peano_n"),
                                       ("rank_one_n = 8332", "rank_one_n")])
def test_counterexample_size_that_cannot_pass_exits_2(tmp_path, capsys, line, key):
    """Below these sizes every run ends in a suite-error, so the key is rejected."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    code = run_cli("run", "--suite", "counterexample", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    build_options("counterexample", {"peano_n": 17, "rank_one_n": 8333}, None)


def test_counterexample_suite_passes(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("peano_n = 2049\nrank_one_n = 131073\n")
    code = run_cli("run", "--suite", "counterexample", "--config", str(cfg),
                   "--out", str(out), "--seed", "7")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    names = {a["name"] for a in report["assertions"]}
    assert "rank-one-pairing" in names
    assert (out / "plotdata" / "rank_one.csv").exists()


def test_carleman_rank_one_perturbation_exits_2(tmp_path, capsys):
    """Every sampler field vanishes at t = 0, where the rank-one carrier does
    not, so no carleman run with it is admissible: the value is a config
    error there, listed as such, while decay keeps all three values."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("perturbation = rank-one\nn_t = 257\nsamples = 2\nappendix_samples = 1\n")
    code = run_cli("run", "--suite", "carleman", "--config", str(cfg),
                   "--out", str(tmp_path / "out"))
    assert code == 2
    assert "'perturbation'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert build_options("decay", {"perturbation": "rank-one"}, None)["perturbation"] == "rank-one"
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    carleman = out[out.index("carleman:"):out.index("decay:")]
    assert "    perturbation = 'none'  (in {none, pointwise})\n" in carleman


def test_decay_csv_writes_an_undefined_bound_as_nan(tmp_path):
    """A row below the admissibility crossover (2.5e-25 here) has no bound:
    decay.csv writes nan there, not -inf, which would claim the mass must
    vanish; a true -inf is still written as -inf."""
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n_t = 257\nr_min = 1e-30\nr_max = 1e5\nr_points = 4\n"
                   "perturbation = pointwise\n")
    run_cli("run", "--suite", "decay", "--config", str(cfg), "--out", str(out))
    with open(out / "decay.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert (rows[0]["conclusive"], rows[0]["log_bound"]) == ("False", "nan")
    assert all(math.isfinite(float(r["log_bound"])) for r in rows[1:])
    _write_csv(tmp_path / "b.csv", ["log_bound"], [[-math.inf, math.nan]])
    assert (tmp_path / "b.csv").read_text().split() == ["log_bound", "-inf", "nan"]


def test_carleman_suite_low_grid_is_inconclusive(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("r_min = 5.0\nr_max = 5.0\nr_points = 1\nsamples = 3\n"
                   "n_t = 257\nappendix_samples = 2\n")
    code = run_cli("run", "--suite", "carleman", "--config", str(cfg),
                   "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "R grid too short for the boundedness assertion" in report["inconclusive"]
    names = {a["name"] for a in report["assertions"]}
    assert "constant-boundedness-spread" not in names
    assert {"appendix-identity-defect", "appendix-mix-order"} <= names


def test_carleman_suite_default_spread_fails_honestly(tmp_path):
    # the sharp constant grows through R in [10, 1e3] at T = 0.1 (see README);
    # the suite must report the measured spread and exit 1 rather than pass
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("samples = 6\nn_t = 1025\nappendix_samples = 2\n")
    code = run_cli("run", "--suite", "carleman", "--config", str(cfg),
                   "--out", str(out))
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    spread = [a for a in report["assertions"]
              if a["name"] == "constant-boundedness-spread"][0]
    assert not spread["passed"]
    assert spread["value"] > 2.0
    assert (out / "carleman.csv").exists()


@pytest.mark.parametrize("grid", ["T = 1e6\n", "r_max = 1e9\nr_points = 3\n"])
def test_carleman_spread_gate_reads_the_summary_spread(tmp_path, grid):
    """Estimates that underflow to 0 give a nan spread: the gate fails on the
    same value the summary reports, and no RuntimeWarning is raised."""
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(grid + "samples = 2\nn_t = 257\nappendix_samples = 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("run", "--suite", "carleman", "--config", str(cfg),
                       "--out", str(out))
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    [gate] = [a for a in report["assertions"] if a["name"] == "constant-boundedness-spread"]
    assert not gate["passed"]
    assert repr(gate["value"]) == repr(report["summary"]["spread"])


def test_admissibility_gate_catches_a_wrong_c0(tmp_path, monkeypatch):
    """The C0 gate compares with the closed form, so a doubled C0 inside
    admissibility_bound fails it."""
    from ucp_lab import perturbations

    class Doubled(perturbations.AdmissibilityResult):
        def __init__(self, admissible, c0, reason=""):
            super().__init__(admissible, None if c0 is None else 2.0 * c0, reason)

    cfg = tmp_path / "c.cfg"
    cfg.write_text("perturbation = pointwise\nr_points = 1\nsamples = 1\n"
                   "n_t = 257\nappendix_samples = 1\n")
    gates = []
    for doubled in (False, True):
        if doubled:
            monkeypatch.setattr(perturbations, "AdmissibilityResult", Doubled)
        out = tmp_path / f"out{doubled}"
        run_cli("run", "--suite", "carleman", "--config", str(cfg), "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        [gate] = [a for a in report["assertions"]
                  if a["name"] == "admissibility-constant-consistency"]
        gates.append(gate)
    assert gates[0]["passed"] and gates[0]["value"] <= 1e-12
    assert not gates[1]["passed"] and gates[1]["value"] > 1e-3


def test_carleman_row_without_a_finite_ratio_is_inconclusive(tmp_path, monkeypatch):
    """Where no sampled ratio is finite, here every ratio from R = 3.16e8 on,
    the row has a nan estimate, so carleman.csv marks it inconclusive, as
    SweepResult.conclusive does, and report.json names each one."""
    ratio = carleman.carleman_ratio

    def nan_above_1e8(op, P, v, R, geom):
        rep = ratio(op, P, v, R, geom)
        return dataclasses.replace(rep, ratio=math.nan) if R > 1e8 else rep

    monkeypatch.setattr(carleman, "carleman_ratio", nan_above_1e8)
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("r_max = 1e10\n")
    code = run_cli("run", "--suite", "carleman", "--config", str(cfg), "--seed", "42",
                   "--out", str(out))
    assert code == 1
    with open(out / "carleman.csv") as fh:
        rows = list(csv.DictReader(fh))
    nan_rows = [row for row in rows if math.isnan(float(row["constant_estimate"]))]
    assert [float(row["R"]) for row in nan_rows] == pytest.approx([10 ** 8.5, 1e10])
    assert {row["status"] for row in nan_rows} == {"inconclusive"}
    notes = json.loads((out / "report.json").read_text())["inconclusive"]
    for row in nan_rows:
        assert f"R={float(row['R']):g} no finite sampled ratio" in notes


def test_carleman_suite_large_R_writes_finite_log_masses(tmp_path):
    # R T^2 > 709 at R = 1e5: the weighted masses overflow a float, their logs do not
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("r_max = 1e5\nsamples = 2\n")
    run_cli("run", "--suite", "carleman", "--config", str(cfg), "--out", str(out))
    report = json.loads((out / "report.json").read_text())
    assert "suite-error" not in {a["name"] for a in report["assertions"]}
    with open(out / "carleman.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[-1]["R"]) == 1e5
    assert all(math.isfinite(float(row["log_lhs"])) for row in rows)


def test_observables_suite_passes(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("N = 2\ntrials = 2\n")
    code = run_cli("run", "--suite", "observables", "--config", str(cfg),
                   "--out", str(out), "--seed", "3")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    assert (out / "observables.csv").exists()


def test_sw_flow_suite_small(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("N = 2\ntrials = 1\nmax_steps = 150\n")
    code = run_cli("run", "--suite", "sw-flow", "--config", str(cfg),
                   "--out", str(out), "--seed", "5")
    assert code == 0
    assert (out / "plotdata" / "flow_0.csv").exists()
    assert (out / "flow_final.ckpt").exists()


def test_sw_flow_resonant_dt_is_suite_error(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("N = 2\ntrials = 1\ndt = 0.5\n")
    code = run_cli("run", "--suite", "sw-flow", "--config", str(cfg),
                   "--out", str(out), "--seed", "5")
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    [assertion] = report["assertions"]
    assert assertion["name"] == "suite-error"
    assert "resonant at |k| = 2" in assertion["note"]


def test_sw_flow_overflowing_dt_is_suite_error(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "c.cfg"
    cfg.write_text("N = 2\ntrials = 1\ndt = 1e300\n")
    code = run_cli("run", "--suite", "sw-flow", "--config", str(cfg),
                   "--out", str(out), "--seed", "5")
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    [assertion] = report["assertions"]
    assert assertion["name"] == "suite-error"
    assert "dt=1e+300 overflows" in assertion["note"]


def test_report_bytes_deterministic(tmp_path):
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        cfg = tmp_path / f"{sub}.cfg"
        cfg.write_text("N = 2\ntrials = 2\n")
        assert run_cli("run", "--suite", "observables", "--config", str(cfg),
                       "--out", str(out), "--seed", "11") == 0
        outs.append((out / "report.json").read_bytes())
        outs.append((out / "observables.csv").read_bytes())
    assert outs[0] == outs[2]
    assert outs[1] == outs[3]


def test_seed_changes_sampled_values(tmp_path):
    vals = []
    for seed in ("1", "2"):
        out = tmp_path / f"s{seed}"
        cfg = tmp_path / f"s{seed}.cfg"
        cfg.write_text("N = 2\ntrials = 1\n")
        run_cli("run", "--suite", "observables", "--config", str(cfg),
                "--out", str(out), "--seed", seed)
        vals.append((out / "observables.csv").read_text())
    assert vals[0] != vals[1]


def test_default_sw_gradcheck_gates_the_floer_norm(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--suite", "sw-gradcheck", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    [gate] = [a for a in report["assertions"] if a["name"] == "floer-norm"]
    assert gate["passed"] and 0.0 <= gate["value"] <= gate["threshold"] == 1e-4
    assert math.isfinite(report["summary"]["floer_norm"])
    assert report["summary"]["floer_norm"] > 0.0
    assert gate["value"] == report["summary"]["floer_remainder"] / report["summary"]["floer_norm"]
