import argparse
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dsexact import BlowupError, ConfigError, DegenerateMatch, \
    MixedCaseUnsupported, NoRealAmplitude, NoRealSolution, \
    UnsupportedVariant, Variant, cli, crosscheck, ellipk, evolve, family_c, \
    gridio, parse_timefn, selftest
from dsexact.cli import main
from dsexact.elliptic import PROFILE_KINDS


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


def sn_verify_config(tmp_path, out_name="report.json", **verify):
    return write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "grid": {"t": [0.0], "x": [-0.9, 0.9, 7], "y": [-0.9, 0.9, 7]},
        "verify": {"h": 1e-3, "order": 4, "tol_rel": 1e-7, **verify},
        "out": str(tmp_path / out_name),
    })


def test_families_lists_all(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    for token in ("A ", "B ", "C ", "T1", "T2"):
        assert token in out


def test_python_dash_m_runs_the_cli():
    # ``python -m dsexact`` goes through __main__.py, which no in-process
    # call of ``main`` executes.
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "dsexact", "families"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == cli._FAMILIES_TEXT.splitlines()[0]


def test_families_names_every_profile_kind(capsys):
    # The help text lists the kinds by hand; it must match the kind table.
    assert main(["families"]) == 0
    kinds = re.search(r'"kind": one of ([a-z|]+)', capsys.readouterr().out)
    assert tuple(kinds.group(1).split("|")) == PROFILE_KINDS


def test_eval_single_point_row(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": 1, "eps2": 1},
        "family": "A",
        "params": {"Im": "t", "c": 1.0},
        "grid": {"t": [0.0], "x": [0.0, 0.0, 1], "y": [0.0, 0.0, 1]},
    })
    out = tmp_path / "point.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,y,re_u,im_u,abs_u,v,valid"
    assert lines[1] == "0,0,0,1,0,1,-1,true"
    assert len(lines) == 2


def test_family_c_ell1_defaults_to_zero(tmp_path):
    # Any other default moves the line, and every u and v with it.
    doc = full_config(tmp_path)
    doc["params"]["ell1"] = 0
    zero = write_config(tmp_path / "zero.json", doc)
    del doc["params"]["ell1"]
    default = write_config(tmp_path / "default.json", doc)
    for cfg in (zero, default):
        assert main(["eval", "--config", cfg, "--out", cfg + ".csv"]) == 0
    assert Path(zero + ".csv").read_bytes() == \
        Path(default + ".csv").read_bytes()


def test_eval_row_count_and_invalid_cells(tmp_path):
    # a grid crossing the tan pole emits rows with valid=false, empty cells
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "tan", "ell": math.pi / 2.0, "ell1": 0.0,
                   "beta": "0"},
        "grid": {"t": [0.0], "x": [0.0, math.pi, 9], "y": [0.0, 0.0, 1]},
    })
    out = tmp_path / "field.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 9
    bad = [ln for ln in lines[1:] if ln.endswith(",false")]
    assert bad and all(",,,," in ln for ln in bad)


def test_verify_pass_and_report(tmp_path):
    cfg = sn_verify_config(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["pass"] is True
    assert doc["n_points"] == 49
    assert sorted(doc) == ["max1", "max2", "n_points", "order1", "order2",
                           "pass", "rms1", "rms2"]


def test_verify_of_stencils_that_round_onto_their_points(tmp_path, capsys):
    # At t = 1e308, t + h == t, so every time difference is 0; the sample
    # once passed with rms1 = 0.  Each point is skipped instead.
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": 0.4, "ell1": 0.3,
                   "beta": "0.1*t"},
        "grid": {"t": [1e308], "x": [-0.8, 0.8, 5], "y": [-0.8, 0.8, 5]},
        "out": str(tmp_path / "report.json"),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("EmptySampleError: ")
    assert not (tmp_path / "report.json").exists()


def test_verify_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": 0.4, "ell1": 0.0,
                   "beta": "0", "v_quad_coeff": 0.15},  # wrong on purpose
        "grid": {"t": [0.0], "x": [-0.9, 0.9, 5], "y": [-0.9, 0.9, 5]},
        "out": str(tmp_path / "bad.json"),
    })
    assert main(["verify", "--config", cfg]) == 1
    assert json.loads((tmp_path / "bad.json").read_text())["pass"] is False


def test_unknown_family_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": 1, "eps2": 1}, "family": "D",
        "grid": {"t": [0.0], "x": [0, 1, 2], "y": [0, 1, 2]}})
    assert main(["verify", "--config", cfg]) == 2
    assert "/family" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, error", [
    ("verify", {"variant": {"eps1": -1, "eps2": 1}, "family": "B",
                "params": {"a": 1.0, "b": 1.0, "c": 0.0, "beta": "0"}},
     "UnsupportedVariant"),
    ("eval", {"variant": {"eps1": -1, "eps2": -1}, "family": "C",
              "params": {"kind": "tan", "ell": 0.3, "ell1": 0.0,
                         "beta": "0"}},
     "NoRealAmplitude"),
    ("evolve", {"variant": {"eps1": 1, "eps2": 1}, "family": "C",
                "params": {"kind": "sn", "m": 0.5, "ell": 0.4, "ell1": 0.0,
                           "beta": "0"},
                "evolve": {"box": [4.0, 4.0], "n": 16, "T": 0.01,
                           "dt": 1e-3}},
     "UnsupportedVariant"),
])
def test_input_outside_the_contract_exits_2(tmp_path, capsys, command, doc,
                                            error):
    # Inputs no family or operation covers are rejected like malformed
    # ones: exit 2, no output written; 1 is left to verification failures.
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", {
        **doc, "grid": {"t": [0.2], "x": [-0.5, 0.5, 3], "y": [0, 1, 2]},
        "out": str(out)})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"{error}: ")
    assert not out.exists()


@pytest.mark.parametrize("error", [UnsupportedVariant, DegenerateMatch,
                                   NoRealAmplitude, NoRealSolution,
                                   MixedCaseUnsupported])
def test_contract_errors_are_config_errors(error):
    assert issubclass(error, ConfigError) and error.exit_code == 2


def test_axis_count_bound():
    # Reading a grid allocates nothing, so the bound itself is checked here.
    top = cli._MAX_AXIS
    for x, y in ((top, 1), (1, top)):
        grid = cli.build_grid({"grid": {"t": [0], "x": [0, 1, x],
                                        "y": [0, 1, y]}})
        assert (grid.x_range[2], grid.y_range[2]) == (x, y)
    for axis in ("x", "y"):
        cfg = {"grid": {"t": [0], "x": [0, 1, 2], "y": [0, 1, 2]}}
        cfg["grid"][axis][2] = top + 1
        with pytest.raises(ConfigError, match=f"/grid/{axis}/2: .* {top},"):
            cli.build_grid(cfg)


def test_schema_error_paths(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": 3, "eps2": 1}, "family": "A",
        "params": {"Im": "t", "c": 1.0},
        "grid": {"t": [0.0], "x": [0, 1, 2], "y": [0, 1, 2]}})
    assert main(["verify", "--config", cfg]) == 2
    assert "/variant/eps1" in capsys.readouterr().err
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--config", str(bad)]) == 2


def test_transform_then_verify(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "transforms": [
            {"kind": "T1", "alpha": "0.3*sin(t)", "beta": "0.1*t",
             "gamma": "t^2"},
            {"kind": "T2", "b": 1.5}],
        "then": "verify",
        "grid": {"t": [0.2], "x": [-0.8, 0.8, 5], "y": [-0.8, 0.8, 5]},
        "out": str(tmp_path / "tr.json"),
    })
    assert main(["transform", "--config", cfg]) == 0
    assert json.loads((tmp_path / "tr.json").read_text())["pass"] is True


def test_transform_requires_chain(tmp_path, capsys):
    cfg = sn_verify_config(tmp_path)
    assert main(["transform", "--config", cfg]) == 2
    assert "/transforms" in capsys.readouterr().err


def test_evolve_report_and_snapshot(tmp_path):
    L = 4.0 * ellipk(0.5)
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "evolve": {"box": [L, L], "n": 32, "T": 0.02, "dt": 1e-3,
                   "v_mean": "exact", "tol": 1e-5,
                   "snapshot_out": str(tmp_path / "snap.csv")},
        "out": str(tmp_path / "evolve.json"),
    })
    assert main(["evolve", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "evolve.json").read_text())
    assert doc["pass"] is True and doc["n_steps"] == 20
    snap = (tmp_path / "snap.csv").read_text().splitlines()
    assert snap[0] == "t,x,y,re_u,im_u,abs_u,v,valid"
    assert len(snap) == 1 + 32 * 32


def test_evolve_box_that_is_not_a_power_of_two(tmp_path):
    L = 4.0 * ellipk(0.5)
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "evolve": {"box": [L, L], "n": 48, "T": 0.05, "dt": 1e-3,
                   "tol": 1e-8, "snapshot_out": str(tmp_path / "snap.csv")},
        "out": str(tmp_path / "evolve.json"),
    })
    assert main(["evolve", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "evolve.json").read_text())
    assert doc["pass"] is True and doc["n"] == 48
    assert len((tmp_path / "snap.csv").read_text().splitlines()) == 1 + 48 ** 2
    # The snapshot's coordinates are the points the box sampled, i * (L / n);
    # i * L / n was up to 1 ulp away from them on 19 of the 48.
    x, y = np.loadtxt(tmp_path / "snap.csv", delimiter=",", skiprows=1,
                      usecols=(1, 2), unpack=True)
    axis = np.arange(48) * (L / 48)
    assert np.array_equal(x, np.tile(axis, 48))
    assert np.array_equal(y, np.repeat(axis, 48))


def test_evolve_snapshot_is_the_checked_field(tmp_path, monkeypatch):
    L = 4.0 * ellipk(0.5)
    sol = family_c(Variant(-1, 1), "sn", 0.5, math.pi / 2.0, 0.0,
                   parse_timefn("0"))
    _, field = crosscheck(sol, L, L, 16, 0.02, 1e-3)
    evals = []
    eval_solution = evolve.eval_solution

    def counting(*args, **kwargs):
        evals.append(1)
        return eval_solution(*args, **kwargs)

    monkeypatch.setattr(evolve, "eval_solution", counting)
    monkeypatch.setattr(gridio, "eval_solution", counting)

    def run(name, snapshot):
        evals.clear()
        doc = {"variant": {"eps1": -1, "eps2": 1}, "family": "C",
               "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                          "ell1": 0.0, "beta": "0"},
               "evolve": {"box": [L, L], "n": 16, "T": 0.02, "dt": 1e-3},
               "out": str(tmp_path / f"{name}.json")}
        if snapshot:
            doc["evolve"]["snapshot_out"] = str(tmp_path / f"{name}.csv")
        assert main(["evolve", "--config",
                     write_config(tmp_path / f"{name}-cfg.json", doc)]) == 0
        return json.loads((tmp_path / f"{name}.json").read_text()), \
            len(evals)

    report, with_snapshot = run("a", True)
    _, again = run("b", True)
    _, without = run("c", False)
    # No re-sampling and no second evolution for the snapshot.
    assert with_snapshot == again == without
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()
    cells = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1,
                       usecols=range(7))
    assert np.all(cells[:, 0] == report["t_final"])
    u = field.u.T.ravel()  # rows run x fastest
    scale = np.max(np.abs(u))
    assert np.max(np.abs(cells[:, 3] - u.real)) <= 1e-12 * scale
    assert np.max(np.abs(cells[:, 4] - u.imag)) <= 1e-12 * scale


def test_seeded_jitter_is_deterministic(tmp_path):
    cfg = sn_verify_config(tmp_path, out_name="a.json")
    assert main(["verify", "--config", cfg, "--seed", "7",
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["verify", "--config", cfg, "--seed", "7",
                 "--out", str(tmp_path / "b.json")]) == 0
    assert main(["verify", "--config", cfg, "--seed", "8",
                 "--out", str(tmp_path / "c.json")]) == 0
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    c = (tmp_path / "c.json").read_bytes()
    assert a == b
    assert a != c


def test_verify_tol_rel_decides_the_verdict(tmp_path):
    # The config passes at its own tolerance; an absurd one fails it.
    assert main(["verify", "--config", sn_verify_config(tmp_path)]) == 0
    cfg = sn_verify_config(tmp_path, tol_rel=1e-30)
    assert main(["verify", "--config", cfg]) == 1


def test_selftest_runs_clean(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^ok   (.+)$", out, re.M) == [
        "catalog certificates", "transform certificates",
        "dynamical cross-check"]
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_selftest_reports_a_failed_certificate(capsys, monkeypatch):
    # The first certificate (a catalog entry) fails; the rest are genuine.
    reports = []
    verify = selftest.verify

    def failing_once(sol, points):
        reports.append(verify(sol, points))
        if len(reports) == 1:
            return replace(reports[0], passed=False)
        return reports[-1]

    monkeypatch.setattr(selftest, "verify", failing_once)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL catalog certificates" in out
    assert "1 check(s) failed" in out


@pytest.mark.parametrize("report, problem", [
    ({"max_dev": 2e-5, "mass_drift": 0.0, "mass_initial": 1.0},
     "max_dev 2e-05 > 1e-5"),
    ({"max_dev": 0.0, "mass_drift": 2e-10, "mass_initial": 1.0},
     "mass drift 2e-10 > 1e-10 * mass"),
])
def test_selftest_crosscheck_gates(monkeypatch, report, problem):
    monkeypatch.setattr(selftest, "crosscheck", lambda *args: (report, None))
    assert selftest._dynamical_crosscheck() == problem


def test_selftest_reports_an_error_as_a_failure(capsys, monkeypatch):
    def blowup(*args):
        raise BlowupError("field blew up")

    monkeypatch.setattr(selftest, "crosscheck", blowup)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL dynamical cross-check: BlowupError: field blew up" in out
    assert "ok   catalog certificates" in out


@pytest.mark.parametrize("h", ["0", "-0.001", "nan", "inf"])
def test_verify_rejects_bad_step(tmp_path, capsys, h):
    cfg = sn_verify_config(tmp_path, h=float(h))
    assert main(["verify", "--config", cfg]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("key, value", [("dt", 0.0), ("dt", -1.0),
                                        ("T", -1.0), ("T", 0.0),
                                        ("T", 0.0004), ("dt", 1e-320)])
def test_evolve_rejects_empty_horizon(tmp_path, capsys, key, value):
    # These would run zero steps and report a vacuous pass: T = 0.0004 is
    # less than half of dt = 1e-3 and rounds to no step at all.  At
    # dt = 1e-320 the step count T/dt overflows to inf.
    L = 4.0 * ellipk(0.5)
    evolve = {"box": [L, L], "n": 16, "T": 0.01, "dt": 1e-3, "tol": 1e-5}
    evolve[key] = value
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "evolve": evolve,
        "out": str(tmp_path / "evolve.json"),
    })
    assert main(["evolve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "T=" in err and "dt=" in err
    assert not (tmp_path / "evolve.json").exists()


def test_evolve_rejects_step_count_above_cap(tmp_path, capsys, monkeypatch):
    # T/dt = 1e303 is finite but would step for ever: it is refused before
    # the first step.
    def no_steps(*args):
        raise AssertionError("advance called")

    monkeypatch.setattr(evolve, "advance", no_steps)
    L = 4.0 * ellipk(0.5)
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "evolve": {"box": [L, L], "n": 16, "T": 1e300, "dt": 1e-3},
        "out": str(tmp_path / "evolve.json"),
    })
    assert main(["evolve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "T=1e+300" in err and "dt=0.001" in err
    assert f"cap of {evolve._MAX_STEPS} steps" in err
    assert not (tmp_path / "evolve.json").exists()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_non_finite_report_is_strict_json(tmp_path):
    # At this amplitude the first equation's residuals overflow: the
    # certificate fails and the non-finite fields are written as null, not
    # as NaN/Infinity.  The second equation's are finite; so are its rms
    # and order, though their squares overflow.
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0", "amplitude": 1e120},
        "grid": {"t": [0.0], "x": [-0.9, 0.9, 5], "y": [-0.9, 0.9, 5]},
        "out": str(tmp_path / "report.json"),
    })
    assert main(["verify", "--config", cfg]) == 1
    doc = json.loads((tmp_path / "report.json").read_text(),
                     parse_constant=_reject_constant)
    assert sorted(doc) == ["max1", "max2", "n_points", "order1", "order2",
                           "pass", "rms1", "rms2"]
    assert doc["pass"] is False
    assert doc["order1"] is None and math.isfinite(doc["order2"])


def full_config(tmp_path):
    """A config every command accepts; outputs go to tmp_path."""
    L = 4.0 * ellipk(0.5)
    return {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "transforms": [{"kind": "T2", "b": 1.0}],
        "grid": {"t": [0.0], "x": [-0.9, 0.9, 5], "y": [-0.9, 0.9, 5]},
        "verify": {"h": 1e-3, "order": 4, "tol_rel": 1e-7},
        "evolve": {"box": [L, L], "n": 16, "T": 0.01, "dt": 1e-3,
                   "tol": 1e-5, "snapshot_out": str(tmp_path / "snap.csv")},
        "out": str(tmp_path / "out.json"),
    }


def set_pointer(doc, pointer, value):
    *path, last = pointer.split("/")[1:]
    for key in path:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    doc[int(last) if isinstance(doc, list) else last] = value


TOO_LONG = "expression longer than 200 tokens at position 200"

# (command, pointer, bad value, flags, text stderr must name)
MALFORMED = [
    ("verify", "/grid/x/0", "a", [], "/grid/x/0"),
    ("verify", "/grid/t/0", "x", [], "/grid/t/0"),
    ("evolve", "/evolve/box/0", "a", [], "/evolve/box/0"),
    ("verify", "/params/beta", {"expr": "0", "domain": ["a", 1]}, [],
     "/params/beta/domain/0"),
    ("verify", "/grid/x/2", 7.9, [], "/grid/x/2"),
    ("evolve", "/evolve/n", 16.7, [], "/evolve/n"),
    ("verify", "/verify/order", 4.5, [], "/verify/order"),
    ("verify", "/verify/order", 3, [], "/verify/order"),
    ("verify", "/verify/order", "4", [], "/verify/order"),
    ("verify", "/variant/eps1", True, [], "/variant/eps1"),
    ("verify", "/out", ["x"], [], "/out"),
    ("evolve", "/evolve/snapshot_out", 3, [], "/evolve/snapshot_out"),
    ("transform", "/transforms/0/b", "x", [], "/transforms/0/b"),
    ("verify", "/out", "{tmp}/missing/r.json", [], "{tmp}/missing/r.json"),
    ("evolve", "/evolve/snapshot_out", "{tmp}/missing/s.csv", [],
     "{tmp}/missing/s.csv"),
    ("verify", "/params/ell", math.nan, [], "/params/ell"),
    ("verify", "/grid/x/0", math.inf, [], "/grid/x/0"),
    ("verify", "/verify/tol_rel", math.inf, [], "/verify/tol_rel"),
    ("evolve", "/evolve/tol", math.inf, [], "/evolve/tol"),
    ("verify", "/params/beta", "t^(1/0)", [], "/params/beta"),
    ("evolve", "/params/beta", "t^ln(0-1)", [], "/params/beta"),
    ("verify", "/params/m", None, [], "/params/m"),
    ("verify", "/params/m", 1.0, [], "/params/m"),
    ("evolve", "/params/m", -0.2, [], "/params/m"),
    ("evolve", "/evolve/box/0", 0.0, [], "lx="),
    ("evolve", "/evolve/box/1", -1.0, [], "ly="),
    ("eval", "/grid/x/2", 1e15, [], "/grid/x/2"),
    ("evolve", "/evolve/n", float(2 ** 1000), [], "/evolve/n"),
    pytest.param("evolve", "/evolve/n", 1, [],
                 "/evolve/n: expected an integer from 2 to 2048, got 1.0",
                 id="evolve-n-below-two"),
    ("verify", "/verify/tol_rel", -1.0, [], "/verify/tol_rel: expected"),
    ("verify", "/verify/tol_rel", "1e-7", [],
     "/verify/tol_rel: expected a finite number"),
    ("evolve", "/evolve/tol", -1.0, [], "/evolve/tol: expected"),
    ("evolve", "/evolve/T", math.nan, [], "/evolve/T: expected a finite"),
    ("verify", "/grid/x", [-0.9, 0.9], [], "/grid/x: expected a list of 3"),
    ("transform", "/transforms", [], [], "/transforms: expected a nonempty"),
    ("verify", "/params/beta", 3, [], "/params/beta: expected a string"),
    ("verify", "/params/beta", {"expr": "t", "domain": [1, 0]}, [],
     "/params/beta: empty validity interval"),
    # The smallest negative double is still below 0.
    ("verify", "/verify/tol_rel", -5e-324, [], "/verify/tol_rel: expected"),
    ("verify", "/verify/h", -1e-3, [], "h=-0.001"),
    ("evolve", "/evolve/dt", -1e-3, [], "dt=-0.001"),
    pytest.param("verify", "/params/beta", "(" * 2000 + "t" + ")" * 2000, [],
                 f"/params/beta: {TOO_LONG}", id="verify-parens"),
    pytest.param("eval", "/params/beta", "+".join(["t"] * 20000), [],
                 f"/params/beta: {TOO_LONG}", id="eval-plus-chain"),
    pytest.param("evolve", "/params/beta", "-" * 5000 + "t", [],
                 f"/params/beta: {TOO_LONG}", id="evolve-minuses"),
    pytest.param("transform", "/transforms/0",
                 {"kind": "T1", "alpha": "t" + "^1" * 3000, "beta": "0",
                  "gamma": "0"}, [], f"/transforms/0/alpha: {TOO_LONG}",
                 id="transform-power-chain"),
    ("eval", "/grid/x", [-1e308, 1e308, 3], [], "/grid/x: the span"),
    ("verify", "/grid/y", [-1e308, 7e307, 3], [], "/grid/y: the span"),
    ("eval", "/grid/x", [-1e308, 1e308, 1], [], "/grid/x: the span"),
    ("evolve", "/evolve/box", [1e-300, 1e-300], [], "lx=1e-300, ly=1e-300"),
    ("evolve", "/evolve/box", [1e300, 1e300], [], "lx=1e+300, ly=1e+300"),
    ("eval", "/grid/x", [1.7e308, 1.79e308, 2], ["--seed", "1"],
     "/grid/x: the span"),
    ("verify", "/grid/y", [-1.79e308, -1.7e308, 2], [], "/grid/y: the span"),
    # An int past the double range was an OverflowError in math.isfinite.
    pytest.param("verify", "/params/ell", 10 ** 400, [],
                 "/params/ell: expected a finite number", id="verify-1e400"),
    # The step lx / 16 rounded to 0 and fftfreq divided by it.
    ("evolve", "/evolve/box/0", 5e-324, [], "lx=5e-324"),
]


@pytest.mark.parametrize("command, pointer, value, flags, named", MALFORMED)
def test_malformed_input_is_config_error(tmp_path, capsys, command, pointer,
                                         value, flags, named):
    doc = full_config(tmp_path)
    if isinstance(value, str):
        value = value.format(tmp=tmp_path)
    set_pointer(doc, pointer, value)
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err
    assert named.format(tmp=tmp_path) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_value_flags_take_a_dash_value_after_a_space(tmp_path, monkeypatch):
    # argparse alone reads "-c.json" and "-x.csv" as options; each value
    # flag takes the next token, as with --config=-c.json.
    doc = full_config(tmp_path)
    doc["grid"] = {"t": [0.0], "x": [0.0, 0.0, 1], "y": [0.0, 0.0, 1]}
    write_config(tmp_path / "-c.json", doc)
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--config", "-c.json", "--out", "-x.csv"]) == 0
    assert (tmp_path / "-x.csv").read_text().startswith(gridio.FIELD_HEADER)


# Finite family constants whose derived quantities leave the double range:
# cosh(2 ell) overflows, 2 ell is infinite, and b*b underflows to 0.
@pytest.mark.parametrize("family, variant, params, named", [
    ("C", 1, {"ell": 800.0}, "ell=800.0"),
    ("C", -1, {"ell": 1e308}, "ell=1e+308"),
    ("B", 1, {"a": 1e200, "b": 1e-200, "c": 1.0}, "a=1e+200, b=1e-200"),
])
def test_out_of_range_family_constant_is_config_error(tmp_path, capsys, family,
                                                     variant, params, named):
    doc = full_config(tmp_path)
    doc["family"] = family
    doc["variant"]["eps1"] = variant
    doc["params"].update(params)
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError") and named in err


@pytest.mark.parametrize("command", ["verify", "transform"])
def test_verify_bounds_the_whole_grid_before_allocating(tmp_path, capsys,
                                                        monkeypatch, command):
    def refuse(self, seed=None):
        raise AssertionError("points() called")

    monkeypatch.setattr(gridio.GridSpec, "points", refuse)
    doc = full_config(tmp_path)
    doc["then"] = "verify"
    doc["grid"]["x"][2] = doc["grid"]["y"][2] = cli._MAX_AXIS
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: /grid: ")
    assert f"{2 ** 40} sample points" in err


def test_whole_grid_bound_is_inclusive(tmp_path, monkeypatch):
    doc = full_config(tmp_path)  # 25 points
    cfg = write_config(tmp_path / "cfg.json", doc)
    monkeypatch.setattr(cli, "_MAX_POINTS", 25)
    assert main(["verify", "--config", cfg]) == 0
    monkeypatch.setattr(cli, "_MAX_POINTS", 24)
    assert main(["verify", "--config", cfg]) == 2


# The flags any command takes, and those that once overrode a config field:
# the config alone holds h, order, the tolerances, dt and T.
FLAGS = {"--out", "--seed", "--h", "--order", "--tol", "--dt", "--T"}
COMMAND_FLAGS = {
    "families": set(), "selftest": set(),
    "eval": {"--out", "--seed"},
    "verify": {"--out", "--seed"},
    "transform": {"--out", "--seed"},
    "evolve": {"--out"},
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, accepted in COMMAND_FLAGS.items()
    for flag in sorted(FLAGS - accepted)])
def test_command_rejects_flags_it_does_not_read(tmp_path, capsys, command,
                                                flag):
    cfg = write_config(tmp_path / "cfg.json", full_config(tmp_path))
    config = [] if command in ("families", "selftest") else ["--config", cfg]
    with pytest.raises(SystemExit) as exc:
        main([command, *config, flag, "5"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""  # no help text: "--h" is not taken for "--help"
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_exactly_the_command_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--\w+", capsys.readouterr().out))
    config = set() if command in ("families", "selftest") else {"--config"}
    assert listed == {"--help"} | config | COMMAND_FLAGS[command]


def test_evolve_tol_decides_the_verdict(tmp_path):
    doc = full_config(tmp_path)
    del doc["transforms"]
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["evolve", "--config", cfg]) == 0
    doc["evolve"]["tol"] = 1e-30
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["evolve", "--config", cfg]) == 1
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["tol"] == 1e-30
    assert report["pass"] is False
    assert report["max_dev"] > 1e-30


def test_evolve_numeric_v_mean_sets_the_gauge(tmp_path):
    doc = full_config(tmp_path)
    del doc["evolve"]["tol"]
    doc["evolve"]["v_mean"] = 0.25
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["evolve", "--config", cfg]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["v_mean"] == 0.25


def test_family_b_im_override_fails_verification(tmp_path, capsys):
    # The forced Im = ln(3)/4 passes; any other Im breaks the mean-flow
    # constraint, which the oracle reports as a failure, not a config error.
    doc = full_config(tmp_path)
    doc.update(variant={"eps1": 1, "eps2": 1}, family="B",
               params={"a": 1.0, "b": 1.0, "c": 0.5, "beta": "0.1*t"})
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["verify", "--config", cfg]) == 0
    doc["params"]["im"] = 0.5
    cfg = write_config(tmp_path / "cfg.json", doc)
    capsys.readouterr()
    assert main(["verify", "--config", cfg]) == 1
    assert capsys.readouterr().out.startswith("FAIL ")
    assert json.loads((tmp_path / "out.json").read_text())["pass"] is False


@pytest.mark.parametrize("text, named", [
    (None, "cannot read config: "),
    ("[1, 2]", "/: config must be a JSON object"),
])
def test_config_must_be_a_readable_json_object(tmp_path, capsys, text, named):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"ConfigError: {named}")
    assert not out.exists()


@pytest.mark.parametrize("bad", [b"\xff", b"1" * 5000],
                         ids=["latin-1", "digits"])
def test_config_json_cannot_read_is_config_error(tmp_path, capsys, bad):
    # Bytes json.dumps cannot write: a config that is not UTF-8, and an int
    # literal past Python's 4,300-digit limit on str -> int.  Each was a
    # traceback (UnicodeDecodeError, ValueError) that exited 1.
    doc = full_config(tmp_path)
    doc["params"]["ell"] = "@"
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(doc).encode().replace(b'"@"', bad))
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_eval_checks_output_path_before_evaluating(tmp_path, capsys,
                                                   monkeypatch):
    calls = []
    eval_solution = gridio.eval_solution

    def counting(*args):
        calls.append(args)
        return eval_solution(*args)

    monkeypatch.setattr(gridio, "eval_solution", counting)
    cfg = write_config(tmp_path / "cfg.json", full_config(tmp_path))
    out = tmp_path / "missing" / "field.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("then", ["eval", "verify"])
def test_transform_reads_config_once(tmp_path, monkeypatch, then):
    doc = full_config(tmp_path)
    doc["then"] = then
    cfg = write_config(tmp_path / "cfg.json", doc)
    calls = []
    load_config = cli.load_config

    def counting(path):
        calls.append(path)
        return load_config(path)

    monkeypatch.setattr(cli, "load_config", counting)
    assert main(["transform", "--config", cfg]) == 0
    assert calls == [cfg]


def test_grid_points_array_matches_tuple_order():
    grid = gridio.GridSpec((0.0, 0.5), (-1.0, 1.0, 3), (0.0, 2.0, 2))
    points = grid.points()
    assert points.shape == (12, 3) and points.dtype == float
    expected = [(t, x, y) for t in (0.0, 0.5) for y in (0.0, 2.0)
                for x in (-1.0, 0.0, 1.0)]
    assert points.tolist() == [list(p) for p in expected]
    jittered = grid.points(seed=3)
    assert jittered.shape == (12, 3)
    assert np.array_equal(jittered, grid.points(seed=3))


def test_overflowing_time_function_gives_invalid_rows(tmp_path):
    # exp(800) overflows: the rows at t=800 are invalid, not a traceback.
    doc = full_config(tmp_path)
    del doc["transforms"]
    doc["params"]["beta"] = "0.1*exp(t)"
    doc["grid"] = {"t": [0.2, 800], "x": [-0.9, 0.9, 3], "y": [0.0, 0.0, 1]}
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "field.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(r.endswith(",true") for r in rows[:3])
    assert all(r.startswith("800,") and r.endswith(",,,,,false")
               for r in rows[3:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_fields_give_invalid_rows(tmp_path):
    # The sn argument is not finite at x = 1.7e308 though the line
    # coordinate is: the row is invalid, not NaN cells marked true.
    doc = full_config(tmp_path)
    del doc["transforms"]
    doc["grid"] = {"t": [0.0], "x": [1.7e308, 1.7e308, 1], "y": [0.0, 0.0, 1]}
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "field.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [
        "0,1.6999999999999999e+308,0,,,,,false"]


def test_main_builds_no_parser_garbage(capsys):
    # An argparse parser holds reference cycles; main must not leave one
    # behind per call.
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            assert main(["families"]) == 0
        gc.collect()
        leaked = [o for o in gc.garbage
                  if isinstance(o, argparse.ArgumentParser)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []
