import argparse
import ast
import gc
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dsexact import BlowupError, ConfigError, Variant, cli, compose, \
    crosscheck, ellipk, evolve, family_b, family_c, gridio, parse_timefn, \
    selftest, timefn, verify
from dsexact.cli import main
from dsexact.elliptic import PROFILE_KINDS

from conftest import scaled


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


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    # ``python -m dsexact`` goes through __main__.py, which no call of
    # ``main`` executes; runpy takes the path ``-m`` takes, in this process.
    monkeypatch.setattr(sys, "argv", ["dsexact", "families"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("dsexact", run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out == cli._FAMILIES_TEXT


def test_families_names_every_profile_kind(capsys):
    # The help text lists the kinds by hand; it must match the kind table.
    assert main(["families"]) == 0
    kinds = re.search(r'"kind": one of ([a-z|]+)', capsys.readouterr().out)
    assert tuple(kinds.group(1).split("|")) == PROFILE_KINDS


def test_families_and_readme_state_the_time_function_grammar(capsys):
    # The grammar is stated by hand in the help text, in README and in the
    # timefn docstring; each must name every function and the exponents.
    assert main(["families"]) == 0
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    sentence = r"Time functions use the grammar:.*?(?:\n\n|\Z)"
    stated = [re.search(sentence, text, re.S).group()
              for text in (capsys.readouterr().out, readme)]
    for text in stated + [timefn.__doc__]:
        for name in timefn._FUNCTIONS:
            assert re.search(rf"\b{name}\b", text), name
        assert "-64 to 64" in text


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
    # A true family B line at a tolerance no line meets: the failed verdict
    # exits 1 and still writes its report.
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": 1, "eps2": 1},
        "family": "B",
        "params": {"a": 1.0, "b": 1.0, "c": 0.5, "beta": "0.1*t"},
        "grid": {"t": [0.0], "x": [-0.9, 0.9, 5], "y": [-0.9, 0.9, 5]},
        "verify": {"tol_rel": 1e-30},
        "out": str(tmp_path / "bad.json"),
    })
    assert main(["verify", "--config", cfg]) == 1
    assert json.loads((tmp_path / "bad.json").read_text())["pass"] is False


def test_family_b_im_is_refused(tmp_path, capsys):
    # Im is forced by family B's existence condition; an override would be
    # a wrong line that only the oracle could catch.
    doc = full_config(tmp_path)
    doc.update(variant={"eps1": 1, "eps2": 1}, family="B",
               params={"a": 1.0, "b": 1.0, "c": 0.5, "im": 0.3})
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("ConfigError: /params/im: ")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("key", ["amplitude", "v_constant", "v_quad_coeff"])
def test_family_c_constant_overrides_are_refused(tmp_path, capsys, key):
    # An unread override would turn its failed verdict into a silent pass.
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": 0.4, "beta": "0",
                   key: 0.15},
        "grid": {"t": [0.0], "x": [-0.9, 0.9, 5], "y": [-0.9, 0.9, 5]},
        "out": str(tmp_path / "report.json"),
    })
    assert main(["verify", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"ConfigError: /params/{key}: ")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("family, params, key", [
    ("B", {"a": 1.0, "b": 1.0, "c": 0.5, "Im": 7.0}, "Im"),
    ("A", {"Im": "t", "c": 1.0, "beta": "t"}, "beta"),
    ("C", {"kind": "sn", "m": 0.5, "ell": 0.4, "Ampltude": 7}, "Ampltude"),
])
def test_a_params_key_the_family_does_not_take_is_refused(
        tmp_path, capsys, family, params, key):
    # Each ran with the key ignored: B's forced Im as an input, a parameter
    # of another family, a misspelt constant.
    doc = full_config(tmp_path)
    doc.update(variant={"eps1": 1 if family == "B" else -1, "eps2": 1},
               family=family, params=params)
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ConfigError: /params/{key}: family {family} ")
    keys = ", ".join(cli._FAMILIES[family][1])
    assert err.endswith("its constants are forced\n" if key == "Im"
                        else f"takes only {keys}\n")
    assert not (tmp_path / "out.json").exists()


def test_a_null_params_key_counts_as_absent(tmp_path):
    doc = full_config(tmp_path)
    doc["params"].update(x=None, amplitude=None)
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["verify", "--config", cfg]) == 0


def test_readme_names_the_params_table():
    # README's config reference lists each family's /params keys as the
    # table does, and the constants each family forces, which its solution
    # derives.
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md")
                      .read_text(encoding="utf-8").split())
    for family, (_, keys) in cli._FAMILIES.items():
        assert f"{family} " + ", ".join(f"`{k}`" for k in keys) in readme
    sols = [cli.build_solution(cfg) for cfg in (
        {"variant": {"eps1": -1, "eps2": 1}, "family": "A",
         "params": {"Im": "t", "c": 1.0}},
        {"variant": {"eps1": 1, "eps2": 1}, "family": "B",
         "params": {"a": 1.0, "b": 1.0, "c": 0.5}},
        {"variant": {"eps1": -1, "eps2": 1}, "family": "C",
         "params": {"kind": "sn", "m": 0.5, "ell": 0.4}})]
    assert [bool(sol.derived) for sol in sols] == [False, True, True]
    for sol in sols[1:]:
        *rest, last = [f"`{name}`" for name in sol.derived]
        named = f"{', '.join(rest)} and {last}" if rest else last
        assert f"family {sol.provenance['family']}'s {named}" in readme


def test_internal_error_exits_4_on_one_line(tmp_path, capsys, monkeypatch):
    # An exception that is not a DSError is a fault of the program, not a
    # failed verdict: it was a traceback that exited 1.
    def broken(cfg, args):
        raise RuntimeError("stencil row out of step")

    _, helptext, flags = cli._COMMANDS["verify"]
    monkeypatch.setitem(cli._COMMANDS, "verify", (broken, helptext, flags))
    cfg = write_config(tmp_path / "cfg.json", full_config(tmp_path))
    assert main(["verify", "--config", cfg]) == 4
    captured = capsys.readouterr()
    assert captured.err == "RuntimeError: stencil row out of step\n"
    assert "Traceback" not in captured.out + captured.err


def test_unknown_family_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": 1, "eps2": 1}, "family": "D",
        "grid": {"t": [0.0], "x": [0, 1, 2], "y": [0, 1, 2]}})
    assert main(["verify", "--config", cfg]) == 2
    assert "/family" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, reason", [
    pytest.param(
        "verify", {"variant": {"eps1": -1, "eps2": 1}, "family": "B",
                   "params": {"a": 1.0, "b": 1.0, "c": 0.0, "beta": "0"}},
        "family B requires eps1 = +1", id="verify-family-B-eps1"),
    pytest.param(
        "eval", {"variant": {"eps1": -1, "eps2": -1}, "family": "C",
                 "params": {"kind": "tan", "ell": 0.3, "ell1": 0.0,
                            "beta": "0"}},
        "amplitude^2 = ", id="eval-no-real-amplitude"),
    pytest.param(
        "evolve", {"variant": {"eps1": 1, "eps2": 1}, "family": "C",
                   "params": {"kind": "sn", "m": 0.5, "ell": 0.4,
                              "ell1": 0.0, "beta": "0"},
                   "evolve": {"box": [4.0, 4.0], "n": 16, "T": 0.01,
                              "dt": 1e-3, "tol": 1e-5}},
        "spectral inversion of the mean-flow constraint needs eps1=-1",
        id="evolve-hyperbolic"),
])
def test_input_outside_the_contract_exits_2(tmp_path, capsys, command, doc,
                                            reason):
    # Inputs no family or operation covers are rejected like malformed
    # ones: exit 2, no output written; 1 is left to verification failures.
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "cfg.json", {
        **doc, "grid": {"t": [0.2], "x": [-0.5, 0.5, 3], "y": [0, 1, 2]},
        "out": str(out)})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"ConfigError: {reason}")
    assert not out.exists()


ZERO = parse_timefn("0")


# Each refusal of an input outside a family's contract, by its reason.
@pytest.mark.parametrize("build, reason", [
    pytest.param(lambda: family_b(Variant(-1, 1), 1.0, 1.0, 0.0, ZERO),
                 r"family B requires eps1 = \+1", id="family-B-eps1"),
    pytest.param(lambda: family_b(Variant(1, 1), 0.0, 1.0, 0.0, ZERO),
                 r"family B needs a\*b != 0", id="family-B-a-b"),
    pytest.param(lambda: family_b(Variant(1, -1), 1.0, 1.0, 0.0, ZERO),
                 r"family B existence condition requires eps2 = \+1",
                 id="family-B-eps2"),
    pytest.param(lambda: family_c(Variant(-1, 1), "tan", None,
                                  math.pi / 4.0, 0.0, ZERO),
                 r"cubic coefficient eps2\+kappa vanishes",
                 id="family-C-degenerate"),
    pytest.param(lambda: family_c(Variant(-1, -1), "tan", None, 0.3, 0.0,
                                  ZERO),
                 r"amplitude\^2 = .* < 0 for kind 'tan'",
                 id="family-C-no-real-amplitude"),
])
def test_contract_errors_are_config_errors(build, reason):
    with pytest.raises(ConfigError, match=f"^{reason}") as err:
        build()
    assert err.value.exit_code == 2


def test_axis_count_bound():
    # Reading a grid allocates nothing, so the bound itself is checked here.
    top = gridio._MAX_AXIS
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
    # A transformed solution is verified by verify, which reads the chain.
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "transforms": [
            {"kind": "T1", "alpha": "0.3*sin(t)", "beta": "0.1*t",
             "gamma": "t^2"},
            {"kind": "T2", "b": 1.5}],
        "grid": {"t": [0.2], "x": [-0.8, 0.8, 5], "y": [-0.8, 0.8, 5]},
        "out": str(tmp_path / "tr.json"),
    })
    assert main(["verify", "--config", cfg]) == 0
    assert json.loads((tmp_path / "tr.json").read_text())["pass"] is True


def test_transform_requires_chain(tmp_path, capsys):
    cfg = sn_verify_config(tmp_path)
    assert main(["transform", "--config", cfg]) == 2
    assert "/transforms" in capsys.readouterr().err


# T1 then T2: alpha'' and beta'' are nonzero at t = 0.2, and b != 1.
CHAIN = [{"kind": "T1", "alpha": "0.3*sin(t)", "beta": "0.1*t^2",
          "gamma": "t^2"}, {"kind": "T2", "b": 1.5}]


@pytest.mark.parametrize("command", ["eval", "verify"])
def test_eval_and_verify_act_on_the_chain(tmp_path, command):
    # A config names one solution, its base and then its chain, whichever
    # command reads it: each writes what the library writes for the
    # composed chain.  transform is eval of a chain, its "then" "eval" or
    # absent.
    doc = full_config(tmp_path)
    doc.update(transforms=CHAIN,
               grid={"t": [0.2], "x": [-0.8, 0.8, 5], "y": [-0.8, 0.8, 5]})

    def run(argv, name):
        cfg = write_config(tmp_path / f"{name}.json", doc)
        out = tmp_path / f"{name}.out"
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
        return out.read_bytes()

    chain = run([command], "chain")
    sol = compose(cli.build_transforms(doc), cli.build_solution(doc))
    grid, want = cli.build_grid(doc), tmp_path / "want.out"
    if command == "eval":
        gridio.write_field_csv(want, sol, *grid.axes())
        assert chain == run(["transform"], "transform")
        doc["then"] = "eval"
        assert chain == run(["transform"], "then")
    else:
        report = verify(sol, grid.points(), h=1e-3, tol_rel=1e-7)
        gridio.write_json_report(want, report.to_json_dict())
    assert chain == want.read_bytes()
    del doc["transforms"]
    assert run([command], "base") != chain


def test_evolve_acts_on_the_chain(tmp_path):
    # One wave of boost per box, then b = 2 on a box twice as long: the
    # chain is periodic, and evolve cross-checks the chain, not its base.
    doc = full_config(tmp_path)
    L = doc["evolve"]["box"][0]
    doc["transforms"] = [{"kind": "T1", "alpha": f"{2.0 * math.pi / L!r}*t",
                          "beta": "0", "gamma": "0"}, {"kind": "T2", "b": 2.0}]
    doc["evolve"]["box"] = [2.0 * L, 2.0 * L]
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["evolve", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    sol = compose(cli.build_transforms(doc), cli.build_solution(doc))
    want, _ = crosscheck(sol, 2.0 * L, 2.0 * L, 16, 0.01, 1e-3, tol=1e-5)
    assert {k: report[k] for k in want} == json.loads(json.dumps(want))
    base, _ = crosscheck(cli.build_solution(doc), 2.0 * L, 2.0 * L, 16,
                         0.01, 1e-3)
    assert base["max_dev"] != want["max_dev"]


def test_evolve_report_and_snapshot(tmp_path):
    L = 4.0 * ellipk(0.5)
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "evolve": {"box": [L, L], "n": 32, "T": 0.02, "dt": 1e-3,
                   "tol": 1e-5, "snapshot_out": str(tmp_path / "snap.csv")},
        "out": str(tmp_path / "evolve.json"),
    })
    assert main(["evolve", "--config", cfg]) == 0
    doc = json.loads((tmp_path / "evolve.json").read_text())
    assert doc["pass"] is True and doc["n_steps"] == 20
    snap = (tmp_path / "snap.csv").read_text().splitlines()
    assert snap[0] == "t,x,y,re_u,im_u,abs_u,v,valid"
    assert len(snap) == 1 + 32 * 32


def test_eval_and_evolve_name_what_they_wrote(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", full_config(tmp_path))
    out = tmp_path / "field.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    out = tmp_path / "evolve.json"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert capsys.readouterr().out == (
        f"pass  max_dev={doc['max_dev']:.3e} l2_dev={doc['l2_dev']:.3e} "
        f"mass_drift={doc['mass_drift']:.3e} -> {out}\n")


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
               "evolve": {"box": [L, L], "n": 16, "T": 0.02, "dt": 1e-3,
                          "tol": 1e-5},
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
    # The first certificate (a catalog row) fails in the oracle that the
    # verify command and selftest share; the rest are genuine.
    reports = []
    verify = cli.verify

    def failing_once(sol, points, **kwargs):
        reports.append(verify(sol, points, **kwargs))
        if len(reports) == 1:
            return replace(reports[0], passed=False)
        return reports[-1]

    monkeypatch.setattr(cli, "verify", failing_once)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    name, _, cfg = selftest.CERTIFICATES["catalog certificates"][0]
    line = re.search(r"^FAIL catalog certificates: (.*)$", out, re.M)[1]
    assert line.startswith(f"{name}: rms1=")
    assert json.loads(line.partition("; verify config ")[2]) == cfg
    assert "1 check(s) failed" in out


def test_a_failed_certificate_prints_a_config_that_fails_again(
        tmp_path, capsys, monkeypatch):
    # A row at a tolerance no line meets: its FAIL line holds the config,
    # and dsexact verify of that config fails as well.
    table = dict(selftest.CERTIFICATES)
    name, command, cfg = table["catalog certificates"][0]
    table["catalog certificates"] = [
        (name, command, {**cfg, "verify": {"tol_rel": 1e-30}})]
    monkeypatch.setattr(selftest, "CERTIFICATES", table)
    assert main(["selftest"]) == 1
    line = re.search(r"^FAIL catalog certificates: .*$",
                     capsys.readouterr().out, re.M)[0]
    path = write_config(tmp_path / "cfg.json",
                        json.loads(line.partition("; verify config ")[2]))
    out = str(tmp_path / "report.json")
    assert main(["verify", "--config", path, "--out", out]) == 1
    assert json.loads(Path(out).read_text())["pass"] is False


@pytest.mark.parametrize("command, cfg", [
    pytest.param(command, cfg, id=name)
    for rows in selftest.CERTIFICATES.values()
    for name, command, cfg in rows])
def test_every_certificate_passes_through_its_command(tmp_path, capsys,
                                                      command, cfg):
    # A row's config, written to a file, is a run of dsexact that passes.
    out = tmp_path / "report.json"
    path = write_config(tmp_path / "cfg.json", {**cfg, "out": str(out)})
    assert main([command, "--config", path]) == 0
    assert json.loads(out.read_text())["pass"] is True


def _module_imports(module):
    """The modules that ``module`` imports from at its top level."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return {node.module or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_the_cli_selftest_import_is_one_way():
    # selftest reads its table with cli's readers; cli imports selftest
    # only inside the selftest command.
    assert "cli" in _module_imports(selftest)
    assert "selftest" not in _module_imports(cli)


def test_default_matrix_keeps_its_names_in_order():
    assert [e.name for e in selftest.default_verification_matrix()] == [
        "A Im=t eps1=+1 eps2=+1", "A Im=t eps1=-1 eps2=+1",
        "A Im=t eps1=+1 eps2=-1", "A Im=t eps1=-1 eps2=-1",
        "A Im=ln(t) eps1=+1 eps2=+1", "A Im=ln(t) eps1=-1 eps2=-1",
        "A Im=t+0.1*t^2 eps1=-1 eps2=+1", "A Im=t+0.1*t^2 eps1=+1 eps2=-1",
        "B a=1 b=1", "B a=2 b=-1",
        "C rational eps1=+1 eps2=+1 ell=0.3",
        "C rational eps1=-1 eps2=+1 ell=0.4",
        "C coth eps1=+1 eps2=+1 ell=0.3", "C coth eps1=-1 eps2=+1 ell=0.4",
        "C csch eps1=+1 eps2=+1 ell=0.3", "C csch eps1=-1 eps2=+1 ell=0.4",
        "C tan eps1=+1 eps2=+1 ell=0.3", "C tan eps1=-1 eps2=+1 ell=0.4",
        "C sec eps1=+1 eps2=+1 ell=0.3", "C sec eps1=-1 eps2=+1 ell=0.4",
        "C sn m=0.3 eps1=+1 eps2=+1 ell=0.3",
        "C sn m=0.3 eps1=-1 eps2=+1 ell=0.4",
        "C cn m=0.3 eps1=+1 eps2=+1 ell=1",
        "C cn m=0.3 eps1=-1 eps2=-1 ell=0.2",
        "C dn m=0.3 eps1=+1 eps2=+1 ell=1",
        "C dn m=0.3 eps1=-1 eps2=-1 ell=0.2",
        "C sn m=0.7 eps1=+1 eps2=+1 ell=0.3",
        "C sn m=0.7 eps1=-1 eps2=+1 ell=0.4",
        "C cn m=0.7 eps1=+1 eps2=+1 ell=1",
        "C cn m=0.7 eps1=-1 eps2=-1 ell=0.2",
        "C dn m=0.7 eps1=+1 eps2=+1 ell=1",
        "C dn m=0.7 eps1=-1 eps2=-1 ell=0.2"]


# The ids of the rows whose expected text changed keep the old text, so
# that each test keeps its name.
@pytest.mark.parametrize("report, problem", [
    pytest.param({"max_dev": 2e-5, "mass_drift": 0.0, "mass_initial": 1.0},
                 "max_dev=2e-05 tol=1e-05 mass_drift=0 mass=1",
                 id="report0-max_dev 2e-05 > 1e-05"),
    pytest.param({"max_dev": 1e-5, "mass_drift": 1e-10, "mass_initial": 1.0},
                 None, id="report2-None"),
])
def test_selftest_crosscheck_gates(monkeypatch, report, problem):
    # The verdict is the report's "pass", which crosscheck decides from the
    # tol of the row's config, read as dsexact evolve reads it.
    def fake(*args, tol):
        return {**report, "tol": tol, "pass": report["max_dev"] <= tol}, None

    monkeypatch.setattr(cli, "crosscheck", fake)
    [(_, command, cfg)] = selftest.CERTIFICATES["dynamical cross-check"]
    assert selftest._problem(command, cfg) == problem


def test_selftest_reports_an_error_as_a_failure(capsys, monkeypatch):
    def blowup(*args, **kwargs):
        raise BlowupError("field blew up")

    monkeypatch.setattr(cli, "crosscheck", blowup)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL dynamical cross-check: oblique C sn: BlowupError: field " \
        "blew up; evolve config {" in out
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
    # A T or dt outside its own range is named as crosscheck's argument; a
    # step count that rounds to 0 or overflows names both.
    named = {("dt", 0.0): "dt: expected a real number >= 5e-324, got 0.0",
             ("dt", -1.0): "dt: expected a real number >= 5e-324, got -1.0",
             ("T", -1.0): "t_final: expected a real number >= 0.0, got -1.0",
             }.get((key, value), "T=")
    assert "ConfigError" in err and named in err
    assert named != "T=" or "dt=" in err
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
        "evolve": {"box": [L, L], "n": 16, "T": 1e300, "dt": 1e-3,
                   "tol": 1e-5},
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
        "family": "A",
        "params": {"Im": "t", "c": 1e120},
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
    # A time function is a string; the error names its pointer once.
    ("verify", "/params/beta", {"expr": "t"}, [], "/params/beta"),
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
                 "/evolve/n: expected an integer from 2 to 2048, got 1",
                 id="evolve-n-below-two"),
    ("verify", "/verify/tol_rel", -1.0, [], "/verify/tol_rel: expected"),
    # The ids of the rows whose expected text changed keep the old text, so
    # that each test keeps its name.
    pytest.param("verify", "/verify/tol_rel", "1e-7", [],
                 "/verify/tol_rel: expected a real number >= 0.0, got '1e-7'",
                 id="verify-/verify/tol_rel-1e-7-flags30-"
                    "/verify/tol_rel: expected a finite number"),
    ("evolve", "/evolve/tol", -1.0, [], "/evolve/tol: expected"),
    pytest.param("evolve", "/evolve/T", math.nan, [],
                 "/evolve/T: expected a real number, got nan",
                 id="evolve-/evolve/T-nan-flags32-"
                    "/evolve/T: expected a finite"),
    ("verify", "/grid/x", [-0.9, 0.9], [], "/grid/x: expected a list of 3"),
    ("transform", "/transforms", [], [], "/transforms: expected a nonempty"),
    ("verify", "/params/beta", 3, [], "/params/beta: expected a string"),
    ("verify", "/params/beta", ["t"], [], "/params/beta: expected a string"),
    # The smallest negative double is still below 0.
    ("verify", "/verify/tol_rel", -5e-324, [], "/verify/tol_rel: expected"),
    pytest.param("verify", "/verify/h", -1e-3, [],
                 "h: expected a real number >= 3.1434555694052576e-162, "
                 "got -0.001", id="verify-/verify/h--0.001-flags38-h=-0.001"),
    pytest.param("evolve", "/evolve/dt", -1e-3, [],
                 "dt: expected a real number >= 5e-324, got -0.001",
                 id="evolve-/evolve/dt--0.001-flags39-dt=-0.001"),
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
                 f"/params/ell: expected a real number, got {10 ** 400!r}",
                 id="verify-1e400"),
    # The step lx / 16 rounded to 0 and fftfreq divided by it.
    ("evolve", "/evolve/box/0", 5e-324, [], "lx=5e-324"),
    pytest.param("transform", "/transforms/0/b", 0.0, [],
                 "b: expected a nonzero real number, got 0.0",
                 id="transform-/transforms/0/b-0.0-flags53-b=0.0"),
    # An exponent is one number token of whole value.
    ("verify", "/params/beta", "t^0.5", [], "/params/beta"),
    ("verify", "/params/beta", "2^3^2", [], "/params/beta"),
    # Fourth order is the one stencil order.
    ("verify", "/verify/order", 2, [], "/verify/order"),
    ("verify", "/verify/order", 6, [], "/verify/order"),
    # An empty path is a path that cannot be opened.
    ("evolve", "/evolve/snapshot_out", "", [], "cannot write ''"),
    # A number past the double range was an infinite constant: every point
    # invalid, so eval wrote all rows valid=false and verify had no sample.
    ("verify", "/params/beta", "1e400*t", [],
     "/params/beta: number past the double range at position 0"),
    ("eval", "/params/beta", "1e400*t", [], "/params/beta"),
    # A chain is verified by verify; transform only samples it.
    ("transform", "/then", "verify", [], "/then"),
    # full_config's m = 0.5 stays: a kind with no modulus refuses it.
    ("verify", "/params/kind", "tan", [], "/params/m"),
    # A cross-check always decides a verdict, so it needs its tolerance.
    ("evolve", "/evolve/tol", None, [], "/evolve/tol"),
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
    assert err.count(named.format(tmp=tmp_path)) == 1
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


@pytest.mark.parametrize("command", ["verify"])
def test_verify_bounds_the_whole_grid_before_allocating(tmp_path, capsys,
                                                        monkeypatch, command):
    def refuse(self, seed=None):
        raise AssertionError("points() called")

    monkeypatch.setattr(gridio.GridSpec, "points", refuse)
    doc = full_config(tmp_path)
    doc["grid"]["x"][2] = doc["grid"]["y"][2] = gridio._MAX_AXIS
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ConfigError: /grid: ")
    assert f"{2 ** 40} sample points" in err


def test_whole_grid_bound_is_inclusive(tmp_path, monkeypatch):
    doc = full_config(tmp_path)  # 25 points
    cfg = write_config(tmp_path / "cfg.json", doc)
    monkeypatch.setattr(cli, "MAX_POINTS", 25)
    assert main(["verify", "--config", cfg]) == 0
    monkeypatch.setattr(cli, "MAX_POINTS", 24)
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


@pytest.mark.parametrize("tol, status", [(1e-5, 0), (1e-12, 1)])
def test_evolve_report_is_the_crosscheck_report(tmp_path, tol, status):
    # crosscheck writes the verdict; the command adds the snapshot path.
    doc = full_config(tmp_path)
    doc["evolve"]["tol"] = tol
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["evolve", "--config", cfg]) == status
    report = json.loads((tmp_path / "out.json").read_text())
    assert report.pop("snapshot") == doc["evolve"]["snapshot_out"]
    want, _ = crosscheck(cli._solution(doc), *doc["evolve"]["box"], 16, 0.01,
                         1e-3, tol=tol)
    assert report == json.loads(json.dumps(want))
    assert want["pass"] is (status == 0)


def test_family_b_mutant_fails_verification(tmp_path, capsys, monkeypatch):
    # The forced constants pass; a family B line with its amplitude off by
    # 1% breaks the mean-flow constraint, which the oracle reports as a
    # failure, not a config error.
    doc = full_config(tmp_path)
    doc.update(variant={"eps1": 1, "eps2": 1}, family="B",
               params={"a": 1.0, "b": 1.0, "c": 0.5, "beta": "0.1*t"})
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["verify", "--config", cfg]) == 0
    build = cli.build_solution
    monkeypatch.setattr(cli, "build_solution",
                        lambda cfg: scaled(build(cfg), 1.01))
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


@pytest.mark.parametrize("bad", [
    b"\xff", b"1" * 5000, b"[" * 200_000 + b"]" * 200_000,
    b'{"a":' * 200_000 + b"1" + b"}" * 200_000],
    ids=["latin-1", "digits", "deep-array", "deep-object"])
def test_config_json_cannot_read_is_config_error(tmp_path, capsys, bad):
    # Bytes json.dumps cannot write: a config that is not UTF-8, an int
    # literal past Python's 4,300-digit limit on str -> int, and nesting
    # past the recursion limit.  Each was a traceback (UnicodeDecodeError,
    # ValueError) that exited 1, or a RecursionError that exited 4.
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


@pytest.mark.parametrize("command, computation", [("verify", "verify"),
                                                  ("evolve", "crosscheck")])
def test_output_path_is_checked_before_computing(tmp_path, capsys,
                                                 monkeypatch, command,
                                                 computation):
    calls = []
    compute = getattr(cli, computation)

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(cli, computation, counting)
    cfg = write_config(tmp_path / "cfg.json", full_config(tmp_path))
    out = tmp_path / "missing" / "report.json"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command, computation, pointer, target", [
    ("verify", "verify", "/out", "folder"),
    ("evolve", "crosscheck", "/out", "folder"),
    ("evolve", "crosscheck", "/evolve/snapshot_out", "folder"),
    ("evolve", "crosscheck", "/evolve/snapshot_out", "missing/snap.csv"),
])
def test_outputs_are_refused_before_computing(tmp_path, capsys, monkeypatch,
                                              command, computation, pointer,
                                              target):
    # A folder, or a file in a missing folder, at either output of evolve
    # is refused before the cross-check runs, and nothing is written: the
    # other output, which could be written, keeps its old bytes.
    calls = []
    monkeypatch.setattr(cli, computation, lambda *a, **k: calls.append(a))
    (tmp_path / "folder").mkdir()
    doc = full_config(tmp_path)
    set_pointer(doc, pointer, str(tmp_path / target))
    kept = [Path(cli._get(doc, key)) for key in ("/out",
                                                 "/evolve/snapshot_out")
            if key != pointer]
    for path in kept:
        path.write_text("old", encoding="utf-8")
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ConfigError: cannot write "
                          f"{str(tmp_path / target)!r}: ")
    assert calls == []
    assert sorted(tmp_path.iterdir()) == sorted(
        [tmp_path / "cfg.json", tmp_path / "folder", *kept])
    assert [path.read_text(encoding="utf-8") for path in kept] == \
        ["old"] * len(kept)
    assert list((tmp_path / "folder").iterdir()) == []



@pytest.mark.parametrize("then, status", [("eval", 0), ("verify", 2)],
                         ids=["eval", "verify"])
def test_transform_reads_config_once(tmp_path, monkeypatch, then, status):
    # One read, whether transform samples the chain or refuses "then":
    # "verify".
    doc = full_config(tmp_path)
    doc["then"] = then
    cfg = write_config(tmp_path / "cfg.json", doc)
    calls = []
    load_config = cli.load_config

    def counting(path):
        calls.append(path)
        return load_config(path)

    monkeypatch.setattr(cli, "load_config", counting)
    assert main(["transform", "--config", cfg]) == status
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


def test_readme_config_schema_runs(tmp_path, monkeypatch):
    # README's schema example, its // comments stripped, is a working
    # config for every command: its evolve box is a period of the chain, as
    # README's comment there says.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = re.search(r"### Config schema\n\n```jsonc\n(.*?)```", readme,
                      re.S).group(1)
    doc = json.loads(re.sub(r"//.*", "", block))
    cfg = write_config(tmp_path / "cfg.json", doc)
    monkeypatch.chdir(tmp_path)
    for command in ("eval", "verify", "transform", "evolve"):
        assert main([command, "--config", cfg]) == 0, command


def run_cli(argv, stdout):
    """``python -m dsexact argv`` in a new process with ``stdout`` as its
    stdout; the CompletedProcess, stderr as text."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path
           else src}
    return subprocess.run([sys.executable, "-m", "dsexact", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout")
@pytest.mark.parametrize("command", ["verify", "evolve"])
def test_out_dev_stdout_into_a_file(tmp_path, command):
    # The report went through a second descriptor from offset 0, and the
    # summary line then overwrote its start.
    cfg = write_config(tmp_path / "cfg.json", full_config(tmp_path))
    assert main([command, "--config", cfg]) == 0
    report = (tmp_path / "out.json").read_text(encoding="utf-8")
    with open(tmp_path / "stdout.txt", "wb") as fh:
        done = run_cli([command, "--config", cfg, "--out", "/dev/stdout"], fh)
    assert (done.returncode, done.stderr) == (0, "")
    text = (tmp_path / "stdout.txt").read_text(encoding="utf-8")
    assert text.startswith(report)
    assert re.fullmatch(r"pass  [^\n]* -> /dev/stdout\n", text[len(report):])


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout")
def test_a_closed_stdout_pipe_exits_1_on_one_line(tmp_path):
    # It was a BrokenPipeError traceback that exited 4.
    cfg = write_config(tmp_path / "cfg.json", full_config(tmp_path))
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_cli(["verify", "--config", cfg, "--out", "/dev/stdout"],
                       write)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr.startswith("BrokenPipeError: ")
    assert done.stderr.count("\n") == 1  # no traceback, no "Exception ignored"
