import json
import math

import numpy as np
import pytest

from dsexact import Variant, crosscheck, ellipk, evolve, family_c, gridio, \
    parse_timefn
from dsexact.cli import main


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


def sn_verify_config(tmp_path, out_name="report.json"):
    return write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "grid": {"t": [0.0], "x": [-0.9, 0.9, 7], "y": [-0.9, 0.9, 7]},
        "verify": {"h": 1e-3, "order": 4, "tol_rel": 1e-7},
        "out": str(tmp_path / out_name),
    })


def test_families_lists_all(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    for token in ("A ", "B ", "C ", "T1", "T2"):
        assert token in out


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


def test_flag_overrides_config(tmp_path):
    cfg = sn_verify_config(tmp_path)
    # an absurd tolerance forces failure even though the config would pass
    assert main(["verify", "--config", cfg, "--tol", "1e-30"]) == 1


def test_selftest_runs_clean(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("h", ["0", "-0.001", "nan", "inf"])
def test_verify_rejects_bad_step(tmp_path, capsys, h):
    cfg = sn_verify_config(tmp_path)
    assert main(["verify", "--config", cfg, "--h", h]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("flags", [["--dt", "0"], ["--dt", "-1"],
                                   ["--T", "-1"]])
def test_evolve_rejects_empty_horizon(tmp_path, capsys, flags):
    # These would run zero steps and report a vacuous pass.
    L = 4.0 * ellipk(0.5)
    cfg = write_config(tmp_path / "cfg.json", {
        "variant": {"eps1": -1, "eps2": 1},
        "family": "C",
        "params": {"kind": "sn", "m": 0.5, "ell": math.pi / 2.0,
                   "ell1": 0.0, "beta": "0"},
        "evolve": {"box": [L, L], "n": 16, "T": 0.01, "dt": 1e-3,
                   "tol": 1e-5},
        "out": str(tmp_path / "evolve.json"),
    })
    assert main(["evolve", "--config", cfg, *flags]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "evolve.json").exists()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_non_finite_report_is_strict_json(tmp_path):
    # At this amplitude the residuals overflow: the certificate fails and
    # the non-finite fields are written as null, not as NaN/Infinity.
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
    assert doc["order1"] is None and doc["order2"] is None
