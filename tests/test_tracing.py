"""The traced benchmark (bench/tracing.py) patches package names from outside
the package.  A name it patches that disappears from the package breaks the
traced runs; this test breaks with it."""

import math
from pathlib import Path

import numpy as np

from dsexact import Variant, cli, elliptic, eval_solution, evolve, family_c, \
    gridio, parse_timefn, residual, symmetry, timefn

BENCH = Path(__file__).resolve().parent.parent / "bench"
# Every namespace the tracer may patch.
NAMESPACES = (cli, elliptic, evolve, gridio, residual, symmetry, timefn,
              timefn.TimeFunction, elliptic.Profile, np.fft)


def test_tracer_patches_restores_and_wraps_solutions(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    before = [dict(vars(ns)) for ns in NAMESPACES]
    with Tracer().install():
        during = [dict(vars(ns)) for ns in NAMESPACES]
    after = [dict(vars(ns)) for ns in NAMESPACES]
    patched = {(ns.__name__, name)
               for ns, old, new in zip(NAMESPACES, before, during)
               for name in old if new[name] is not old[name]}
    assert {("dsexact.evolve", "step"), ("dsexact.evolve", "poisson_v"),
            ("dsexact.cli", "step"), ("dsexact.cli", "make_field"),
            ("TimeFunction", "jet")} <= patched
    for old, new, restored in zip(before, during, after):
        assert new.keys() == old.keys() == restored.keys()
        assert all(restored[name] is old[name] for name in old)

    tracer = Tracer()
    sol = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                   parse_timefn("0.1*t"))
    # x = pi/2 sits on a pole at t = 0, so some points are invalid.
    t, x, y = np.meshgrid([0.0, 0.4], [-1.0, 0.3, math.pi / 2.0],
                          [-0.5, 0.0, 0.5], indexing="ij")
    got = eval_solution(tracer.catalog(sol), t, x, y)
    want = eval_solution(sol, t, x, y)
    assert not want[2].all()
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    metrics = tracer.layer_metrics(0)
    assert metrics["catalog.valid_calls"] == 1
    assert metrics["catalog.u_calls"] == metrics["catalog.v_calls"] == 1


def test_write_path_counts_rows_and_bytes_in_chunks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    batches = []
    field_rows = gridio.field_rows

    def counting(*args):
        rows = field_rows(*args)
        batches.append(len(rows))
        return rows

    # Patched before the tracer, so the tracer wraps the counting version.
    monkeypatch.setattr(gridio, "field_rows", counting)
    sol = family_c(Variant(-1, 1), "tan", None, math.pi / 2.0, 0.0,
                   parse_timefn("0.1*t"))
    # x = pi/2, the tan pole at t = 0, is a grid column: invalid rows too.
    axes = gridio.GridSpec((0.0,), (0.0, math.pi, 71),
                           (-1.0, 1.0, 65)).axes()
    n = 71 * 65
    assert n > gridio._CHUNK and n % gridio._CHUNK
    path = tmp_path / "field.csv"
    tracer = Tracer()
    with tracer.install():
        gridio.write_field_csv(path, sol, *axes)
    assert tracer.counts["rows_written"] == n
    assert tracer.counts["bytes_written"] == path.stat().st_size
    assert sum(batches) == n and max(batches) <= gridio._CHUNK
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 + n and ",false\n" in text


def test_traced_profile_is_evaluated_once_per_call(monkeypatch):
    # u and v share one profile value within an eval_solution call; the
    # tracer's patch of Profile.value still sees that one call.
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    tracer = Tracer()
    sol = tracer.catalog(family_c(Variant(-1, 1), "sn", 0.7, 0.4, 0.0,
                                  parse_timefn("0.1*t")))
    with tracer.install():
        _, _, ok = eval_solution(sol, 0.3, np.linspace(-0.5, 0.5, 5), 0.2)
    assert ok.all()
    metrics = tracer.layer_metrics(0)
    assert metrics["catalog.valid_calls"] == 1
    assert metrics["catalog.u_calls"] == metrics["catalog.v_calls"] == 1
    assert metrics["elliptic.profile_calls"] == 1
    assert metrics["elliptic.jacobi_calls"] == 1
